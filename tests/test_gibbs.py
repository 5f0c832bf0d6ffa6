"""The counter-keyed sampler: bit-exactness, marginal laws, couplings, oracles."""

import math

import numpy as np
import pytest
from numpy.random import Philox
from scipy import stats

from eulergibbs.gibbs import (
    GibbsParams,
    RngStream,
    _philox4x64,
    _to_uniform,
    coupled_dyadic_matrices,
    coupled_dyadic_pair,
    field_covariance,
    log_density_ratio,
    pack_mode,
    sample,
    sample_coeff_matrix,
    standard_complex_normals,
    variance_oracle,
)
from eulergibbs.spectral import (
    SpectralField,
    evaluate,
    local_distance,
    mode_box,
)

TWO_PI = 2.0 * math.pi


class TestPhiloxCore:
    def test_bit_exact_against_numpy_reference(self):
        # numpy's generator emits its first block at counter + 1, so compare
        # our blocks at incremented counters against two raw blocks
        seeder = np.random.default_rng(7)
        for _ in range(25):
            key = seeder.integers(0, 2**64, size=2, dtype=np.uint64)
            counter = seeder.integers(0, 2**62, size=4, dtype=np.uint64)
            ref = Philox(counter=counter, key=key).random_raw(8)
            for block in range(2):
                words = _philox4x64(
                    counter[0] + np.uint64(block + 1),
                    counter[1],
                    counter[2],
                    counter[3],
                    key[0],
                    key[1],
                )
                got = np.array([w[0] for w in words], dtype=np.uint64)
                assert np.array_equal(got, ref[4 * block : 4 * block + 4])

    def test_uniforms_strictly_inside_unit_interval(self):
        lo = _to_uniform(np.uint64(0))
        hi = _to_uniform(np.uint64(0xFFFFFFFFFFFFFFFF))
        assert 0.0 < lo < hi < 1.0

    def test_pack_mode_injective_on_window(self):
        ks = np.arange(-40, 41)
        a, b = np.meshgrid(ks, ks, indexing="ij")
        packed = pack_mode(a.ravel(), b.ravel())
        assert np.unique(packed).size == packed.size

    def test_broadcast_shapes(self):
        stream = RngStream(1, 2)
        z = standard_complex_normals(
            stream, np.arange(5, dtype=np.uint64)[:, None], np.arange(3)[None, :], np.zeros(3, int)[None, :]
        )
        assert z.shape == (5, 3)


class TestVarianceOracle:
    def test_examples(self):
        p = GibbsParams(gamma=2.0, period=TWO_PI, cutoff=(4, 4))
        assert variance_oracle((1, 0), p) == pytest.approx(1.0, rel=1e-14)
        assert variance_oracle((2, 0), p) == pytest.approx(1.0 / 16.0, rel=1e-14)

    def test_quartic_decay(self):
        p = GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(4, 4))
        assert variance_oracle((8, 0), p) < variance_oracle((4, 0), p) < variance_oracle((1, 0), p)
        assert variance_oracle((8, 0), p) == pytest.approx(
            variance_oracle((1, 0), p) / 8.0**4, rel=1e-12
        )

    def test_zero_mode_rejected(self):
        p = GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(2, 2))
        with pytest.raises(ValueError):
            variance_oracle((0, 0), p)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GibbsParams(gamma=0.0, period=TWO_PI, cutoff=(2, 2))
        with pytest.raises(ValueError):
            GibbsParams(gamma=1.0, period=-1.0, cutoff=(2, 2))
        with pytest.raises(ValueError):
            GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(0, 2))


class TestSampler:
    def test_bitwise_reproducible(self):
        p = GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(4, 4))
        stream = RngStream(123456789, 7)
        a = sample(p, stream, index=3)
        b = sample(p, stream, index=3)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = sample(p, stream.substream(8), index=3)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_matrix_rows_match_single_samples(self):
        p = GibbsParams(gamma=2.0, period=4.0, cutoff=(3, 3))
        stream = RngStream(42, 1)
        matrix = sample_coeff_matrix(p, stream, 5, start=10)
        for i in range(5):
            assert np.array_equal(matrix[i], sample(p, stream, index=10 + i).coeffs)

    def test_draws_independent_of_cutoff_box(self):
        # mode-keyed counters: a mode draws the same coefficient in any box
        stream = RngStream(2024, 3)
        small = sample(GibbsParams(1.0, TWO_PI, (2, 2)), stream, index=5)
        large = sample(GibbsParams(1.0, TWO_PI, (4, 4)), stream, index=5)
        for k in mode_box((2, 2)):
            assert small.coeff(k) == large.coeff(k)

    def test_per_mode_gaussian_marginals(self):
        p = GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(3, 3))
        stream = RngStream(99, 0)
        draws = sample_coeff_matrix(p, stream, 10_000)
        failures = 0
        for i, k in enumerate(mode_box(p.cutoff)):
            scale = math.sqrt(variance_oracle(k, p) / 2.0)
            for component in (draws[:, i].real, draws[:, i].imag):
                p_value = stats.kstest(component / scale, "norm").pvalue
                failures += p_value < 0.01
        total = 2 * len(mode_box(p.cutoff))
        assert failures <= 0.05 * total

    def test_moments(self):
        p = GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(2, 2))
        stream = RngStream(555, 0)
        n = 20_000
        draws = sample_coeff_matrix(p, stream, n)
        for i, k in enumerate(mode_box(p.cutoff)):
            var = variance_oracle(k, p)
            column = draws[:, i]
            # mean within 4 standard errors per component
            se = math.sqrt(var / 2.0 / n)
            assert abs(column.real.mean()) <= 4.0 * se
            assert abs(column.imag.mean()) <= 4.0 * se
            abs_sq = np.abs(column) ** 2
            assert abs_sq.mean() == pytest.approx(var, rel=0.05)
            ratio = (abs_sq**2).mean() / abs_sq.mean() ** 2
            assert ratio == pytest.approx(2.0, rel=0.06)


class TestLogDensityRatio:
    def test_identity(self):
        p = GibbsParams(gamma=3.0, period=TWO_PI, cutoff=(2, 2))
        f = sample(p, RngStream(1), 0)
        assert log_density_ratio(f, f, p) == 0.0

    def test_unit_enstrophy_example(self):
        p = GibbsParams(gamma=2.0, period=TWO_PI, cutoff=(2, 2))
        f = SpectralField.from_modes(TWO_PI, (2, 2), {(1, 0): 1.0})
        g = SpectralField.zeros(TWO_PI, (2, 2))
        assert log_density_ratio(f, g, p) == pytest.approx(-1.0, rel=1e-14)
        assert log_density_ratio(g, f, p) == pytest.approx(1.0, rel=1e-14)

    def test_mismatch_rejected(self):
        p = GibbsParams(gamma=2.0, period=TWO_PI, cutoff=(2, 2))
        f = SpectralField.zeros(TWO_PI, (2, 2))
        g = SpectralField.zeros(TWO_PI, (3, 3))
        with pytest.raises(ValueError):
            log_density_ratio(f, g, p)
        h = SpectralField.zeros(4.0, (2, 2))
        with pytest.raises(ValueError):
            log_density_ratio(h, h, p)


class TestFieldCovariance:
    def test_diagonal_value(self):
        p = GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(3, 3))
        expected = sum(
            variance_oracle(k, p) * 2.0 / p.period**2 for k in mode_box(p.cutoff)
        )
        assert field_covariance(p, (0.3, 0.4), (0.3, 0.4)) == pytest.approx(expected, rel=1e-12)

    def test_translation_invariance(self):
        p = GibbsParams(gamma=2.0, period=4.0, cutoff=(3, 3))
        a = field_covariance(p, (0.1, 0.2), (1.0, 3.1))
        b = field_covariance(p, (0.6, 1.2), (1.5, 4.1))
        assert a == pytest.approx(b, rel=1e-10)

    def test_empirical_match(self):
        p = GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(3, 3))
        stream = RngStream(31337, 0)
        n = 10_000
        coeffs = sample_coeff_matrix(p, stream, n)
        pairs = [
            ((0.0, 0.0), (0.0, 0.0)),
            ((0.5, 1.0), (0.5, 1.0)),
            ((0.0, 0.0), (1.0, 0.0)),
            ((0.3, 2.0), (2.0, 0.7)),
            ((1.0, 1.0), (4.0, 5.0)),
        ]
        template = SpectralField.zeros(p.period, p.cutoff)
        for x, y in pairs:
            vx = np.array(
                [evaluate(template.with_coeffs(row), x) for row in coeffs[:500]]
            )
            # vectorized evaluation for the full ensemble via the phase matrix
            vx, vy = _evaluate_many(coeffs, p, x), _evaluate_many(coeffs, p, y)
            products = vx * vy
            se = products.std(ddof=1) / math.sqrt(n)
            assert abs(products.mean() - field_covariance(p, x, y)) <= 4.0 * se


def _evaluate_many(coeffs: np.ndarray, p: GibbsParams, x) -> np.ndarray:
    from eulergibbs.spectral import mode_arrays

    k1, k2 = mode_arrays(p.cutoff)
    angle = (TWO_PI / p.period) * (k1 * x[0] + k2 * x[1])
    phases = np.exp(1j * angle)
    return (2.0 / p.period) * (coeffs @ phases).real


class TestCoupledDyadic:
    def test_degenerate_identity(self):
        p = GibbsParams(gamma=1.0, period=2.0**3, cutoff=(8, 8))
        coarse, fine = coupled_dyadic_pair(3, 3, p, RngStream(5, 1), index=2)
        assert coarse.period == fine.period
        assert np.array_equal(coarse.coeffs, fine.coeffs)

    def test_invalid_refinement_rejected(self):
        p = GibbsParams(gamma=1.0, period=2.0**3, cutoff=(8, 8))
        with pytest.raises(ValueError):
            coupled_dyadic_pair(3, 2, p, RngStream(5, 1))

    def test_base_period_must_match_level(self):
        p = GibbsParams(gamma=1.0, period=5.0, cutoff=(4, 4))
        with pytest.raises(ValueError):
            coupled_dyadic_pair(2, 3, p, RngStream(5, 1))

    def test_fine_level_geometry(self):
        p = GibbsParams(gamma=1.0, period=4.0, cutoff=(4, 4))
        coarse, fine = coupled_dyadic_pair(2, 4, p, RngStream(5, 1))
        assert fine.period == 16.0
        assert fine.cutoff == (16, 16)
        # equal mode density: both boxes cover frequencies up to 1 per unit length
        assert fine.cutoff[0] / fine.period == coarse.cutoff[0] / coarse.period

    def test_coarse_marginal_variance(self):
        p = GibbsParams(gamma=1.0, period=4.0, cutoff=(4, 4))
        coarse, _, _ = coupled_dyadic_matrices(2, 3, p, RngStream(77, 0), 4000)
        for i, k in enumerate(mode_box(p.cutoff)):
            var = variance_oracle(k, p)
            empirical = float(np.mean(np.abs(coarse[:, i]) ** 2))
            assert empirical == pytest.approx(var, rel=0.15)

    def test_matched_frequency_correlation(self):
        # coarse mode k shares its j = 0 increment with fine mode 2^(m-n) k
        p = GibbsParams(gamma=1.0, period=4.0, cutoff=(4, 4))
        n_draws = 4000
        coarse, fine, fine_params = coupled_dyadic_matrices(2, 3, p, RngStream(13, 0), n_draws)
        fine_index = {k: i for i, k in enumerate(mode_box(fine_params.cutoff))}
        refine = 2
        k = (1, 1)
        i_coarse = mode_box(p.cutoff).index(k)
        i_fine = fine_index[(refine * k[0], refine * k[1])]
        sigma_c = math.sqrt(variance_oracle(k, p))
        sigma_f = math.sqrt(variance_oracle((refine * k[0], refine * k[1]), fine_params))
        predicted = sigma_c * sigma_f / math.sqrt(refine)
        empirical = float(np.mean(coarse[:, i_coarse] * np.conj(fine[:, i_fine])).real)
        assert empirical == pytest.approx(predicted, rel=0.2)

    def test_support_statistic_stable_in_cutoff(self):
        # mean d(Phi, 0) should stabilize as the box grows, for both test orders
        stream = RngStream(2718, 4)
        for beta in (0.5, -1.5):
            means = []
            for cutoff in ((3, 3), (6, 6)):
                p = GibbsParams(gamma=1.0, period=TWO_PI, cutoff=cutoff)
                zero = SpectralField.zeros(p.period, p.cutoff)
                coeffs = sample_coeff_matrix(p, stream, 40)
                values = [
                    local_distance(zero.with_coeffs(row), zero, beta, 3, points_per_unit=16)
                    for row in coeffs
                ]
                means.append(float(np.mean(values)))
            assert means[1] == pytest.approx(means[0], rel=0.25)
