"""The counter-keyed sampler: bit-exactness, marginal laws, couplings, oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import Philox
from scipy import stats
from scipy.special import ndtri

import eulergibbs.gibbs as gibbs
from eulergibbs.gibbs import (
    GibbsParams,
    RngStream,
    _sigma_vector,
    _to_uniform,
    coupled_dyadic_matrices,
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
    local_distance,
    mode_arrays,
    mode_box,
)

from conftest import evaluate

TWO_PI = 2.0 * math.pi

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of uint64 arrays as (high word, low word)."""
    lo = a * b
    a_hi = a >> _SHIFT32
    a_lo = a & _MASK32
    b_hi = b >> _SHIFT32
    b_lo = b & _MASK32
    mid = ((a_lo * b_lo) >> _SHIFT32) + ((a_hi * b_lo) & _MASK32) + ((a_lo * b_hi) & _MASK32)
    hi = a_hi * b_hi + ((a_hi * b_lo) >> _SHIFT32) + ((a_lo * b_hi) >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, lo


def _philox4x64(c0, c1, c2, c3, k0, k1) -> tuple[np.ndarray, ...]:
    """Ten rounds of philox4x64 over broadcastable uint64 counter/key arrays.

    An independent numpy transcription of the rounds (Salmon et al., SC'11),
    the reference the sampler's C generator is held against.
    """
    with np.errstate(over="ignore"):
        arrays = [np.atleast_1d(np.asarray(x, dtype=np.uint64)) for x in (c0, c1, c2, c3, k0, k1)]
        c0, c1, c2, c3, k0, k1 = (a.copy() for a in np.broadcast_arrays(*arrays))
        for _ in range(10):
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _W0
            k1 = k1 + _W1
    return c0, c1, c2, c3


def _reference_normals(stream: RngStream, start: int, count: int, k1, k2) -> np.ndarray:
    """Deviates block by block from counters (sample, packed mode, 0, 0)."""
    packed = pack_mode(k1, k2)
    indices = np.arange(count, dtype=np.uint64) + np.uint64(start)
    w0, w1, _, _ = _philox4x64(
        indices.reshape((count,) + (1,) * packed.ndim),
        packed[None, ...],
        np.uint64(0),
        np.uint64(0),
        np.uint64(stream.master_seed),
        np.uint64(stream.stream_id),
    )
    real = ndtri(_to_uniform(w0))
    imag = ndtri(_to_uniform(w1))
    return (real + 1j * imag) / math.sqrt(2.0)


class TestPhiloxCore:
    def test_bit_exact_against_numpy_reference(self):
        # numpy's generator emits its first block at counter + 1, so compare
        # reference blocks at incremented counters against two raw blocks
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
        assert standard_complex_normals(stream, 0, 5, np.arange(3), np.zeros(3, int)).shape == (5, 3)
        block = standard_complex_normals(stream, 4, 5, np.arange(3)[:, None], np.arange(2)[None, :])
        assert block.shape == (5, 3, 2)
        assert standard_complex_normals(stream, 9, 0, np.arange(3), 1).shape == (0, 3)
        assert standard_complex_normals(stream, 9, 0, np.ones((3, 2), int), 1).shape == (0, 3, 2)

    @pytest.mark.parametrize("count", [1, 6])
    @pytest.mark.parametrize("start", [0, 7, 2**63, "last"])
    def test_bit_exact_against_reference_rounds(self, start, count):
        start = 2**64 - count if start == "last" else start
        stream = RngStream(0xFEDCBA9876543210, 2**64 - 3)
        # a 1-D box row with k1 = 0 and negative modes, and a coupled block
        k1 = np.array([0, 0, 1, -1, 3, -7, 2**31 - 1, -(2**31)])
        k2 = np.array([1, 5, 0, 2, -4, -7, 1, 2**31 - 1])
        block1 = 2 * np.array([[0], [1], [-2]]) + np.arange(2)[None, :]
        block2 = 2 * np.array([[1], [-1], [3]]) + np.arange(2)[None, :]
        for a, b in ((k1, k2), (block1, block2)):
            got = standard_complex_normals(stream, start, count, a, b)
            want = _reference_normals(stream, start, count, a, b)
            assert got.shape == want.shape == (count,) + np.shape(a)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestCounterRange:
    P = GibbsParams(gamma=1.0, period=4.0, cutoff=(2, 2))

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            sample_coeff_matrix(self.P, RngStream(1), 3, start=-1)
        with pytest.raises(ValueError):
            coupled_dyadic_matrices(2, 3, self.P, RngStream(1), 3, start=-1)

    def test_counter_overflow_rejected(self):
        with pytest.raises(ValueError):
            sample_coeff_matrix(self.P, RngStream(1), 3, start=2**64 - 2)
        with pytest.raises(ValueError):
            coupled_dyadic_matrices(2, 3, self.P, RngStream(1), 3, start=2**64 - 2)
        with pytest.raises(ValueError):
            sample_coeff_matrix(self.P, RngStream(1), -1)

    def test_last_counters_accepted(self):
        last = sample_coeff_matrix(self.P, RngStream(1), 3, start=2**64 - 3)
        assert np.array_equal(last[2], sample(self.P, RngStream(1), index=2**64 - 1).coeffs)
        coarse, fine, _ = coupled_dyadic_matrices(2, 3, self.P, RngStream(1), 3, start=2**64 - 3)
        assert coarse.shape[0] == fine.shape[0] == 3


class TestStreamKeys:
    @pytest.mark.parametrize("name", ["master_seed", "stream_id"])
    def test_seed_and_stream_id_span_64_bits(self, name):
        for value in (0, 2**64 - 1):
            assert getattr(RngStream(**{"master_seed": 1, name: value}), name) == value
        # the generator keys on 64-bit words, so these would alias 2^64 - 1, 0 and 1
        for value in (-1, 2**64, 2**64 + 1):
            with pytest.raises(ValueError, match=name):
                RngStream(**{"master_seed": 1, name: value})

    @pytest.mark.parametrize("name", ["master_seed", "stream_id"])
    def test_a_fractional_seed_or_stream_id_is_rejected_not_truncated(self, name):
        for value in (1.5, np.float64(1.9), 2.000001):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                RngStream(**{"master_seed": 1, name: value})
        for value in (2, 2.0, np.int64(2), np.float64(2.0)):
            assert getattr(RngStream(**{"master_seed": 1, name: value}), name) == 2
        assert np.array_equal(
            sample_coeff_matrix(TestCounterRange.P, RngStream(2.0, np.int64(3)), 2),
            sample_coeff_matrix(TestCounterRange.P, RngStream(2, 3), 2),
        )


class TestSamplerMemory:
    def test_peak_bounded_by_output(self):
        # numpy reports its buffers to tracemalloc; the mode and sigma caches
        # are warmed first, so the peak is one call's working set
        p = GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(32, 32))
        stream = RngStream(8, 1)
        sample_coeff_matrix(p, stream, 1)
        tracemalloc.start()
        try:
            out = sample_coeff_matrix(p, stream, 80)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * out.nbytes

    def test_uniforms_need_no_second_draw_sized_array(self):
        # the raw words become uniforms in place, slice by slice: beyond the
        # output, only one mode's raw blocks and one slice are alive
        k1, k2 = mode_arrays((12, 12))
        stream = RngStream(8, 1)
        standard_complex_normals(stream, 0, 1, k1, k2)
        tracemalloc.start()
        try:
            out = standard_complex_normals(stream, 0, 2000, k1, k2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + (1 << 18)


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

    def test_a_fractional_cutoff_is_rejected_not_truncated(self):
        for cutoff in ((2.9, 3.2), (2, 3.5), (np.float64(2.5), 3)):
            with pytest.raises(ValueError, match=r"cutoff\[\d\] must be an integer"):
                GibbsParams(gamma=1.0, period=1.0, cutoff=cutoff)
        for cutoff in ((2, 3), (2.0, 3.0), (np.int64(2), np.float64(3.0))):
            assert GibbsParams(gamma=1.0, period=1.0, cutoff=cutoff).cutoff == (2, 3)


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
    k1, k2 = mode_arrays(p.cutoff)
    angle = (TWO_PI / p.period) * (k1 * x[0] + k2 * x[1])
    phases = np.exp(1j * angle)
    return (2.0 / p.period) * (coeffs @ phases).real


def _two_call_coupled(n: int, m: int, p_base: GibbsParams, rng: RngStream, count: int, start: int):
    """The coupled draw that runs zeta a second time at every block mode,
    inside the fine box too: the bit-exact reference for the one-draw form."""
    refine = 2 ** (m - n)
    fine_params = GibbsParams(
        gamma=p_base.gamma,
        period=2.0**m,
        cutoff=(p_base.cutoff[0] * refine, p_base.cutoff[1] * refine),
    )
    fine = sample_coeff_matrix(fine_params, rng, count, start=start)
    k1, k2 = mode_arrays(p_base.cutoff)
    shifts = np.arange(refine, dtype=np.int64)
    block1 = refine * k1[:, None] + shifts[None, :]
    block2 = refine * k2[:, None] + shifts[None, :]
    zeta = standard_complex_normals(rng, start, count, block1, block2)
    pooled = zeta.sum(axis=2) / math.sqrt(refine)
    coarse = pooled * _sigma_vector(p_base.gamma, p_base.period, p_base.cutoff)[None, :]
    return coarse, fine


class TestCoupledDyadic:
    @pytest.mark.parametrize(
        "n, m, cutoff, start",
        [
            (2, 3, (4, 4), 0),
            (2, 4, (4, 4), 5),
            (1, 4, (3, 3), 0),
            (2, 3, (3, 5), 2**40),
            (3, 3, (2, 4), 9),
        ],
    )
    def test_bit_exact_against_two_call_draw(self, n, m, cutoff, start):
        p = GibbsParams(gamma=1.3, period=2.0**n, cutoff=cutoff)
        stream = RngStream(31, 4)
        coarse, fine, _ = coupled_dyadic_matrices(n, m, p, stream, 6, start=start)
        ref_coarse, ref_fine = _two_call_coupled(n, m, p, stream, 6, start)
        assert coarse.tobytes() == ref_coarse.tobytes()
        assert fine.tobytes() == ref_fine.tobytes()

    def test_draws_each_deviate_once(self, monkeypatch):
        # cutoff (4, 3), refinement 2: the fine box (8, 6) has 8 * 13 + 6 = 110
        # modes; block modes past it are j = 1 of coarse k1 = 4 (7 modes) and
        # of k2 = 3 with k1 = 0 .. 3 (4 modes)
        drawn = []
        original = gibbs.standard_complex_normals

        def counting(stream, start, count, k1, k2):
            out = original(stream, start, count, k1, k2)
            drawn.append(out[0].size)
            return out

        monkeypatch.setattr(gibbs, "standard_complex_normals", counting)
        p = GibbsParams(gamma=1.0, period=4.0, cutoff=(4, 3))
        coupled_dyadic_matrices(2, 3, p, RngStream(3), 2)
        assert drawn == [110, 11]

    def test_degenerate_identity(self):
        p = GibbsParams(gamma=1.0, period=2.0**3, cutoff=(8, 8))
        coarse, fine, fine_params = coupled_dyadic_matrices(3, 3, p, RngStream(5, 1), 1, start=2)
        assert fine_params.period == p.period
        assert np.array_equal(coarse, fine)

    def test_invalid_refinement_rejected(self):
        p = GibbsParams(gamma=1.0, period=2.0**3, cutoff=(8, 8))
        with pytest.raises(ValueError):
            coupled_dyadic_matrices(3, 2, p, RngStream(5, 1), 1, start=0)

    def test_base_period_must_match_level(self):
        p = GibbsParams(gamma=1.0, period=5.0, cutoff=(4, 4))
        with pytest.raises(ValueError):
            coupled_dyadic_matrices(2, 3, p, RngStream(5, 1), 1, start=0)

    def test_fine_level_geometry(self):
        p = GibbsParams(gamma=1.0, period=4.0, cutoff=(4, 4))
        _, _, fine_params = coupled_dyadic_matrices(2, 4, p, RngStream(5, 1), 1, start=0)
        assert fine_params.period == 16.0
        assert fine_params.cutoff == (16, 16)
        # equal mode density: both boxes cover frequencies up to 1 per unit length
        assert fine_params.cutoff[0] / fine_params.period == p.cutoff[0] / p.period

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
