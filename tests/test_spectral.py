"""Field representation, norms, point evaluation, and the local metric."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergibbs.spectral import (
    SpectralField,
    _box_slots,
    _embed,
    _metric_plan,
    _window_norms,
    cross_period_distance,
    energy,
    enstrophy,
    evaluate_grid,
    is_positive,
    local_distance,
    mode_box,
    mode_count,
    mode_index,
    sobolev_norm,
)

from conftest import evaluate, random_field

TWO_PI = 2.0 * math.pi


class TestModeBookkeeping:
    def test_positivity_examples(self):
        assert is_positive((1, -5))
        assert is_positive((0, 3))
        assert not is_positive((0, -3))
        assert not is_positive((0, 0))
        assert not is_positive((-1, 2))

    def test_mode_box_1_1(self):
        assert mode_box((1, 1)) == ((0, 1), (1, -1), (1, 0), (1, 1))

    def test_mode_box_2_1_length(self):
        assert len(mode_box((2, 1))) == 2 * 3 + 1

    def test_zero_cutoff_rejected(self):
        with pytest.raises(ValueError):
            mode_box((1, 0))
        with pytest.raises(ValueError):
            mode_box((0, 4))

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_mode_box_formula_and_order(self, n1, n2):
        box = mode_box((n1, n2))
        assert len(box) == mode_count((n1, n2)) == n1 * (2 * n2 + 1) + n2
        assert all(is_positive(k) for k in box)
        assert list(box) == sorted(box)
        assert len(set(box)) == len(box)

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_box_slots_match_the_mode_index(self, n1, n2):
        index = mode_index((n1, n2))
        k1, k2 = np.array(mode_box((n1, n2)), dtype=np.int64).T
        assert _box_slots((n1, n2), k1, k2).tolist() == [index[k] for k in mode_box((n1, n2))]
        # 2-D mode arrays keep their shape
        assert _box_slots((n1, n2), k1[None, ::-1], k2[None, ::-1]).shape == (1, k1.size)

    @given(st.integers(-9, 9), st.integers(-9, 9))
    def test_half_lattice_partition(self, k1, k2):
        # exactly one of k, -k is positive unless k = 0
        if (k1, k2) == (0, 0):
            assert not is_positive((k1, k2))
        else:
            assert is_positive((k1, k2)) != is_positive((-k1, -k2))


class TestFieldConstruction:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            SpectralField(TWO_PI, (2, 2), np.zeros(3, dtype=complex))

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            SpectralField(0.0, (1, 1), np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            SpectralField(-1.0, (1, 1), np.zeros(4, dtype=complex))

    def test_from_modes_rejects_outside_box(self):
        with pytest.raises(ValueError):
            SpectralField.from_modes(TWO_PI, (2, 2), {(3, 0): 1.0})
        with pytest.raises(ValueError):
            SpectralField.from_modes(TWO_PI, (2, 2), {(0, -1): 1.0})

    def test_coefficients_read_only(self):
        f = SpectralField.zeros(TWO_PI, (2, 2))
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_arithmetic_and_equality(self, rng):
        f = random_field(rng, TWO_PI, (3, 3))
        g = random_field(rng, TWO_PI, (3, 3))
        assert f + g - g == f or np.allclose((f + g - g).coeffs, f.coeffs)
        assert (2.0 * f).coeffs == pytest.approx(2.0 * f.coeffs)
        h = random_field(rng, TWO_PI, (2, 3))
        with pytest.raises(ValueError):
            _ = f + h


class TestSobolevNorms:
    def test_unit_mode_order_minus_two(self):
        f = SpectralField.from_modes(TWO_PI, (2, 2), {(1, 0): 1.0})
        assert sobolev_norm(f, -2.0) == pytest.approx(1.0, rel=1e-14)

    def test_second_mode_order_minus_two(self):
        f = SpectralField.from_modes(TWO_PI, (2, 2), {(2, 0): 1.0})
        assert sobolev_norm(f, -2.0) == pytest.approx(0.25, rel=1e-14)

    def test_scaling_homogeneity(self, rng):
        f = random_field(rng, 3.5, (4, 4))
        for beta in (-2.0, -0.5, 0.0, 1.0, 2.0):
            assert sobolev_norm(2.5 * f, beta) == pytest.approx(
                2.5 * sobolev_norm(f, beta), rel=1e-12
            )

    def test_zero_iff_zero_field(self):
        z = SpectralField.zeros(4.0, (3, 3))
        assert sobolev_norm(z, 1.3) == 0.0

    def test_order_monotonicity_on_unit_torus(self, rng):
        # with L = 2 pi every occupied symbol is >= 1, so norms grow with the order
        f = random_field(rng, TWO_PI, (5, 5))
        values = [sobolev_norm(f, beta) for beta in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert values == sorted(values)


class TestEnergyEnstrophy:
    def test_energy_examples(self):
        f = SpectralField.from_modes(TWO_PI, (2, 2), {(1, 0): 1.0})
        assert energy(f) == pytest.approx(1.0, rel=1e-14)
        g = SpectralField.from_modes(TWO_PI, (2, 2), {(1, 1): 2.0})
        assert energy(g) == pytest.approx(8.0, rel=1e-14)

    def test_enstrophy_examples(self):
        f = SpectralField.from_modes(TWO_PI, (2, 2), {(1, 0): 1.0})
        assert enstrophy(f) == pytest.approx(1.0, rel=1e-14)
        g = SpectralField.from_modes(TWO_PI, (2, 2), {(1, 1): 2.0})
        assert enstrophy(g) == pytest.approx(16.0, rel=1e-14)

    def test_enstrophy_period_doubling(self, rng):
        f = random_field(rng, TWO_PI, (4, 4))
        g = SpectralField(2 * TWO_PI, f.cutoff, f.coeffs)
        assert enstrophy(g) == pytest.approx(enstrophy(f) / 16.0, rel=1e-12)

    def test_norm_consistency(self, rng):
        f = random_field(rng, 5.0, (4, 4))
        assert energy(f) == pytest.approx(sobolev_norm(f, 1.0) ** 2, rel=1e-12)
        assert enstrophy(f) == pytest.approx(sobolev_norm(f, 2.0) ** 2, rel=1e-12)


class TestEvaluate:
    def test_zero_field(self):
        z = SpectralField.zeros(TWO_PI, (2, 2))
        assert evaluate(z, (0.3, 1.7)) == 0.0

    def test_cosine_example(self):
        f = SpectralField.from_modes(TWO_PI, (1, 1), {(1, 0): 0.5})
        for x1 in (0.0, 0.7, 2.0, 5.5):
            assert evaluate(f, (x1, 0.9)) == pytest.approx(
                math.cos(x1) / TWO_PI, abs=1e-15
            )

    def test_periodicity(self, rng):
        f = random_field(rng, 3.0, (3, 3))
        x = np.array([0.4, 1.1])
        shifted = x + np.array([3.0, -6.0])
        assert evaluate(f, x) == pytest.approx(evaluate(f, shifted), rel=1e-12, abs=1e-13)

    def test_batch_matches_scalar(self, rng):
        f = random_field(rng, TWO_PI, (3, 3))
        pts = rng.uniform(0.0, TWO_PI, size=(7, 2))
        batch = evaluate(f, pts)
        for value, p in zip(batch, pts):
            assert value == pytest.approx(evaluate(f, p), rel=1e-13, abs=1e-14)

    def test_grid_matches_pointwise(self, rng):
        f = random_field(rng, 2.0, (3, 2))
        x1 = np.array([0.1, 0.9, 1.5])
        x2 = np.array([0.2, 1.8])
        grid = evaluate_grid(f, x1, x2)
        for i, a in enumerate(x1):
            for j, b in enumerate(x2):
                assert grid[i, j] == pytest.approx(evaluate(f, (a, b)), rel=1e-12, abs=1e-14)

    def test_parseval(self, rng):
        # uniform quadrature with more than 4x the cutoff resolves |phi|^2 exactly
        for cutoff in ((3, 3), (5, 2)):
            f = random_field(rng, TWO_PI, cutoff)
            m = 4 * max(cutoff) + 1
            xs = TWO_PI * np.arange(m) / m
            values = evaluate_grid(f, xs, xs)
            quad = (TWO_PI / m) ** 2 * float(np.sum(values * values))
            exact = 2.0 * float(np.sum(np.abs(f.coeffs) ** 2))
            assert quad == pytest.approx(exact, rel=1e-10)

    def test_derivative_grid_symbol(self, rng):
        # |D|^2 acts as -Laplacian: compare against direct coefficient weighting
        f = random_field(rng, TWO_PI, (2, 2))
        k1 = np.array([k[0] for k in mode_box(f.cutoff)])
        k2 = np.array([k[1] for k in mode_box(f.cutoff)])
        weighted = f.with_coeffs(f.coeffs * (k1**2 + k2**2))
        xs = np.linspace(0.0, 1.0, 5)
        a = evaluate_grid(f, xs, xs, order=2.0)
        b = evaluate_grid(weighted, xs, xs)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


class TestLocalDistance:
    def test_identity(self, rng):
        f = random_field(rng, TWO_PI, (3, 3))
        assert local_distance(f, f, -1.5, 4) == 0.0

    def test_bounded_below_one(self, rng):
        f = random_field(rng, TWO_PI, (3, 3), scale=50.0)
        g = random_field(rng, TWO_PI, (3, 3), scale=50.0)
        assert local_distance(f, g, 0.5, 6) < 1.0

    def test_monotone_in_level_max(self, rng):
        f = random_field(rng, TWO_PI, (3, 3))
        g = random_field(rng, TWO_PI, (3, 3))
        assert local_distance(f, g, -1.0, 3) <= local_distance(f, g, -1.0, 6)

    def test_symmetry_and_triangle(self, rng):
        f = random_field(rng, TWO_PI, (3, 3))
        g = random_field(rng, TWO_PI, (3, 3))
        h = random_field(rng, TWO_PI, (3, 3))
        dfg = local_distance(f, g, -1.5, 4)
        assert dfg == pytest.approx(local_distance(g, f, -1.5, 4), rel=1e-12)
        assert dfg <= local_distance(f, h, -1.5, 4) + local_distance(h, g, -1.5, 4) + 1e-12

    def test_period_mismatch_rejected(self, rng):
        f = random_field(rng, TWO_PI, (2, 2))
        g = random_field(rng, 2 * TWO_PI, (2, 2))
        with pytest.raises(ValueError):
            local_distance(f, g, -1.5, 4)

    def test_mixed_cutoffs_rejected(self, rng):
        # one lattice only: mixed cutoffs raise like mixed periods, and the
        # pair goes through cross_period_distance or an explicit embedding
        f = random_field(rng, TWO_PI, (3, 3))
        g = random_field(rng, TWO_PI, (2, 2))
        for other in (g, random_field(rng, 2 * TWO_PI, (3, 3))):
            with pytest.raises(ValueError, match="mismatched lattices.*cross_period_distance"):
                local_distance(f, other, -1.5, 4)
        d = cross_period_distance(f, g, -1.5, 4)
        assert 0.0 < d < 1.0
        embedded = local_distance(f, _embed(g, f.cutoff), -1.5, 4)
        assert d == pytest.approx(embedded, rel=1e-9, abs=1e-12)

    def test_cross_period_agrees_on_equal_periods(self, rng):
        f = random_field(rng, TWO_PI, (3, 3))
        g = random_field(rng, TWO_PI, (3, 3))
        a = local_distance(f, g, -1.5, 4)
        b = cross_period_distance(f, g, -1.5, 4)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_cross_period_identity_on_shared_content(self):
        # same physical field represented on two tori: distance should be small,
        # limited only by the different tails, which are absent here
        f = SpectralField.from_modes(4.0, (2, 2), {(1, 0): 1.0})
        g = SpectralField.from_modes(8.0, (4, 4), {(2, 0): 2.0})
        # on [0,4]^2 both represent (2/4) cos(2 pi x1 / 4): mode (2,0) at L=8 has
        # the same frequency 1/4 and e_k carries 1/L, so doubling the coefficient
        # compensates the halved basis amplitude
        assert cross_period_distance(f, g, 0.0, 4) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_quadrature_args(self, rng):
        f = random_field(rng, TWO_PI, (2, 2))
        with pytest.raises(ValueError):
            local_distance(f, f, 0.0, 0)
        with pytest.raises(ValueError):
            local_distance(f, f, 0.0, 4, points_per_unit=0)


class TestMetricMemory:
    @pytest.mark.parametrize("n", [4, 5])
    def test_peak_is_bounded_by_the_quadrature_grid(self, n, rng):
        # the fine level of cauchy's dyadic pair n: period 2^(n+1), cutoff
        # 2^(n+1) per axis, at the default level_max and points_per_unit;
        # n = 4 is the largest default level. The plan cache is warmed first,
        # so the peak is one call's working set
        level_max, points_per_unit = 4, 64
        period, cutoff = 2.0 ** (n + 1), (2 ** (n + 1), 2 ** (n + 1))
        f, g = random_field(rng, period, cutoff), random_field(rng, period, cutoff)
        local_distance(f, g, -1.5, level_max, points_per_unit)
        profile_bytes = 8 * (level_max * points_per_unit) ** 2
        tracemalloc.start()
        try:
            local_distance(f, g, -1.5, level_max, points_per_unit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * profile_bytes


def _embed_reference(f: SpectralField, cutoff, ratio: int) -> SpectralField:
    """Mode-by-mode loop: mode k of period L to mode ratio * k of period ratio * L."""
    index = mode_index(tuple(cutoff))
    coeffs = np.zeros(mode_count(cutoff), dtype=np.complex128)
    for (k1, k2), c in zip(mode_box(f.cutoff), f.coeffs):
        coeffs[index[(ratio * k1, ratio * k2)]] = ratio * c
    return SpectralField(ratio * f.period, tuple(cutoff), coeffs)


class TestEmbed:
    @pytest.mark.parametrize(
        "cutoff, target, ratio",
        [((2, 3), (2, 3), 1), ((2, 2), (3, 5), 1), ((2, 3), (4, 6), 2), ((1, 2), (4, 7), 3)],
    )
    def test_matches_mode_loop_bitwise(self, rng, cutoff, target, ratio):
        f = random_field(rng, 3.0, cutoff)
        embedded = _embed(f, target, ratio=ratio)
        assert embedded == _embed_reference(f, target, ratio)

    def test_same_function_on_the_larger_torus(self, rng):
        f = random_field(rng, 4.0, (2, 3))
        g = _embed(f, (5, 6), ratio=2)
        assert g.period == 8.0
        points = rng.uniform(-3.0, 9.0, size=(11, 2))
        np.testing.assert_allclose(evaluate(g, points), evaluate(f, points), rtol=1e-12, atol=1e-14)
        for order in (-1.5, 0.0, 1.0):
            assert cross_period_distance(f, g, order, 3) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_small_box_and_bad_ratio(self, rng):
        f = random_field(rng, 4.0, (2, 2))
        with pytest.raises(ValueError, match="cannot embed"):
            _embed(f, (3, 4), ratio=2)
        with pytest.raises(ValueError, match="cannot embed"):
            _embed(f, (1, 2))
        with pytest.raises(ValueError, match="ratio"):
            _embed(f, (4, 4), ratio=0)


def _exact_window_integral(f: SpectralField, order: float, edge: float) -> float:
    """integral over [0, edge]^2 of |D^order f|^2 from closed-form 1-D Gram integrals.

    With the conjugate-completed coefficients A_k = s_k phi_k (s_k the symbol),
    |D^order f|^2 = L^-2 sum_{k, k'} A_k conj(A_k') e^{i theta (k - k').x} and
    integral_0^edge e^{i theta nu x} dx = (e^{i theta nu edge} - 1) / (i theta nu),
    or edge for nu = 0, where theta = 2 pi / L.
    """
    theta = TWO_PI / f.period
    modes = np.array(mode_box(f.cutoff), dtype=np.float64)
    symbol = (theta * np.hypot(modes[:, 0], modes[:, 1])) ** order
    amplitudes = np.concatenate((symbol * f.coeffs, symbol * np.conj(f.coeffs)))
    full = np.concatenate((modes, -modes))

    def gram(k: np.ndarray) -> np.ndarray:
        nu = k[:, None] - k[None, :]
        safe = np.where(nu == 0.0, 1.0, nu)
        return np.where(
            nu == 0.0, edge, (np.exp(1j * theta * safe * edge) - 1.0) / (1j * theta * safe)
        )

    kernel = gram(full[:, 0]) * gram(full[:, 1])
    return float((amplitudes @ kernel @ np.conj(amplitudes)).real) / f.period**2


def _midpoint_error_bound(f: SpectralField, order: float, edge: float, h: float) -> float:
    """Composite midpoint bound edge^2 h^2 / 24 (max|F_11| + max|F_22|) for F = (D^order f)^2.

    F_aa = 2 (d_a phi)^2 + 2 phi d_a^2 phi, and with the amplitudes
    |A_k| = s_k |phi_k| the field and its derivatives are bounded by
    M_j^a = (2 / L) sum_k (theta |k_a|)^j |A_k|.
    """
    theta = TWO_PI / f.period
    modes = np.array(mode_box(f.cutoff), dtype=np.float64)
    amplitude = (theta * np.hypot(modes[:, 0], modes[:, 1])) ** order * np.abs(f.coeffs)
    m0 = 2.0 / f.period * amplitude.sum()
    total = 0.0
    for axis in (0, 1):
        wave = theta * np.abs(modes[:, axis])
        m1 = 2.0 / f.period * (wave * amplitude).sum()
        m2 = 2.0 / f.period * (wave * wave * amplitude).sum()
        total += 2.0 * (m1 * m1 + m0 * m2)
    return edge * edge * h * h / 24.0 * total


class TestQuadratureOracle:
    """The metric's midpoint x_l against the exact windowed norm."""

    @pytest.mark.parametrize("period, cutoff", [(TWO_PI, (2, 2)), (4.0, (3, 1)), (7.0, (1, 3))])
    @pytest.mark.parametrize("order", [-1.5, 0.0, 1.0])
    @pytest.mark.parametrize("points_per_unit", [16, 64])
    def test_windowed_norms_within_midpoint_bound(self, rng, period, cutoff, order, points_per_unit):
        f = random_field(rng, period, cutoff)
        level_max = 3
        profile = _metric_plan(period, cutoff, order, level_max, points_per_unit)(f.coeffs)
        norms = _window_norms(profile, level_max, points_per_unit)
        h = 1.0 / points_per_unit
        for level, x in enumerate(norms, start=1):
            exact = _exact_window_integral(f, order, float(level))
            bound = _midpoint_error_bound(f, order, float(level), h)
            # the analytic O(h^2) bound, plus double rounding in both sums
            assert abs(x * x - exact) <= bound + 1e-12 * exact
            # the bound is informative: a small fraction of the integral
            assert bound < 0.2 * exact

    def test_local_distance_folds_the_window_norms(self, rng):
        f = random_field(rng, 4.0, (3, 2))
        zero = SpectralField.zeros(4.0, (3, 2))
        folded = 0.0
        tolerance = 0.0
        for level in (1, 2, 3, 4):
            exact = _exact_window_integral(f, -1.5, float(level))
            x = math.sqrt(exact)
            folded += 0.5**level * x / (1.0 + x)
            # x / (1 + x) is 1-Lipschitz and |x_q - x| <= |x_q^2 - x^2| / x
            tolerance += 0.5**level * _midpoint_error_bound(f, -1.5, float(level), 1.0 / 64) / x
        assert abs(local_distance(f, zero, -1.5, 4) - folded) <= tolerance + 1e-12


class TestSerialization:
    def test_round_trip_bitwise(self, rng):
        f = random_field(rng, 3.25, (3, 2))
        rec = f.to_record()
        text = json.dumps(rec)
        g = SpectralField.from_record(json.loads(text))
        assert g.period == f.period
        assert g.cutoff == f.cutoff
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_record_order_is_lexicographic(self, rng):
        f = random_field(rng, TWO_PI, (2, 2))
        modes = [tuple(row[:2]) for row in f.to_record()["coeffs"]]
        assert modes == sorted(modes)
        assert modes == list(mode_box((2, 2)))

    def test_record_rejects_permuted_modes(self, rng):
        f = random_field(rng, TWO_PI, (1, 1))
        rec = f.to_record()
        rec["coeffs"][0], rec["coeffs"][1] = rec["coeffs"][1], rec["coeffs"][0]
        with pytest.raises(ValueError):
            SpectralField.from_record(rec)

    @pytest.mark.parametrize(
        "row",
        [
            [0, 1, None, 0.0],
            [0, 1, 0.5],
            [0, 1, float("nan"), 0.0],
            [0, 1, 0.0, float("-inf")],
            [None, 1, 0.0, 0.0],
            [float("inf"), 1, 0.0, 0.0],
            [0, 1, 0.0, 0.0, 0.0],
        ],
    )
    def test_record_rejects_malformed_rows(self, row):
        rec = SpectralField.zeros(TWO_PI, (1, 1)).to_record()
        rec["coeffs"][0] = row
        with pytest.raises(ValueError):
            SpectralField.from_record(json.loads(json.dumps(rec)))

    def test_record_rejects_non_list_coefficients(self):
        rec = SpectralField.zeros(TWO_PI, (1, 1)).to_record()
        rec["coeffs"] = 4
        with pytest.raises(ValueError):
            SpectralField.from_record(rec)

    def test_record_rejects_wrong_count(self, rng):
        f = random_field(rng, TWO_PI, (1, 1))
        rec = f.to_record()
        rec["coeffs"] = rec["coeffs"][:-1]
        with pytest.raises(ValueError):
            SpectralField.from_record(rec)
