"""Triad coefficients, the Galerkin drift, its oracle, and conservation identities."""

import importlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergibbs.drift import (
    _PSEUDO_FIELD_BYTES,
    _TRIAD_SLICE_BYTES,
    _TRIAD_TERMS_BYTES,
    PSEUDO_SPECTRAL,
    TRIAD_SUM,
    _pseudo_plan,
    _triad_table,
    alpha,
    drift,
    drift_batch,
    jacobian_trace_estimate,
    quadratic_derivative,
)
from eulergibbs.flow import IntegratorConfig, evolve_coeffs
from eulergibbs.spectral import SpectralField, mode_arrays, mode_box, sobolev_norm

from conftest import random_field

TWO_PI = 2.0 * math.pi

# the package re-exports the drift() function under the submodule's name
drift_module = importlib.import_module("eulergibbs.drift")


def alpha_reference(h, k, period):
    """Independent rational-arithmetic evaluation of the closed form."""
    cross = Fraction(h[0] * k[1] - h[1] * k[0])
    k_sq = Fraction(k[0] ** 2 + k[1] ** 2)
    dot = Fraction(k[0] * h[0] + k[1] * h[1])
    bracket = cross * (dot / k_sq - Fraction(1, 2))
    return 4.0 * math.pi**2 / float(period) ** 3 * float(bracket)


def decaying_field(rng, period, cutoff, gamma=1.0):
    """Random field with the quartic coefficient decay of the Gibbs ensembles."""
    base = random_field(rng, period, cutoff)
    k1 = np.array([k[0] for k in mode_box(base.cutoff)], dtype=float)
    k2 = np.array([k[1] for k in mode_box(base.cutoff)], dtype=float)
    sigma = math.sqrt(2.0 / gamma) * (period / TWO_PI) ** 2 / (k1**2 + k2**2)
    return base.with_coeffs(base.coeffs * sigma)


class TestAlpha:
    def test_example_quarter(self):
        assert alpha((0, 1), (1, 0), TWO_PI) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)

    def test_example_twentieth(self):
        assert alpha((1, 0), (2, 1), TWO_PI) == pytest.approx(-1.0 / (20.0 * math.pi), rel=1e-15)

    def test_parallel_exact_zero(self):
        assert alpha((2, 3), (4, 6), TWO_PI) == 0.0
        assert alpha((1, 1), (3, 3), 1.7) == 0.0

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            alpha((1, 0), (0, 0), TWO_PI)
        with pytest.raises(ValueError):
            alpha((0, 0), (1, 0), TWO_PI)

    def test_pair_symmetry(self):
        # alpha is unchanged when h is swapped with k - h
        for h, k in (((1, 0), (2, 1)), ((2, -1), (3, 3)), ((0, 2), (4, 1))):
            j = (k[0] - h[0], k[1] - h[1])
            assert alpha(h, k, 2.5) == pytest.approx(alpha(j, k, 2.5), rel=1e-15, abs=1e-300)

    @given(
        st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
        st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
        st.sampled_from([1.0, 2.0, TWO_PI, 9.5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_rational_reference(self, h, k, period):
        if h == (0, 0) or k == (0, 0):
            return
        expected = alpha_reference(h, k, period)
        got = alpha(h, k, period)
        if expected == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(expected, rel=1e-14)


class TestTriadDrift:
    def test_zero_field(self):
        z = SpectralField.zeros(TWO_PI, (4, 4))
        assert np.all(drift(z).coeffs == 0.0)

    def test_single_mode_exact_steady(self, rng):
        for k0 in ((1, 0), (2, 3), (0, 2)):
            f = SpectralField.from_modes(TWO_PI, (4, 4), {k0: 0.7 - 0.3j})
            assert np.all(drift(f).coeffs == 0.0)

    def test_single_shell_steady(self, rng):
        # equal-shell pairs have weight 0 and are absent from the triad table,
        # so every remaining product has a zero operand and the zero is bitwise
        f = SpectralField.from_modes(
            TWO_PI, (4, 4), {(1, 0): 1.1 + 0.2j, (0, 1): -0.4 + 0.9j}
        )
        assert np.all(drift(f).coeffs == 0.0)

    def test_larger_shell_exactly_steady(self):
        for radius_sq in (5, 25, 50):
            coeffs = {
                (k1, k2): 0.3 - 0.1j
                for k1 in range(-8, 9)
                for k2 in range(-8, 9)
                if k1 * k1 + k2 * k2 == radius_sq and ((k1, k2) > (0, 0) if k1 == 0 else k1 > 0)
            }
            f = SpectralField.from_modes(TWO_PI, (8, 8), coeffs)
            assert np.all(drift(f).coeffs == 0.0)

    def test_two_mode_component(self):
        # phi_(1,0) = phi_(1,1) = 1 pumps mode (2,1) at rate 1/(10 pi); the
        # magnitude is 2 |alpha((1,0),(2,1))| and the sign follows the PDE
        # (cross-checked against the collocation oracle below and at build
        # time against an independent transform script)
        f = SpectralField.from_modes(TWO_PI, (2, 2), {(1, 0): 1.0, (1, 1): 1.0})
        rate = drift(f)
        b21 = rate.coeff((2, 1))
        assert b21.real == pytest.approx(1.0 / (10.0 * math.pi), rel=1e-13)
        assert b21.imag == pytest.approx(0.0, abs=1e-15)
        assert abs(b21) == pytest.approx(2.0 * abs(alpha((1, 0), (2, 1), TWO_PI)), rel=1e-13)

    def test_two_mode_all_components_against_oracle(self):
        f = SpectralField.from_modes(TWO_PI, (2, 2), {(1, 0): 1.0, (1, 1): 1.0})
        direct = drift(f)
        oracle = drift(f, PSEUDO_SPECTRAL)
        np.testing.assert_allclose(direct.coeffs, oracle.coeffs, rtol=0, atol=1e-13)

    def test_quadratic_homogeneity_exact(self, rng):
        f = random_field(rng, TWO_PI, (4, 4))
        doubled = drift(2.0 * f)
        assert np.array_equal(doubled.coeffs, 4.0 * drift(f).coeffs)

    def test_homogeneity_general_scale(self, rng):
        f = random_field(rng, 3.0, (3, 3))
        c = 1.37
        scaled = drift(c * f)
        np.testing.assert_allclose(scaled.coeffs, c**2 * drift(f).coeffs, rtol=1e-12)

    def test_batch_matches_single(self, rng):
        # at (8, 8) the batch spans three chunks of the triad byte budget
        chunk = max(1, _TRIAD_TERMS_BYTES // (16 * _triad_table((8, 8)).u_idx.size))
        for cutoff, count in (((3, 3), 5), ((8, 8), 2 * chunk + 3)):
            fields = [random_field(rng, TWO_PI, cutoff) for _ in range(count)]
            batch = drift_batch(np.stack([f.coeffs for f in fields]), TWO_PI, cutoff)
            for row, f in zip(batch, fields):
                assert np.array_equal(row, drift(f).coeffs)


class TestSingleFieldDrift:
    @pytest.mark.parametrize("method", [TRIAD_SUM, PSEUDO_SPECTRAL])
    def test_bitwise_equal_to_the_batch_row(self, method, rng):
        fields = [decaying_field(rng, 3.3, (5, 4)) for _ in range(4)]
        batch = drift_batch(np.stack([f.coeffs for f in fields]), 3.3, (5, 4), method)
        for row, f in zip(batch, fields):
            rate = drift(f, method)
            assert isinstance(rate, SpectralField)
            assert rate.same_lattice(f)
            assert rate.coeffs.tobytes() == row.tobytes()

    def test_explicit_grid_is_honoured(self, rng):
        f = decaying_field(rng, TWO_PI, (4, 4))
        for grid in (16, 21, 32):
            row = drift_batch(f.coeffs[None, :], TWO_PI, (4, 4), PSEUDO_SPECTRAL, grid=grid)[0]
            assert drift(f, PSEUDO_SPECTRAL, grid=grid).coeffs.tobytes() == row.tobytes()
        # the default is the dealiasing minimum 4 * max cutoff, and below it is an error
        default = drift(f, PSEUDO_SPECTRAL)
        assert default.coeffs.tobytes() == drift(f, PSEUDO_SPECTRAL, grid=16).coeffs.tobytes()
        with pytest.raises(ValueError, match="insufficient grid 15"):
            drift(f, PSEUDO_SPECTRAL, grid=15)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown drift method"):
            drift(SpectralField.zeros(TWO_PI, (2, 2)), "spectral")


def unordered_triads(cutoff):
    """Brute-force set of (k, h, j) with h + j = k and h < j lexicographically over
    the signed box, skipping pairs with alpha(h, k) == 0."""
    signed = [m for k in mode_box(cutoff) for m in (k, (-k[0], -k[1]))]
    inside = set(signed)
    found = set()
    for k in mode_box(cutoff):
        for h in signed:
            j = (k[0] - h[0], k[1] - h[1])
            if j in inside and h < j and alpha(h, k, 1.0) != 0.0:
                found.add((k, h, j))
    return found


class TestTriadTable:
    @pytest.mark.parametrize("cutoff", [(1, 1), (2, 3), (4, 1), (5, 5)])
    def test_weights_match_closed_form_alpha(self, cutoff):
        # weight (2 pi)^2 / (L^3 |k|^2) is -2 alpha, pair by pair, and the
        # table holds exactly the unordered pairs whose alpha is nonzero
        period = 2.7
        table = _triad_table(cutoff)
        k1, k2 = mode_arrays(cutoff)
        s1 = np.concatenate([k1, -k1])
        s2 = np.concatenate([k2, -k2])
        indptr = table.matrix.indptr
        seen = set()
        for p in range(k1.size):
            k = (int(k1[p]), int(k2[p]))
            k_sq = k[0] ** 2 + k[1] ** 2
            for i in range(indptr[p], indptr[p + 1]):
                u, v = int(table.u_idx[i]), int(table.v_idx[i])
                assert u < v
                h, j = (int(s1[u]), int(s2[u])), (int(s1[v]), int(s2[v]))
                assert (h[0] + j[0], h[1] + j[1]) == k
                weight = int(table.weights[i])
                assert weight == (h[0] * k[1] - h[1] * k[0]) * (
                    j[0] ** 2 + j[1] ** 2 - h[0] ** 2 - h[1] ** 2
                )
                assert table.matrix.data[i] == weight / k_sq
                scaled = weight * TWO_PI**2 / (period**3 * k_sq)
                assert scaled == pytest.approx(-2.0 * alpha(h, k, period), rel=1e-15)
                seen.add((k, min(h, j), max(h, j)))
        assert len(seen) == table.u_idx.size
        assert seen == unordered_triads(cutoff)

    def test_table_is_read_only(self):
        table = _triad_table((3, 3))
        for arr in (table.u_idx, table.v_idx, table.weights, table.matrix.data):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestPseudoSpectralOracle:
    def test_zero_field(self):
        z = SpectralField.zeros(TWO_PI, (3, 3))
        assert np.all(drift(z, PSEUDO_SPECTRAL).coeffs == 0.0)

    def test_single_mode_steady(self):
        f = SpectralField.from_modes(TWO_PI, (3, 3), {(2, 1): 1.0 + 0.5j})
        assert sobolev_norm(drift(f, PSEUDO_SPECTRAL), 0.0) <= 1e-12

    def test_insufficient_grid_rejected(self, rng):
        f = random_field(rng, TWO_PI, (4, 4))
        with pytest.raises(ValueError):
            drift(f, PSEUDO_SPECTRAL, grid=15)

    def test_agreement_on_gibbs_like_fields(self, rng):
        for cutoff in ((4, 4), (6, 6)):
            for _ in range(3):
                f = decaying_field(rng, TWO_PI, cutoff)
                direct = drift(f)
                oracle = drift(f, PSEUDO_SPECTRAL)
                scale = sobolev_norm(direct, 0.0)
                err = sobolev_norm(direct - oracle, 0.0)
                assert err <= 1e-10 * scale

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.floats(0.3, 40.0).filter(lambda length: abs(length - TWO_PI) > 1e-6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_triad_matches_collocation_property(self, n1, n2, period, seed):
        field = random_field(np.random.default_rng(seed), period, (n1, n2))
        direct = drift(field).coeffs
        oracle = drift(field, PSEUDO_SPECTRAL).coeffs
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - oracle)) <= 1e-12 * scale + 1e-300

    def test_agreement_off_unit_period(self, rng):
        f = decaying_field(rng, 3.7, (5, 5))
        direct = drift(f)
        oracle = drift(f, PSEUDO_SPECTRAL, grid=24)
        assert sobolev_norm(direct - oracle, 0.0) <= 1e-10 * sobolev_norm(direct, 0.0)


def unpruned_collocation(coeffs, period, cutoff, grid):
    """Reference collocation drift: the full Hermitian half-spectrum, no plan cache,
    all rows in one pass, out-of-place arithmetic."""
    m = grid
    length = float(period)
    k1, k2 = mode_arrays(cutoff)
    half = m // 2
    pos = k2 > 0
    neg = k2 < 0
    axis = k2 == 0
    spec = np.zeros((coeffs.shape[0], m, half + 1), dtype=np.complex128)
    spec[:, k1[pos] % m, k2[pos]] = coeffs[:, pos]
    spec[:, (-k1[neg]) % m, -k2[neg]] = np.conj(coeffs[:, neg])
    spec[:, k1[axis] % m, 0] = coeffs[:, axis]
    spec[:, (-k1[axis]) % m, 0] = np.conj(coeffs[:, axis])

    m1 = (np.fft.fftfreq(m) * m)[:, None]
    m2 = (np.fft.rfftfreq(m) * m)[None, :]
    d1 = 1j * (TWO_PI / length) * m1
    d2 = 1j * (TWO_PI / length) * m2
    lap = -((TWO_PI / length) ** 2) * (m1 * m1 + m2 * m2)
    shape = (m, m)

    scale = m * m / length
    u1 = np.fft.irfft2(spec * (-d2), s=shape) * scale
    u2 = np.fft.irfft2(spec * d1, s=shape) * scale
    g1 = np.fft.irfft2(spec * (lap * d1), s=shape) * scale
    g2 = np.fft.irfft2(spec * (lap * d2), s=shape) * scale

    advect = -(u1 * g1 + u2 * g2)
    transformed = np.fft.rfft2(advect) * (length / (m * m))
    vort_rate = np.empty_like(coeffs)
    nonneg = ~neg
    vort_rate[:, nonneg] = transformed[:, k1[nonneg] % m, k2[nonneg]]
    vort_rate[:, neg] = np.conj(transformed[:, (-k1[neg]) % m, -k2[neg]])
    lap_box = -((TWO_PI / length) ** 2) * (k1 * k1 + k2 * k2).astype(np.float64)
    return vort_rate / lap_box


def pseudo_chunk_rows(grid):
    return max(1, _PSEUDO_FIELD_BYTES // (8 * grid * grid))


def random_rows(rng, cutoff, count):
    n = len(mode_box(cutoff))
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


class TestPrunedCollocation:
    @pytest.mark.parametrize(
        "cutoff, grid, period",
        [
            ((1, 5), 20, 0.7),
            ((5, 1), 23, 13.0),
            ((2, 4), 19, TWO_PI),
            ((3, 3), 12, 2.5),
            ((4, 2), 21, 0.7),
            ((6, 6), 24, TWO_PI),
            ((6, 6), 27, 13.0),
        ],
    )
    def test_bitwise_equal_to_unpruned_reference(self, cutoff, grid, period, rng):
        # more rows than one chunk, so the pruned path crosses a chunk boundary
        coeffs = random_rows(rng, cutoff, pseudo_chunk_rows(grid) + 5)
        coeffs[3] = 0.0
        got = drift_batch(coeffs, period, cutoff, PSEUDO_SPECTRAL, grid=grid)
        expected = unpruned_collocation(coeffs, period, cutoff, grid)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cutoff, grid", [((6, 6), 24), ((8, 8), 32)])
    def test_batch_matches_single_across_chunks(self, cutoff, grid, rng):
        count = 2 * pseudo_chunk_rows(grid) + 3
        coeffs = random_rows(rng, cutoff, count)
        batch = drift_batch(coeffs, 3.3, cutoff, PSEUDO_SPECTRAL, grid=grid)
        for row, single in zip(batch, coeffs):
            f = SpectralField(3.3, cutoff, single)
            assert row.tobytes() == drift(f, PSEUDO_SPECTRAL, grid=grid).coeffs.tobytes()

    def test_evolve_threads_are_bitwise_irrelevant(self, rng):
        cutoff, grid = (6, 6), 24
        cfg = IntegratorConfig(
            scheme="implicit_midpoint",
            dt=1e-2,
            t_final=0.03,
            drift_method=PSEUDO_SPECTRAL,
            grid=grid,
        )
        coeffs = np.stack(
            [
                decaying_field(rng, TWO_PI, cutoff).coeffs
                for _ in range(2 * pseudo_chunk_rows(grid) + 3)
            ]
        )
        one = evolve_coeffs(coeffs, TWO_PI, cutoff, cfg, threads=1)
        assert one.failed_members == ()
        for threads in (2, 3):
            other = evolve_coeffs(coeffs, TWO_PI, cutoff, cfg, threads=threads)
            assert other.coeffs.tobytes() == one.coeffs.tobytes()


class TestPseudoPlan:
    @pytest.mark.parametrize(
        "cutoff, grid", [((4, 7), 31), ((5, 3), 21), ((6, 6), 24), ((1, 1), 4), ((3, 1), 13)]
    )
    def test_modes_are_placed_and_read_back_at_their_own_entries(self, rng, cutoff, grid):
        plan = _pseudo_plan(2.5, cutoff, grid)
        k1, k2 = mode_arrays(cutoff)
        n = k1.size
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pruned = np.zeros(grid * plan.width, dtype=np.complex128)
        pruned[plan.put] = np.concatenate([coeffs, np.conj(coeffs)])[plan.select]
        spectrum = np.zeros((grid, grid // 2 + 1), dtype=np.complex128)
        spectrum[:, : plan.width] = pruned.reshape(grid, plan.width)
        # k sits at (k1 mod grid, k2) when k2 >= 0, and conj at (-k1 mod grid, -k2)
        # when k2 <= 0: a k2 = 0 mode gets both Hermitian partners, no mode more
        for c, a, b in zip(coeffs, k1, k2):
            if b >= 0:
                assert spectrum[a % grid, b] == c
            if b <= 0:
                assert spectrum[-a % grid, -b] == np.conj(c)
        assert np.count_nonzero(spectrum) == n + np.count_nonzero(k2 == 0)
        # each mode reads back its own entry, conjugated where k2 < 0
        assert np.unique(plan.take).size == n
        assert np.array_equal(plan.neg, np.nonzero(k2 < 0)[0])
        read = spectrum.reshape(-1)[plan.take]
        read[plan.neg] = np.conj(read[plan.neg])
        assert np.array_equal(read, coeffs)


class TestDriftMemory:
    @pytest.mark.parametrize(
        "method, budget",
        [(TRIAD_SUM, _TRIAD_TERMS_BYTES), (PSEUDO_SPECTRAL, _PSEUDO_FIELD_BYTES)],
    )
    def test_peak_is_bounded_by_the_chunk_budget(self, method, budget, rng):
        # numpy reports its buffers to tracemalloc; the plan and table caches
        # are warmed first, so the peak is one call's working set
        cutoff = (16, 16)
        coeffs = random_rows(rng, cutoff, 512)
        drift_batch(coeffs[:1], 1.0, cutoff, method)
        tracemalloc.start()
        try:
            out = drift_batch(coeffs, 1.0, cutoff, method)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * budget + out.nbytes

    def test_triad_call_holds_one_operand_and_one_slice(self, rng):
        # at (16, 16) one row's pair products exceed the chunk budget, so every
        # chunk is one row; both full operands would exceed this bound
        cutoff = (16, 16)
        coeffs = random_rows(rng, cutoff, 512)
        drift_batch(coeffs[:1], 1.0, cutoff)
        one_row = 16 * _triad_table(cutoff).u_idx.size
        assert one_row > _TRIAD_TERMS_BYTES
        tracemalloc.start()
        try:
            out = drift_batch(coeffs, 1.0, cutoff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one slice holds the second operands; the other is headroom for the
        # signed-mode vectors and the sums, since the take indices are
        # writeable and numpy copies none of them
        assert peak <= one_row + 2 * _TRIAD_SLICE_BYTES + out.nbytes

    def test_one_row_call_copies_no_index_array(self, rng):
        # numpy's take copies a read-only index array on every call, 88 KB per
        # operand at (8, 8); a one-row call holds its products, one slice of
        # second operands as large, and a few KB of signed modes and sums
        cutoff = (8, 8)
        coeffs = random_rows(rng, cutoff, 1)
        drift_batch(coeffs, 1.0, cutoff)
        table = _triad_table(cutoff)
        operands = 2 * 16 * table.u_idx.size
        tracemalloc.start()
        try:
            drift_batch(coeffs, 1.0, cutoff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.u_idx.nbytes > 64 * 1024
        assert peak <= operands + 32 * 1024


def triad_reference(coeffs, period, cutoff):
    """The triad drift of each row alone, with both pair operands gathered whole."""
    table = _triad_table(cutoff)
    rows = []
    for row in coeffs:
        signed = np.concatenate([row, np.conj(row)])[:, None]
        terms = signed[table.u_idx] * signed[table.v_idx]
        sums = (table.matrix @ terms.view(np.float64)).view(np.complex128)
        rows.append(TWO_PI**2 / float(period) ** 3 * sums.T)
    return np.concatenate(rows)


class TestTriadSlices:
    @pytest.mark.parametrize("cutoff", [(3, 3), (8, 8), (16, 16)])
    @pytest.mark.parametrize("count", [1, 5, 7])
    def test_slice_size_is_bitwise_irrelevant(self, monkeypatch, rng, cutoff, count):
        coeffs = random_rows(rng, cutoff, count)
        expected = triad_reference(coeffs, 1.3, cutoff)
        pairs = _triad_table(cutoff).u_idx.size
        # the smallest slice (two pairs), a few pairs, a last slice of one
        # pair in every one-row chunk, and one slice of the whole table
        for budget in (1, 48 * count, 16 * (pairs - 1), 16 * count * (pairs + 1)):
            if budget == 1 and cutoff == (16, 16) and count > 1:
                continue  # every (16, 16) chunk is one row, so one row covers it
            monkeypatch.setattr(drift_module, "_TRIAD_SLICE_BYTES", budget)
            out = drift_batch(coeffs, 1.3, cutoff)
            assert out.tobytes() == expected.tobytes()

    def test_a_last_slice_of_one_pair_is_formed_like_the_rest(self, monkeypatch, rng):
        # numpy rounds a lone complex product differently in about one call
        # in five at (3, 3), so many one-row calls show a lone last product
        cutoff = (3, 3)
        coeffs = random_rows(rng, cutoff, 64)
        expected = triad_reference(coeffs, 1.3, cutoff)
        pairs = _triad_table(cutoff).u_idx.size
        monkeypatch.setattr(drift_module, "_TRIAD_SLICE_BYTES", 16 * (pairs - 1))
        for row, reference in zip(coeffs, expected):
            assert drift_batch(row[None, :], 1.3, cutoff)[0].tobytes() == reference.tobytes()


class TestConservation:
    def test_zero_field_exact(self):
        z = SpectralField.zeros(TWO_PI, (3, 3))
        assert quadratic_derivative(z, "energy") == 0.0
        assert quadratic_derivative(z, "enstrophy") == 0.0

    def test_unknown_functional(self, rng):
        f = random_field(rng, TWO_PI, (2, 2))
        with pytest.raises(ValueError):
            quadratic_derivative(f, "momentum")

    @pytest.mark.parametrize("functional", ["energy", "enstrophy"])
    def test_conserved_along_drift(self, functional, rng):
        from eulergibbs.spectral import enstrophy

        for _ in range(20):
            f = decaying_field(rng, TWO_PI, (5, 5))
            rate = drift(f)
            scale = enstrophy(f) ** 0.5 * sobolev_norm(rate, 0.0)
            assert abs(quadratic_derivative(f, functional)) <= 1e-10 * max(scale, 1e-30)


class TestJacobianTrace:
    def test_zero_field_exact(self):
        z = SpectralField.zeros(TWO_PI, (3, 3))
        result = jacobian_trace_estimate(z)
        assert result.trace == 0.0
        assert result.frobenius_norm == 0.0

    def test_divergence_free_at_gibbs_points(self, rng):
        for _ in range(4):
            f = decaying_field(rng, TWO_PI, (4, 4))
            result = jacobian_trace_estimate(f, eps=1e-5)
            assert result.frobenius_norm > 0.0
            assert abs(result.trace) <= 1e-6 * result.frobenius_norm

    def test_scaling(self, rng):
        f = decaying_field(rng, TWO_PI, (3, 3))
        scaled = jacobian_trace_estimate(2.0 * f, eps=2e-5)
        assert abs(scaled.trace) <= 1e-6 * scaled.frobenius_norm

    def test_bad_eps(self, rng):
        f = random_field(rng, TWO_PI, (2, 2))
        with pytest.raises(ValueError):
            jacobian_trace_estimate(f, eps=0.0)

