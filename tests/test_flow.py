"""Integrator schemes: steady states, order, reversibility, conservation, batching."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eulergibbs import flow
from eulergibbs.drift import drift_batch
from eulergibbs.flow import (
    EnsembleEvolution,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    _openblas_threads,
    _plan_steps,
    evolve,
    evolve_coeffs,
    map_row_blocks,
    step,
)
from eulergibbs.gibbs import GibbsParams, RngStream, sample_coeff_matrix
from eulergibbs.spectral import SpectralField, enstrophy, energy, sobolev_norm

from conftest import random_field
from test_drift import decaying_field

TWO_PI = 2.0 * math.pi


class TestConfig:
    def test_defaults_valid(self):
        cfg = IntegratorConfig()
        assert cfg.scheme == "rk4"
        assert cfg.dt == 1e-3
        assert cfg.fixed_point_tol == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheme": "euler"},
            {"dt": 0.0},
            {"dt": -1e-3},
            {"snapshot_stride": -1},
            {"fixed_point_tol": 0.0},
            {"max_fixed_point_iters": 0},
            {"drift_method": "magic"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


class TestStepPlan:
    @pytest.mark.parametrize(
        "dt, t_final, expected",
        [
            (1e-3, 0.003, [1e-3] * 3),
            (0.3, 1.0, [0.3, 0.3, 0.3, 1.0 - 3 * 0.3]),
            (0.3, -1.0, [-0.3, -0.3, -0.3, -(1.0 - 3 * 0.3)]),
            (0.25, 0.1, [0.1]),
            (1e-3, 0.0, []),
        ],
    )
    def test_whole_steps_then_the_remainder(self, dt, t_final, expected):
        plan = _plan_steps(dt, t_final)
        assert list(plan) == expected
        assert len(plan) == len(expected)

    def test_plan_size_does_not_grow_with_the_horizon(self):
        plan = _plan_steps(0.5, 2.0**52)
        assert len(plan) == 2**53
        assert list(itertools.islice(plan, 3)) == [0.5] * 3

    def test_more_than_2_53_steps_rejected(self):
        # (index + 1) * dt gives exact snapshot times only up to 2^53 steps
        IntegratorConfig(dt=0.5, t_final=2.0**52)
        IntegratorConfig(dt=0.5, t_final=-(2.0**52))
        for dt, t_final in ((0.5, 2.0**52 + 1.0), (1e-12, 1e6), (5e-324, 1.0), (1e-3, -1e300)):
            with pytest.raises(ValueError, match="2\\^53 steps"):
                IntegratorConfig(dt=dt, t_final=t_final)


class TestStep:
    @pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
    def test_single_mode_unchanged(self, scheme):
        f = SpectralField.from_modes(TWO_PI, (3, 3), {(2, 1): 0.8 - 0.1j})
        cfg = IntegratorConfig(scheme=scheme, dt=1e-2, t_final=1.0)
        g = step(f, cfg)
        assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-13

    @pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
    def test_zero_field_fixed(self, scheme):
        z = SpectralField.zeros(TWO_PI, (2, 2))
        cfg = IntegratorConfig(scheme=scheme, dt=1e-2, t_final=1.0)
        assert np.all(step(z, cfg).coeffs == 0.0)

    def test_rk4_self_convergence_order(self, rng):
        # Richardson triplet: halving dt should cut the increment by about 2^4
        f = decaying_field(rng, TWO_PI, (4, 4))
        finals = []
        for dt in (0.01, 0.005, 0.0025):
            cfg = IntegratorConfig(scheme="rk4", dt=dt, t_final=0.1)
            finals.append(evolve(f, cfg).final)
        coarse = sobolev_norm(finals[0] - finals[1], 0.0)
        fine = sobolev_norm(finals[1] - finals[2], 0.0)
        ratio = coarse / fine
        assert 10.0 <= ratio <= 25.0

    def test_midpoint_stall_reported(self, rng):
        f = random_field(rng, TWO_PI, (3, 3), scale=20.0)
        cfg = IntegratorConfig(
            scheme="implicit_midpoint", dt=5.0, t_final=5.0, max_fixed_point_iters=3
        )
        with pytest.raises(IntegrationError):
            step(f, cfg)


class TestEvolve:
    def test_shell_steady_state(self):
        f = SpectralField.from_modes(
            TWO_PI, (4, 4), {(1, 0): 0.9 + 0.4j, (0, 1): -0.2 + 1.1j}
        )
        cfg = IntegratorConfig(scheme="rk4", dt=1e-3, t_final=2.0)
        out = evolve(f, cfg)
        assert sobolev_norm(out.final - f, 0.0) <= 1e-10

    def test_reversibility(self, rng):
        f = decaying_field(rng, TWO_PI, (6, 6))
        forward = IntegratorConfig(scheme="rk4", dt=1e-3, t_final=1.0)
        backward = IntegratorConfig(scheme="rk4", dt=1e-3, t_final=-1.0)
        there = evolve(f, forward).final
        back = evolve(there, backward).final
        assert sobolev_norm(back - f, 0.0) <= 1e-6

    def test_midpoint_conserves_enstrophy(self, rng):
        f = decaying_field(rng, TWO_PI, (4, 4))
        cfg = IntegratorConfig(scheme="implicit_midpoint", dt=1e-2, t_final=1.0)
        out = evolve(f, cfg)
        assert out.enstrophy_drift <= 1e-8
        assert out.energy_drift <= 1e-8

    def test_rk4_small_conservation_drift(self, rng):
        f = decaying_field(rng, TWO_PI, (4, 4))
        cfg = IntegratorConfig(scheme="rk4", dt=1e-3, t_final=0.5)
        out = evolve(f, cfg)
        assert out.enstrophy_drift <= 1e-10

    def test_snapshot_stride(self, rng):
        f = decaying_field(rng, TWO_PI, (3, 3))
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_final=0.05, snapshot_stride=2)
        out = evolve(f, cfg)
        times = [t for t, _ in out.samples]
        assert times == pytest.approx([0.0, 0.02, 0.04, 0.05])

    def test_endpoints_only_by_default(self, rng):
        f = decaying_field(rng, TWO_PI, (3, 3))
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_final=0.1)
        out = evolve(f, cfg)
        assert len(out.samples) == 2
        assert out.samples[0][1] == f

    def test_fractional_horizon(self, rng):
        f = decaying_field(rng, TWO_PI, (3, 3))
        for t_final in (0.025, -0.025):
            cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_final=t_final)
            out = evolve(f, cfg)
            assert out.samples[-1][0] == t_final

    @pytest.mark.parametrize("t_final", [1.0, -1.0])
    def test_times_come_from_the_step_index(self, t_final):
        # a running t += dt would end at 1.0000000000000007 here
        f = SpectralField.from_modes(TWO_PI, (1, 1), {(1, 0): 0.5, (1, 1): 0.25j})
        cfg = IntegratorConfig(scheme="rk4", dt=1e-3, t_final=t_final, snapshot_stride=1)
        times = [t for t, _ in evolve(f, cfg).samples]
        assert len(times) == 1001
        h = math.copysign(1e-3, t_final)
        assert times[:-1] == [i * h for i in range(1000)]
        assert times[-1] == t_final

    def test_zero_horizon(self, rng):
        f = decaying_field(rng, TWO_PI, (3, 3))
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_final=0.0)
        out = evolve(f, cfg)
        assert len(out.samples) == 1
        assert out.final == f

    def test_determinism(self, rng):
        f = decaying_field(rng, TWO_PI, (4, 4))
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_final=0.3)
        a = evolve(f, cfg).final
        b = evolve(f, cfg).final
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_records_schema(self, rng):
        f = decaying_field(rng, TWO_PI, (2, 2))
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_final=0.02)
        recs = evolve(f, cfg).records()
        assert [r["t"] for r in recs] == pytest.approx([0.0, 0.02])
        for r in recs:
            assert r["schema"] == "trajectory.v1"
            assert set(r) == {"schema", "t", "energy", "enstrophy", "field"}
            rebuilt = SpectralField.from_record(r["field"])
            assert rebuilt.cutoff == f.cutoff


class TestEnsembleEvolution:
    def test_batch_matches_single(self, rng):
        fields = [decaying_field(rng, TWO_PI, (4, 4)) for _ in range(6)]
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_final=0.2)
        batch = evolve_coeffs(np.stack([f.coeffs for f in fields]), TWO_PI, (4, 4), cfg)
        assert batch.failed_members == ()
        for row, f in zip(batch.coeffs, fields):
            single = evolve(f, cfg).final
            assert np.array_equal(row, single.coeffs)

    def test_thread_count_is_bitwise_irrelevant(self, rng):
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_final=0.2)
        for cutoff in ((4, 4), (8, 8)):
            coeffs = np.stack(
                [decaying_field(rng, TWO_PI, cutoff).coeffs for _ in range(11)]
            )
            one = evolve_coeffs(coeffs, TWO_PI, cutoff, cfg, threads=1)
            for threads in (2, 3):
                other = evolve_coeffs(coeffs, TWO_PI, cutoff, cfg, threads=threads)
                assert np.array_equal(one.coeffs, other.coeffs)

    def test_midpoint_batch_matches_single(self, rng):
        fields = [decaying_field(rng, TWO_PI, (3, 3)) for _ in range(4)]
        cfg = IntegratorConfig(scheme="implicit_midpoint", dt=1e-2, t_final=0.1)
        batch = evolve_coeffs(np.stack([f.coeffs for f in fields]), TWO_PI, (3, 3), cfg)
        for row, f in zip(batch.coeffs, fields):
            assert np.array_equal(row, evolve(f, cfg).final.coeffs)

    def test_failures_reported_not_raised(self, rng):
        good = decaying_field(rng, TWO_PI, (3, 3))
        wild = random_field(rng, TWO_PI, (3, 3), scale=30.0)
        coeffs = np.stack([good.coeffs, wild.coeffs])
        cfg = IntegratorConfig(
            scheme="implicit_midpoint", dt=5.0, t_final=10.0, max_fixed_point_iters=3
        )
        out = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg)
        assert 1 in out.failed_members
        assert np.isnan(out.coeffs[out.failed_members[0]]).all()
        for i in range(coeffs.shape[0]):
            if i not in out.failed_members:
                assert np.isfinite(out.coeffs[i]).all()

    # the rows fail on the pool's threads, where np.errstate does not reach
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("t_final, wild", [(0.0, False), (0.2, False), (10.0, True)])
    def test_input_is_read_only_and_not_shared(self, rng, t_final, wild):
        coeffs = np.stack([decaying_field(rng, TWO_PI, (3, 3)).coeffs for _ in range(4)])
        if wild:
            coeffs[1] = random_field(rng, TWO_PI, (3, 3), scale=30.0).coeffs
        before = coeffs.copy()
        cfg = IntegratorConfig(
            scheme="implicit_midpoint", dt=5.0 if wild else 1e-2, t_final=t_final,
            max_fixed_point_iters=3 if wild else 100,
        )
        for threads in (1, 2):
            out = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg, threads=threads)
            assert np.array_equal(coeffs, before)
            assert not np.shares_memory(out.coeffs, coeffs)
            assert (1 in out.failed_members) == wild
            if t_final == 0.0:
                assert np.array_equal(out.coeffs, before)

    def test_pseudo_spectral_backend_agrees(self, rng):
        coeffs = np.stack([decaying_field(rng, TWO_PI, (4, 4)).coeffs for _ in range(3)])
        triad = IntegratorConfig(scheme="rk4", dt=1e-2, t_final=0.2, drift_method="triad_sum")
        pseudo = IntegratorConfig(
            scheme="rk4", dt=1e-2, t_final=0.2, drift_method="pseudo_spectral"
        )
        a = evolve_coeffs(coeffs, TWO_PI, (4, 4), triad).coeffs
        b = evolve_coeffs(coeffs, TWO_PI, (4, 4), pseudo).coeffs
        assert np.max(np.abs(a - b)) <= 1e-9


class TestSteppingContract:
    @pytest.mark.parametrize(
        "scheme,scale,cfg_extra,cause",
        [
            ("rk4", 5.0, {"dt": 0.1}, "overflowed"),
            (
                "implicit_midpoint",
                3.0,
                {"dt": 0.05, "max_fixed_point_iters": 40},
                "failed to reach tol",
            ),
        ],
    )
    def test_evolve_raises_at_the_first_failed_step(self, rng, scheme, scale, cfg_extra, cause):
        f = random_field(rng, TWO_PI, (3, 3), scale=scale)
        cfg = IntegratorConfig(scheme=scheme, t_final=100 * cfg_extra["dt"], **cfg_extra)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as caught:
                evolve(f, cfg)
        error = caught.value
        assert error.step > 0
        assert error.members == (0,)
        assert cause in str(error)
        assert f"at step {error.step} " in str(error)
        # every step before the failing one completes
        before = evolve(f, replace(cfg, t_final=error.step * cfg.dt)).final
        assert np.isfinite(before.coeffs).all()

    @pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_step_is_a_one_dt_evolve(self, rng, scheme, direction):
        f = decaying_field(rng, TWO_PI, (4, 4))
        cfg = IntegratorConfig(scheme=scheme, dt=0.02, t_final=direction * 1.0)
        one_dt = evolve(f, replace(cfg, t_final=direction * 0.02)).final
        assert np.array_equal(step(f, cfg).coeffs, one_dt.coeffs)


class TestRowBlocks:
    @pytest.mark.parametrize("rows", [1, 2])
    def test_fewer_rows_than_threads(self, rng, rows):
        coeffs = np.stack([decaying_field(rng, TWO_PI, (4, 4)).coeffs for _ in range(rows)])

        def rates(lo: int, hi: int) -> np.ndarray:
            return drift_batch(coeffs[lo:hi], TWO_PI, (4, 4))

        lone = map_row_blocks(rates, rows, 1)
        cfg = IntegratorConfig(scheme="implicit_midpoint", dt=1e-2, t_final=0.05)
        evolved = evolve_coeffs(coeffs, TWO_PI, (4, 4), cfg, threads=1).coeffs
        for threads in (2, 3):
            blocks = map_row_blocks(rates, rows, threads)
            assert len(blocks) == rows
            assert np.array_equal(np.concatenate(blocks), np.concatenate(lone))
            other = evolve_coeffs(coeffs, TWO_PI, (4, 4), cfg, threads=threads).coeffs
            assert np.array_equal(other, evolved)

    def test_bundled_openblas_is_pinned_inside_the_blocks(self):
        blas = _openblas_threads()
        if blas is None:
            pytest.skip("numpy has no bundled OpenBLAS with a thread-count symbol")
        get, put = blas
        saved = get()
        try:
            put(2)
            inside = map_row_blocks(lambda lo, hi: get(), 4, threads=2)
            assert inside == [1, 1]
            assert get() == 2
        finally:
            put(saved)


class TestMarchBlocks:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
    @pytest.mark.parametrize("method", ["triad_sum", "pseudo_spectral"])
    def test_block_size_and_threads_are_bitwise_irrelevant(self, rng, monkeypatch, scheme, method):
        coeffs = np.stack([decaying_field(rng, TWO_PI, (3, 3)).coeffs for _ in range(9)])
        # every third row is wild enough to fail
        coeffs[1::3] = random_field(rng, TWO_PI, (3, 3), scale=30.0).coeffs
        cfg = IntegratorConfig(scheme=scheme, dt=0.05, t_final=1.0, drift_method=method)
        row = coeffs[0].nbytes
        # one block of the whole ensemble is the unblocked march
        monkeypatch.setattr(flow, "_MARCH_BLOCK_BYTES", coeffs.nbytes + row)
        whole = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg)
        assert whole.failed_members == (1, 4, 7)
        for budget in (1, 2 * row, coeffs.nbytes + row):
            monkeypatch.setattr(flow, "_MARCH_BLOCK_BYTES", budget)
            for threads in (1, 2, 3):
                out = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg, threads=threads)
                assert out.failed_members == whole.failed_members
                assert np.array_equal(out.coeffs, whole.coeffs, equal_nan=True)

    @pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
    def test_peak_is_bounded_by_the_block_budget(self, scheme):
        # the input exists before tracing starts, so the traced peak is the
        # output plus the working set, which must not grow with the ensemble
        p = GibbsParams(1.0, TWO_PI, (4, 4))
        cfg = IntegratorConfig(
            scheme=scheme, dt=1e-2, t_final=1e-2, drift_method="pseudo_spectral"
        )
        for members in (1500, 6000):
            coeffs = sample_coeff_matrix(p, RngStream(7), members)
            evolve_coeffs(coeffs[:1], p.period, p.cutoff, cfg)
            assert coeffs.nbytes > 3 * flow._MARCH_BLOCK_BYTES
            tracemalloc.start()
            try:
                out = evolve_coeffs(coeffs, p.period, p.cutoff, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.failed_members == ()
            assert peak <= out.coeffs.nbytes + 12 * flow._MARCH_BLOCK_BYTES
