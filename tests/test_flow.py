"""Integrator schemes: steady states, order, reversibility, conservation, batching."""

import importlib
import itertools
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eulergibbs import flow
from eulergibbs.drift import _TRIAD_SLICE_BYTES, _TRIAD_TERMS_BYTES, drift_batch
from eulergibbs.flow import (
    EnsembleEvolution,
    IntegrationError,
    IntegratorConfig,
    MemberFailure,
    Trajectory,
    _openblas_threads,
    _plan_steps,
    evolve,
    evolve_coeffs,
    map_row_blocks,
)
from eulergibbs.gibbs import GibbsParams, RngStream, sample_coeff_matrix
from eulergibbs.spectral import SpectralField, enstrophy, energy, sobolev_norm

from conftest import random_field
from test_drift import decaying_field

TWO_PI = 2.0 * math.pi


def step(f: SpectralField, cfg: IntegratorConfig) -> SpectralField:
    """A single step of the configured scheme (signed by the direction of t_final)."""
    h = math.copysign(cfg.dt, cfg.t_final) if cfg.t_final != 0.0 else cfg.dt
    return evolve(f, replace(cfg, t_final=h, snapshot_stride=0)).final


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

    @pytest.mark.parametrize("name", ["snapshot_stride", "max_fixed_point_iters"])
    def test_a_fractional_count_is_rejected_not_truncated(self, name):
        for value in (1.7, 2.5, np.float64(3.25)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                IntegratorConfig(**{name: value})
        for value in (2, 2.0, np.int64(2)):
            stored = getattr(IntegratorConfig(**{name: value}), name)
            assert stored == 2 and type(stored) is int


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


def rk4_reference(coeffs, h, period, cutoff, cfg):
    """The classical rk4 step as one expression, the form _rk4_step sums in place."""

    def rhs(c):
        return drift_batch(c, period, cutoff, method=cfg.drift_method, grid=cfg.grid)

    k1 = rhs(coeffs)
    k2 = rhs(coeffs + (0.5 * h) * k1)
    k3 = rhs(coeffs + (0.5 * h) * k2)
    k4 = rhs(coeffs + h * k3)
    return coeffs + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


class TestInPlaceStages:
    @pytest.mark.parametrize("method", ["triad_sum", "pseudo_spectral"])
    @pytest.mark.parametrize("rows", [1, 2, 9])
    def test_rk4_step_is_bitwise_the_expression(self, rng, method, rows):
        cutoff = (4, 4)
        coeffs = np.stack([decaying_field(rng, TWO_PI, cutoff).coeffs for _ in range(rows)])
        if rows > 2:
            # an infinite, a NaN and an overflowing row share the block
            coeffs[1, 3] = np.inf
            coeffs[4, 0] = complex(np.nan, 1.0)
            coeffs[7] *= 1e160
        cfg = IntegratorConfig(drift_method=method)
        for h in (0.05, -0.05):
            with np.errstate(over="ignore", invalid="ignore"):
                expected = rk4_reference(coeffs, h, TWO_PI, cutoff, cfg)
                out = flow._rk4_step(coeffs, h, TWO_PI, cutoff, cfg)
            if rows > 2:
                assert not np.isfinite(expected[[1, 4, 7]]).all(axis=1).any()
            assert out.tobytes() == expected.tobytes()


class TestPlanBuilds:
    @pytest.mark.parametrize("method", ["triad_sum", "pseudo_spectral"])
    @pytest.mark.parametrize("threads", [2, 3])
    def test_threads_build_each_plan_once(self, rng, monkeypatch, method, threads):
        # a slow builder holds its first build open while the other threads
        # miss the cache, so a cache that does not wait for it builds again
        drift_module = importlib.import_module("eulergibbs.drift")
        builds = []
        real = drift_module.mode_arrays

        def slow(cutoff):
            builds.append(cutoff)
            time.sleep(0.05)
            return real(cutoff)

        monkeypatch.setattr(drift_module, "mode_arrays", slow)
        drift_module._triad_table.cache_clear()
        drift_module._pseudo_plan.cache_clear()
        coeffs = np.stack([decaying_field(rng, TWO_PI, (5, 5)).coeffs for _ in range(6)])
        cfg = IntegratorConfig(dt=1e-2, t_final=1e-2, drift_method=method)
        evolve_coeffs(coeffs, TWO_PI, (5, 5), cfg, threads=threads)
        assert builds == [(5, 5)]


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

    def test_records_are_built_from_the_rows_as_from_the_fields(self, rng):
        f = decaying_field(rng, TWO_PI, (3, 2))
        out = evolve(f, IntegratorConfig(scheme="rk4", dt=1e-2, t_final=0.03, snapshot_stride=1))
        expected = [
            {
                "schema": "trajectory.v1",
                "t": t,
                "energy": energy(g),
                "enstrophy": enstrophy(g),
                "field": g.to_record(),
            }
            for t, g in out
        ]
        assert len(expected) == 4
        assert out.records() == expected


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

    def test_a_row_that_stalls_and_overflows_is_recorded_as_a_stall(self, rng):
        # an infinite row's fixed-point increments are NaN, so it never converges
        # and its stepped value is not finite; the stall is its recorded cause
        coeffs = np.stack([decaying_field(rng, TWO_PI, (3, 3)).coeffs for _ in range(3)])
        coeffs[1, 0] = np.inf
        cfg = IntegratorConfig(scheme="implicit_midpoint", dt=0.05, t_final=0.2)
        with np.errstate(over="ignore", invalid="ignore"):
            out = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg)
        cause = "implicit midpoint failed to reach tol=1e-12 within 100 iterations"
        assert out.failures == (MemberFailure(1, 0, 0.05, cause),)

    def test_a_row_with_a_nan_increment_stops_iterating_at_once(self, rng, monkeypatch):
        # a NaN increment can never pass the tolerance, so the NaN row takes
        # its step's first drift and one fixed-point drift, then stops
        coeffs = np.stack([decaying_field(rng, TWO_PI, (3, 3)).coeffs for _ in range(3)])
        coeffs[1, 2] = complex(np.nan, 0.0)
        cfg = IntegratorConfig(scheme="implicit_midpoint", dt=0.01, t_final=0.02)
        rows = []

        def counted(c, *args, **kwargs):
            rows.append(c.shape[0])
            return drift_batch(c, *args, **kwargs)

        monkeypatch.setattr(flow, "drift_batch", counted)
        finite = evolve_coeffs(coeffs[[0, 2]], TWO_PI, (3, 3), cfg)
        finite_rows, rows[:] = sum(rows), []
        with np.errstate(invalid="ignore"):
            out = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg)
        assert sum(rows) == finite_rows + 2
        cause = "implicit midpoint failed to reach tol=1e-12 within 100 iterations"
        assert out.failures == (MemberFailure(1, 0, 0.01, cause),)
        assert np.isnan(out.coeffs[1]).all()
        assert np.array_equal(out.coeffs[[0, 2]], finite.coeffs)

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


class TestSnapshots:
    @pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
    @pytest.mark.parametrize("t_final", [0.075, -0.075])
    def test_each_snapshot_is_a_separate_evolution_to_its_time(self, rng, scheme, t_final):
        # 7 whole steps and a remainder; the stride does not divide the 8 steps
        coeffs = np.stack([decaying_field(rng, TWO_PI, (3, 3)).coeffs for _ in range(4)])
        cfg = IntegratorConfig(scheme=scheme, dt=0.01, t_final=t_final, snapshot_stride=3)
        out = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg)
        h = math.copysign(0.01, t_final)
        assert out.times == (3 * h, 6 * h, t_final)
        assert out.snapshots.shape == (3, *coeffs.shape)
        assert np.array_equal(out.coeffs, out.snapshots[-1])
        for t, rows in zip(out.times, out.snapshots):
            alone = evolve_coeffs(coeffs, TWO_PI, (3, 3), replace(cfg, t_final=t, snapshot_stride=0))
            assert alone.times == (t,)
            assert np.array_equal(rows, alone.coeffs)

    def test_a_zero_horizon_takes_no_snapshot(self, rng):
        coeffs = np.stack([decaying_field(rng, TWO_PI, (3, 3)).coeffs for _ in range(2)])
        cfg = IntegratorConfig(dt=0.01, t_final=0.0, snapshot_stride=1)
        out = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg)
        assert out.times == () and out.snapshots.shape == (0, *coeffs.shape)
        assert np.array_equal(out.coeffs, coeffs)

    @pytest.mark.parametrize(
        "scheme,scale,cfg_extra,cause",
        [
            ("rk4", 5.0, {"dt": 0.1}, "integration overflowed"),
            (
                "implicit_midpoint",
                3.0,
                {"dt": 0.05, "max_fixed_point_iters": 40},
                "implicit midpoint failed to reach tol=1e-12 within 40 iterations",
            ),
        ],
    )
    def test_a_failed_member_is_nan_from_its_failed_step_on(
        self, rng, scheme, scale, cfg_extra, cause
    ):
        wild = random_field(rng, TWO_PI, (3, 3), scale=scale)
        coeffs = np.stack([decaying_field(rng, TWO_PI, (3, 3)).coeffs, wild.coeffs])
        cfg = IntegratorConfig(
            scheme=scheme, t_final=100 * cfg_extra["dt"], snapshot_stride=1, **cfg_extra
        )
        with np.errstate(over="ignore", invalid="ignore"):
            out = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg)
            with pytest.raises(IntegrationError) as caught:
                evolve(wild, cfg)
        (failure,) = out.failures
        assert (failure.member, failure.step, failure.cause) == (1, caught.value.step, cause)
        assert failure.message == str(caught.value)
        assert 1 < failure.step < 99
        assert failure.t == (failure.step + 1) * cfg.dt
        # snapshot k follows step k; the member is NaN there from its failed step on
        for k, rows in enumerate(out.snapshots):
            assert np.isfinite(rows[0]).all()
            assert np.isnan(rows[1]).all() == (k >= failure.step)
            assert np.isfinite(rows[1]).all() == (k < failure.step)


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
        row = coeffs[0].nbytes
        for stride in (0, 3):
            cfg = IntegratorConfig(
                scheme=scheme, dt=0.05, t_final=1.0, drift_method=method, snapshot_stride=stride
            )
            # one block of the whole ensemble is the unblocked march
            monkeypatch.setattr(flow, "_MARCH_BLOCK_BYTES", coeffs.nbytes + row)
            whole = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg)
            assert whole.failed_members == (1, 4, 7)
            for budget in (1, 2 * row, coeffs.nbytes + row):
                monkeypatch.setattr(flow, "_MARCH_BLOCK_BYTES", budget)
                for threads in (1, 2, 3):
                    out = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg, threads=threads)
                    assert out.failures == whole.failures
                    assert np.array_equal(out.coeffs, whole.coeffs, equal_nan=True)
                    assert np.array_equal(out.snapshots, whole.snapshots, equal_nan=True)

    @pytest.mark.parametrize("method", ["triad_sum", "pseudo_spectral"])
    def test_rk4_block_holds_one_accumulator_stage_and_rate(self, monkeypatch, method):
        p = GibbsParams(1.0, TWO_PI, (4, 4))
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_final=1e-2, drift_method=method)
        coeffs = sample_coeff_matrix(p, RngStream(3), 2000)
        # one block of the whole ensemble, large beside the drift's own buffers
        monkeypatch.setattr(flow, "_MARCH_BLOCK_BYTES", coeffs.nbytes)
        evolve_coeffs(coeffs[:1], p.period, p.cutoff, cfg)
        tracemalloc.start()
        try:
            out = evolve_coeffs(coeffs, p.period, p.cutoff, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the block's rows, the accumulator, the stage and one drift result,
        # plus the drift's own buffers: a triad chunk of products and a slice,
        # with a second slice of headroom (the collocation needs less); four
        # drift results and the temporaries of their sum need about twice that
        drift_buffers = _TRIAD_TERMS_BYTES + 2 * _TRIAD_SLICE_BYTES
        assert peak <= out.snapshots.nbytes + 4 * coeffs.nbytes + drift_buffers

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


class TestMidpointStart:
    """Each midpoint step after the first starts from the block's earlier rates,
    and a row that stalls from that start is solved again from the Euler guess."""

    # (3,3) Gibbs members at dt 0.1 under a tight cap, where some members stall
    P33 = GibbsParams(1.0, TWO_PI, (3, 3))
    TIGHT = IntegratorConfig(
        scheme="implicit_midpoint", dt=0.1, t_final=0.5, max_fixed_point_iters=12,
        snapshot_stride=1,
    )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rows_stay_independent_with_failures(self, monkeypatch):
        # two steps past the first that extrapolates from every rate held, taken
        # after rows have failed, so the full-order start runs on the alive rows
        cfg = replace(self.TIGHT, t_final=self.TIGHT.dt * (flow._START_RATES + 2))
        assert len(_plan_steps(cfg.dt, cfg.t_final)) == flow._START_RATES + 2
        coeffs = sample_coeff_matrix(self.P33, RngStream(11), 130)
        whole = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg)
        assert len(whole.failures) >= 2
        assert min(f.step for f in whole.failures) < flow._START_RATES
        for threads in (2, 3):
            out = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg, threads=threads)
            assert out.failures == whole.failures
            assert np.array_equal(out.snapshots, whole.snapshots, equal_nan=True)
        monkeypatch.setattr(flow, "_MARCH_BLOCK_BYTES", 5 * coeffs[0].nbytes)
        for threads in (1, 2, 3):
            out = evolve_coeffs(coeffs, TWO_PI, (3, 3), cfg, threads=threads)
            assert out.failures == whole.failures
            assert np.array_equal(out.snapshots, whole.snapshots, equal_nan=True)
        for i, row in enumerate(coeffs):
            alone = evolve_coeffs(row[None, :], TWO_PI, (3, 3), cfg)
            expected = tuple(f._replace(member=0) for f in whole.failures if f.member == i)
            assert alone.failures == expected
            assert np.array_equal(alone.snapshots[:, 0], whole.snapshots[:, i], equal_nan=True)

    def test_the_start_extrapolates_a_polynomial_rate_history(self):
        # rates r_{n-j} = P(-j) for a polynomial P of degree q give P(1)
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        h = 0.01
        for held in range(1, flow._START_RATES + 1):
            poly = rng.normal(size=(held, 3, 5)) + 1j * rng.normal(size=(held, 3, 5))
            rates = [np.polynomial.polynomial.polyval(-j, poly) for j in range(held)]
            expected = coeffs + 0.5 * h * np.polynomial.polynomial.polyval(1.0, poly)
            start = flow._extrapolated_start(coeffs, h, rates)
            # round-off of the sum, whose weights add up to 2^held - 1 in size
            scale = np.abs(coeffs).max() + 0.5 * h * 2**held * max(np.abs(r).max() for r in rates)
            assert np.abs(start - expected).max() <= 4 * np.finfo(float).eps * scale, held

    def test_one_and_two_rates_give_the_linear_starts_bitwise(self):
        rng = np.random.default_rng(4)
        coeffs, newest, older = rng.normal(size=(3, 4, 7)) + 1j * rng.normal(size=(3, 4, 7))
        h = 0.037
        one = flow._extrapolated_start(coeffs, h, [newest])
        assert np.array_equal(one, coeffs + (h / 2) * newest)
        two = flow._extrapolated_start(coeffs, h, [newest, older])
        assert np.array_equal(two, coeffs + (h / 2) * (2.0 * newest - older))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_absurd_start_gives_the_euler_guess_result(self):
        coeffs = sample_coeff_matrix(self.P33, RngStream(11), 130)
        h, cfg = self.TIGHT.dt, self.TIGHT
        euler, stalled = flow._midpoint_step(coeffs, h, TWO_PI, (3, 3), cfg)
        assert stalled.any() and not stalled.all()
        absurd = coeffs + (0.5 * h) * 1e6 * (euler - coeffs) / h
        out, out_stalled = flow._midpoint_step(coeffs, h, TWO_PI, (3, 3), cfg, absurd)
        assert np.array_equal(out, euler, equal_nan=True)
        assert np.array_equal(out_stalled, stalled)

    def test_a_triad_round_trip_saves_drift_calls(self, monkeypatch):
        # the Euler guess costs 5 calls a step here: 4,000 for the 800 steps;
        # extrapolating two rates took 2,406 and every rate held takes 820
        p = GibbsParams(1.0, TWO_PI, (8, 8))
        f = SpectralField(p.period, p.cutoff, sample_coeff_matrix(p, RngStream(5), 1)[0])
        cfg = IntegratorConfig(scheme="implicit_midpoint", dt=1e-3, t_final=0.4)
        calls = []

        def counted(c, *args, **kwargs):
            calls.append(c.shape[0])
            return drift_batch(c, *args, **kwargs)

        monkeypatch.setattr(flow, "drift_batch", counted)
        there = evolve(f, cfg).final
        back = evolve(there, replace(cfg, t_final=-0.4)).final
        assert len(calls) <= 860
        assert sobolev_norm(back - f, 0.0) <= 1e-10 * sobolev_norm(f, 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_the_fallback_stalls_no_more_members_than_the_euler_guess(self):
        # the Euler guess alone stalls 11 of these 400 members; extrapolated
        # starts without the fallback stalled 19
        coeffs = sample_coeff_matrix(self.P33, RngStream(11), 400)
        out = evolve_coeffs(coeffs, TWO_PI, (3, 3), replace(self.TIGHT, snapshot_stride=0))
        assert 0 < len(out.failures) <= 11
