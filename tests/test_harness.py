"""Tests for the statistical harness: the KS and chi-square kit, observables,
and the four Monte Carlo experiments."""

import importlib
import inspect
import json
import math
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov as scipy_kolmogorov
from scipy.stats import chi2 as scipy_chi2
from scipy.stats import ks_2samp, kstest

from eulergibbs.cli import _json_bytes
from eulergibbs.drift import PSEUDO_SPECTRAL, TRIAD_SUM
from eulergibbs.flow import IntegrationError, IntegratorConfig, map_row_blocks
from eulergibbs.gibbs import GibbsParams, RngStream, coupled_dyadic_matrices
from eulergibbs.harness import (
    ObservableSpec,
    _child,
    _perturbation_direction,
    cauchy_scan,
    chi_square_uniform,
    continuity_probe,
    default_observables,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    moment_scan,
    observable_values,
    run_invariance,
)
from eulergibbs.spectral import (
    SpectralField,
    _embed,
    cross_period_distance,
    energy,
    enstrophy,
    local_distance,
    mode_box,
    mode_count,
    sobolev_norm,
)

TWO_PI = 2.0 * math.pi


class TestKolmogorovSf:
    def test_nonpositive_arguments_saturate(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(-3.0) == 1.0

    def test_tail_is_tiny(self):
        assert kolmogorov_sf(5.0) < 1e-20

    def test_matches_scipy_on_both_branches(self):
        grid = np.concatenate(
            [np.linspace(0.01, 3.0, 301), np.array([1.17, 1.18, 1.19])]
        )
        ours = np.array([kolmogorov_sf(x) for x in grid])
        reference = scipy_kolmogorov(grid)
        assert np.max(np.abs(ours - reference)) < 1e-12

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 4.0, 400)
        values = [kolmogorov_sf(x) for x in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestKsTwoSample:
    def test_identical_samples(self):
        result = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_disjoint_samples(self):
        result = ks_two_sample([0.0, 1.0, 2.0], [10.0, 11.0])
        assert result.statistic == 1.0
        assert result.p_value < 0.25

    def test_quarter_shift_example(self):
        result = ks_two_sample([1, 2, 3, 4], [1.5, 2.5, 3.5, 4.5])
        assert result.statistic == pytest.approx(0.25, abs=0.0)
        assert result.effective_size == pytest.approx(2.0)
        assert result.p_value == pytest.approx(kolmogorov_sf(math.sqrt(2.0) * 0.25))

    def test_symmetric(self, rng):
        a = rng.normal(size=31)
        b = rng.normal(size=17)
        fwd = ks_two_sample(a, b)
        rev = ks_two_sample(b, a)
        assert fwd.statistic == rev.statistic
        assert fwd.p_value == rev.p_value

    def test_statistic_matches_brute_force(self, rng):
        a = rng.normal(size=23)
        b = rng.normal(size=17) + 0.3
        grid = np.concatenate([a, b])
        brute = max(
            abs(np.mean(a <= x) - np.mean(b <= x)) for x in grid
        )
        assert ks_two_sample(a, b).statistic == pytest.approx(brute, rel=1e-14)

    @pytest.mark.parametrize("sizes", [(8, 8), (40, 25), (300, 200)])
    def test_statistic_matches_scipy(self, rng, sizes):
        a = rng.normal(size=sizes[0])
        b = rng.normal(size=sizes[1]) * 1.2 + 0.1
        ours = ks_two_sample(a, b)
        reference = ks_2samp(a, b, method="asymp")
        assert ours.statistic == pytest.approx(reference.statistic, rel=1e-12)
        assert ours.p_value == pytest.approx(
            float(scipy_kolmogorov(math.sqrt(ours.effective_size) * ours.statistic)),
            rel=1e-12,
        )

    def test_p_value_calibrated_against_exact_method(self, rng):
        a = rng.normal(size=300)
        b = rng.normal(size=200) * 1.05
        ours = ks_two_sample(a, b)
        exact = ks_2samp(a, b, method="exact")
        assert abs(ours.p_value - exact.pvalue) < 0.02

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])
        with pytest.raises(ValueError):
            ks_two_sample([1.0], [])

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_sample_against_itself_is_null(self, values):
        result = ks_two_sample(values, values)
        assert result.statistic == 0.0
        assert result.p_value == 1.0


class TestKsOneSample:
    def test_hand_computed_uniform_example(self):
        result = ks_one_sample([0.1, 0.5, 0.9], lambda x: x)
        assert result.statistic == pytest.approx(7.0 / 30.0, rel=1e-14)
        assert result.effective_size == 3.0

    def test_matches_scipy_kstest(self, rng):
        values = rng.uniform(size=60)
        ours = ks_one_sample(values, lambda x: np.clip(x, 0.0, 1.0))
        reference = kstest(values, "uniform", method="asymp")
        assert ours.statistic == pytest.approx(reference.statistic, rel=1e-12)
        assert ours.p_value == pytest.approx(reference.pvalue, rel=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ks_one_sample([], lambda x: x)


class TestChiSquareUniform:
    def test_perfectly_uniform_histogram(self):
        p_values = (np.arange(100) + 0.5) / 100.0
        result = chi_square_uniform(p_values)
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert result.dof == 9

    def test_concentrated_sample_fails(self):
        result = chi_square_uniform([0.05] * 200)
        assert result.p_value < 1e-10

    def test_matches_scipy_survival(self, rng):
        p_values = rng.uniform(size=173)
        counts, _ = np.histogram(p_values, bins=10, range=(0.0, 1.0))
        expected = 17.3
        statistic = float(np.sum((counts - expected) ** 2) / expected)
        result = chi_square_uniform(p_values)
        assert result.statistic == pytest.approx(statistic, rel=1e-13)
        assert result.p_value == pytest.approx(scipy_chi2.sf(statistic, 9), rel=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            chi_square_uniform([])


class TestObservables:
    def test_labels(self):
        assert ObservableSpec("coeff_real", mode=(1, -2)).label == "coeff_real(1,-2)"
        assert ObservableSpec("energy").label == "energy"
        assert ObservableSpec("sobolev_norm", order=-1.5).label == "sobolev_norm(-1.5)"
        assert ObservableSpec("spectrum_band", band=(2, 4)).label == "band(2,4)"

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError):
            ObservableSpec("mean")
        with pytest.raises(ValueError):
            ObservableSpec("coeff_real")
        with pytest.raises(ValueError):
            ObservableSpec("sobolev_norm")
        with pytest.raises(ValueError):
            ObservableSpec("spectrum_band")
        with pytest.raises(ValueError):
            ObservableSpec("spectrum_band", band=(3.0, 3.0))

    def test_coefficient_columns(self, rng):
        cutoff = (3, 2)
        matrix = rng.normal(size=(5, mode_count(cutoff))) + 1j * rng.normal(
            size=(5, mode_count(cutoff))
        )
        position = mode_box(cutoff).index((1, -2))
        real = observable_values(
            ObservableSpec("coeff_real", mode=(1, -2)), matrix, TWO_PI, cutoff
        )
        imag = observable_values(
            ObservableSpec("coeff_imag", mode=(1, -2)), matrix, TWO_PI, cutoff
        )
        abs2 = observable_values(
            ObservableSpec("coeff_abs2", mode=(1, -2)), matrix, TWO_PI, cutoff
        )
        assert np.array_equal(real, matrix[:, position].real)
        assert np.array_equal(imag, matrix[:, position].imag)
        assert abs2 == pytest.approx(np.abs(matrix[:, position]) ** 2, rel=1e-14)

    def test_quadratics_match_field_functions(self, rng):
        cutoff = (3, 3)
        period = 4.0
        matrix = rng.normal(size=(4, mode_count(cutoff))) + 1j * rng.normal(
            size=(4, mode_count(cutoff))
        )
        energies = observable_values(ObservableSpec("energy"), matrix, period, cutoff)
        enstrophies = observable_values(
            ObservableSpec("enstrophy"), matrix, period, cutoff
        )
        norms = observable_values(
            ObservableSpec("sobolev_norm", order=-1.5), matrix, period, cutoff
        )
        for row in range(4):
            f = SpectralField(period, cutoff, matrix[row])
            assert energies[row] == pytest.approx(energy(f), rel=1e-13)
            assert enstrophies[row] == pytest.approx(enstrophy(f), rel=1e-13)
            assert norms[row] == pytest.approx(sobolev_norm(f, -1.5), rel=1e-13)

    def test_bands_partition_total_power(self, rng):
        cutoff = (4, 4)
        matrix = rng.normal(size=(6, mode_count(cutoff))) + 1j * rng.normal(
            size=(6, mode_count(cutoff))
        )
        bands = [(1.0, 2.0), (2.0, 4.0), (4.0, math.inf)]
        total = sum(
            observable_values(
                ObservableSpec("spectrum_band", band=band), matrix, TWO_PI, cutoff
            )
            for band in bands
        )
        assert total == pytest.approx(np.sum(np.abs(matrix) ** 2, axis=1), rel=1e-13)

    def test_mode_outside_cutoff_raises(self, rng):
        matrix = np.zeros((2, mode_count((2, 2))), dtype=np.complex128)
        spec = ObservableSpec("coeff_real", mode=(3, 0))
        with pytest.raises(ValueError, match="outside cutoff"):
            observable_values(spec, matrix, TWO_PI, (2, 2))

    def test_default_inventory(self):
        specs = default_observables((2, 2))
        assert len(specs) == 2 * mode_count((2, 2)) + 6
        kinds = {s.kind for s in specs}
        assert kinds == {
            "coeff_real",
            "coeff_imag",
            "energy",
            "enstrophy",
            "sobolev_norm",
            "spectrum_band",
        }


class TestChildStreams:
    def test_offsets_give_distinct_streams(self):
        parent = RngStream(99, 7)
        streams = {_child(parent, offset).stream_id for offset in range(1, 6)}
        assert len(streams) == 5
        assert _child(parent, 3).stream_id == (7 << 8) | 3
        assert _child(parent, 3).master_seed == 99

    def test_a_child_past_the_64_bit_stream_ids_raises(self):
        # a parent stream id of 2^56 or more would alias a lower child
        assert _child(RngStream(1, 2**56 - 1), 255).stream_id == 2**64 - 1
        with pytest.raises(ValueError, match="stream_id"):
            _child(RngStream(1, 2**56), 0)


class TestRunInvariance:
    def params(self):
        return GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(2, 2))

    def test_small_ensemble_raises(self):
        cfg = IntegratorConfig(t_final=0.0)
        with pytest.raises(ValueError, match="ensemble_size"):
            run_invariance(
                self.params(), cfg, default_observables((2, 2)), 50, RngStream(1)
            )

    def test_no_observables_raises(self):
        cfg = IntegratorConfig(t_final=0.0)
        with pytest.raises(ValueError, match="observable"):
            run_invariance(self.params(), cfg, [], 200, RngStream(1))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("alpha", 0.0),
            ("alpha", -1.0),
            ("pass_fraction", 0.0),
            ("mean_se_factor", 0.0),
            ("failure_tol", -0.5),
        ],
    )
    def test_thresholds_out_of_range_raise(self, name, value):
        # a level or factor at or below 0 passes its verdict by construction, and a
        # negative failure_tol ended in an unrelated error about an empty min()
        cfg = IntegratorConfig(t_final=0.0)
        with pytest.raises(ValueError, match=name):
            run_invariance(
                self.params(), cfg, default_observables((2, 2)), 100, RngStream(1),
                **{name: value},
            )

    def test_time_zero_null_calibration(self):
        cfg = IntegratorConfig(scheme="rk4", dt=0.1, t_final=0.0)
        report = run_invariance(
            self.params(),
            cfg,
            default_observables((2, 2)),
            200,
            RngStream(20260822, 1),
        )
        assert report.surviving == 200
        assert report.failed_members == ()
        assert report.energy_drift_max == 0.0
        assert "null_p_uniformity" in report.verdicts
        assert report.passed
        assert report.marginal_pass_rate >= 0.95

    def test_short_evolution_preserves_the_law(self):
        cfg = IntegratorConfig(scheme="rk4", dt=0.02, t_final=0.1)
        report = run_invariance(
            self.params(),
            cfg,
            default_observables((2, 2)),
            150,
            RngStream(20260822, 2),
        )
        assert report.passed
        assert "null_p_uniformity" not in report.verdicts
        assert report.verdicts["energy_mean"]
        assert report.verdicts["enstrophy_mean"]
        assert report.energy_drift_max < 1e-8
        assert report.enstrophy_drift_max < 1e-8

    def test_report_is_deterministic_and_serializable(self):
        cfg = IntegratorConfig(scheme="rk4", dt=0.05, t_final=0.05)
        args = (
            self.params(),
            cfg,
            default_observables((2, 2)),
            120,
            RngStream(5, 9),
        )
        first = run_invariance(*args)
        second = run_invariance(*args)
        assert json.dumps(asdict(first)) == json.dumps(asdict(second))
        assert first.manifest["rng"]["generator"].startswith("philox")

    def test_mass_integration_failure_aborts(self):
        cfg = IntegratorConfig(
            scheme="implicit_midpoint",
            dt=0.5,
            t_final=0.5,
            fixed_point_tol=1e-16,
            max_fixed_point_iters=1,
        )
        p = GibbsParams(gamma=1e-6, period=TWO_PI, cutoff=(2, 2))
        with pytest.raises(IntegrationError):
            run_invariance(
                p, cfg, default_observables((2, 2)), 100, RngStream(3, 3)
            )

    def test_an_abort_names_the_earliest_failed_step(self):
        # the plan has steps 0 .. 9, and every member stalls at step 0
        cfg = IntegratorConfig(
            scheme="implicit_midpoint", dt=0.5, t_final=5.0, max_fixed_point_iters=3
        )
        p = GibbsParams(gamma=1e-4, period=TWO_PI, cutoff=(3, 3))
        with pytest.raises(IntegrationError) as caught:
            run_invariance(p, cfg, default_observables((3, 3)), 100, RngStream(1))
        assert caught.value.step == 0
        assert caught.value.members == tuple(range(100))
        assert str(caught.value).endswith(
            "member 0 failed first: implicit midpoint failed to reach tol=1e-12 "
            "within 3 iterations at step 0 (t = 0.5)"
        )

    def test_no_survivor_aborts_whatever_failure_tol_allows(self):
        # failure_tol = 1 tolerates every failure, but leaves no member to compare
        cfg = IntegratorConfig(
            scheme="implicit_midpoint", dt=0.5, t_final=5.0, max_fixed_point_iters=3
        )
        p = GibbsParams(gamma=1e-4, period=TWO_PI, cutoff=(3, 3))
        with pytest.raises(IntegrationError, match="100 of 100 members failed") as caught:
            run_invariance(p, cfg, default_observables((3, 3)), 100, RngStream(1), failure_tol=1.0)
        assert caught.value.step == 0
        assert str(caught.value).endswith("at step 0 (t = 0.5)")

    def test_a_snapshot_stride_changes_no_report_byte(self):
        cfg = IntegratorConfig(scheme="rk4", dt=0.01, t_final=0.1)
        dumps = {
            json.dumps(asdict(run_invariance(
                self.params(), replace(cfg, snapshot_stride=stride),
                default_observables((2, 2)), 100, RngStream(5, 9),
            )))
            for stride in (0, 5)
        }
        assert len(dumps) == 1


class TestMomentScan:
    def test_gamma_scaling_is_exact(self):
        ladder = ((2, 2), (3, 3))
        rng = RngStream(77, 5)
        small = moment_scan(
            GibbsParams(1.0, TWO_PI, (2, 2)),
            [-1.5],
            [1.0, 0.5],
            40,
            rng,
            cutoffs=ladder,
            drift_method=TRIAD_SUM,
        )
        large = moment_scan(
            GibbsParams(4.0, TWO_PI, (2, 2)),
            [-1.5],
            [1.0, 0.5],
            40,
            rng,
            cutoffs=ladder,
            drift_method=TRIAD_SUM,
        )
        quadratic = np.asarray(small.series_for(-1.5, 1.0).means)
        quadratic_large = np.asarray(large.series_for(-1.5, 1.0).means)
        assert np.array_equal(quadratic, 16.0 * quadratic_large)
        half = np.asarray(small.series_for(-1.5, 0.5).means)
        half_large = np.asarray(large.series_for(-1.5, 0.5).means)
        assert np.array_equal(half, 4.0 * half_large)

    def test_identical_rungs_are_rejected(self):
        # a rung equal to the one before repeats its draws, so its tail would be
        # stable by construction; the common random numbers across boxes are
        # checked by test_gibbs.py's test_draws_independent_of_cutoff_box
        with pytest.raises(ValueError, match="strictly contain"):
            moment_scan(
                GibbsParams(1.0, TWO_PI, (2, 2)),
                [-2.0],
                [1.0],
                12,
                RngStream(8),
                cutoffs=((3, 3), (3, 3)),
                drift_method=TRIAD_SUM,
            )

    @pytest.mark.parametrize(
        "ladder", [((3, 3), (4, 2)), ((4, 4), (3, 3)), ((2, 2), (3, 3), (3, 3))]
    )
    def test_ladders_that_do_not_grow_are_rejected(self, ladder):
        p = GibbsParams(1.0, TWO_PI, (2, 2))
        with pytest.raises(ValueError, match="strictly contain"):
            moment_scan(p, [-1.5], [1.0], 8, RngStream(1), cutoffs=ladder)

    def test_a_ladder_may_grow_one_component(self):
        report = moment_scan(
            GibbsParams(1.0, TWO_PI, (2, 2)), [-1.5], [1.0], 8, RngStream(1),
            cutoffs=((2, 2), (2, 3)), drift_method=TRIAD_SUM,
        )
        assert report.cutoffs == ((2, 2), (2, 3))

    @pytest.mark.parametrize("exponent", [0.0, -1.0])
    def test_exponents_must_be_positive(self, exponent):
        # q = 0 makes every mean 1, so the tail is stable by construction
        p = GibbsParams(1.0, TWO_PI, (2, 2))
        with pytest.raises(ValueError, match="exponents must be positive"):
            moment_scan(p, [-1.5], [exponent], 8, RngStream(1), cutoffs=((2, 2), (3, 3)))

    def test_shapes_and_lookup(self):
        report = moment_scan(
            GibbsParams(1.0, TWO_PI, (2, 2)),
            [-2.0, -0.9],
            [1.0, 2.0],
            8,
            RngStream(4),
            cutoffs=((2, 2), (3, 3), (4, 4)),
            drift_method=TRIAD_SUM,
        )
        assert len(report.rows) == 3 * 2 * 2
        assert len(report.series) == 4
        assert report.cutoffs == ((2, 2), (3, 3), (4, 4))
        with pytest.raises(KeyError):
            report.series_for(-3.0, 1.0)
        assert json.dumps(asdict(report))

    def test_thread_count_does_not_change_output(self):
        args = (
            GibbsParams(1.0, TWO_PI, (2, 2)),
            [-1.5],
            [1.0],
            16,
            RngStream(10, 2),
        )
        kwargs = {"cutoffs": ((2, 2), (3, 3)), "drift_method": TRIAD_SUM}
        lone = moment_scan(*args, threads=1, **kwargs)
        pooled = moment_scan(*args, threads=3, **kwargs)
        assert json.dumps(asdict(lone)) == json.dumps(asdict(pooled))

    def test_backends_agree(self):
        args = (
            GibbsParams(1.0, TWO_PI, (2, 2)),
            [-1.5],
            [1.0],
            10,
            RngStream(6),
        )
        ladder = ((2, 2), (3, 3))
        triad = moment_scan(*args, cutoffs=ladder, drift_method=TRIAD_SUM)
        pseudo = moment_scan(*args, cutoffs=ladder, drift_method="pseudo_spectral")
        for a, b in zip(triad.rows, pseudo.rows):
            assert a.mean == pytest.approx(b.mean, rel=1e-10)

    def test_validation(self):
        p = GibbsParams(1.0, TWO_PI, (2, 2))
        with pytest.raises(ValueError, match="ensemble_size"):
            moment_scan(p, [-1.5], [1.0], 1, RngStream(1))
        with pytest.raises(ValueError, match="two cutoffs"):
            moment_scan(p, [-1.5], [1.0], 8, RngStream(1), cutoffs=((4, 4),))
        with pytest.raises(ValueError, match="expect"):
            moment_scan(p, [-1.5], [1.0], 8, RngStream(1), expect="bounded")

    @pytest.mark.parametrize(
        "orders, exponents, name",
        [([-0.5, -0.5], [1.0], "orders"), ([-1.5], [1.0, 2.0, 1.0], "exponents")],
    )
    def test_repeated_orders_or_exponents_are_rejected(self, orders, exponents, name):
        # both copies would feed one series, whose tail would compare a rung with itself
        p = GibbsParams(1.0, TWO_PI, (2, 2))
        with pytest.raises(ValueError, match=f"{name} must be pairwise distinct"):
            moment_scan(p, orders, exponents, 8, RngStream(1), cutoffs=((2, 2), (3, 3)))

    def test_verdicts_follow_the_expectation(self):
        args = (GibbsParams(1.0, TWO_PI, (2, 2)), [-1.5, -0.9], [1.0], 12, RngStream(3))
        kwargs = {"cutoffs": ((2, 2), (3, 3)), "drift_method": TRIAD_SUM}
        auto = moment_scan(*args, **kwargs)
        assert auto.verdicts == {
            "stable[beta=-1.5,q=1]": auto.series_for(-1.5, 1.0).stable_tail,
            "divergent[beta=-0.9,q=1]": auto.series_for(-0.9, 1.0).strictly_increasing,
        }
        stable = moment_scan(*args, expect="stable", **kwargs)
        assert list(stable.verdicts) == ["stable[beta=-1.5,q=1]", "stable[beta=-0.9,q=1]"]
        assert stable.divergence_signature == tuple(
            f"beta={s.order:g},q=1"
            for s in stable.series
            if s.strictly_increasing and not s.stable_tail
        )
        assert moment_scan(*args, expect="none", **kwargs).verdicts == {}


class TestCauchyScan:
    def test_rows_and_determinism(self):
        args = ([1, 2], -1.5, 6, RngStream(12, 4))
        kwargs = {"level_max": 2, "points_per_unit": 8}
        first = cauchy_scan(*args, **kwargs)
        second = cauchy_scan(*args, **kwargs)
        assert [r.level for r in first.rows] == [1, 2]
        assert all(r.mean_sq_distance > 0.0 for r in first.rows)
        assert all(r.se >= 0.0 for r in first.rows)
        assert isinstance(first.strictly_decreasing, bool)
        assert json.dumps(asdict(first)) == json.dumps(asdict(second))

    def test_thread_count_does_not_change_output(self):
        args = ([1, 2], -1.5, 7, RngStream(13, 4))
        kwargs = {"level_max": 2, "points_per_unit": 8}
        lone = cauchy_scan(*args, threads=1, **kwargs)
        pooled = cauchy_scan(*args, threads=3, **kwargs)
        assert json.dumps(asdict(lone)) == json.dumps(asdict(pooled))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_threads_build_each_metric_plan_once(self, monkeypatch, threads):
        # a slow builder holds its first build open while the other threads
        # miss the cache, so a cache that does not wait for it builds again
        spectral_module = importlib.import_module("eulergibbs.spectral")
        builds = []
        real = spectral_module._quadrature_points

        def slow(level_max, points_per_unit):
            builds.append((level_max, points_per_unit))
            time.sleep(0.05)
            return real(level_max, points_per_unit)

        monkeypatch.setattr(spectral_module, "_quadrature_points", slow)
        spectral_module._metric_plan.cache_clear()
        cauchy_scan([1, 2], -1.5, 6, RngStream(15, 4), level_max=2, points_per_unit=8, threads=threads)
        # one plan per level: the fine lattices of levels 1 and 2 differ
        assert builds == [(2, 8), (2, 8)]

    def test_default_quadrature_identical_across_threads(self):
        # level_max = 4, points_per_unit = 64: the quadrature the CLI runs
        args = ([1, 2, 3], -1.5, 6, RngStream(14, 4))
        dumps = {json.dumps(asdict(cauchy_scan(*args, threads=t))) for t in (1, 2, 3)}
        assert len(dumps) == 1

    @staticmethod
    def coupled_pairs(n: int, count: int) -> list[tuple[SpectralField, SpectralField]]:
        base = GibbsParams(1.0, 2.0**n, (2**n, 2**n))
        coarse, fine, fine_params = coupled_dyadic_matrices(n, n + 1, base, RngStream(15, 4), count)
        return [
            (
                SpectralField(base.period, base.cutoff, c),
                SpectralField(fine_params.period, fine_params.cutoff, f),
            )
            for c, f in zip(coarse, fine)
        ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_embedded_pair_agrees_with_cross_period_reference(self, n):
        for coarse, fine in self.coupled_pairs(n, 4):
            reference = cross_period_distance(coarse, fine, -1.5, 4)
            embedded = local_distance(_embed(coarse, fine.cutoff, ratio=2), fine, -1.5, 4)
            assert embedded == pytest.approx(reference, rel=1e-12)

    def test_pair_distance_same_alone_or_in_block(self):
        pairs = [(_embed(c, f.cutoff, ratio=2), f) for c, f in self.coupled_pairs(2, 9)]
        alone = np.array([local_distance(f, g, -1.5, 4) for f, g in reversed(pairs)])[::-1]

        def block(lo: int, hi: int) -> np.ndarray:
            return np.array([local_distance(*pairs[i], -1.5, 4) for i in range(lo, hi)])

        pooled = np.concatenate(map_row_blocks(block, len(pairs), 3))
        assert np.array_equal(alone, pooled)

    def test_validation(self):
        with pytest.raises(ValueError, match="order"):
            cauchy_scan([1, 2], 1.5, 6, RngStream(1))
        with pytest.raises(ValueError, match="ensemble_size"):
            cauchy_scan([1, 2], -1.5, 1, RngStream(1))
        with pytest.raises(ValueError, match="level"):
            cauchy_scan([], -1.5, 6, RngStream(1))
        with pytest.raises(ValueError, match="levels"):
            cauchy_scan([0, 1], -1.5, 6, RngStream(1))
        with pytest.raises(ValueError, match="expect"):
            cauchy_scan([1, 2], -1.5, 6, RngStream(1), expect="increasing")

    @pytest.mark.parametrize("levels", [[2, 2], [1, 2, 1]])
    def test_repeated_levels_are_rejected(self, levels):
        # a level compared with itself ties, so the decreasing verdict fails by construction
        with pytest.raises(ValueError, match="levels must be pairwise distinct"):
            cauchy_scan(levels, -1.5, 4, RngStream(1), expect="none")

    def test_the_decreasing_verdict_needs_two_levels(self):
        with pytest.raises(ValueError, match="at least two levels"):
            cauchy_scan([3], -1.5, 4, RngStream(1))
        report = cauchy_scan(
            [1], -1.5, 4, RngStream(1), expect="none", level_max=2, points_per_unit=8
        )
        assert [row.level for row in report.rows] == [1]
        assert report.verdicts == {}

    def test_verdicts_follow_the_expectation(self):
        args = ([1, 2], -1.5, 6, RngStream(12, 4))
        kwargs = {"level_max": 2, "points_per_unit": 8}
        report = cauchy_scan(*args, **kwargs)
        assert report.verdicts == {"strictly_decreasing": report.strictly_decreasing}
        assert cauchy_scan(*args, expect="none", **kwargs).verdicts == {}


class TestContinuityProbe:
    def params(self):
        return GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(2, 2))

    def test_probe_direction_has_unit_norm(self):
        p = self.params()
        direction = _perturbation_direction(p, -1.5)
        f = SpectralField(p.period, p.cutoff, direction)
        assert sobolev_norm(f, -1.5) == pytest.approx(1.0, rel=1e-12)

    def test_zero_delta_is_exactly_null(self):
        cfg = IntegratorConfig(scheme="rk4", dt=0.05, t_final=0.1)
        report = continuity_probe(
            self.params(),
            cfg,
            [0.0, 0.05],
            3,
            RngStream(21, 6),
            level_max=2,
            points_per_unit=8,
        )
        null_row = next(r for r in report.rows if r.delta == 0.0)
        assert null_row.input_distance == 0.0
        assert null_row.median_output_distance == 0.0
        assert math.isnan(null_row.median_ratio)

    def test_small_run_structure(self):
        cfg = IntegratorConfig(scheme="rk4", dt=0.02, t_final=0.1)
        args = (
            self.params(),
            cfg,
            [1e-3, 1e-2, 1e-1],
            4,
            RngStream(22, 6),
        )
        kwargs = {"level_max": 2, "points_per_unit": 8}
        report = continuity_probe(*args, **kwargs)
        again = continuity_probe(*args, **kwargs)
        assert json.dumps(asdict(report)) == json.dumps(asdict(again))
        assert all(r.input_distance > 0.0 for r in report.rows)
        assert all(r.surviving == 4 for r in report.rows)
        assert report.monotone_in_delta
        assert isinstance(report.ratio_stabilizes, bool)

    def test_thread_count_does_not_change_output(self):
        cfg = IntegratorConfig(scheme="rk4", dt=0.05, t_final=0.05)
        args = (self.params(), cfg, [1e-2, 1e-1], 6, RngStream(23, 6))
        kwargs = {"level_max": 2, "points_per_unit": 8}
        lone = continuity_probe(*args, threads=1, **kwargs)
        pooled = continuity_probe(*args, threads=3, **kwargs)
        assert json.dumps(asdict(lone)) == json.dumps(asdict(pooled))

    def test_default_quadrature_identical_across_threads(self):
        cfg = IntegratorConfig(scheme="rk4", dt=0.05, t_final=0.05)
        args = (self.params(), cfg, [1e-2, 1e-1], 6, RngStream(24, 6))
        dumps = {json.dumps(asdict(continuity_probe(*args, threads=t))) for t in (1, 2, 3)}
        assert len(dumps) == 1

    def test_a_snapshot_stride_changes_no_report_byte(self):
        cfg = IntegratorConfig(scheme="rk4", dt=0.01, t_final=0.1)
        kwargs = {"level_max": 2, "points_per_unit": 8}
        dumps = {
            json.dumps(asdict(continuity_probe(
                self.params(), replace(cfg, snapshot_stride=stride), [1e-2, 1e-1], 4,
                RngStream(25, 6), **kwargs,
            )))
            for stride in (0, 5)
        }
        assert len(dumps) == 1

    def test_validation(self):
        cfg = IntegratorConfig(t_final=0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            continuity_probe(self.params(), cfg, [-0.1], 4, RngStream(1))
        with pytest.raises(ValueError, match="ensemble_size"):
            continuity_probe(self.params(), cfg, [0.1], 1, RngStream(1))

    @pytest.mark.parametrize("deltas", [[0.1, 0.1], [0.0, -0.0, 0.1], [0.1, 0.01, 0.1]])
    def test_repeated_deltas_are_rejected(self, deltas):
        # the two smallest positive deltas would be one, so their ratios agree by construction
        cfg = IntegratorConfig(scheme="rk4", dt=0.05, t_final=0.1)
        with pytest.raises(ValueError, match="deltas must be pairwise distinct"):
            continuity_probe(self.params(), cfg, deltas, 8, RngStream(1))


@pytest.fixture(scope="module")
def small_reports():
    """One small run of each experiment; run_invariance on criterion 07's backend."""
    p = GibbsParams(gamma=1.0, period=TWO_PI, cutoff=(2, 2))
    cfg = IntegratorConfig(scheme="rk4", dt=0.05, t_final=0.1)
    metric = {"level_max": 2, "points_per_unit": 8}
    return {
        run_invariance: run_invariance(
            p,
            replace(cfg, drift_method=PSEUDO_SPECTRAL, grid=24),
            default_observables(p.cutoff),
            100,
            RngStream(1),
        ),
        moment_scan: moment_scan(
            p, [-1.5], [1.0], 4, RngStream(1), cutoffs=((2, 2), (3, 3)), drift_method=TRIAD_SUM
        ),
        cauchy_scan: cauchy_scan([1, 2], -1.5, 4, RngStream(1), **metric),
        continuity_probe: continuity_probe(p, cfg, [1e-2, 1e-1], 4, RngStream(1), **metric),
    }


@pytest.mark.parametrize(
    "function",
    [run_invariance, moment_scan, cauchy_scan, continuity_probe],
    ids=lambda function: function.__name__,
)
def test_every_report_records_every_argument_but_threads(small_reports, function):
    # like the CLI's config-key guard: a parameter added to an experiment lands
    # in its report, and threads, which never changes a result, does not
    manifest = small_reports[function].manifest
    parameters = set(inspect.signature(function).parameters) - {"threads"}
    assert set(manifest) == parameters | {"schema"}
    assert _json_bytes(manifest)


def test_reports_record_the_config_as_run_and_the_expectation(small_reports):
    cfg = small_reports[run_invariance].manifest["cfg"]
    assert cfg["drift_method"] == PSEUDO_SPECTRAL
    assert cfg["grid"] == 24
    assert cfg["max_fixed_point_iters"] == IntegratorConfig().max_fixed_point_iters
    assert small_reports[moment_scan].manifest["expect"] == "auto"
    assert small_reports[cauchy_scan].manifest["expect"] == "decreasing"
