"""Monte Carlo experiments over the Gibbs ensembles, plus the statistical test kit.

Experiments answer four questions about the truncated flow and its invariant
Gaussian measures: does the flow leave the measure invariant (run_invariance),
do negative-order drift moments stabilize as the box grows (moment_scan), do
the coupled dyadic approximants contract in the local metric (cauchy_scan),
and does the flow move nearby initial conditions a bounded factor apart
(continuity_probe)?

Every experiment is a deterministic function of its parameters and the given
RngStream. Sub-ensembles draw from child streams derived as
stream_id -> (stream_id << 8) | offset with a fixed documented offset per
role (1 evolved ensemble, 2 fresh reference, 3 moment samples, 4 dyadic
pairs, 5 continuity base), so distinct experiments under one master seed
never share counters, while scans across cutoffs reuse per-mode draws and
gain common random numbers. Thread counts only partition member loops over
row blocks and never change any reported number.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, is_dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaincc, kolmogorov

from ._meta import VERSION
from .drift import PSEUDO_SPECTRAL, drift_batch
from .flow import (
    IntegrationError,
    IntegratorConfig,
    MemberFailure,
    evolve_coeffs,
    map_row_blocks,
)
from .gibbs import (
    GENERATOR_NAME,
    GibbsParams,
    RngStream,
    _sigma_vector,
    coupled_dyadic_matrices,
    sample_coeff_matrix,
)
from .spectral import (
    Mode,
    SpectralField,
    _embed,
    _sobolev_weights,
    cross_period_distance,  # noqa: F401  harness name that perfbench/tracer.py wraps
    local_distance,
    mode_arrays,
    mode_box,
    mode_index,
)

STREAM_EVOLVED = 1
STREAM_FRESH = 2
STREAM_MOMENTS = 3
STREAM_DYADIC = 4
STREAM_CONTINUITY = 5

DEFAULT_MOMENT_CUTOFFS = ((4, 4), (6, 6), (8, 8), (10, 10), (12, 12))

INVARIANCE_SCHEMA = "report.invariance.v2"
MOMENTS_SCHEMA = "report.moments.v2"
CAUCHY_SCHEMA = "report.cauchy.v2"
CONTINUITY_SCHEMA = "report.continuity.v2"


def _child(rng: RngStream, offset: int) -> RngStream:
    return rng.substream((rng.stream_id << 8) | offset)


def _inputs(schema: str, arguments: dict) -> dict:
    """A report's manifest: its schema and every argument of the call but
    threads, which never changes a result.

    Dataclass arguments are recorded field by field, the rng with the
    generator and code version that turn it into draws, and observables by
    label, because a band's math.inf end would serialize as null.
    """
    manifest = {"schema": schema}
    for name, value in arguments.items():
        if name == "threads":
            continue
        if name == "rng":
            value = {**asdict(value), "generator": GENERATOR_NAME, "version": VERSION}
        elif name == "observables":
            value = [spec.label for spec in value]
        elif is_dataclass(value):
            value = asdict(value)
        manifest[name] = value
    return manifest


# ---------------------------------------------------------------------------
# test kit


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    effective_size: float


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value.

    Uses the plain Kolmogorov limit at the standard effective size
    n m / (n + m); no small-sample or tie corrections.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample needs two nonempty samples")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / a.size
    cdf_b = np.searchsorted(b, everything, side="right") / b.size
    statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    effective = a.size * b.size / (a.size + b.size)
    return KsResult(
        statistic=statistic,
        p_value=float(kolmogorov(math.sqrt(effective) * statistic)),
        effective_size=effective,
    )


def ks_one_sample(values: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> KsResult:
    """One-sample KS test of values against a continuous CDF."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.size
    if n == 0:
        raise ValueError("ks_one_sample needs a nonempty sample")
    theory = np.asarray(cdf(values), dtype=np.float64)
    grid = np.arange(1, n + 1) / n
    statistic = float(max(np.max(grid - theory), np.max(theory - (grid - 1.0 / n))))
    return KsResult(
        statistic=statistic,
        p_value=float(kolmogorov(math.sqrt(n) * statistic)),
        effective_size=float(n),
    )


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    p_value: float
    dof: int


def chi_square_uniform(p_values: Sequence[float], bins: int = 10) -> ChiSquareResult:
    """Pearson chi-square test of p-values against uniformity on [0, 1]."""
    p_values = np.asarray(p_values, dtype=np.float64)
    if p_values.size == 0:
        raise ValueError("chi_square_uniform needs a nonempty sample")
    counts, _ = np.histogram(np.clip(p_values, 0.0, 1.0), bins=bins, range=(0.0, 1.0))
    expected = p_values.size / bins
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    dof = bins - 1
    return ChiSquareResult(
        statistic=statistic,
        p_value=float(gammaincc(dof / 2.0, statistic / 2.0)),
        dof=dof,
    )


# ---------------------------------------------------------------------------
# observables


OBSERVABLE_KINDS = (
    "coeff_real",
    "coeff_imag",
    "coeff_abs2",
    "energy",
    "enstrophy",
    "sobolev_norm",
    "spectrum_band",
)


@dataclass(frozen=True)
class ObservableSpec:
    """A scalar statistic of a field: coefficient marginals, quadratic
    functionals, a Sobolev norm of a given order, or the coefficient power in
    a shell band lo <= |k| < hi."""

    kind: str
    mode: Mode | None = None
    order: float | None = None
    band: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in OBSERVABLE_KINDS:
            raise ValueError(f"kind must be one of {OBSERVABLE_KINDS}, got {self.kind!r}")
        if self.kind.startswith("coeff_"):
            if self.mode is None:
                raise ValueError(f"{self.kind} needs a target mode")
            object.__setattr__(self, "mode", (int(self.mode[0]), int(self.mode[1])))
        elif self.kind == "sobolev_norm":
            if self.order is None:
                raise ValueError("sobolev_norm needs an order")
            object.__setattr__(self, "order", float(self.order))
        elif self.kind == "spectrum_band":
            if self.band is None:
                raise ValueError("spectrum_band needs a (lo, hi) shell range")
            lo, hi = float(self.band[0]), float(self.band[1])
            if not lo < hi:
                raise ValueError(f"spectrum_band needs lo < hi, got {(lo, hi)}")
            object.__setattr__(self, "band", (lo, hi))

    @property
    def label(self) -> str:
        if self.kind.startswith("coeff_"):
            return f"{self.kind}({self.mode[0]},{self.mode[1]})"
        if self.kind == "sobolev_norm":
            return f"sobolev_norm({self.order:g})"
        if self.kind == "spectrum_band":
            return f"band({self.band[0]:g},{self.band[1]:g})"
        return self.kind


def observable_values(
    spec: ObservableSpec, coeffs: np.ndarray, period: float, cutoff: Mode
) -> np.ndarray:
    """Evaluate one observable over every row of a coefficient matrix."""
    if spec.kind.startswith("coeff_"):
        index = mode_index(cutoff)
        if spec.mode not in index:
            raise ValueError(f"observable {spec.label} targets a mode outside cutoff {cutoff}")
        column = coeffs[:, index[spec.mode]]
        if spec.kind == "coeff_real":
            return np.ascontiguousarray(column.real)
        if spec.kind == "coeff_imag":
            return np.ascontiguousarray(column.imag)
        return np.ascontiguousarray(column.real**2 + column.imag**2)
    abs_sq = coeffs.real**2 + coeffs.imag**2
    if spec.kind == "energy":
        weights = _sobolev_weights(period, cutoff, 1.0)
        return np.einsum("sm,m->s", abs_sq, weights, optimize=False)
    if spec.kind == "enstrophy":
        weights = _sobolev_weights(period, cutoff, 2.0)
        return np.einsum("sm,m->s", abs_sq, weights, optimize=False)
    if spec.kind == "sobolev_norm":
        weights = _sobolev_weights(period, cutoff, spec.order)
        return np.sqrt(np.einsum("sm,m->s", abs_sq, weights, optimize=False))
    k1, k2 = mode_arrays(cutoff)
    radius = np.sqrt((k1 * k1 + k2 * k2).astype(np.float64))
    mask = (radius >= spec.band[0]) & (radius < spec.band[1])
    return abs_sq[:, mask].sum(axis=1)


def default_observables(cutoff: Sequence[int]) -> tuple[ObservableSpec, ...]:
    """Marginals of every boxed mode plus the standard global diagnostics."""
    specs: list[ObservableSpec] = []
    for k in mode_box((int(cutoff[0]), int(cutoff[1]))):
        specs.append(ObservableSpec("coeff_real", mode=k))
        specs.append(ObservableSpec("coeff_imag", mode=k))
    specs.append(ObservableSpec("energy"))
    specs.append(ObservableSpec("enstrophy"))
    specs.append(ObservableSpec("sobolev_norm", order=-1.5))
    for band in ((1.0, 2.0), (2.0, 4.0), (4.0, math.inf)):
        specs.append(ObservableSpec("spectrum_band", band=band))
    return tuple(specs)


# ---------------------------------------------------------------------------
# invariance


@dataclass(frozen=True)
class ObservableRow:
    label: str
    kind: str
    pre_mean: float
    pre_variance: float
    pre_se: float
    post_mean: float
    post_variance: float
    post_se: float
    ks_statistic: float
    p_value: float


@dataclass(frozen=True)
class EnsembleReport:
    """Per-observable comparison of a fresh Gibbs ensemble against an evolved one."""

    observables: tuple[ObservableRow, ...]
    ensemble_size: int
    surviving: int
    failed_members: tuple[int, ...]
    energy_drift_max: float
    enstrophy_drift_max: float
    marginal_pass_rate: float
    verdicts: dict
    manifest: dict

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def _column_stats(values: np.ndarray) -> tuple[float, float, float]:
    mean = float(values.mean())
    variance = float(values.var(ddof=1)) if values.size > 1 else 0.0
    return mean, variance, math.sqrt(variance / values.size) if values.size else 0.0


def _integration_abort(summary: str, failures: Sequence[MemberFailure]) -> IntegrationError:
    """The error that aborts a run: summary, then the member that failed at
    the earliest step and why; members are all the failed ones, in order."""
    first = min(failures, key=lambda failure: failure.step)
    return IntegrationError(
        f"{summary}; member {first.member} failed first: {first.message}",
        step=first.step,
        members=sorted({failure.member for failure in failures}),
    )


def run_invariance(
    p: GibbsParams,
    cfg: IntegratorConfig,
    observables: Sequence[ObservableSpec],
    ensemble_size: int,
    rng: RngStream,
    *,
    alpha: float = 0.01,
    pass_fraction: float = 0.95,
    mean_se_factor: float = 3.0,
    failure_tol: float = 0.01,
    threads: int = 1,
) -> EnsembleReport:
    """Test invariance of the Gibbs law under the flow over cfg.t_final.

    One ensemble is drawn and evolved; a second, fresh ensemble provides the
    reference law. Every observable is compared by a two-sample KS test; the
    top-line verdict requires at least pass_fraction of the mode-marginal
    tests to clear the alpha level, and energy/enstrophy ensemble means to
    agree within mean_se_factor combined standard errors. At t_final = 0 the
    comparison is null by construction and an additional chi-square
    uniformity verdict on the marginal p-values calibrates the test stack.
    That verdict means something only from about 400 members: with 100 it
    rejected the true null on 11 of 20 seeds at cutoff (5,3) and on 17 of 20
    at (4,4), against 1 and 0 of 20 with 400 (alpha 0.01), likely because
    two-sample KS p-values at 100 members lie on a coarse lattice.
    Aborts (IntegrationError) if more than failure_tol of the members fail
    to integrate, or if none survives.
    """
    # only the final rows are read, so a snapshot stride would only cost memory
    cfg = replace(cfg, snapshot_stride=0)
    observables = tuple(observables)
    manifest = _inputs(INVARIANCE_SCHEMA, locals())
    ensemble_size = int(ensemble_size)
    if ensemble_size < 100:
        raise ValueError(f"ensemble_size must be >= 100 for stable KS levels, got {ensemble_size}")
    if not observables:
        raise ValueError("need at least one observable")
    # a level or factor at or below zero passes its verdict by construction
    for name, value in (
        ("alpha", alpha), ("pass_fraction", pass_fraction), ("mean_se_factor", mean_se_factor)
    ):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    if not failure_tol >= 0.0:
        raise ValueError(f"failure_tol must be >= 0, got {failure_tol!r}")

    initial = sample_coeff_matrix(p, _child(rng, STREAM_EVOLVED), ensemble_size)
    evolution = evolve_coeffs(initial, p.period, p.cutoff, cfg, threads=threads)
    failed = evolution.failed_members
    # with no survivor there is nothing to compare, whatever failure_tol allows
    if len(failed) > failure_tol * ensemble_size or len(failed) == ensemble_size:
        raise _integration_abort(
            f"{len(failed)} of {ensemble_size} members failed to integrate "
            f"(tolerated fraction {failure_tol})",
            evolution.failures,
        )
    post = evolution.coeffs
    del evolution  # so the full rows are freed once the survivors are copied out
    if failed:
        keep = np.setdiff1d(np.arange(ensemble_size), np.asarray(failed, dtype=int))
        initial, post = initial[keep], post[keep]
    surviving = post.shape[0]

    energy_spec, enstrophy_spec = ObservableSpec("energy"), ObservableSpec("enstrophy")
    energy_pre = observable_values(energy_spec, initial, p.period, p.cutoff)
    energy_post = observable_values(energy_spec, post, p.period, p.cutoff)
    enstrophy_pre = observable_values(enstrophy_spec, initial, p.period, p.cutoff)
    enstrophy_post = observable_values(enstrophy_spec, post, p.period, p.cutoff)
    energy_drift = np.abs(energy_post - energy_pre) / np.maximum(np.abs(energy_pre), 1.0)
    enstrophy_drift = np.abs(enstrophy_post - enstrophy_pre) / np.maximum(
        np.abs(enstrophy_pre), 1.0
    )
    # the initial rows are needed only for the drift; release them before the
    # fresh ensemble is drawn
    del initial
    pre = sample_coeff_matrix(p, _child(rng, STREAM_FRESH), ensemble_size)

    rows: list[ObservableRow] = []
    for spec in observables:
        a = observable_values(spec, pre, p.period, p.cutoff)
        b = observable_values(spec, post, p.period, p.cutoff)
        ks = ks_two_sample(a, b)
        pre_mean, pre_var, pre_se = _column_stats(a)
        post_mean, post_var, post_se = _column_stats(b)
        rows.append(
            ObservableRow(
                label=spec.label,
                kind=spec.kind,
                pre_mean=pre_mean,
                pre_variance=pre_var,
                pre_se=pre_se,
                post_mean=post_mean,
                post_variance=post_var,
                post_se=post_se,
                ks_statistic=ks.statistic,
                p_value=ks.p_value,
            )
        )

    marginal_p = [r.p_value for r in rows if r.kind.startswith("coeff_")]
    if marginal_p:
        pass_rate = float(np.mean([pv >= alpha for pv in marginal_p]))
    else:
        pass_rate = 1.0
    verdicts: dict = {"marginal_pass_rate": pass_rate >= pass_fraction}
    for name in ("energy", "enstrophy"):
        for row in rows:
            if row.kind == name:
                gap = abs(row.post_mean - row.pre_mean)
                budget = mean_se_factor * math.hypot(row.pre_se, row.post_se)
                verdicts[f"{name}_mean"] = gap <= budget
                break
    if cfg.t_final == 0.0 and marginal_p:
        verdicts["null_p_uniformity"] = chi_square_uniform(marginal_p).p_value >= alpha

    return EnsembleReport(
        observables=tuple(rows),
        ensemble_size=ensemble_size,
        surviving=surviving,
        failed_members=failed,
        energy_drift_max=float(energy_drift.max()),
        enstrophy_drift_max=float(enstrophy_drift.max()),
        marginal_pass_rate=pass_rate,
        verdicts=verdicts,
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# drift moments across cutoffs


@dataclass(frozen=True)
class MomentRow:
    order: float
    exponent: float
    cutoff: Mode
    mean: float
    se: float


@dataclass(frozen=True)
class MomentSeries:
    order: float
    exponent: float
    means: tuple[float, ...]
    stable_tail: bool
    strictly_increasing: bool


@dataclass(frozen=True)
class MomentReport:
    """Estimates of E ||B(Phi)||_{H^beta}^(2 exponent) across a cutoff ladder.

    divergence_signature labels the series expected stable that instead grew
    strictly across the whole ladder.
    """

    rows: tuple[MomentRow, ...]
    series: tuple[MomentSeries, ...]
    cutoffs: tuple[Mode, ...]
    expect: str
    verdicts: dict
    divergence_signature: tuple[str, ...]
    manifest: dict

    def series_for(self, order: float, exponent: float) -> MomentSeries:
        for s in self.series:
            if s.order == order and s.exponent == exponent:
                return s
        raise KeyError(f"no series for order {order}, exponent {exponent}")


def moment_scan(
    p: GibbsParams,
    orders: Sequence[float],
    exponents: Sequence[float],
    ensemble_size: int,
    rng: RngStream,
    *,
    cutoffs: Sequence[Sequence[int]] = DEFAULT_MOMENT_CUTOFFS,
    stability_tol: float = 0.05,
    drift_method: str = PSEUDO_SPECTRAL,
    expect: str = "auto",
    threads: int = 1,
) -> MomentReport:
    """Estimate drift moments E ||B||_{H^beta}^(2q) on a growing cutoff ladder.

    p fixes gamma and the period; its own cutoff is ignored in favor of the
    ladder. The counter-keyed sampler gives every ladder rung the same draw
    for every shared mode, so successive estimates differ only by the new
    shell contributions (common random numbers). expect picks each series'
    verdict: "stable" (tail change below stability_tol), "divergent"
    (strictly increasing), "none", or "auto" (stable iff beta < -1).
    """
    manifest = _inputs(MOMENTS_SCHEMA, locals())
    ensemble_size = int(ensemble_size)
    if ensemble_size < 2:
        raise ValueError("ensemble_size must be >= 2")
    orders = [float(b) for b in orders]
    exponents = [float(q) for q in exponents]
    # a repeated pair would append twice to one series and compare a rung with itself
    for name, values in (("orders", orders), ("exponents", exponents)):
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must be pairwise distinct, got {values}")
    if not all(q > 0.0 for q in exponents):
        raise ValueError(f"exponents must be positive, got {exponents}")
    ladder = tuple((int(c[0]), int(c[1])) for c in cutoffs)
    if len(ladder) < 2:
        raise ValueError("need at least two cutoffs to compare")
    # a rung equal to the one before repeats its draws, so its tail is stable by construction
    if any(b[0] < a[0] or b[1] < a[1] or a == b for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"each cutoff box must strictly contain the one before, got {ladder}")
    if expect not in ("auto", "stable", "divergent", "none"):
        raise ValueError(f"expect must be auto, stable, divergent or none, got {expect!r}")
    stream = _child(rng, STREAM_MOMENTS)

    rows: list[MomentRow] = []
    means: dict[tuple[float, float], list[float]] = {
        (b, q): [] for b in orders for q in exponents
    }
    for cutoff in ladder:
        params = GibbsParams(p.gamma, p.period, cutoff)
        coeffs = sample_coeff_matrix(params, stream, ensemble_size)
        rates = np.concatenate(
            map_row_blocks(
                lambda lo, hi: drift_batch(coeffs[lo:hi], p.period, cutoff, method=drift_method),
                ensemble_size,
                threads,
            )
        )
        abs_sq = rates.real**2 + rates.imag**2
        for b in orders:
            weights = _sobolev_weights(p.period, cutoff, b)
            norm_sq = np.einsum("sm,m->s", abs_sq, weights, optimize=False)
            for q in exponents:
                values = norm_sq if q == 1.0 else norm_sq**q
                mean, _, se = _column_stats(values)
                rows.append(MomentRow(order=b, exponent=q, cutoff=cutoff, mean=mean, se=se))
                means[(b, q)].append(mean)

    series = []
    verdicts: dict[str, bool] = {}
    signature: list[str] = []
    for (b, q), sequence in means.items():
        tail_change = abs(sequence[-1] - sequence[-2]) / max(abs(sequence[-2]), 1e-300)
        stable = bool(tail_change < stability_tol)
        increasing = bool(np.all(np.diff(sequence) > 0.0))
        series.append(
            MomentSeries(
                order=b,
                exponent=q,
                means=tuple(sequence),
                stable_tail=stable,
                strictly_increasing=increasing,
            )
        )
        label = f"beta={b:g},q={q:g}"
        expected = ("stable" if b < -1.0 else "divergent") if expect == "auto" else expect
        if expected == "stable":
            verdicts[f"stable[{label}]"] = stable
            if not stable and increasing:
                signature.append(label)
        elif expected == "divergent":
            verdicts[f"divergent[{label}]"] = increasing

    return MomentReport(
        rows=tuple(rows),
        series=tuple(series),
        cutoffs=ladder,
        expect=expect,
        verdicts=verdicts,
        divergence_signature=tuple(signature),
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# dyadic Cauchy scan


def _pair_distances(
    pair: Callable[[int], tuple[SpectralField, SpectralField]],
    count: int, order: float, level_max: int, points_per_unit: int, threads: int,
) -> np.ndarray:
    """local_distance(*pair(i)) for i in range(count), over row blocks."""

    def block(lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo, dtype=np.float64)
        for slot, i in enumerate(range(lo, hi)):
            out[slot] = local_distance(*pair(i), order, level_max, points_per_unit=points_per_unit)
        return out

    return np.concatenate(map_row_blocks(block, count, threads))


@dataclass(frozen=True)
class CauchyRow:
    level: int
    mean_sq_distance: float
    se: float


@dataclass(frozen=True)
class CauchyReport:
    """E d^2(Phi_{2^n}, Phi_{2^(n+1)}) for coupled dyadic pairs across levels."""

    rows: tuple[CauchyRow, ...]
    order: float
    strictly_decreasing: bool
    verdicts: dict
    manifest: dict


def cauchy_scan(
    n_values: Sequence[int],
    order: float,
    ensemble_size: int,
    rng: RngStream,
    *,
    gamma: float = 1.0,
    modes_per_unit: int = 1,
    level_max: int = 4,
    points_per_unit: int = 64,
    expect: str = "decreasing",
    threads: int = 1,
) -> CauchyReport:
    """Monte Carlo E d^2 between coupled consecutive dyadic levels 2^n, 2^(n+1).

    Level n lives on period 2^n with cutoff modes_per_unit * 2^n per axis, so
    every level resolves the same physical frequency window. The distance is
    the windowed local metric at the given (negative) order evaluated on the
    common observation square [0, level_max]^2. Each coarse field is embedded
    exactly onto the fine torus (mode k -> 2k, coefficient times 2, the same
    function and derivative symbol), so a pair costs one local_distance.
    expect "decreasing" makes strictly decreasing E d^2 the verdict; "none"
    reports without one.
    """
    manifest = _inputs(CAUCHY_SCHEMA, locals())
    order = float(order)
    if not order < 1.0:
        raise ValueError(f"the local metric scan needs order < 1, got {order}")
    ensemble_size = int(ensemble_size)
    if ensemble_size < 2:
        raise ValueError("ensemble_size must be >= 2")
    levels = [int(n) for n in n_values]
    if not levels:
        raise ValueError("need at least one level")
    if min(levels) < 1:
        raise ValueError("levels must be >= 1 so the coarse period is at least 2")
    if expect not in ("decreasing", "none"):
        raise ValueError(f"expect must be decreasing or none, got {expect!r}")
    # a repeated level ties itself, and a lone level has nothing to decrease
    # from, so either fixes the verdict in advance
    if len(set(levels)) < len(levels):
        raise ValueError(f"levels must be pairwise distinct, got {levels}")
    if expect == "decreasing" and len(levels) < 2:
        raise ValueError(f"the decreasing verdict needs at least two levels, got {levels}")
    stream = _child(rng, STREAM_DYADIC)

    rows: list[CauchyRow] = []
    for n in levels:
        base = GibbsParams(
            gamma=gamma,
            period=2.0**n,
            cutoff=(modes_per_unit * 2**n, modes_per_unit * 2**n),
        )
        coarse, fine, fine_params = coupled_dyadic_matrices(
            n, n + 1, base, stream, ensemble_size
        )

        def pair(i: int) -> tuple[SpectralField, SpectralField]:
            # the coarse field, exactly re-expressed on the fine torus
            f = _embed(
                SpectralField(base.period, base.cutoff, coarse[i]), fine_params.cutoff, ratio=2
            )
            return f, SpectralField(fine_params.period, fine_params.cutoff, fine[i])

        sq = _pair_distances(pair, ensemble_size, order, level_max, points_per_unit, threads) ** 2
        mean, _, se = _column_stats(sq)
        rows.append(CauchyRow(level=n, mean_sq_distance=mean, se=se))
        # released before the next level draws, so two levels are never held
        del coarse, fine, sq

    by_level = sorted(rows, key=lambda r: r.level)
    decreasing = len(by_level) > 1 and all(
        earlier.mean_sq_distance > later.mean_sq_distance
        for earlier, later in zip(by_level, by_level[1:])
    )
    return CauchyReport(
        rows=tuple(rows),
        order=order,
        strictly_decreasing=decreasing,
        verdicts={"strictly_decreasing": decreasing} if expect == "decreasing" else {},
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# flow continuity


@dataclass(frozen=True)
class ContinuityRow:
    delta: float
    input_distance: float
    median_output_distance: float
    median_ratio: float
    surviving: int


@dataclass(frozen=True)
class ContinuityReport:
    """Output-vs-input local distances for perturbed initial conditions."""

    rows: tuple[ContinuityRow, ...]
    order: float
    ratio_stabilizes: bool
    monotone_in_delta: bool
    verdicts: dict
    manifest: dict


def _perturbation_direction(p: GibbsParams, order: float) -> np.ndarray:
    """The fixed probe direction: the Gibbs deviation profile, unit H^order norm."""
    profile = _sigma_vector(p.gamma, p.period, p.cutoff)
    weights = _sobolev_weights(p.period, p.cutoff, order)
    norm = math.sqrt(float(np.dot(weights, profile * profile)))
    return (profile / norm).astype(np.complex128)


def continuity_probe(
    p: GibbsParams,
    cfg: IntegratorConfig,
    deltas: Sequence[float],
    ensemble_size: int,
    rng: RngStream,
    *,
    order: float = -1.5,
    level_max: int = 4,
    points_per_unit: int = 64,
    ratio_tol: float = 0.25,
    threads: int = 1,
) -> ContinuityReport:
    """Probe the local modulus of continuity of the time-t flow map.

    Gibbs initial conditions are nudged by delta times a fixed unit-norm
    direction; both copies are evolved and the output local distance is
    compared with the (deterministic) input distance. A flow continuous in
    the local topology shows median ratios that stabilize as delta shrinks;
    the verdict checks the two smallest positive deltas agree within
    ratio_tol. A member that fails in either evolution is left out of its
    delta's row; aborts (IntegrationError) if no member is left.
    """
    # only the final rows are read, so a snapshot stride would only cost memory
    cfg = replace(cfg, snapshot_stride=0)
    manifest = _inputs(CONTINUITY_SCHEMA, locals())
    ensemble_size = int(ensemble_size)
    if ensemble_size < 2:
        raise ValueError("ensemble_size must be >= 2")
    delta_list = [float(d) for d in deltas]
    if any(d < 0.0 for d in delta_list):
        raise ValueError("deltas must be nonnegative")
    # a repeated delta would compare a ratio with itself; 0.0 == -0.0 in the set
    if len(set(delta_list)) < len(delta_list):
        raise ValueError(f"deltas must be pairwise distinct, got {delta_list}")
    stream = _child(rng, STREAM_CONTINUITY)

    base = sample_coeff_matrix(p, stream, ensemble_size)
    base_evolution = evolve_coeffs(base, p.period, p.cutoff, cfg, threads=threads)
    direction = _perturbation_direction(p, order)
    zero = SpectralField.zeros(p.period, p.cutoff)

    rows: list[ContinuityRow] = []
    for delta in delta_list:
        perturbed = base + delta * direction[None, :]
        pert_evolution = evolve_coeffs(perturbed, p.period, p.cutoff, cfg, threads=threads)
        bad = set(base_evolution.failed_members) | set(pert_evolution.failed_members)
        keep = [i for i in range(ensemble_size) if i not in bad]
        if not keep:
            raise _integration_abort(
                f"all {ensemble_size} members failed to integrate in the base or the "
                f"delta = {delta:g} evolution",
                base_evolution.failures + pert_evolution.failures,
            )
        input_distance = local_distance(
            zero.with_coeffs(delta * direction), zero, order, level_max,
            points_per_unit=points_per_unit,
        )

        def pair(i: int) -> tuple[SpectralField, SpectralField]:
            member = keep[i]
            return (
                zero.with_coeffs(base_evolution.coeffs[member]),
                zero.with_coeffs(pert_evolution.coeffs[member]),
            )

        outputs = _pair_distances(pair, len(keep), order, level_max, points_per_unit, threads)
        median_out = float(np.median(outputs))
        ratio = median_out / input_distance if input_distance > 0.0 else math.nan
        rows.append(
            ContinuityRow(
                delta=delta,
                input_distance=input_distance,
                median_output_distance=median_out,
                median_ratio=ratio,
                surviving=len(keep),
            )
        )

    positive = sorted((r for r in rows if r.delta > 0.0), key=lambda r: r.delta)
    if len(positive) >= 2 and positive[1].median_ratio > 0.0:
        smallest, second = positive[0], positive[1]
        stabilizes = (
            abs(smallest.median_ratio / second.median_ratio - 1.0) <= ratio_tol
        )
    else:
        stabilizes = False
    ordered = sorted(rows, key=lambda r: r.delta)
    monotone = all(
        a.median_output_distance <= b.median_output_distance + 1e-15
        for a, b in zip(ordered, ordered[1:])
    )

    return ContinuityReport(
        rows=tuple(rows),
        order=order,
        ratio_stabilizes=stabilizes,
        monotone_in_delta=monotone,
        verdicts={"ratio_stabilizes": stabilizes},
        manifest=manifest,
    )
