"""Time integration of the Galerkin flow d phi / dt = B(phi).

Two schemes are provided. rk4 is the classical explicit Runge-Kutta method
(fourth order, fast, small conservation drift at the dt^4 scale). Implicit
midpoint solves the stage equation m = phi + (dt/2) B(m) by fixed-point
iteration and preserves the quadratic invariants (energy, enstrophy) up to
the solver tolerance, which makes it the reference scheme for invariance
experiments where conservation drift must be negligible.

Negative t_final integrates backwards (the drift is autonomous, so this is
sign-flipped stepping). Trajectories record snapshots plus the relative
energy and enstrophy drift between the endpoints.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from .drift import PSEUDO_SPECTRAL, TRIAD_SUM, drift_batch
from .spectral import Mode, SpectralField, energy, enstrophy

SCHEMES = ("rk4", "implicit_midpoint")

TRAJECTORY_SCHEMA = "trajectory.v1"


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme, step size, horizon, and solver knobs for the flow.

    snapshot_stride 0 records only the two endpoints; a positive stride
    additionally records every stride-th step. drift_method selects the
    backend used for every right-hand-side evaluation.
    """

    scheme: str = "rk4"
    dt: float = 1e-3
    t_final: float = 1.0
    snapshot_stride: int = 0
    fixed_point_tol: float = 1e-12
    max_fixed_point_iters: int = 100
    drift_method: str = TRIAD_SUM
    grid: int | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not math.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite, got {self.t_final!r}")
        if int(self.snapshot_stride) < 0:
            raise ValueError(f"snapshot_stride must be >= 0, got {self.snapshot_stride!r}")
        object.__setattr__(self, "snapshot_stride", int(self.snapshot_stride))
        if not self.fixed_point_tol > 0.0:
            raise ValueError(f"fixed_point_tol must be positive, got {self.fixed_point_tol!r}")
        if int(self.max_fixed_point_iters) < 1:
            raise ValueError(
                f"max_fixed_point_iters must be >= 1, got {self.max_fixed_point_iters!r}"
            )
        object.__setattr__(self, "max_fixed_point_iters", int(self.max_fixed_point_iters))
        if self.drift_method not in (TRIAD_SUM, PSEUDO_SPECTRAL):
            raise ValueError(f"unknown drift_method {self.drift_method!r}")


class IntegrationError(RuntimeError):
    """Raised when a step cannot be completed (solver stall or overflow).

    members holds the failing batch indices when the failure happened inside
    an ensemble evolution (a single-field evolution reports member 0).
    """

    def __init__(self, message: str, *, step: int, members: Sequence[int]):
        super().__init__(message)
        self.step = step
        self.members = tuple(int(i) for i in members)


@dataclass(frozen=True)
class Trajectory:
    """Recorded snapshots (t, field) plus endpoint conservation drift."""

    samples: tuple[tuple[float, SpectralField], ...]
    energy_drift: float
    enstrophy_drift: float

    @property
    def initial(self) -> SpectralField:
        return self.samples[0][1]

    @property
    def final(self) -> SpectralField:
        return self.samples[-1][1]

    def records(self) -> list[dict]:
        """JSON-ready snapshot records, one per sample."""
        return [
            {
                "schema": TRAJECTORY_SCHEMA,
                "t": t,
                "energy": energy(f),
                "enstrophy": enstrophy(f),
                "field": f.to_record(),
            }
            for t, f in self.samples
        ]


@dataclass
class EnsembleEvolution:
    """Result of evolving a coefficient matrix: final rows plus diagnostics.

    Failed members keep NaN coefficients and are listed in failed_members;
    callers decide whether a nonzero failure count is fatal.
    """

    coeffs: np.ndarray
    steps: int
    failed_members: tuple[int, ...] = dataclass_field(default=())


def _plan_steps(dt: float, t_final: float) -> list[float]:
    """Signed step sizes covering t_final exactly: whole dt steps plus a remainder."""
    if t_final == 0.0:
        return []
    sign = 1.0 if t_final > 0.0 else -1.0
    span = abs(t_final)
    count = int(math.floor(span / dt + 1e-9))
    remainder = span - count * dt
    steps = [sign * dt] * count
    if remainder > 1e-9 * dt:
        steps.append(sign * remainder)
    return steps


def _rhs(coeffs: np.ndarray, period: float, cutoff: Mode, cfg: IntegratorConfig) -> np.ndarray:
    return drift_batch(coeffs, period, cutoff, method=cfg.drift_method, grid=cfg.grid)


def _rk4_step(
    coeffs: np.ndarray, h: float, period: float, cutoff: Mode, cfg: IntegratorConfig
) -> np.ndarray:
    k1 = _rhs(coeffs, period, cutoff, cfg)
    k2 = _rhs(coeffs + (0.5 * h) * k1, period, cutoff, cfg)
    k3 = _rhs(coeffs + (0.5 * h) * k2, period, cutoff, cfg)
    k4 = _rhs(coeffs + h * k3, period, cutoff, cfg)
    return coeffs + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _midpoint_step(
    coeffs: np.ndarray, h: float, period: float, cutoff: Mode, cfg: IntegratorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """One implicit midpoint step per row; returns (new coeffs, stalled row mask).

    Rows iterate independently: a row stops updating the moment its own
    fixed-point increment drops below tolerance, so results are bitwise
    independent of which rows share a batch.
    """
    half = 0.5 * h
    stage = coeffs + half * _rhs(coeffs, period, cutoff, cfg)
    active = np.ones(coeffs.shape[0], dtype=bool)
    for _ in range(cfg.max_fixed_point_iters):
        rows = np.nonzero(active)[0]
        updated = coeffs[rows] + half * _rhs(stage[rows], period, cutoff, cfg)
        increment = np.max(np.abs(updated - stage[rows]), axis=1)
        stage[rows] = updated
        done = increment <= cfg.fixed_point_tol
        active[rows[done]] = False
        if not active.any():
            break
    return 2.0 * stage - coeffs, active


def _evolve_block(
    coeffs: np.ndarray,
    period: float,
    cutoff: Mode,
    cfg: IntegratorConfig,
    steps: Sequence[float],
    offset: int,
    failures: list[int],
) -> np.ndarray:
    current = coeffs.copy()
    alive = np.ones(current.shape[0], dtype=bool)
    for h in steps:
        rows = np.nonzero(alive)[0]
        if rows.size == 0:
            break
        if cfg.scheme == "rk4":
            stepped = _rk4_step(current[rows], h, period, cutoff, cfg)
            stalled = np.zeros(rows.size, dtype=bool)
        else:
            stepped, stalled = _midpoint_step(current[rows], h, period, cutoff, cfg)
        finite = np.isfinite(stepped).all(axis=1)
        bad = stalled | ~finite
        current[rows] = stepped
        if bad.any():
            for i in rows[bad]:
                failures.append(offset + int(i))
            current[rows[bad]] = np.nan
            alive[rows[bad]] = False
    return current


def evolve_coeffs(
    coeffs: np.ndarray,
    period: float,
    cutoff: Sequence[int],
    cfg: IntegratorConfig,
    threads: int = 1,
) -> EnsembleEvolution:
    """Evolve every row of a coefficient matrix over cfg.t_final.

    threads > 1 splits the rows into contiguous blocks evolved concurrently;
    rows never interact, so the result is bitwise identical for any thread
    count. Failed rows (solver stall, overflow) are reported, not raised.
    """
    cutoff = (int(cutoff[0]), int(cutoff[1]))
    coeffs = np.array(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2:
        raise ValueError(f"coeffs must be 2-D (members, modes), got {coeffs.shape}")
    steps = _plan_steps(cfg.dt, cfg.t_final)
    threads = max(1, int(threads))
    members = coeffs.shape[0]
    if members == 0 or not steps:
        return EnsembleEvolution(coeffs=coeffs, steps=len(steps))

    failures: list[int] = []
    if threads == 1 or members == 1:
        final = _evolve_block(coeffs, period, cutoff, cfg, steps, 0, failures)
    else:
        bounds = np.linspace(0, members, threads + 1, dtype=int)
        final = np.empty_like(coeffs)
        block_failures: list[list[int]] = [[] for _ in range(threads)]

        def run(i: int) -> None:
            lo, hi = bounds[i], bounds[i + 1]
            if lo < hi:
                final[lo:hi] = _evolve_block(
                    coeffs[lo:hi], period, cutoff, cfg, steps, lo, block_failures[i]
                )

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(threads)))
        for chunk in block_failures:
            failures.extend(chunk)

    return EnsembleEvolution(
        coeffs=final, steps=len(steps), failed_members=tuple(sorted(failures))
    )


def step(f: SpectralField, cfg: IntegratorConfig) -> SpectralField:
    """A single step of the configured scheme (signed by the direction of t_final)."""
    h = math.copysign(cfg.dt, cfg.t_final) if cfg.t_final != 0.0 else cfg.dt
    if cfg.scheme == "rk4":
        out = _rk4_step(f.coeffs[None, :], h, f.period, f.cutoff, cfg)[0]
        if not np.isfinite(out).all():
            raise IntegrationError("rk4 step produced non-finite coefficients", step=0, members=[0])
        return f.with_coeffs(out)
    out, stalled = _midpoint_step(f.coeffs[None, :], h, f.period, f.cutoff, cfg)
    if stalled[0]:
        raise IntegrationError(
            f"implicit midpoint failed to reach tol={cfg.fixed_point_tol} "
            f"within {cfg.max_fixed_point_iters} iterations",
            step=0,
            members=[0],
        )
    if not np.isfinite(out).all():
        raise IntegrationError("midpoint step produced non-finite coefficients", step=0, members=[0])
    return f.with_coeffs(out[0])


def evolve(f: SpectralField, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a single field over cfg.t_final, recording snapshots.

    Raises IntegrationError on solver stall or overflow; snapshots include
    the initial state, every snapshot_stride-th step when the stride is
    positive, and the final state.
    """
    steps = _plan_steps(cfg.dt, cfg.t_final)
    samples: list[tuple[float, SpectralField]] = [(0.0, f)]
    current = f.coeffs[None, :].copy()
    for index, h in enumerate(steps):
        if cfg.scheme == "rk4":
            current = _rk4_step(current, h, f.period, f.cutoff, cfg)
            stalled = False
        else:
            current, mask = _midpoint_step(current, h, f.period, f.cutoff, cfg)
            stalled = bool(mask[0])
        is_last = index == len(steps) - 1
        # every step but the last is a whole signed dt, so times come from the
        # step index rather than a running sum, and the final one is exact
        t = float(cfg.t_final) if is_last else (index + 1) * h
        if stalled:
            raise IntegrationError(
                f"implicit midpoint failed to reach tol={cfg.fixed_point_tol} within "
                f"{cfg.max_fixed_point_iters} iterations at step {index} (t = {t:.6g})",
                step=index,
                members=[0],
            )
        if not np.isfinite(current).all():
            raise IntegrationError(
                f"integration overflowed at step {index} (t = {t:.6g})",
                step=index,
                members=[0],
            )
        if (cfg.snapshot_stride and (index + 1) % cfg.snapshot_stride == 0 and not is_last) or is_last:
            samples.append((t, f.with_coeffs(current[0])))
    initial_e, final_e = energy(samples[0][1]), energy(samples[-1][1])
    initial_s, final_s = enstrophy(samples[0][1]), enstrophy(samples[-1][1])
    return Trajectory(
        samples=tuple(samples),
        energy_drift=abs(final_e - initial_e) / max(abs(initial_e), 1.0),
        enstrophy_drift=abs(final_s - initial_s) / max(abs(initial_s), 1.0),
    )
