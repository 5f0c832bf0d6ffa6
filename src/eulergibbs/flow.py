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

All stepping goes through one loop: _march advances a block of rows over
the planned steps with _advance, the only place the scheme is dispatched,
and drops a row from the block once it stalls or overflows. evolve_coeffs
runs that loop on contiguous row blocks through map_row_blocks and NaN-fills
the failed rows; evolve runs it on one row, records snapshots and raises at
the first failed step; step is evolve over one signed dt.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .drift import PSEUDO_SPECTRAL, TRIAD_SUM, drift_batch
from .spectral import Mode, SpectralField, energy, enstrophy

SCHEMES = ("rk4", "implicit_midpoint")

TRAJECTORY_SCHEMA = "trajectory.v1"

T = TypeVar("T")

_MAX_STEPS = 2.0**53


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
        if abs(self.t_final) / self.dt > _MAX_STEPS:
            # snapshot times are (index + 1) * dt, exact only while index + 1 <= 2^53
            raise ValueError(
                f"t_final / dt = {abs(self.t_final) / self.dt:.6g} exceeds the "
                f"2^53 steps whose times are exact"
            )


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
    def final(self) -> SpectralField:
        return self.samples[-1][1]

    def records(self) -> list[dict]:
        """JSON-ready snapshot records, one per sample."""
        return [snapshot_record(t, f) for t, f in self.samples]


def snapshot_record(t: float, f: SpectralField) -> dict:
    """The JSON-ready record of one trajectory snapshot (t, f)."""
    return {
        "schema": TRAJECTORY_SCHEMA,
        "t": t,
        "energy": energy(f),
        "enstrophy": enstrophy(f),
        "field": f.to_record(),
    }


@dataclass
class EnsembleEvolution:
    """Result of evolving a coefficient matrix: final rows plus diagnostics.

    Failed members keep NaN coefficients and are listed in failed_members;
    callers decide whether a nonzero failure count is fatal.
    """

    coeffs: np.ndarray
    steps: int
    failed_members: tuple[int, ...] = dataclass_field(default=())


@dataclass(frozen=True)
class _StepPlan:
    """Signed step sizes covering t_final exactly: count whole steps of size
    step, then the remainder unless it is 0.0. Iterating yields them in order;
    the plan itself is O(1) in the horizon."""

    step: float
    count: int
    remainder: float

    def __len__(self) -> int:
        return self.count + (self.remainder != 0.0)

    def __iter__(self) -> Iterator[float]:
        yield from itertools.repeat(self.step, self.count)
        if self.remainder != 0.0:
            yield self.remainder


def _plan_steps(dt: float, t_final: float) -> _StepPlan:
    """The step plan of a horizon: whole dt steps plus a remainder."""
    sign = 1.0 if t_final > 0.0 else -1.0
    span = abs(t_final)
    count = int(math.floor(span / dt + 1e-9))
    remainder = span - count * dt
    return _StepPlan(sign * dt, count, sign * remainder if remainder > 1e-9 * dt else 0.0)


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


def _advance(
    rows: np.ndarray, h: float, period: float, cutoff: Mode, cfg: IntegratorConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One signed step of the configured scheme over a block of independent rows.

    Returns the stepped rows, the mask of rows whose fixed-point solve stalled
    (never set by rk4) and the mask of rows with a non-finite coefficient.
    """
    if cfg.scheme == "rk4":
        stepped = _rk4_step(rows, h, period, cutoff, cfg)
        stalled = np.zeros(rows.shape[0], dtype=bool)
    else:
        stepped, stalled = _midpoint_step(rows, h, period, cutoff, cfg)
    return stepped, stalled, ~np.isfinite(stepped).all(axis=1)


def _march(
    coeffs: np.ndarray, steps: Iterable[float], period: float, cutoff: Mode, cfg: IntegratorConfig
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Advance a copy of coeffs through the planned steps, yielding after each one.

    Yields (step index, current rows, stalled row indices, overflowed row
    indices). A row that failed is never stepped again and keeps the value
    of its failed step; the loop ends early once every row has failed.
    """
    current = coeffs.copy()
    alive = np.arange(current.shape[0])
    for index, h in enumerate(steps):
        if alive.size == 0:
            return
        stepped, stalled, overflowed = _advance(current[alive], h, period, cutoff, cfg)
        current[alive] = stepped
        yield index, current, alive[stalled], alive[overflowed & ~stalled]
        alive = alive[~(stalled | overflowed)]


@lru_cache(maxsize=None)
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None without one."""
    site = Path(np.__file__).resolve().parent.parent
    libs = sorted(site.glob("numpy.libs/libscipy_openblas64_*.so"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    try:
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def map_row_blocks(fn: Callable[[int, int], T], rows: int, threads: int = 1) -> list[T]:
    """fn(lo, hi) over contiguous blocks that split range(rows); results in block order.

    There are min(threads, rows) blocks (at least one), run concurrently. fn
    must treat every row independently of the others in its block, so the
    concatenated results are identical for every thread count. With more than
    one block, numpy's bundled OpenBLAS is held at one thread for the call, so
    the blocks do not oversubscribe the cores with BLAS threads of their own.
    """
    blocks = max(1, min(int(threads), int(rows)))
    if blocks == 1:
        return [fn(0, rows)]
    bounds = np.linspace(0, rows, blocks + 1, dtype=int).tolist()
    blas = _openblas_threads()
    saved = blas[0]() if blas else None
    if blas:
        blas[1](1)
    try:
        with ThreadPoolExecutor(max_workers=blocks) as pool:
            return list(pool.map(fn, bounds[:-1], bounds[1:]))
    finally:
        if blas:
            blas[1](saved)


def evolve_coeffs(
    coeffs: np.ndarray,
    period: float,
    cutoff: Sequence[int],
    cfg: IntegratorConfig,
    threads: int = 1,
) -> EnsembleEvolution:
    """Evolve every row of a coefficient matrix over cfg.t_final.

    threads > 1 evolves contiguous row blocks concurrently; rows never
    interact, so the result is bitwise identical for any thread count. Failed
    rows (solver stall, overflow) are NaN-filled and reported, not raised.
    """
    cutoff = (int(cutoff[0]), int(cutoff[1]))
    coeffs = np.array(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2:
        raise ValueError(f"coeffs must be 2-D (members, modes), got {coeffs.shape}")
    steps = _plan_steps(cfg.dt, cfg.t_final)

    def run(lo: int, hi: int) -> tuple[np.ndarray, list[int]]:
        current, failed = coeffs[lo:hi], []
        for _, current, stalled, overflowed in _march(coeffs[lo:hi], steps, period, cutoff, cfg):
            failed.extend(lo + int(i) for i in (*stalled, *overflowed))
        return current, failed

    blocks = map_row_blocks(run, coeffs.shape[0], threads)
    final = np.concatenate([rows for rows, _ in blocks])
    failed = tuple(sorted(i for _, block in blocks for i in block))
    final[np.asarray(failed, dtype=np.intp)] = np.nan
    return EnsembleEvolution(coeffs=final, steps=len(steps), failed_members=failed)


def evolve(f: SpectralField, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a single field over cfg.t_final, recording snapshots.

    Raises IntegrationError at the first step that stalls or overflows;
    snapshots include the initial state, every snapshot_stride-th step when
    the stride is positive, and the final state.
    """
    steps = _plan_steps(cfg.dt, cfg.t_final)
    samples: list[tuple[float, SpectralField]] = [(0.0, f)]
    marching = _march(f.coeffs[None, :], steps, f.period, f.cutoff, cfg)
    for index, current, stalled, overflowed in marching:
        is_last = index == len(steps) - 1
        # every step but the last is a whole signed dt, so times come from the
        # step index rather than a running sum, and the final one is exact
        t = float(cfg.t_final) if is_last else (index + 1) * steps.step
        if stalled.size:
            raise IntegrationError(
                f"implicit midpoint failed to reach tol={cfg.fixed_point_tol} within "
                f"{cfg.max_fixed_point_iters} iterations at step {index} (t = {t:.6g})",
                step=index,
                members=[0],
            )
        if overflowed.size:
            raise IntegrationError(
                f"integration overflowed at step {index} (t = {t:.6g})",
                step=index,
                members=[0],
            )
        if is_last or (cfg.snapshot_stride and (index + 1) % cfg.snapshot_stride == 0):
            samples.append((t, f.with_coeffs(current[0])))
    initial_e, final_e = energy(samples[0][1]), energy(samples[-1][1])
    initial_s, final_s = enstrophy(samples[0][1]), enstrophy(samples[-1][1])
    return Trajectory(
        samples=tuple(samples),
        energy_drift=abs(final_e - initial_e) / max(abs(initial_e), 1.0),
        enstrophy_drift=abs(final_s - initial_s) / max(abs(initial_s), 1.0),
    )


def step(f: SpectralField, cfg: IntegratorConfig) -> SpectralField:
    """A single step of the configured scheme (signed by the direction of t_final)."""
    h = math.copysign(cfg.dt, cfg.t_final) if cfg.t_final != 0.0 else cfg.dt
    return evolve(f, replace(cfg, t_final=h, snapshot_stride=0)).final
