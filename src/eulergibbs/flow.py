"""Time integration of the Galerkin flow d phi / dt = B(phi).

Two schemes are provided. rk4 is the classical explicit Runge-Kutta method
(fourth order, fast, small conservation drift at the dt^4 scale). Implicit
midpoint solves the stage equation m = phi + (dt/2) B(m) by fixed-point
iteration and preserves the quadratic invariants (energy, enstrophy) up to
the solver tolerance, which makes it the reference scheme for invariance
experiments where conservation drift must be negligible.

The first midpoint step of a row starts its iteration from the explicit-Euler
guess phi + (dt/2) B(phi). Later steps start from the row's earlier rates
r_n = (phi_{n+1} - phi_n) / dt, which cost no drift call: phi + (dt/2) r,
with r the polynomial through the last min(_START_RATES, steps taken) rates
extrapolated one step on (r_1 for the second step, 2 r_n - r_{n-1} for the
third). A row that stalls from such a start is solved again from the Euler
guess with the full iteration budget, because an extrapolated start alone
stalls rows that the Euler guess solves under a tight iteration cap.

Negative t_final integrates backwards (the drift is autonomous, so this is
sign-flipped stepping). Trajectories record snapshots plus the relative
energy and enstrophy drift between the endpoints.

All stepping goes through one loop, in evolve_coeffs: it splits the rows
among threads and steps each thread's rows in blocks of at most
_MARCH_BLOCK_BYTES, dispatching on the scheme at each step. The same loop
records each failed row's step and cause, sets the row to NaN and stops
stepping it, and writes the block into one preallocated snapshot array. It
keeps each block's last _START_RATES midpoint rates for the starts. evolve is
its one-row case.
"""

from __future__ import annotations

import bisect
import ctypes
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .drift import PSEUDO_SPECTRAL, TRIAD_SUM, drift_batch
from .spectral import (
    Mode,
    SpectralField,
    _as_int,
    _field_record,
    _weighted_power,
    energy,
    enstrophy,
)

SCHEMES = ("rk4", "implicit_midpoint")

TRAJECTORY_SCHEMA = "trajectory.v1"

T = TypeVar("T")

_MAX_STEPS = 2.0**53

# byte budget for the coefficient rows that evolve_coeffs marches through all
# steps at once; a step's temporaries are a few times this, whatever the
# ensemble size (the drift's own chunk budgets bound the rest)
_MARCH_BLOCK_BYTES = 1 << 18

# how many past midpoint rates each block keeps to extrapolate its starts; of
# 2 and 4..8, 8 took the fewest drift rows per member step in every case
# measured but 16 rows at dt 1e-3 (1.08 against 1.03 for 5..7), and had the
# lowest median energy and enstrophy drift over 16 rows (BENCH_24.json)
_START_RATES = 8


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme, step size, horizon, and solver knobs for the flow.

    Every evolution records the state after its last step and, for a positive
    snapshot_stride, after every stride-th step, in evolve_coeffs and evolve
    alike (evolve also keeps the initial state). drift_method selects the
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
        stride = _as_int(self.snapshot_stride, "snapshot_stride")
        if stride < 0:
            raise ValueError(f"snapshot_stride must be >= 0, got {self.snapshot_stride!r}")
        object.__setattr__(self, "snapshot_stride", stride)
        if not self.fixed_point_tol > 0.0:
            raise ValueError(f"fixed_point_tol must be positive, got {self.fixed_point_tol!r}")
        iters = _as_int(self.max_fixed_point_iters, "max_fixed_point_iters")
        if iters < 1:
            raise ValueError(
                f"max_fixed_point_iters must be >= 1, got {self.max_fixed_point_iters!r}"
            )
        object.__setattr__(self, "max_fixed_point_iters", iters)
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One evolved field: the initial field at t = 0, then snapshots[k] at times[k],
    plus endpoint conservation drift. Iterating builds each (t, field) when it
    is reached, as samples and final do when read."""

    initial: SpectralField
    times: tuple[float, ...]
    snapshots: np.ndarray
    energy_drift: float
    enstrophy_drift: float

    def __len__(self) -> int:
        return 1 + len(self.times)

    def __iter__(self) -> Iterator[tuple[float, SpectralField]]:
        yield 0.0, self.initial
        for t, row in zip(self.times, self.snapshots):
            yield t, self.initial.with_coeffs(row)

    @property
    def samples(self) -> tuple[tuple[float, SpectralField], ...]:
        return tuple(self)

    @property
    def final(self) -> SpectralField:
        return self.initial.with_coeffs(self.snapshots[-1]) if self.times else self.initial

    def records(self) -> list[dict]:
        """JSON-ready snapshot records, one per sample."""
        return list(self.iter_records())

    def iter_records(self) -> Iterator[dict]:
        """The records of records(), each built from its row when it is reached.

        No SpectralField is made per snapshot. Each row's energy and enstrophy
        are the per-row dots that energy() and enstrophy() take, and its field
        record is the one to_record() gives.
        """
        period, cutoff = self.initial.period, self.initial.cutoff
        rows = itertools.chain((self.initial.coeffs,), self.snapshots)
        for t, row in zip((0.0, *self.times), rows):
            yield {
                "schema": TRAJECTORY_SCHEMA,
                "t": t,
                "energy": _weighted_power(period, cutoff, row, 1.0),
                "enstrophy": _weighted_power(period, cutoff, row, 2.0),
                "field": _field_record(period, cutoff, row),
            }


class MemberFailure(NamedTuple):
    """A member that failed: its row, the failed step, the time after it and why."""

    member: int
    step: int
    t: float
    cause: str

    @property
    def message(self) -> str:
        return f"{self.cause} at step {self.step} (t = {self.t:.6g})"


@dataclass
class EnsembleEvolution:
    """Result of evolving a coefficient matrix: snapshots, final rows, failures.

    snapshots[k] holds every member at times[k], after every snapshot_stride-th
    step and the last one. coeffs is the last snapshot, or a copy of the input
    for a zero horizon. A failed member is NaN from its failed step on and has
    one record in failures, in member order; callers decide if that is fatal.
    """

    snapshots: np.ndarray
    times: tuple[float, ...]
    coeffs: np.ndarray
    failures: tuple[MemberFailure, ...]

    @property
    def failed_members(self) -> tuple[int, ...]:
        return tuple(failure.member for failure in self.failures)


@dataclass(frozen=True)
class _StepPlan:
    """Signed step sizes covering the horizon end exactly: count whole steps
    of size step, then the remainder unless it is 0.0. Iterating yields them
    in order; the plan itself is O(1) in the horizon."""

    step: float
    count: int
    remainder: float
    end: float

    def __len__(self) -> int:
        return self.count + (self.remainder != 0.0)

    def __iter__(self) -> Iterator[float]:
        yield from itertools.repeat(self.step, self.count)
        if self.remainder != 0.0:
            yield self.remainder

    def time(self, index: int) -> float:
        """The time after step index, from the index rather than a running sum."""
        return self.end if index == len(self) - 1 else (index + 1) * self.step


def _plan_steps(dt: float, t_final: float) -> _StepPlan:
    """The step plan of a horizon: whole dt steps plus a remainder."""
    sign = 1.0 if t_final > 0.0 else -1.0
    span = abs(t_final)
    count = int(math.floor(span / dt + 1e-9))
    remainder = span - count * dt
    remainder = sign * remainder if remainder > 1e-9 * dt else 0.0
    return _StepPlan(sign * dt, count, remainder, float(t_final))


def _rhs(coeffs: np.ndarray, period: float, cutoff: Mode, cfg: IntegratorConfig) -> np.ndarray:
    return drift_batch(coeffs, period, cutoff, cfg.drift_method, cfg.grid)


def _rk4_step(
    coeffs: np.ndarray, h: float, period: float, cutoff: Mode, cfg: IntegratorConfig
) -> np.ndarray:
    """coeffs + (h/6)(k1 + 2 k2 + 2 k3 + k4), summed in place in that order.

    k1's array accumulates the weighted stages and one array holds each stage
    input, so a block holds one accumulator, one stage and one drift result.
    Every operation is the one the expression evaluates, with its operands in
    the same order, so the result is bitwise that of the expression.
    """
    acc = _rhs(coeffs, period, cutoff, cfg)
    stage = np.multiply(0.5 * h, acc)
    for weight in (0.5 * h, h):
        np.add(coeffs, stage, out=stage)
        rate = _rhs(stage, period, cutoff, cfg)
        np.multiply(weight, rate, out=stage)
        np.multiply(2.0, rate, out=rate)
        acc += rate
        del rate
    np.add(coeffs, stage, out=stage)
    acc += _rhs(stage, period, cutoff, cfg)
    np.multiply(h / 6.0, acc, out=acc)
    return np.add(coeffs, acc, out=acc)


def _midpoint_step(
    coeffs: np.ndarray,
    h: float,
    period: float,
    cutoff: Mode,
    cfg: IntegratorConfig,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One implicit midpoint step per row; returns (new coeffs, stalled row mask).

    The stage iteration starts from start, which it overwrites, or without
    one from the explicit-Euler guess coeffs + (h/2) B(coeffs). Every row
    that stalls from a supplied start is solved again from the Euler guess
    with the full iteration budget, so a start can save drift calls but can
    never stall a row that the Euler guess solves: a row stalls only if that
    retry stalls too, and a retried row is bitwise the step without a start.

    Rows iterate independently: a row stops updating the moment its own
    fixed-point increment drops below tolerance, so results are bitwise
    independent of which rows share a batch. A row whose increment is NaN or
    infinite can never pass the tolerance, so it stops at once, stalled.
    While every row is pending the block is indexed by a slice, which copies
    no rows, and an iteration that stops no row does no bookkeeping. Each
    update is summed in place into the drift result in the order of
    coeffs + (h/2) B(stage), and the step in the order of 2 stage - coeffs,
    so both are bitwise those expressions.
    """
    half = 0.5 * h
    stage = start
    if stage is None:
        stage = _rhs(coeffs, period, cutoff, cfg)
        np.multiply(half, stage, out=stage)
        np.add(coeffs, stage, out=stage)
    converged = np.zeros(coeffs.shape[0], dtype=bool)
    pending = np.arange(coeffs.shape[0])
    rows = slice(None)
    for _ in range(cfg.max_fixed_point_iters):
        updated = _rhs(stage[rows], period, cutoff, cfg)
        np.multiply(half, updated, out=updated)
        np.add(coeffs[rows], updated, out=updated)
        increment = np.abs(updated - stage[rows]).max(axis=1)
        stage[rows] = updated
        del updated
        if increment.min() > cfg.fixed_point_tol and increment.max() < np.inf:
            continue
        # some row stops: it converged, or its increment is NaN (which fails
        # both tests above) or infinite
        done = increment <= cfg.fixed_point_tol
        converged[pending[done]] = True
        pending = rows = pending[~done & (increment < np.inf)]
        if pending.size == 0:
            break
    np.multiply(2.0, stage, out=stage)
    stepped, stalled = np.subtract(stage, coeffs, out=stage), ~converged
    if start is not None and stalled.any():
        retry = np.flatnonzero(stalled)
        stepped[retry], stalled[retry] = _midpoint_step(coeffs[retry], h, period, cutoff, cfg)
    return stepped, stalled


def _extrapolated_start(coeffs: np.ndarray, h: float, rates: Sequence[np.ndarray]) -> np.ndarray:
    """The midpoint start coeffs + (h/2) r from the rates of the last steps.

    rates holds the last q + 1 rates r_n, r_{n-1}, ... of (c_{n+1} - c_n) / h,
    newest first, and r extrapolates the degree-q polynomial through them one
    step on: r = sum_j (-1)^j C(q + 1, j + 1) r_{n-j}. One rate gives
    (h/2) r_n and two give (h/2)(2 r_n - r_{n-1}), each summed in that order.
    """
    q = len(rates) - 1
    start = np.multiply(float(q + 1), rates[0])
    for j, rate in enumerate(rates[1:], 1):
        start += (-1) ** j * math.comb(q + 1, j + 1) * rate
    start *= 0.5 * h
    return np.add(coeffs, start, out=start)


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
    """Evolve every row of a coefficient matrix over cfg.t_final, with snapshots.

    threads > 1 evolves contiguous row blocks concurrently. Each thread steps
    a copy of its rows through every step in blocks of at most
    _MARCH_BLOCK_BYTES of coefficients, so the stepping temporaries are
    bounded by the block, not by the ensemble. After each step the block
    loop records every row that stalled or overflowed (a stall wins), sets it
    to NaN and stops stepping it, then writes the block into the
    preallocated snapshots if the step is a snapshot step. Once no row of a
    block is alive, its remaining snapshots are filled with NaN and the block
    stops. The input is only read, and the result never shares its memory.
    Rows never interact, so the result is bitwise identical for any thread
    count and block size. Failures are recorded, not raised.
    """
    cutoff = (int(cutoff[0]), int(cutoff[1]))
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2:
        raise ValueError(f"coeffs must be 2-D (members, modes), got {coeffs.shape}")
    steps = _plan_steps(cfg.dt, cfg.t_final)
    last, stride = len(steps) - 1, cfg.snapshot_stride
    # the steps followed by a strided snapshot; the last step is followed by the final one
    strided = range(stride - 1, last, stride) if stride else range(0)
    snapshots = np.empty((len(strided) + (last >= 0), *coeffs.shape), dtype=np.complex128)
    block = max(1, _MARCH_BLOCK_BYTES // (snapshots.itemsize * max(1, coeffs.shape[1])))
    causes = (
        f"implicit midpoint failed to reach tol={cfg.fixed_point_tol} within "
        f"{cfg.max_fixed_point_iters} iterations",
        "integration overflowed",
    )

    def run(lo: int, hi: int) -> list[MemberFailure]:
        failures: list[MemberFailure] = []
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            current = coeffs[start:stop].copy()
            alive = np.arange(current.shape[0])
            # the block's last _START_RATES midpoint rates (c_{n+1} - c_n) / h,
            # newest first; once all are held, the oldest array takes the newest
            rates: list[np.ndarray] = []
            for index, h in enumerate(steps):
                # while every row is alive the block is stepped whole and the
                # stepped block replaces it, so no rows are copied out and back
                whole = alive.size == current.shape[0]
                live = current if whole else current[alive]
                if cfg.scheme == "rk4":
                    stepped = _rk4_step(live, h, period, cutoff, cfg)
                    stalled = np.zeros(alive.size, dtype=bool)
                else:
                    rows = slice(None) if whole else alive
                    guess = None
                    if rates:
                        guess = _extrapolated_start(live, h, [r[rows] for r in rates])
                    stepped, stalled = _midpoint_step(live, h, period, cutoff, cfg, guess)
                    del guess  # it holds the stepped rows, released with them below
                    if index < last:
                        full = len(rates) == _START_RATES
                        rate = rates.pop() if full else np.empty_like(current)
                        rate[rows] = (stepped - live) / h
                        rates.insert(0, rate)
                failed = stalled | ~np.isfinite(stepped).all(axis=1)
                if whole:
                    current = stepped
                else:
                    current[alive] = stepped
                del live, stepped  # so no stale rows are held while the snapshot is written
                if failed.any():
                    t = steps.time(index)
                    for i in np.nonzero(failed)[0]:
                        cause = causes[0 if stalled[i] else 1]
                        failures.append(MemberFailure(start + int(alive[i]), index, t, cause))
                    current[alive[failed]] = np.nan
                    alive = alive[~failed]
                if index == last or (stride and (index + 1) % stride == 0):
                    snapshots[-1 if index == last else index // stride, start:stop] = current
                if alive.size == 0:
                    snapshots[bisect.bisect_right(strided, index) :, start:stop] = np.nan
                    break
        return failures

    failures = sorted(itertools.chain.from_iterable(map_row_blocks(run, coeffs.shape[0], threads)))
    return EnsembleEvolution(
        snapshots=snapshots,
        times=tuple(steps.time(i) for i in (*strided, last)) if last >= 0 else (),
        coeffs=snapshots[-1] if last >= 0 else coeffs.copy(),
        failures=tuple(failures),
    )


def evolve(f: SpectralField, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a single field over cfg.t_final: the one-row evolve_coeffs.

    The trajectory starts at the initial state. Raises IntegrationError, with
    the failed step and its cause, if the field stalls or overflows.
    """
    run = evolve_coeffs(f.coeffs[None, :], f.period, f.cutoff, cfg)
    if run.failures:
        failure = run.failures[0]
        raise IntegrationError(failure.message, step=failure.step, members=[0])
    final = f.with_coeffs(run.coeffs[0])
    initial_e, final_e = energy(f), energy(final)
    initial_s, final_s = enstrophy(f), enstrophy(final)
    return Trajectory(
        initial=f,
        times=run.times,
        snapshots=run.snapshots[:, 0],
        energy_drift=abs(final_e - initial_e) / max(abs(initial_e), 1.0),
        enstrophy_drift=abs(final_s - initial_s) / max(abs(initial_s), 1.0),
    )
