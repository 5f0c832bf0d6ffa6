"""Spectral representation of zero-mean real fields on the torus [0, L]^2.

A field is stored through its complex Fourier coefficients on the positive
half-lattice: modes k = (k1, k2) with k1 > 0, or k1 = 0 and k2 > 0. The
negative half is implied by conjugate symmetry, phi_{-k} = conj(phi_k), and
the zero mode is pinned to 0 (every field has spatial mean zero).

The plane-wave basis is e_k(x) = (1/L) exp(i 2 pi k.x / L), orthonormal in
L^2([0, L]^2), so

    phi(x) = 2 Re sum_{k > 0} phi_k e_k(x),
    integral |phi|^2 = 2 sum_{k > 0} |phi_k|^2.

Sobolev norms of order beta use the homogeneous symbol (2 pi |k| / L)^beta
and sum over the stored (positive) modes only:

    sobolev_norm(f, beta)^2 = sum_{k > 0} (2 pi |k| / L)^(2 beta) |phi_k|^2,

so energy(f) = sobolev_norm(f, 1)^2 and enstrophy(f) = sobolev_norm(f, 2)^2
are exactly the conserved quadratic invariants of the truncated Euler flow.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

Mode = tuple[int, int]
SobolevOrder = float

FIELD_SCHEMA = "field.v1"

TWO_PI = 2.0 * math.pi

P = TypeVar("P")


def _plan_cache(maxsize: int | None = None) -> Callable[[Callable[..., P]], Callable[..., P]]:
    """lru_cache for the read-only plan builders that builds each key once.

    lru_cache alone lets concurrent misses of one key each run the builder,
    so row-block threads that start together would build the same plan
    twice. One lock per builder makes a miss wait for a build in progress.
    """

    def decorate(builder: Callable[..., P]) -> Callable[..., P]:
        cached = lru_cache(maxsize=maxsize)(builder)
        lock = threading.Lock()

        @wraps(builder)
        def plan(*args):
            with lock:
                return cached(*args)

        plan.cache_clear = cached.cache_clear
        return plan

    return decorate


def is_positive(k: Sequence[int]) -> bool:
    """True iff k lies in the positive half-lattice (k1 > 0, or k1 = 0 and k2 > 0)."""
    k1, k2 = int(k[0]), int(k[1])
    return k1 > 0 or (k1 == 0 and k2 > 0)


def _as_int(value, name: str) -> int:
    """value as an int; a fractional or non-numeric value is an error, never truncated."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_cutoff(cutoff: Sequence[int]) -> Mode:
    try:
        n1, n2 = _as_int(cutoff[0], "cutoff[0]"), _as_int(cutoff[1], "cutoff[1]")
    except (TypeError, IndexError) as exc:
        raise ValueError(f"cutoff must be a pair of integers, got {cutoff!r}") from exc
    if n1 < 1 or n2 < 1:
        raise ValueError(f"cutoff components must be >= 1, got {(n1, n2)}")
    return (n1, n2)


@lru_cache(maxsize=None)
def mode_box(cutoff: Mode) -> tuple[Mode, ...]:
    """All positive modes with |k1| <= N1 and |k2| <= N2, lexicographic by (k1, k2).

    The length is N1 * (2 N2 + 1) + N2.
    """
    n1, n2 = _check_cutoff(cutoff)
    modes: list[Mode] = [(0, k2) for k2 in range(1, n2 + 1)]
    for k1 in range(1, n1 + 1):
        modes.extend((k1, k2) for k2 in range(-n2, n2 + 1))
    return tuple(modes)


def mode_count(cutoff: Sequence[int]) -> int:
    n1, n2 = _check_cutoff(cutoff)
    return n1 * (2 * n2 + 1) + n2


@lru_cache(maxsize=None)
def mode_arrays(cutoff: Mode) -> tuple[np.ndarray, np.ndarray]:
    """The box modes as two parallel int64 arrays (k1[i], k2[i]), read-only."""
    modes = mode_box(cutoff)
    k1 = np.array([m[0] for m in modes], dtype=np.int64)
    k2 = np.array([m[1] for m in modes], dtype=np.int64)
    k1.flags.writeable = False
    k2.flags.writeable = False
    return k1, k2


def _box_slots(cutoff: Mode, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Slots of the positive modes (k1, k2) in mode_box(cutoff), elementwise.

    The k1 = 0 row holds k2 = 1 .. N2 and each k1 >= 1 row holds
    k2 = -N2 .. N2, so mode k sits at k1 (2 N2 + 1) + k2 - 1.
    """
    return k1 * (2 * cutoff[1] + 1) + k2 - 1


@lru_cache(maxsize=None)
def mode_index(cutoff: Mode) -> Mapping[Mode, int]:
    return {k: i for i, k in enumerate(mode_box(cutoff))}


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Positive-mode coefficient vector of a zero-mean real field on [0, period]^2.

    coeffs[i] is the coefficient of mode_box(cutoff)[i]. Instances are
    immutable; arithmetic returns new fields on the same lattice.
    """

    period: float
    cutoff: Mode
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        period = float(self.period)
        if not period > 0.0 or not math.isfinite(period):
            raise ValueError(f"period must be positive and finite, got {self.period!r}")
        cutoff = _check_cutoff(self.cutoff)
        coeffs = np.array(self.coeffs, dtype=np.complex128)
        expected = (mode_count(cutoff),)
        if coeffs.shape != expected:
            raise ValueError(
                f"coeffs must have shape {expected} for cutoff {cutoff}, got {coeffs.shape}"
            )
        coeffs.flags.writeable = False
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zeros(cls, period: float, cutoff: Sequence[int]) -> "SpectralField":
        cutoff = _check_cutoff(cutoff)
        return cls(period, cutoff, np.zeros(mode_count(cutoff), dtype=np.complex128))

    @classmethod
    def from_modes(
        cls,
        period: float,
        cutoff: Sequence[int],
        entries: Mapping[Sequence[int], complex],
    ) -> "SpectralField":
        """Build a field with the given positive-mode entries; all others zero."""
        cutoff = _check_cutoff(cutoff)
        index = mode_index(cutoff)
        coeffs = np.zeros(mode_count(cutoff), dtype=np.complex128)
        for k, value in entries.items():
            key = (int(k[0]), int(k[1]))
            if key not in index:
                raise ValueError(f"mode {key} is not a positive mode inside cutoff {cutoff}")
            coeffs[index[key]] = value
        return cls(period, cutoff, coeffs)

    def coeff(self, k: Sequence[int]) -> complex:
        """The stored coefficient of positive mode k (raises for modes outside the box)."""
        key = (int(k[0]), int(k[1]))
        index = mode_index(self.cutoff)
        if key not in index:
            raise KeyError(f"mode {key} is not a positive mode inside cutoff {self.cutoff}")
        return complex(self.coeffs[index[key]])

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.period, self.cutoff, coeffs)

    def same_lattice(self, other: "SpectralField") -> bool:
        return self.period == other.period and self.cutoff == other.cutoff

    def _require_same_lattice(self, other: "SpectralField") -> None:
        if not self.same_lattice(other):
            raise ValueError(
                "lattice mismatch: "
                f"({self.period}, {self.cutoff}) vs ({other.period}, {other.cutoff})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpectralField):
            return NotImplemented
        return self.same_lattice(other) and np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._require_same_lattice(other)
        return self.with_coeffs(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._require_same_lattice(other)
        return self.with_coeffs(self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return self.with_coeffs(self.coeffs * scalar)

    __rmul__ = __mul__

    def to_record(self) -> dict:
        """JSON-ready record: coefficients listed in lexicographic mode order."""
        return _field_record(self.period, self.cutoff, self.coeffs)

    @classmethod
    def from_record(cls, record: Mapping) -> "SpectralField":
        try:
            period = float(record["period"])
            cutoff = _check_cutoff(record["cutoff"])
            rows = record["coeffs"]
            count = len(rows)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed field record: {exc}") from exc
        schema = record.get("schema", FIELD_SCHEMA)
        if schema != FIELD_SCHEMA:
            raise ValueError(f"unsupported field schema {schema!r}")
        expected = mode_count(cutoff)  # O(1); the box grows with the claimed cutoff
        if count != expected:
            raise ValueError(f"field record has {count} coefficients, expected {expected}")
        modes = mode_box(cutoff)
        coeffs = np.empty(len(modes), dtype=np.complex128)
        for i, (row, k) in enumerate(zip(rows, modes)):
            try:
                if len(row) != 4:
                    raise ValueError(f"expected [k1, k2, re, im], got {len(row)} entries")
                mode = (_as_int(row[0], "k1"), _as_int(row[1], "k2"))
                value = complex(float(row[2]), float(row[3]))
            except (TypeError, ValueError, LookupError, OverflowError) as exc:
                raise ValueError(f"malformed coefficient row {row!r} at slot {i}: {exc}") from exc
            if mode != k:
                raise ValueError(
                    f"field record mode {mode} at slot {i} does not match "
                    f"the lexicographic box order (expected {k})"
                )
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"non-finite coefficient {row!r} at slot {i}")
            coeffs[i] = value
        return cls(period, cutoff, coeffs)


@lru_cache(maxsize=None)
def _sobolev_weights(period: float, cutoff: Mode, order: float) -> np.ndarray:
    """Per-mode weights (2 pi |k| / period)^(2 order) over the box, read-only."""
    k1, k2 = mode_arrays(cutoff)
    symbol_sq = (TWO_PI / period) ** 2 * (k1 * k1 + k2 * k2).astype(np.float64)
    weights = symbol_sq if order == 1.0 else symbol_sq**order
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    weights.flags.writeable = False
    return weights


def _field_record(period: float, cutoff: Mode, coeffs: np.ndarray) -> dict:
    """The record of to_record for one coefficient row of the box of cutoff."""
    return {
        "schema": FIELD_SCHEMA,
        "period": period,
        "cutoff": list(cutoff),
        "coeffs": [
            [k1, k2, re, im]
            for (k1, k2), re, im in zip(
                mode_box(cutoff), coeffs.real.tolist(), coeffs.imag.tolist()
            )
        ],
    }


def _weighted_power(period: float, cutoff: Mode, coeffs: np.ndarray, order: float) -> float:
    """sum_k w_k |c_k|^2 of one coefficient row, with the order-beta Sobolev weights."""
    weights = _sobolev_weights(period, cutoff, float(order))
    abs_sq = coeffs.real**2 + coeffs.imag**2
    return float(np.dot(weights, abs_sq))


def sobolev_norm(f: SpectralField, order: SobolevOrder) -> float:
    """Homogeneous Sobolev norm of order beta over the stored positive modes."""
    return math.sqrt(_weighted_power(f.period, f.cutoff, f.coeffs, order))


def energy(f: SpectralField) -> float:
    """Kinetic energy (1/2) integral |grad phi|^2, equal to sobolev_norm(f, 1)^2."""
    return _weighted_power(f.period, f.cutoff, f.coeffs, 1.0)


def enstrophy(f: SpectralField) -> float:
    """Enstrophy (1/2) integral |laplacian phi|^2, equal to sobolev_norm(f, 2)^2."""
    return _weighted_power(f.period, f.cutoff, f.coeffs, 2.0)


@dataclass(frozen=True)
class _GridEvaluator:
    """|D|^order of a field on a fixed tensor grid x1 x x2, as two BLAS products.

    The field is (2/L) Re sum_{k > 0} s_k phi_k exp(i 2 pi k.x / L) with the
    symbol s_k = (2 pi |k| / L)^order. Scattering the weighted coefficients
    into the half-lattice array H[k1, k2 + N2] (k1 = 0..N1, k2 = -N2..N2)
    factors it as Re(E1 H E2) with E1[i, k1] = exp(i 2 pi k1 x1_i / L) and
    E2[k2 + N2, j] = exp(i 2 pi k2 x2_j / L). With Q = H @ E2,

        profile = Re(E1) @ Re(Q) - Im(E1) @ Im(Q) = [Re E1 | -Im E1] @ [Re Q; Im Q],

    one complex and one real matrix product. Each call is a fixed-shape pair
    of gemms on one field: no inner (K) sum depends on how callers batch
    fields or on how many threads run, so the result is bitwise reproducible.
    """

    rows: np.ndarray  # k1 of each box mode
    cols: np.ndarray  # k2 + N2 of each box mode
    weights: np.ndarray  # (2/L) s_k per box mode
    e1: np.ndarray  # [Re E1 | -Im E1], shape (len(x1), 2 (N1 + 1))
    e2: np.ndarray  # E2, complex, shape (2 N2 + 1, len(x2))

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        half = np.zeros((self.e1.shape[1] // 2, self.e2.shape[0]), dtype=np.complex128)
        half[self.rows, self.cols] = coeffs * self.weights
        partial = half @ self.e2
        return self.e1 @ np.concatenate((partial.real, partial.imag))


def _grid_evaluator(
    period: float, cutoff: Mode, order: float, x1: np.ndarray, x2: np.ndarray
) -> _GridEvaluator:
    n1, n2 = cutoff
    theta = TWO_PI / period
    e1 = np.exp(1j * theta * np.outer(x1, np.arange(n1 + 1, dtype=np.float64)))
    e2 = np.exp(1j * theta * np.outer(np.arange(-n2, n2 + 1, dtype=np.float64), x2))
    k1, k2 = mode_arrays(cutoff)
    # (2 pi |k| / L)^order is the order / 2 power of the squared symbol
    weights = (2.0 / period) * _sobolev_weights(period, cutoff, 0.5 * order)
    arrays = (k1, k2 + n2, weights, np.concatenate((e1.real, -e1.imag), axis=1), e2)
    for array in arrays:
        array.flags.writeable = False
    return _GridEvaluator(*arrays)


def evaluate_grid(
    f: SpectralField,
    x1,
    x2,
    order: float = 0.0,
) -> np.ndarray:
    """Evaluate |D|^order f on the tensor grid x1 x x2, returning shape (len(x1), len(x2)).

    The same half-lattice contraction as the windowed metric (one complex and
    one real matrix product, see _GridEvaluator), with evaluation matrices
    built for the given points and not cached. The products are fixed-shape
    BLAS calls on this one field, so the result does not depend on BLAS
    threading.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    return _grid_evaluator(f.period, f.cutoff, float(order), x1, x2)(f.coeffs)


def _quadrature_points(level_max: int, points_per_unit: int) -> np.ndarray:
    """Midpoints of a uniform grid with points_per_unit cells per unit length on [0, level_max]."""
    count = level_max * points_per_unit
    return (np.arange(count, dtype=np.float64) + 0.5) / points_per_unit


@_plan_cache(maxsize=32)
def _metric_plan(
    period: float, cutoff: Mode, order: float, level_max: int, points_per_unit: int
) -> _GridEvaluator:
    """The read-only evaluator of |D|^order on the metric's midpoint grid over [0, level_max]^2."""
    points = _quadrature_points(level_max, points_per_unit)
    return _grid_evaluator(period, cutoff, order, points, points)


def _check_metric_args(order: float, level_max: int, points_per_unit: int) -> tuple[int, int]:
    level_max = int(level_max)
    points_per_unit = int(points_per_unit)
    if level_max < 1:
        raise ValueError(f"level_max must be >= 1, got {level_max}")
    if points_per_unit < 1:
        raise ValueError(f"points_per_unit must be >= 1, got {points_per_unit}")
    float(order)
    return level_max, points_per_unit


def _window_norms(profile: np.ndarray, level_max: int, points_per_unit: int) -> np.ndarray:
    """Midpoint-rule norms x_l = (integral over [0, l]^2 of profile^2)^(1/2), l = 1..level_max.

    The squared profile is summed once per unit cell; the nested windows are
    read from the 2-D cumulative sum of that level_max x level_max table.
    """
    blocks = profile.reshape(level_max, points_per_unit, level_max, points_per_unit)
    cells = np.einsum("aibj,aibj->ab", blocks, blocks)
    running = cells.cumsum(axis=0).cumsum(axis=1)
    return np.sqrt(np.diagonal(running)) / points_per_unit


def _fold(norms: np.ndarray) -> float:
    """sum_l 2^-l x_l / (1 + x_l) over the window norms x_1, x_2, ..."""
    total = 0.0
    for level, x in enumerate(norms.tolist(), start=1):
        total += 0.5**level * x / (1.0 + x)
    return total


def local_distance(
    f: SpectralField,
    g: SpectralField,
    order: SobolevOrder,
    level_max: int,
    points_per_unit: int = 64,
) -> float:
    """Local Sobolev metric d(f, g) = sum_{l=1}^{level_max} 2^-l x_l / (1 + x_l).

    Here x_l is the windowed norm (integral over [0, l]^2 of |D^order (f-g)|^2)^(1/2),
    computed by midpoint quadrature with points_per_unit cells per unit length.
    Each term is capped below 1 so the metric is bounded by 1 regardless of
    level_max. Both fields must live on one lattice, the same period and
    cutoff; fields on different lattices go through cross_period_distance
    or, when one period is an integer multiple of the other, are first
    embedded exactly into a common box (as cauchy_scan does).

    The profile of f - g is one evaluation with the cached plan of
    (period, cutoff, order, level_max, points_per_unit): fixed-shape BLAS
    products on this one pair, so a pair's distance is bitwise the same
    whether it is computed alone, inside a block, or on any thread.
    """
    level_max, points_per_unit = _check_metric_args(order, level_max, points_per_unit)
    if not f.same_lattice(g):
        raise ValueError(
            f"mismatched lattices ({f.period}, {f.cutoff}) vs ({g.period}, {g.cutoff}); "
            "use cross_period_distance"
        )
    plan = _metric_plan(f.period, f.cutoff, float(order), level_max, points_per_unit)
    profile = plan(f.coeffs - g.coeffs)
    return _fold(_window_norms(profile, level_max, points_per_unit))


def cross_period_distance(
    f: SpectralField,
    g: SpectralField,
    order: SobolevOrder,
    level_max: int,
    points_per_unit: int = 64,
) -> float:
    """The same windowed metric for fields living on different tori.

    Each field is evaluated (with its own derivative symbol) on the shared
    observation window [0, level_max]^2 and the profiles are differenced
    pointwise. For equal periods, or for a coarse field embedded exactly onto
    the finer torus, this agrees with local_distance up to rounding in the
    two evaluations.
    """
    level_max, points_per_unit = _check_metric_args(order, level_max, points_per_unit)

    def profile(h: SpectralField) -> np.ndarray:
        return _metric_plan(h.period, h.cutoff, float(order), level_max, points_per_unit)(h.coeffs)

    return _fold(_window_norms(profile(f) - profile(g), level_max, points_per_unit))


def _embed(f: SpectralField, cutoff: Sequence[int], ratio: int = 1) -> SpectralField:
    """The same function on the torus of side ratio * period, in the box cutoff.

    Mode k on period L becomes mode ratio * k on period ratio * L: the same
    frequency and the same derivative symbol. Since e_k carries 1/L, the
    coefficient is multiplied by ratio (exactly, for power-of-two ratios).
    The other modes of the new box are zero.
    """
    ratio = int(ratio)
    if ratio < 1:
        raise ValueError(f"period ratio must be a positive integer, got {ratio}")
    cutoff = _check_cutoff(cutoff)
    if ratio == 1 and f.cutoff == cutoff:
        return f
    if ratio * f.cutoff[0] > cutoff[0] or ratio * f.cutoff[1] > cutoff[1]:
        raise ValueError(
            f"cannot embed cutoff {f.cutoff} at period ratio {ratio} into box {cutoff}"
        )
    k1, k2 = mode_arrays(f.cutoff)
    coeffs = np.zeros(mode_count(cutoff), dtype=np.complex128)
    coeffs[_box_slots(cutoff, ratio * k1, ratio * k2)] = f.coeffs * ratio
    return SpectralField(f.period * ratio, cutoff, coeffs)
