"""The quadratic Galerkin drift of 2D incompressible Euler in stream-function form.

For the truncated stream function phi(x) = 2 Re sum_{k > 0} phi_k e_k(x) the
vorticity equation d(lap phi)/dt = -(grad^perp phi . grad) lap phi closes on
the mode box and gives, per positive mode k,

    d phi_k / dt = B_k(phi)
                 = (1/L) (2 pi / L)^2 sum_h (h^perp . k) |k - h|^2 / |k|^2 phi_h phi_{k-h},

where the sum runs over all nonzero lattice modes h with both h and k - h in
the closed box (phi_{-m} = conj(phi_m), zero outside). This is the
triad-complete truncation: it conserves energy and enstrophy exactly.

Two evaluation paths are provided. The normative one is a precomputed triad
table, exact term by term: the two ordered terms of each unordered pair
{h, j = k - h} share the product phi_h phi_j, so the table keeps one entry per
pair with the summed integer kernel (h^perp . k)(|j|^2 - |h|^2), which is
-2 alpha(h, k, L) up to the prefactor, and drops the pairs where it vanishes
(parallel modes, equal shells). A fixed-order sparse reduction then sums the
pair products of each k. A call forms the products of a chunk of rows under
a byte budget, one slice of pairs at a time, so it holds one chunk of
products and one slice of second operands; from cutoff (13, 13) up, one
row's products exceed the budget and set the chunk. The other path is a
zero-padded pseudo-spectral transform, an independent oracle evaluating the
PDE right-hand side on a grid. It keeps only the n2 + 1 half-spectrum
columns the box can reach and runs rows in chunks sized so one real grid
field of a chunk fits a fixed byte budget; a cached plan per (period,
cutoff, grid) holds the index maps and derivative symbols. Both plans are
built once per key, however many threads miss the cache together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import (
    Mode,
    SpectralField,
    TWO_PI,
    _plan_cache,
    _sobolev_weights,
    mode_arrays,
)

TRIAD_SUM = "triad_sum"
PSEUDO_SPECTRAL = "pseudo_spectral"

# byte budget for one real grid field of a chunk in the pseudo-spectral drift;
# a chunk works in about seven such fields, well inside a 2 MiB per-core L2
_PSEUDO_FIELD_BYTES = 1 << 17

# byte budget for one chunk of pair products in the triad drift
_TRIAD_TERMS_BYTES = 1 << 20

# byte budget for the slice of second pair operands gathered per multiply in
# the triad drift; each slice adds numpy calls that hand the GIL between row
# threads, and 256 KiB slowed the two-thread (8, 8) rk4 evolution by about
# 18% where 512 KiB left it unchanged
_TRIAD_SLICE_BYTES = 1 << 19


def alpha(h: Sequence[int], k: Sequence[int], period: float) -> float:
    """Closed-form triad coefficient alpha_{h,k} on the torus of the given period.

    alpha = (1/L)(2 pi / L)^2 (h^perp . k) [ (k . h)/|k|^2 - 1/2 ], symmetric
    under h <-> k - h. Evaluated as an exact integer numerator divided once,
    so nearly-cancelling brackets lose no precision and parallel h, k give
    exactly 0.
    """
    h1, h2 = int(h[0]), int(h[1])
    k1, k2 = int(k[0]), int(k[1])
    if k1 == 0 and k2 == 0:
        raise ValueError("alpha is undefined for k = 0 (division by |k|^2)")
    if h1 == 0 and h2 == 0:
        raise ValueError("alpha is undefined for h = 0 (not a triad)")
    cross = h1 * k2 - h2 * k1
    if cross == 0:
        return 0.0
    k_sq = k1 * k1 + k2 * k2
    numerator = cross * (2 * (k1 * h1 + k2 * h2) - k_sq)
    return (TWO_PI**2 / float(period) ** 3) * (numerator / float(2 * k_sq))


@dataclass(frozen=True)
class _TriadTable:
    """Unordered-pair triad table for one cutoff.

    Column i is one unordered pair {h, j = k - h}: signed-mode operand indices
    u_idx[i] < v_idx[i] into the coefficient vector extended by its
    conjugates, and the exact integer weight (h^perp . k)(|j|^2 - |h|^2), the
    sum of the two ordered kernels of the pair (-2 alpha up to the
    prefactor). Pairs whose weight is 0 (parallel h and k, or |h| = |j|) have
    no column, so single-shell fields get an identically zero drift.

    matrix is the (modes x pairs) CSR reduction holding weight / |k|^2 in row
    k; its rows take the columns in a fixed order, so the drift
    prefactor * matrix @ (s[u] * s[v]) is bitwise independent of batching.

    u_idx and v_idx are read-only views of take_u and take_v, the writeable
    arrays the drift gathers with: numpy's take copies a read-only index
    array on every call, which at (8, 8) is 88 KB per operand. rows is the
    number of rows whose products fit one chunk's byte budget, at least one.
    """

    u_idx: np.ndarray
    v_idx: np.ndarray
    weights: np.ndarray
    matrix: object  # scipy.sparse.csr_array, imported by _triad_table
    rows: int
    take_u: np.ndarray
    take_v: np.ndarray


def _read_only_view(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


@_plan_cache()
def _triad_table(cutoff: Mode) -> _TriadTable:
    from scipy import sparse

    n1, n2 = cutoff
    k1, k2 = mode_arrays(cutoff)
    m = k1.size
    signed1 = np.concatenate([k1, -k1])
    signed2 = np.concatenate([k2, -k2])
    signed_sq = signed1 * signed1 + signed2 * signed2
    lookup = np.full((2 * n1 + 1, 2 * n2 + 1), -1, dtype=np.int64)
    lookup[signed1 + n1, signed2 + n2] = np.arange(2 * m)

    u_parts: list[np.ndarray] = []
    v_parts: list[np.ndarray] = []
    w_parts: list[np.ndarray] = []
    counts = np.empty(m, dtype=np.int64)
    for p in range(m):
        j1 = k1[p] - signed1
        j2 = k2[p] - signed2
        inside = (np.abs(j1) <= n1) & (np.abs(j2) <= n2)
        u = np.nonzero(inside)[0]
        v = lookup[j1[u] + n1, j2[u] + n2]
        weights = (signed1[u] * k2[p] - signed2[u] * k1[p]) * (signed_sq[v] - signed_sq[u])
        # v = -1 marks j = 0; u < v keeps each unordered pair once
        keep = (u < v) & (weights != 0)
        u_parts.append(u[keep])
        v_parts.append(v[keep])
        w_parts.append(weights[keep])
        counts[p] = np.count_nonzero(keep)

    weights = np.concatenate(w_parts)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    ksq = np.repeat(k1 * k1 + k2 * k2, counts)
    matrix = sparse.csr_array(
        (weights / ksq, np.arange(weights.size, dtype=np.int64), indptr),
        shape=(m, weights.size),
    )
    for arr in (weights, matrix.data, matrix.indices, matrix.indptr):
        arr.flags.writeable = False
    take_u, take_v = np.concatenate(u_parts), np.concatenate(v_parts)
    return _TriadTable(
        u_idx=_read_only_view(take_u),
        v_idx=_read_only_view(take_v),
        weights=weights,
        matrix=matrix,
        rows=max(1, _TRIAD_TERMS_BYTES // (16 * weights.size)),
        take_u=take_u,
        take_v=take_v,
    )


def _triad_chunk(
    coeffs: np.ndarray,
    table: _TriadTable,
    prefactor: float,
    products: np.ndarray,
    gathered: np.ndarray,
) -> np.ndarray:
    """One chunk of the triad drift: the pair products of the signed-mode
    vectors, reduced per mode by the table's fixed-order sparse matrix.

    The products are formed slice by slice: the first operands of a slice of
    pairs are taken into products, the second ones into gathered, and
    multiplied into the first in place. So a chunk holds its products and one
    slice. Every chunk of a call reuses both buffers, so their pages are not
    handed back and faulted in again on every chunk. Each product is the same
    single multiply whatever the slicing, and no multiply is of one lone
    product, so the slice size cannot change a bit of the result.
    """
    block = coeffs.T
    rows = block.shape[1]
    signed = np.concatenate([block, np.conj(block)])
    pairs = table.weights.size
    terms = products[: pairs * rows].reshape(-1, rows)
    span = gathered.size // rows
    for lo in range(0, pairs, span):
        # numpy multiplies a lone complex element on a scalar path that rounds
        # differently from its vector loop, so a last slice of one pair starts
        # a pair early and forms that pair's product again, bitwise the same
        lo = min(lo, pairs - 2)
        part = terms[lo : lo + span]
        other = gathered[: part.size].reshape(-1, rows)
        # a mode other than "raise" takes straight into out; the indices are in range
        signed.take(table.take_u[lo : lo + span], axis=0, out=part, mode="clip")
        part *= signed.take(table.take_v[lo : lo + span], axis=0, out=other, mode="clip")
    # a real matrix times the float64 view of complex columns reduces the
    # real and imaginary parts alike, with no complex copy of the matrix
    sums = (table.matrix @ terms.view(np.float64)).view(np.complex128)
    return prefactor * sums.T


def _check_grid(grid: int | None, cutoff: Mode) -> int:
    """The collocation grid size: by default 4x the max cutoff component, the
    dealiasing minimum; an explicit grid below that minimum is rejected."""
    needed = 4 * max(cutoff)
    if grid is None:
        return needed
    grid = int(grid)
    if grid < needed:
        raise ValueError(
            f"insufficient grid {grid} for cutoff {cutoff}: "
            f"need at least 4 * max cutoff component = {needed} for dealiasing"
        )
    return grid


@dataclass(frozen=True)
class _PseudoPlan:
    """Read-only collocation plan for one (period, cutoff, grid).

    The spectra keep only the last-axis columns 0..n2 the box can reach. The
    entries select (k2 >= 0) of the signed-mode vector [c, conj(c)] go to the
    flat positions put of a (grid, n2 + 1) spectrum. Box mode k is read back
    from the full rfft2 half-spectrum at take[k], its own entry, or that of -k
    (conjugated) for the modes neg (k2 < 0). The four derivative symbols are
    pruned to the same columns. rows is the number of rows whose real grid
    field fits one chunk's byte budget, at least one.
    """

    rows: int
    width: int
    select: np.ndarray
    put: np.ndarray
    take: np.ndarray
    neg: np.ndarray
    symbols: tuple[np.ndarray, ...]
    lap_box: np.ndarray
    scale: float
    norm: float


@_plan_cache()
def _pseudo_plan(period: float, cutoff: Mode, m: int) -> _PseudoPlan:
    length = float(period)
    k1, k2 = mode_arrays(cutoff)
    signed1, signed2 = np.concatenate([k1, -k1]), np.concatenate([k2, -k2])
    select = np.nonzero(signed2 >= 0)[0]
    neg = k2 < 0
    width = cutoff[1] + 1
    full = m // 2 + 1

    m1 = (np.fft.fftfreq(m) * m)[:, None]
    m2 = (np.fft.rfftfreq(m) * m)[None, :]
    d1 = 1j * (TWO_PI / length) * m1
    d2 = 1j * (TWO_PI / length) * m2
    lap = -((TWO_PI / length) ** 2) * (m1 * m1 + m2 * m2)
    plan = _PseudoPlan(
        rows=max(1, _PSEUDO_FIELD_BYTES // (8 * m * m)),
        width=width,
        select=select,
        put=(signed1[select] % m) * width + signed2[select],
        # the half-spectrum entry of k, or of -k when k2 < 0, is (k1 mod m, k2)
        take=(np.where(neg, -k1, k1) % m) * full + np.abs(k2),
        neg=np.nonzero(neg)[0],
        symbols=tuple(
            np.ascontiguousarray(np.broadcast_to(sym, (m, full))[:, :width])
            for sym in (-d2, d1, lap * d1, lap * d2)
        ),
        lap_box=-_sobolev_weights(length, cutoff, 1.0),
        scale=m * m / length,  # inverse-transform normalization for the (1/L) basis
        norm=length / (m * m),
    )
    for arr in (plan.select, plan.put, plan.take, plan.neg, *plan.symbols, plan.lap_box):
        arr.flags.writeable = False
    return plan


def _grid_field(spec: np.ndarray, sym: np.ndarray, scale: float, shape: tuple[int, int]) -> np.ndarray:
    """irfft2 of spec * sym on the grid, scaled in place by the basis normalization."""
    field = np.fft.irfft2(spec * sym, s=shape)
    field *= scale
    return field


def _pseudo_chunk(coeffs: np.ndarray, plan: _PseudoPlan, m: int) -> np.ndarray:
    """One chunk of the collocation oracle in the pruned Hermitian half-spectrum.

    The physical fields are real, so every transform runs through rfft2 and
    irfft2. Boxed modes with k2 < 0 live in the dropped half and are stored
    (and read back) through their conjugates; k2 = 0 modes need both
    Hermitian partners placed explicitly because only the last axis's
    symmetry is implied by the layout. The box reaches only the last-axis
    columns 0..n2, so the spectra keep just those columns: irfft2 with
    s=(m, m) runs the first-axis inverse pass on them alone and zero-pads the
    last axis, which is bitwise the transform of the full half-spectrum.
    """
    rows = coeffs.shape[0]
    spec = np.zeros((rows, m * plan.width), dtype=np.complex128)
    spec[:, plan.put] = np.concatenate([coeffs, np.conj(coeffs)], axis=1)[:, plan.select]
    spec = spec.reshape(rows, m, plan.width)

    shape = (m, m)
    sym_u1, sym_u2, sym_g1, sym_g2 = plan.symbols
    # advect = -(u1 g1 + u2 g2), evaluated in place; each product is taken
    # before the next pair is transformed, so at most three grid fields are alive
    u1 = _grid_field(spec, sym_u1, plan.scale, shape)
    u1 *= _grid_field(spec, sym_g1, plan.scale, shape)
    u2 = _grid_field(spec, sym_u2, plan.scale, shape)
    u2 *= _grid_field(spec, sym_g2, plan.scale, shape)
    del spec
    u1 += u2
    del u2
    np.negative(u1, out=u1)
    transformed = np.fft.rfft2(u1)
    transformed *= plan.norm
    transformed = transformed.reshape(rows, -1)
    vort_rate = transformed[:, plan.take]
    vort_rate[:, plan.neg] = np.conj(vort_rate[:, plan.neg])
    vort_rate /= plan.lap_box
    return vort_rate


def drift_batch(
    coeffs: np.ndarray,
    period: float,
    cutoff: Sequence[int],
    method: str = TRIAD_SUM,
    grid: int | None = None,
) -> np.ndarray:
    """Evaluate the drift for a whole coefficient matrix (rows are fields).

    One loop runs the backend on row chunks of its cached plan's rows, sized
    by its byte budget when the plan is built; rows are independent, so the
    result is bitwise independent of batching and threads.
    """
    cutoff = (int(cutoff[0]), int(cutoff[1]))
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2:
        raise ValueError(f"coeffs must be 2-D (batch, modes), got shape {coeffs.shape}")
    if method == TRIAD_SUM:
        plan = _triad_table(cutoff)
        pairs = plan.weights.size
        width = max(1, min(plan.rows, coeffs.shape[0]))
        # two pairs at least, so no slice multiplies a lone element
        span = min(pairs, max(2, _TRIAD_SLICE_BYTES // (16 * width)))
        chunk, args = _triad_chunk, (
            plan,
            TWO_PI**2 / float(period) ** 3,
            np.empty(pairs * width, dtype=np.complex128),
            np.empty(span * width, dtype=np.complex128),
        )
    elif method == PSEUDO_SPECTRAL:
        m = _check_grid(grid, cutoff)
        plan = _pseudo_plan(float(period), cutoff, m)
        chunk, args = _pseudo_chunk, (plan, m)
    else:
        raise ValueError(f"unknown drift method {method!r}")
    rows = plan.rows
    out = np.empty_like(coeffs)
    for lo in range(0, coeffs.shape[0], rows):
        out[lo : lo + rows] = chunk(coeffs[lo : lo + rows], *args)
    return out


def drift(f: SpectralField, method: str = TRIAD_SUM, grid: int | None = None) -> SpectralField:
    """The Galerkin drift B(phi) of one field, as the drift_batch row of f.

    method is TRIAD_SUM (the exact triad table) or PSEUDO_SPECTRAL (the
    zero-padded collocation oracle on a grid of the given size, by default 4x
    the max cutoff component, the dealiasing minimum); grid applies to the
    collocation only. The two agree to round-off because the padding leaves
    no aliased triad.
    """
    return f.with_coeffs(drift_batch(f.coeffs[None, :], f.period, f.cutoff, method, grid)[0])


def quadratic_derivative(f: SpectralField, functional: str) -> float:
    """Directional derivative of energy or enstrophy along the drift at f.

    Closed form 2 sum_k w_k Re(conj(phi_k) B_k) with w the order-1 or order-2
    Sobolev weights; identically zero in exact arithmetic because the
    truncation is triad-complete.
    """
    orders = {"energy": 1.0, "enstrophy": 2.0}
    if functional not in orders:
        raise ValueError(f"functional must be one of {sorted(orders)}, got {functional!r}")
    rate = drift(f).coeffs
    weights = _sobolev_weights(f.period, f.cutoff, orders[functional])
    return 2.0 * float(np.dot(weights, (np.conj(f.coeffs) * rate).real))


@dataclass(frozen=True)
class JacobianTraceResult:
    trace: float
    frobenius_norm: float


def jacobian_trace_estimate(f: SpectralField, eps: float = 1e-5) -> JacobianTraceResult:
    """Central-difference trace of the drift Jacobian in real coordinates.

    Coordinates are (Re phi_k, Im phi_k) over the box. The drift is quadratic,
    so central differences recover the Jacobian exactly up to round-off; a
    vanishing trace is the discrete Liouville property behind invariance of
    the Gibbs measures. The Frobenius norm of the same estimated Jacobian is
    returned for relative comparisons.
    """
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    m = f.coeffs.size
    dim = 2 * m
    deltas = np.zeros((dim, m), dtype=np.complex128)
    idx = np.arange(m)
    deltas[idx, idx] = eps
    deltas[m + idx, idx] = 1j * eps
    batch = np.concatenate([f.coeffs[None, :] + deltas, f.coeffs[None, :] - deltas])
    rates = drift_batch(batch, f.period, f.cutoff)
    columns = (rates[:dim] - rates[dim:]) / (2.0 * eps)
    # row j is dF/dx_j with F in complex form; flatten to real coordinates
    jacobian_t = np.concatenate([columns.real, columns.imag], axis=1)
    return JacobianTraceResult(
        trace=float(np.trace(jacobian_t)),
        frobenius_norm=float(np.sqrt(np.sum(jacobian_t * jacobian_t))),
    )

