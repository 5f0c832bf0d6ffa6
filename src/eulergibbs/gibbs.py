"""Sampling the enstrophy-Gibbs Gaussian ensembles on the mode box.

Under the measure with density proportional to exp(-(gamma/2) S(phi)) each
positive mode is an independent circularly-symmetric complex Gaussian with

    E |a_k|^2 = variance_oracle(k) = (2/gamma) (L / (2 pi |k|))^4,

real and imaginary parts carrying half the variance each.

Randomness is counter-based: every complex deviate is produced by one
philox4x64-10 block whose key is (master_seed, stream_id) and whose counter
is (sample_index, packed mode, 0, 0) with packed mode
(k1 & 0xFFFFFFFF) << 32 | (k2 & 0xFFFFFFFF). The map from (stream, sample,
mode) to raw bits is therefore injective and enumeration-order free: a given
mode draws the same coefficient no matter which cutoff box, batch, or thread
asked for it. That makes samples bit-reproducible across platforms and
gives scans over nested cutoffs common random numbers for free. The two
64-bit output words are turned into open-interval uniforms and then into
normal deviates through the inverse CDF, so one counter block is exactly one
coefficient.

The blocks come from numpy's C generator, numpy.random.Philox, keyed by
(master_seed, stream_id). numpy increments counter word 0 first, so for one
mode the samples start .. start+count-1 are count consecutive counters: the
generator is advanced to each mode's first counter and emits that mode's
blocks in sample order in one call. The cost is a few microseconds of Python
per mode plus the C rounds. The tests hold every deviate bit-exact against
an independent numpy transcription of the Philox rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .spectral import (
    Mode,
    SpectralField,
    TWO_PI,
    _as_int,
    _box_slots,
    _check_cutoff,
    enstrophy,
    mode_arrays,
)

GENERATOR_NAME = "philox4x64-10+inverse-normal"

ENSEMBLE_SCHEMA = "ensemble.v1"

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_U64 = 0xFFFFFFFFFFFFFFFF
_COUNTER_SPAN = 1 << 64
_COUNTER_MOD = 1 << 256
# raw words turned into uniforms per slice (64 KiB of shifted words)
_UNIFORM_SLICE = 1 << 13


def _to_uniform(word: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # top 52 bits, centered on the cell: every value (i + 1/2) * 2^-52 is an
    # exact float strictly inside (0, 1), so the inverse CDF never sees 0 or 1
    # (53 bits would let the largest cell round up to exactly 1.0)
    uniform = np.add(word >> np.uint64(12), 0.5, out=out)
    uniform *= 2.0**-52
    return uniform


@dataclass(frozen=True)
class RngStream:
    """A named substream: (master_seed, stream_id) keys every philox block."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        # the generator keys on 64-bit words, so a value outside would alias one inside
        for name in ("master_seed", "stream_id"):
            value = _as_int(getattr(self, name), name)
            if not 0 <= value <= _U64:
                raise ValueError(f"{name} must be in 0 .. 2^64 - 1, got {value}")
            object.__setattr__(self, name, value)

    def substream(self, stream_id: int) -> "RngStream":
        """A sibling stream under the same master seed."""
        return RngStream(self.master_seed, stream_id)


def pack_mode(k1, k2) -> np.ndarray:
    """Injective 64-bit packing of a lattice mode (two's complement per half)."""
    a = np.asarray(k1, dtype=np.int64).astype(np.uint64) & _MASK32
    b = np.asarray(k2, dtype=np.int64).astype(np.uint64) & _MASK32
    return (a << _SHIFT32) | b


def standard_complex_normals(
    stream: RngStream, start: int, count: int, k1, k2
) -> np.ndarray:
    """Unit complex Gaussians for samples start .. start+count-1, E|z|^2 = 1.

    The mode arrays k1 and k2 are broadcast against each other; the result
    has shape (count, *broadcast mode shape), one deviate per (sample, mode).
    Sample indices must lie in the 64-bit counter word, 0 .. 2^64 - 1.
    """
    start, count = int(start), int(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if start < 0 or start + count > _COUNTER_SPAN:
        raise ValueError(
            f"samples {start} .. {start + count - 1} leave the counter range 0 .. 2^64 - 1"
        )
    packed = pack_mode(k1, k2)
    out = np.empty((count, packed.size), dtype=np.complex128)
    words = out.view(np.uint64).reshape(count, packed.size, 2)
    generator = Philox(key=stream.master_seed | stream.stream_id << 64)
    position = 0
    for column, mode in enumerate(packed.ravel().tolist()):
        # numpy increments the 256-bit counter before each block, so stand
        # one below (start, mode, 0, 0)
        target = start + (mode << 64) - 1
        generator.advance((target - position) % _COUNTER_MOD)
        words[:, column] = generator.random_raw(4 * count).reshape(count, 4)[:, :2]
        position = target + count
    normals = out.view(np.float64)
    flat = normals.reshape(-1)
    # in slices, so the shifted words are never a temporary as large as the draw
    for lo in range(0, flat.size, _UNIFORM_SLICE):
        chunk = flat[lo : lo + _UNIFORM_SLICE]
        _to_uniform(chunk.view(np.uint64), out=chunk)
    ndtri(normals, out=normals)
    # the bits of (real + 1j * imag) / sqrt(2): numpy divides a complex by
    # multiplying with the reciprocal of the divisor
    normals *= 1.0 / math.sqrt(2.0)
    return out.reshape((count,) + packed.shape)


@dataclass(frozen=True)
class GibbsParams:
    """Inverse-enstrophy scale gamma plus the lattice (period, cutoff)."""

    gamma: float
    period: float
    cutoff: Mode

    def __post_init__(self) -> None:
        gamma = float(self.gamma)
        period = float(self.period)
        if not (gamma > 0.0 and math.isfinite(gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if not (period > 0.0 and math.isfinite(period)):
            raise ValueError(f"period must be positive and finite, got {self.period!r}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "cutoff", _check_cutoff(self.cutoff))


def variance_oracle(k: Sequence[int], p: GibbsParams) -> float:
    """E |a_k|^2 = (2/gamma) (L / (2 pi |k|))^4 for a nonzero mode k."""
    k1, k2 = int(k[0]), int(k[1])
    if k1 == 0 and k2 == 0:
        raise ValueError("the zero mode carries no coefficient")
    k_sq = k1 * k1 + k2 * k2
    return (2.0 / p.gamma) * (p.period / TWO_PI) ** 4 / float(k_sq) ** 2


@lru_cache(maxsize=None)
def _sigma_vector(gamma: float, period: float, cutoff: Mode) -> np.ndarray:
    """Per-mode standard deviations sqrt(variance_oracle) over the box, read-only."""
    k1, k2 = mode_arrays(cutoff)
    k_sq = (k1 * k1 + k2 * k2).astype(np.float64)
    sigma = math.sqrt(2.0 / gamma) * (period / TWO_PI) ** 2 / k_sq
    sigma.flags.writeable = False
    return sigma


def sample_coeff_matrix(
    p: GibbsParams, rng: RngStream, count: int, start: int = 0
) -> np.ndarray:
    """Coefficient rows for samples start .. start+count-1, shape (count, modes)."""
    k1, k2 = mode_arrays(p.cutoff)
    z = standard_complex_normals(rng, start, count, k1, k2)
    z *= _sigma_vector(p.gamma, p.period, p.cutoff)
    return z


def sample(p: GibbsParams, rng: RngStream, index: int = 0) -> SpectralField:
    """One Gibbs sample; index selects the member within the stream."""
    coeffs = sample_coeff_matrix(p, rng, 1, start=index)[0]
    return SpectralField(p.period, p.cutoff, coeffs)


def log_density_ratio(f: SpectralField, g: SpectralField, p: GibbsParams) -> float:
    """log(density(f) / density(g)) = -(gamma/2) (S(f) - S(g)) under the Gibbs law."""
    for name, field in (("f", f), ("g", g)):
        if field.period != p.period or field.cutoff != p.cutoff:
            raise ValueError(
                f"{name} lives on ({field.period}, {field.cutoff}), "
                f"params expect ({p.period}, {p.cutoff})"
            )
    return -0.5 * p.gamma * (enstrophy(f) - enstrophy(g))


def field_covariance(p: GibbsParams, x: Sequence[float], y: Sequence[float]) -> float:
    """Exact covariance E phi(x) phi(y) of the truncated field, no sampling.

    Equals sum_{k > 0} variance_oracle(k) * (2 / L^2) cos(2 pi k.(x - y) / L);
    it depends on x - y only and is the analytic second-moment oracle.
    """
    k1, k2 = mode_arrays(p.cutoff)
    sigma = _sigma_vector(p.gamma, p.period, p.cutoff)
    dx = float(x[0]) - float(y[0])
    dy = float(x[1]) - float(y[1])
    angles = (TWO_PI / p.period) * (k1 * dx + k2 * dy)
    terms = (sigma * sigma) * (2.0 / p.period**2) * np.cos(angles)
    return float(np.sum(terms))


def _check_dyadic_args(n: int, m: int, p_base: GibbsParams) -> tuple[int, int]:
    n, m = int(n), int(m)
    if n > m:
        raise ValueError(f"invalid refinement: need n <= m, got n={n}, m={m}")
    if p_base.period != 2.0**n:
        raise ValueError(
            f"p_base describes the coarse level: period must be 2^n = {2.0**n}, "
            f"got {p_base.period}"
        )
    return n, m


def coupled_dyadic_matrices(
    n: int,
    m: int,
    p_base: GibbsParams,
    rng: RngStream,
    count: int,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray, GibbsParams]:
    """Coupled coarse/fine sample rows plus the derived fine-level params.

    The fine level lives on period 2^m with the cutoff scaled by 2^(m-n), so
    both boxes span the same physical frequency window. Both levels are
    measurable functions of one family of unit deviates zeta indexed by
    fine-lattice modes: the fine field uses its box draws directly, while
    coarse mode k receives 2^-((m-n)/2) * sum_j zeta at fine modes
    2^(m-n) k + (j, j), j < 2^(m-n), the normalized block sum of the finer
    increments associated to the frequency k / 2^n. Marginals at both levels
    are exactly Gibbs; n = m degenerates to two identical fields.

    Each zeta is drawn once: block modes inside the fine box are gathered
    from the fine field's own deviates, and only those past its top rows
    (coarse k1 = N1 or k2 = N2, j > 0) are drawn separately.
    """
    n, m = _check_dyadic_args(n, m, p_base)
    refine = 2 ** (m - n)
    fine_params = GibbsParams(
        gamma=p_base.gamma,
        period=2.0**m,
        cutoff=(p_base.cutoff[0] * refine, p_base.cutoff[1] * refine),
    )
    fine_k1, fine_k2 = mode_arrays(fine_params.cutoff)
    # unit deviates of the fine box, scaled to the fine law once zeta is gathered
    fine = standard_complex_normals(rng, start, count, fine_k1, fine_k2)

    k1, k2 = mode_arrays(p_base.cutoff)
    shifts = np.arange(refine, dtype=np.int64)
    block1 = refine * k1[:, None] + shifts[None, :]
    block2 = refine * k2[:, None] + shifts[None, :]
    n1, n2 = fine_params.cutoff
    # block modes are positive and have k2 >= -n2, so only the upper bounds can fail
    inside = (block1 <= n1) & (block2 <= n2)
    # every slot is taken straight from the fine deviates (slot 0 stands in
    # past the box), then the slots past the box get their own draws
    slots = np.where(inside, _box_slots(fine_params.cutoff, block1, block2), 0)
    zeta = np.empty((count,) + block1.shape, dtype=np.complex128)
    np.take(fine, slots.ravel(), axis=1, out=zeta.reshape(count, slots.size), mode="clip")
    zeta[:, ~inside] = standard_complex_normals(
        rng, start, count, block1[~inside], block2[~inside]
    )
    coarse = zeta.sum(axis=2)
    del zeta
    coarse /= math.sqrt(refine)
    coarse *= _sigma_vector(p_base.gamma, p_base.period, p_base.cutoff)
    fine *= _sigma_vector(fine_params.gamma, fine_params.period, fine_params.cutoff)
    return coarse, fine, fine_params

