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

The implementation is vectorized numpy and is property-tested bit-exact
against the reference Philox implementation in numpy.random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .spectral import Mode, SpectralField, TWO_PI, _check_cutoff, enstrophy, mode_arrays

GENERATOR_NAME = "philox4x64-10+inverse-normal"

ENSEMBLE_SCHEMA = "ensemble.v1"

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_U64 = 0xFFFFFFFFFFFFFFFF


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of uint64 arrays as (high word, low word)."""
    lo = a * b
    a_hi = a >> _SHIFT32
    a_lo = a & _MASK32
    b_hi = b >> _SHIFT32
    b_lo = b & _MASK32
    mid = ((a_lo * b_lo) >> _SHIFT32) + ((a_hi * b_lo) & _MASK32) + ((a_lo * b_hi) & _MASK32)
    hi = a_hi * b_hi + ((a_hi * b_lo) >> _SHIFT32) + ((a_lo * b_hi) >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, lo


def _philox4x64(c0, c1, c2, c3, k0, k1) -> tuple[np.ndarray, ...]:
    """Ten rounds of philox4x64 over broadcastable uint64 counter/key arrays."""
    with np.errstate(over="ignore"):
        arrays = [np.atleast_1d(np.asarray(x, dtype=np.uint64)) for x in (c0, c1, c2, c3, k0, k1)]
        c0, c1, c2, c3, k0, k1 = (a.copy() for a in np.broadcast_arrays(*arrays))
        for _ in range(10):
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _W0
            k1 = k1 + _W1
    return c0, c1, c2, c3


def _to_uniform(word: np.ndarray) -> np.ndarray:
    # top 52 bits, centered on the cell: every value (i + 1/2) * 2^-52 is an
    # exact float strictly inside (0, 1), so the inverse CDF never sees 0 or 1
    # (53 bits would let the largest cell round up to exactly 1.0)
    return ((word >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


@dataclass(frozen=True)
class RngStream:
    """A named substream: (master_seed, stream_id) keys every philox block."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", int(self.master_seed) & _U64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _U64)

    def substream(self, stream_id: int) -> "RngStream":
        """A sibling stream under the same master seed."""
        return RngStream(self.master_seed, stream_id)


def pack_mode(k1, k2) -> np.ndarray:
    """Injective 64-bit packing of a lattice mode (two's complement per half)."""
    a = np.asarray(k1, dtype=np.int64).astype(np.uint64) & _MASK32
    b = np.asarray(k2, dtype=np.int64).astype(np.uint64) & _MASK32
    return (a << _SHIFT32) | b


def standard_complex_normals(
    stream: RngStream, sample_indices, k1, k2
) -> np.ndarray:
    """Unit complex Gaussians, one per (sample index, mode), E|z|^2 = 1.

    sample_indices and the mode arrays are broadcast against each other, so
    (S, 1) indices with (M,) modes give an (S, M) matrix.
    """
    counters0 = np.asarray(sample_indices, dtype=np.uint64)
    counters1 = pack_mode(k1, k2)
    w0, w1, _, _ = _philox4x64(
        counters0,
        counters1,
        np.uint64(0),
        np.uint64(0),
        np.uint64(stream.master_seed),
        np.uint64(stream.stream_id),
    )
    real = ndtri(_to_uniform(w0))
    imag = ndtri(_to_uniform(w1))
    return (real + 1j * imag) / math.sqrt(2.0)


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
    count = int(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    k1, k2 = mode_arrays(p.cutoff)
    indices = (np.arange(start, start + count, dtype=np.uint64))[:, None]
    z = standard_complex_normals(rng, indices, k1[None, :], k2[None, :])
    sigma = _sigma_vector(p.gamma, p.period, p.cutoff)
    return z * sigma[None, :]


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
    """
    n, m = _check_dyadic_args(n, m, p_base)
    refine = 2 ** (m - n)
    fine_params = GibbsParams(
        gamma=p_base.gamma,
        period=2.0**m,
        cutoff=(p_base.cutoff[0] * refine, p_base.cutoff[1] * refine),
    )
    fine = sample_coeff_matrix(fine_params, rng, count, start=start)

    k1, k2 = mode_arrays(p_base.cutoff)
    shifts = np.arange(refine, dtype=np.int64)
    block1 = refine * k1[:, None] + shifts[None, :]
    block2 = refine * k2[:, None] + shifts[None, :]
    indices = np.arange(start, start + count, dtype=np.uint64)[:, None, None]
    zeta = standard_complex_normals(rng, indices, block1[None, :, :], block2[None, :, :])
    pooled = zeta.sum(axis=2) / math.sqrt(refine)
    sigma = _sigma_vector(p_base.gamma, p_base.period, p_base.cutoff)
    coarse = pooled * sigma[None, :]
    return coarse, fine, fine_params


def coupled_dyadic_pair(
    n: int, m: int, p_base: GibbsParams, rng: RngStream, index: int = 0
) -> tuple[SpectralField, SpectralField]:
    """One coupled (coarse, fine) draw; see coupled_dyadic_matrices."""
    coarse, fine, fine_params = coupled_dyadic_matrices(n, m, p_base, rng, 1, start=index)
    return (
        SpectralField(p_base.period, p_base.cutoff, coarse[0]),
        SpectralField(fine_params.period, fine_params.cutoff, fine[0]),
    )
