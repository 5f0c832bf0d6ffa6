import numpy as np
import pytest

from eulergibbs.spectral import SpectralField, mode_arrays, mode_count


def random_field(rng: np.random.Generator, period: float, cutoff, scale: float = 1.0) -> SpectralField:
    """A test fixture field with i.i.d. standard complex Gaussian coefficients."""
    n = mode_count(cutoff)
    coeffs = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return SpectralField(period, tuple(cutoff), coeffs)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)


def evaluate(f: SpectralField, x) -> float | np.ndarray:
    """The field at a point (2,) or at points (P, 2), summed mode by mode: the
    reference for spectral.evaluate_grid."""
    points = np.asarray(x, dtype=np.float64)
    single = points.ndim == 1
    points = np.atleast_2d(points)
    k1, k2 = mode_arrays(f.cutoff)
    angle = (2.0 * np.pi / f.period) * (np.outer(points[:, 0], k1) + np.outer(points[:, 1], k2))
    phases = np.exp(1j * angle)
    values = (2.0 / f.period) * np.einsum("pm,m->p", phases, f.coeffs, optimize=False).real
    return float(values[0]) if single else values
