"""Seeded samplers and profile builders that only the tests use.

The product states, Hermitian matrices and Haar unitaries here draw from the
seeded stream in a fixed order, so a test that seeds its generator gets the
same inputs on every run.  The Fourier modes and the odd profile are grid
profiles that the CLI never sends: they take ``demo_sum_diff``'s general
route, which reads each pair through the sum/difference TPS.
"""

import numpy as np

from tpslab.grid import Grid, SampledProfile, _four_sigma_squared, _gaussian, _real_profile
from tpslab.sampling import haar_state


def random_product_pair(d1: int, d2: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return haar_state(d1, rng), haar_state(d2, rng)


def random_product_state(d1: int, d2: int, rng: np.random.Generator) -> np.ndarray:
    return np.kron(*random_product_pair(d1, d2, rng))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase correction."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def fourier_profile(grid: Grid, mode: int) -> SampledProfile:
    """Discrete Fourier mode exp(2 pi i m k / d) / sqrt(d); exactly grid-periodic."""
    k = np.arange(grid.d)
    samples = np.exp(2j * np.pi * mode * k / grid.d) / np.sqrt(grid.d)
    return SampledProfile(grid=grid, samples=samples)


def odd_profile(grid: Grid, sigma: float) -> SampledProfile:
    """Antisymmetric profile x exp(-x^2 / (4 sigma^2)); vanishes at the origin."""
    den = _four_sigma_squared(sigma)
    x = grid.points
    return _real_profile(grid, x * _gaussian(x, 0.0, den), f"odd(sigma={sigma})")
