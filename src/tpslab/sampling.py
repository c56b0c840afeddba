"""Seeded random states and operators for demos and property tests."""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ShapeError
from .linalg import check_size, tensor_vec
from .schmidt import spectra
from .tps import trivial_tps

# random_entangled_state's floor on alpha2/alpha1: at 0.05 every two-qubit draw beats
# demo bell's 1e-3 CHSH margin, and at 1 or more no draw passes, so it is no parameter
MIN_ALPHA_RATIO = 0.05


def check_samples(samples: int) -> None:
    """A demo's sample count: positive, and at most MAX_GLOBAL_DIM.

    The demos hold every sample in one stack, so their memory grows with the
    count; the cap is checked before anything is drawn.
    """
    if samples < 1:
        raise ContractError(f"samples must be positive, got {samples}")
    check_size(samples, "samples")


def haar_state(dim: int, rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Unit vectors with Haar-uniform direction (normalized complex normals), shaped (*shape, dim).

    Each draw takes its real parts, then its imaginary parts, from the stream,
    so a stack holds exactly the states that repeated single calls return.
    """
    z = rng.normal(size=(*shape, 2, dim))
    v = z[..., 0, :] + 1j * z[..., 1, :]
    # np.linalg.norm's formula for one vector, so stacked and single draws agree bit for bit
    n = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    return v / n[..., None]


def random_product_pair(d1: int, d2: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return haar_state(d1, rng), haar_state(d2, rng)


def random_product_state(d1: int, d2: int, rng: np.random.Generator) -> np.ndarray:
    u, v = random_product_pair(d1, d2, rng)
    return tensor_vec(u, v)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase correction."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_entangled_state(
    d1: int,
    d2: int,
    rng: np.random.Generator,
    shape: tuple[int, ...] = (),
) -> np.ndarray:
    """Haar states, shaped (*shape, d1*d2), each redrawn until its second
    Schmidt coefficient in the trivial TPS (``schmidt.spectra``) is at least
    ``MIN_ALPHA_RATIO`` times its first.

    The floor keeps downstream entanglement margins bounded away from zero;
    Haar states are almost surely full rank, so rejections are rare.  Each
    block draws only as many candidates as are still missing, so the stream
    is consumed exactly as one draw at a time would consume it.  A factor of
    dimension 1 holds no entangled state and raises ``ShapeError`` before any
    draw; a shape holding 0 returns an empty stack.
    """
    if min(d1, d2) < 2:
        raise ShapeError(f"factors of dimensions ({d1}, {d2}) hold no entangled state")
    missing = math.prod(shape)
    accepted = [np.empty((0, d1 * d2), dtype=complex)]
    while missing:
        psi = haar_state(d1 * d2, rng, (missing,))
        s = spectra(psi, trivial_tps(d1, d2))
        psi = psi[s[:, 1] >= MIN_ALPHA_RATIO * s[:, 0]]
        accepted.append(psi)
        missing -= len(psi)
    return np.concatenate(accepted).reshape(*shape, d1 * d2)
