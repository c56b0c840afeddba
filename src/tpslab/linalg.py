"""Dense complex linear algebra kernels with deterministic conventions.

Thin wrappers around numpy that pin down the index convention (left factor is
the slow, row-major index), the tolerances, and the size and norm limits that
every input is checked against.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ContractError,
    NumericalError,
    ShapeError,
    SizeLimitError,
)

# Largest global Hilbert-space dimension tensor products may create.
MAX_GLOBAL_DIM = 2**20

UNITARY_TOL = 1e-9
STATE_NORM_TOL = 1e-10
# scaled by max(1, ||a||_inf) for an observable a, as the rounding of a and of <psi, a psi> is
HERMITIAN_TOL = 1e-9
EXPECTATION_IMAG_TOL = 1e-10

# the largest Frobenius norm of an observable: for two such A and B and a unit state,
# |<A (x) B>| and |<A><B>| stay below a sixteenth of the largest double
MAX_MATRIX_NORM = float(np.sqrt(np.finfo(float).max)) / 4


def as_vector(v) -> np.ndarray:
    """Coerce to a finite complex 1-d array."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1:
        raise ShapeError(f"expected a vector, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractError("vector contains non-finite entries")
    return arr


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite complex 2-d array."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractError("matrix contains non-finite entries")
    return arr


def check_size(n: int, what: str) -> None:
    """Refuse an object of n entries above ``MAX_GLOBAL_DIM``: a global dimension,
    a dense D x D matrix (n = D^2, so D <= 1024), a pair grid or a sample stack."""
    if n > MAX_GLOBAL_DIM:
        # n can be a product of input integers too long for str() to write
        count = n if n < 2**64 else "over 2^64"
        raise SizeLimitError(f"{what}: {count} entries exceed the configured maximum {MAX_GLOBAL_DIM}")


def tensor_vec(u, v) -> np.ndarray:
    """Tensor product of two vectors, left factor slow: out[i*dv + j] = u[i]v[j]."""
    u = as_vector(u)
    v = as_vector(v)
    if u.size < 1 or v.size < 1:
        raise ShapeError("tensor factors must have dimension >= 1")
    check_size(u.size * v.size, f"tensor product {u.size}x{v.size}")
    return np.kron(u, v)


def tensor_op(a, b) -> np.ndarray:
    """Kronecker product of square operators, matching the tensor_vec convention.

    Satisfies (a (x) b)(u (x) v) = (a u) (x) (b v).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ShapeError(f"tensor_op needs square factors, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def check_state(psi) -> np.ndarray:
    """Validate that psi is a unit vector within ``STATE_NORM_TOL`` and return it."""
    psi = as_vector(psi)
    n = float(np.linalg.norm(psi))
    if abs(n - 1.0) > STATE_NORM_TOL:
        raise ContractError(f"state norm {n!r} differs from 1 beyond tolerance {STATE_NORM_TOL}")
    return psi


def check_hermitian(a) -> np.ndarray:
    """Validate a square observable within the scaled ``HERMITIAN_TOL`` of Hermitian and
    of bounded norm; return its Hermitian part (a + a^dagger)/2, which is a itself,
    bit for bit, when a is exactly Hermitian."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"observable must be square, got {a.shape}")
    with np.errstate(over="ignore"):  # huge entries: an inf defect or norm, refused
        defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
        norm = float(np.linalg.norm(a))
        tol = HERMITIAN_TOL * max(1.0, _row_sum_norm(a))
    if not defect <= tol:
        raise ContractError(f"observable is not Hermitian: max defect {defect:.3e}")
    if not norm <= MAX_MATRIX_NORM:
        raise ContractError(f"matrix Frobenius norm exceeds {MAX_MATRIX_NORM:.3e}, "
                            "so a covariance could overflow")
    if defect:
        # within the bound norm a + a^dagger cannot overflow
        a = (a + a.conj().T) / 2
    return a


def _row_sum_norm(a: np.ndarray) -> float:
    """||a||_inf, the largest absolute row sum; it bounds the spectral norm of a Hermitian a."""
    return float(np.abs(a).sum(axis=1).max(initial=0.0))


def _expectation(a: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<psi, a psi> on the last axis of psi (one state or a stack), real part.

    Unchecked inputs; the imaginary parts must vanish to the scaled EXPECTATION_IMAG_TOL.
    """
    val = np.vecdot(psi, psi @ a.T)
    imag = float(np.max(np.abs(val.imag)))
    tol = EXPECTATION_IMAG_TOL * max(1.0, _row_sum_norm(a))
    if imag > tol:
        raise NumericalError(f"expectation has imaginary part {imag:.3e} beyond {tol:.3g}")
    return val.real


def expectation(a, psi) -> float:
    """Real expectation value <psi, a psi> of a Hermitian observable."""
    a = check_hermitian(a)
    psi = check_state(psi)
    if a.shape[0] != psi.size:
        raise ShapeError(f"observable dim {a.shape[0]} vs state dim {psi.size}")
    return float(_expectation(a, psi))

