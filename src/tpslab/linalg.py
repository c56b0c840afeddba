"""Dense complex linear algebra kernels with deterministic conventions.

Thin wrappers around numpy that pin down the index convention (left factor is
the slow, row-major index), tolerances, and output phases, so that
every decomposition is reproducible bit-for-bit across calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    NumericalError,
    ShapeError,
    SizeLimitError,
)

# Largest global Hilbert-space dimension tensor products may create.
MAX_GLOBAL_DIM = 2**20

HERMITIAN_TOL = 1e-9
UNITARY_TOL = 1e-9
STATE_NORM_TOL = 1e-10
EXPECTATION_IMAG_TOL = 1e-10


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


def _fix_phase(v: np.ndarray) -> complex:
    """Return the unit phase that makes v's first largest-modulus entry real positive."""
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    mag = abs(pivot)
    if mag == 0.0:
        return 1.0 + 0.0j
    return np.conj(pivot) / mag


@dataclass(frozen=True)
class SvdResult:
    """Singular value decomposition m = left @ diag(vals) @ right^dagger.

    Columns of ``left``/``right`` are orthonormal; ``singular_values`` descend.
    Phases are fixed so each left column's first largest-modulus entry is real
    positive, making repeated calls bit-identical.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


def svd(m) -> SvdResult:
    """Thin SVD with deterministic phases and descending singular values."""
    m = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise NumericalError(
            f"SVD did not converge for a {m.shape[0]}x{m.shape[1]} matrix: {exc}"
        ) from exc
    v = vh.conj().T
    for k in range(s.size):
        ph = _fix_phase(u[:, k])
        u[:, k] *= ph
        v[:, k] *= ph
    return SvdResult(left=u, singular_values=s, right=v)


def check_state(psi) -> np.ndarray:
    """Validate that psi is a unit vector within ``STATE_NORM_TOL`` and return it."""
    psi = as_vector(psi)
    n = float(np.linalg.norm(psi))
    if abs(n - 1.0) > STATE_NORM_TOL:
        raise ContractError(f"state norm {n!r} differs from 1 beyond tolerance {STATE_NORM_TOL}")
    return psi


def check_hermitian(a) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"observable must be square, got {a.shape}")
    with np.errstate(over="ignore"):  # huge entries: an inf defect, refused
        defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if not defect <= HERMITIAN_TOL:
        raise ContractError(f"observable is not Hermitian: max defect {defect:.3e}")
    return a


def _expectation(a: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<psi, a psi> on the last axis of psi (one state or a stack), real part.

    Unchecked inputs; the imaginary parts must vanish to EXPECTATION_IMAG_TOL.
    """
    val = np.vecdot(psi, psi @ a.T)
    imag = float(np.max(np.abs(val.imag)))
    if imag > EXPECTATION_IMAG_TOL:
        raise NumericalError(
            f"expectation has imaginary part {imag:.3e} beyond {EXPECTATION_IMAG_TOL}"
        )
    return val.real


def expectation(a, psi) -> float:
    """Real expectation value <psi, a psi> of a Hermitian observable."""
    a = check_hermitian(a)
    psi = check_state(psi)
    if a.shape[0] != psi.size:
        raise ShapeError(f"observable dim {a.shape[0]} vs state dim {psi.size}")
    return float(_expectation(a, psi))

