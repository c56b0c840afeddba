"""CHSH values for two-qubit pure states: direct evaluation, maximization, oracle.

The maximal CHSH value is ``2 sqrt(t1^2 + t2^2)`` from the two largest
singular values of the 3x3 spin correlation matrix, and the settings that
reach it follow in closed form from the same SVD.  chsh_max builds those
settings and re-evaluates the value through the raw definition
``<psi|(a.sigma) (x) (b.sigma)|psi>``.  The independent check, an iterative
maximizer (angular grid scan, then coordinate descent) on a correlation
matrix of its own, lives in the tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .linalg import check_state
from .spins import PAULI_X, PAULI_Y, PAULI_Z

_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
# sigma_i (x) sigma_j, indexed [i][j]
_PAULI_PAIRS = tuple(tuple(np.kron(a, b) for b in _PAULIS) for a in _PAULIS)

SETTING_NORM_TOL = 1e-12
TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)


def _check_direction(n, name: str) -> np.ndarray:
    arr = np.asarray(n, dtype=float)
    if arr.shape != (3,):
        raise ShapeError(f"{name} must be a real 3-vector, got shape {arr.shape}")
    if abs(float(np.linalg.norm(arr)) - 1.0) > SETTING_NORM_TOL:
        raise ContractError(f"{name} must be unit length to {SETTING_NORM_TOL}")
    return arr


@dataclass(frozen=True)
class ChshSettings:
    """Four measurement directions on the Bloch sphere: a, a' for the first
    qubit and b, b' for the second."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _check_direction(self.a, "a"))
        object.__setattr__(self, "a_prime", _check_direction(self.a_prime, "a_prime"))
        object.__setattr__(self, "b", _check_direction(self.b, "b"))
        object.__setattr__(self, "b_prime", _check_direction(self.b_prime, "b_prime"))


def pauli_along(n) -> np.ndarray:
    """The spin observable n . sigma for a unit direction n."""
    n = _check_direction(n, "direction")
    return n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z


def correlation(psi, u, v) -> float:
    """E(u, v) = <psi, (u.sigma) (x) (v.sigma) psi> for a two-qubit state."""
    psi = check_state(psi)
    if psi.size != 4:
        raise ShapeError(f"correlation needs a two-qubit state, got dim {psi.size}")
    op = np.kron(pauli_along(u), pauli_along(v))
    return float(np.vdot(psi, op @ psi).real)


def chsh_value(psi, settings: ChshSettings) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    return (
        correlation(psi, settings.a, settings.b)
        + correlation(psi, settings.a, settings.b_prime)
        + correlation(psi, settings.a_prime, settings.b)
        - correlation(psi, settings.a_prime, settings.b_prime)
    )


def correlation_matrix(psi) -> np.ndarray:
    """The 3x3 matrix T_ij = <sigma_i (x) sigma_j>."""
    psi = check_state(psi)
    if psi.size != 4:
        raise ShapeError(f"correlation matrix needs a two-qubit state, got dim {psi.size}")
    return np.array(
        [
            [float(np.vdot(psi, _PAULI_PAIRS[i][j] @ psi).real) for j in range(3)]
            for i in range(3)
        ]
    )


def chsh_max_closed_form(psi) -> float:
    """Maximal CHSH value 2 sqrt(t1^2 + t2^2) from the correlation matrix's
    two largest singular values."""
    t = np.linalg.svd(correlation_matrix(psi), compute_uv=False)
    return float(2.0 * np.sqrt(t[0] ** 2 + t[1] ** 2))


@dataclass(frozen=True)
class ChshMaxResult:
    value: float
    settings: ChshSettings


def chsh_max(psi) -> ChshMaxResult:
    """Maximize the CHSH value of a two-qubit pure state over all settings.

    With the SVD ``T = U diag(t) V^T`` of the correlation matrix, the optimal
    settings are ``a, a' = U[:, 0], U[:, 1]`` and
    ``b, b' = (t1 f1 +- t2 f2) / hypot(t1, t2)`` with ``f1, f2`` the first two
    right singular vectors (Horodecki, Phys. Lett. A 200, 340 (1995)).  For a
    pure state ``t1 = 1``, so the division is safe.  The returned value is
    evaluated with chsh_value at these settings.
    """
    psi = check_state(psi)
    if psi.size != 4:
        raise ShapeError(f"chsh_max needs a two-qubit state, got dim {psi.size}")
    u, t, vt = np.linalg.svd(correlation_matrix(psi))
    h = float(np.hypot(t[0], t[1]))
    settings = ChshSettings(
        a=u[:, 0],
        a_prime=u[:, 1],
        b=(t[0] * vt[0] + t[1] * vt[1]) / h,
        b_prime=(t[0] * vt[0] - t[1] * vt[1]) / h,
    )
    return ChshMaxResult(value=chsh_value(psi, settings), settings=settings)
