"""Quantum covariance function: an entanglement witness from second moments.

For Hermitian A, B and a unit state the covariance
``Q(A, B, psi) = <psi, A B psi> - <psi, A psi><psi, B psi>``
vanishes whenever psi is a product state and A, B act on different factors.
A nonzero value therefore witnesses entanglement; a vanishing one is
inconclusive (entangled states with zero covariance exist).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import _expectation, _row_sum_norm, check_hermitian, check_state
from .tps import TensorProductStructure, coefficient_matrix

ENTANGLED_WITNESSED = "entangled-witnessed"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class QcfReport:
    """Covariance value plus the witness verdict at a stated threshold."""

    value: complex
    witness_threshold: float
    verdict: str


def _covariance(a: np.ndarray, b: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<A B> - <A><B> on the last axis of psi (one state or a stack); unchecked inputs."""
    cross = np.vecdot(psi, psi @ b.T @ a.T)
    return cross - _expectation(a, psi) * _expectation(b, psi)


def qcf(a, b, psi) -> complex:
    """Covariance <A B> - <A><B> in the state psi; complex for non-commuting pairs."""
    a = check_hermitian(a)
    b = check_hermitian(b)
    psi = check_state(psi)
    if a.shape[0] != psi.size or b.shape[0] != psi.size:
        raise ShapeError(
            f"observable dims {a.shape[0]}, {b.shape[0]} vs state dim {psi.size}"
        )
    return complex(_covariance(a, b, psi))


def default_witness_threshold(dim: int, a: np.ndarray, b: np.ndarray) -> float:
    """dim * 1e-12 * max(1, ||A||_inf ||B||_inf): rounding accumulates with the global
    dimension of the contractions and with the observables, whose norms bound every
    term of the covariance.  Multiplied left to right, it stays finite for any pair
    that ``check_hermitian`` admits."""
    tol = dim * 1e-12
    return max(tol, tol * _row_sum_norm(a) * _row_sum_norm(b))


def qcf_local(
    a1,
    b2,
    psi,
    tps: TensorProductStructure,
    witness_threshold: float | None = None,
) -> QcfReport:
    """Covariance of two single-factor observables read through a TPS.

    The observables act as a1 on factor 1 and b2 on factor 2 of the TPS; a
    value above the threshold certifies entanglement of psi in that TPS.
    """
    a1 = check_hermitian(a1)
    b2 = check_hermitian(b2)
    if a1.shape[0] != tps.d1 or b2.shape[0] != tps.d2:
        raise ShapeError(
            f"factor observables {a1.shape[0]}x{b2.shape[0]} vs TPS factors "
            f"({tps.d1}, {tps.d2})"
        )
    # traces on the coefficient matrix C: <A(x)1> = tr(C^dag A C),
    # <1(x)B> = tr(C^dag C B^T), <A(x)B> = tr(C^dag A C B^T)
    c = coefficient_matrix(psi, tps)
    ac = a1 @ c
    e_a = np.vdot(c, ac).real
    e_b = np.vdot(c, c @ b2.T).real
    value = complex(np.vdot(c, ac @ b2.T)) - e_a * e_b
    if witness_threshold is None:
        witness_threshold = default_witness_threshold(tps.dim, a1, b2)
    verdict = ENTANGLED_WITNESSED if abs(value) > witness_threshold else INCONCLUSIVE
    return QcfReport(value=value, witness_threshold=witness_threshold, verdict=verdict)

