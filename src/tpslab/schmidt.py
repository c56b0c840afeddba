"""Schmidt bi-orthogonal decomposition and the factorizable/entangled verdict.

A unit state psi, read through a TPS, decomposes as
``sum_k alpha_k u_k (x) v_k`` with descending nonnegative coefficients and
orthonormal factor bases.  The state is factorizable in that TPS exactly when
the numerical rank is 1; rank >= 2 means entangled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .tps import TensorProductStructure, _coefficients, coefficient_matrix

DEFAULT_TRUNCATION_TOL = 1e-10
_TINY = np.finfo(float).tiny  # the smallest normal double


def rank_from_singular_values(vals: np.ndarray, truncation_tol: float):
    """Count coefficients above ``truncation_tol`` relative to the largest.

    Works on the last axis of descending values: one int for one spectrum,
    an integer array for a stack.  An all-zero spectrum has rank 0.
    """
    ranks = np.sum(vals > truncation_tol * vals[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Descending coefficients with matching orthonormal factor bases.

    ``left_basis``/``right_basis`` hold one factor vector per column;
    ``sum_k coefficients[k] * left[:,k] (x) right[:,k]`` reconstructs the
    state in the TPS product coordinates.  Each left column's first
    largest-modulus entry is real positive, so repeated calls are bit-identical.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    rank: int


def _svd(c: np.ndarray, **kwargs):
    try:  # the one SVD of coefficient matrices, shared by spectra and schmidt
        return np.linalg.svd(c, **kwargs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise NumericalError(f"SVD of {c.shape} coefficients did not converge: {exc}") from exc


def _two_by_two(c: np.ndarray) -> np.ndarray:
    """Singular values of 2 x 2 matrices (a stack on the leading axes) from the Gram
    matrix g = c^dagger c, with no cancellation: s1^2 = (g11 + g22 + hypot(g11 - g22,
    2|g12|)) / 2 and s2 = |det c| / s1.  A matrix whose s1^2 is not a normal double
    (zero, NaN, infinite, over- or underflowed) takes the SVD instead."""
    a, b, e, f = c[..., 0, 0], c[..., 0, 1], c[..., 1, 0], c[..., 1, 1]
    with np.errstate(all="ignore"):  # the matrices that warn are the ones sent to the SVD
        p = (c * c.conj()).real
        g11, g22 = p[..., 0, 0] + p[..., 1, 0], p[..., 0, 1] + p[..., 1, 1]
        g12 = np.abs(a.conj() * b + e.conj() * f)
        s1_squared = (g11 + g22 + np.hypot(g11 - g22, 2.0 * g12)) / 2.0
        s1 = np.sqrt(s1_squared)
        det = np.abs(a * f - b * e)
        s = np.stack((s1, np.minimum(det / s1, s1)), axis=-1)
    bad = ~(s1_squared >= _TINY) | (s1_squared == np.inf)
    if bad.any():
        s[bad] = _svd(c[bad], compute_uv=False)
    return s


def spectra(psi: np.ndarray, tps: TensorProductStructure) -> np.ndarray:
    """Descending Schmidt coefficients of unchecked psi, one state or a stack on the last axis.

    A 2 x 2 TPS takes the closed form of ``_two_by_two``, every other shape one SVD;
    either way a NaN coefficient raises ``NumericalError``.
    """
    c = _coefficients(psi, tps)
    return _two_by_two(c) if c.shape[-2:] == (2, 2) else _svd(c, compute_uv=False)


def schmidt(
    psi,
    tps: TensorProductStructure,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> SchmidtDecomposition:
    """Schmidt decomposition of psi relative to the given TPS; ``spectra`` takes stacks."""
    u, s, vh = _svd(coefficient_matrix(psi, tps), full_matrices=False)
    # the phase that makes each column of u real positive at its first largest-modulus
    # entry, which is never zero in a unit column; vh's rows take the opposite phase
    pivot = u[np.argmax(np.abs(u), axis=0), np.arange(s.size)]
    phase = np.conj(pivot) / np.abs(pivot)
    # right Schmidt vectors are the rows of vh, not conjugated, so the
    # reconstruction reads as a plain (not conjugated) tensor sum
    return SchmidtDecomposition(
        coefficients=s,
        left_basis=u * phase,
        right_basis=vh.T * phase.conj(),
        rank=rank_from_singular_values(s, truncation_tol),
    )
