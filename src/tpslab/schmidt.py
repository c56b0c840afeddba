"""Schmidt bi-orthogonal decomposition and the factorizable/entangled verdict.

A unit state psi, read through a TPS, decomposes as
``sum_k alpha_k u_k (x) v_k`` with descending nonnegative coefficients and
orthonormal factor bases.  The verdict needs only the coefficients: the state
is factorizable in that TPS exactly when the numerical rank is 1; rank >= 2
means entangled.
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
    """Descending Schmidt coefficients and their numerical rank."""

    coefficients: np.ndarray
    rank: int


def _svd(c: np.ndarray) -> np.ndarray:
    try:  # the one SVD of coefficient matrices, which the 2 x 2 closed form falls back on
        return np.linalg.svd(c, compute_uv=False)
    except np.linalg.LinAlgError as exc:
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
        s[bad] = _svd(c[bad])
    return s


def _values(c: np.ndarray) -> np.ndarray:
    """Descending singular values of coefficient matrices, one or a stack on the leading
    axes: a 2 x 2 matrix takes the closed form of ``_two_by_two``, every other shape one
    SVD; either way a NaN coefficient raises ``NumericalError``."""
    return _two_by_two(c) if c.shape[-2:] == (2, 2) else _svd(c)


def spectra(psi: np.ndarray, tps: TensorProductStructure) -> np.ndarray:
    """Descending Schmidt coefficients of unchecked psi, one state or a stack on the last axis."""
    return _values(_coefficients(psi, tps))


def schmidt(
    psi,
    tps: TensorProductStructure,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> SchmidtDecomposition:
    """Schmidt coefficients and rank of a checked state psi relative to the given TPS;
    ``spectra`` takes unchecked stacks through the same route."""
    s = _values(coefficient_matrix(psi, tps))
    return SchmidtDecomposition(coefficients=s, rank=rank_from_singular_values(s, truncation_tol))
