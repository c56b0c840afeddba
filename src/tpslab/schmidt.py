"""Schmidt bi-orthogonal decomposition and the factorizable/entangled verdict.

A unit state psi, read through a TPS, decomposes as
``sum_k alpha_k u_k (x) v_k`` with descending nonnegative coefficients and
orthonormal factor bases.  The state is factorizable in that TPS exactly when
the numerical rank is 1; rank >= 2 means entangled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotFactorizableError
from .linalg import _fix_phase, svd
from .tps import TensorProductStructure, coefficient_matrix

DEFAULT_TRUNCATION_TOL = 1e-10


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
    state in the TPS product coordinates.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    rank: int
    truncation_tol: float


def schmidt(
    psi,
    tps: TensorProductStructure,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> SchmidtDecomposition:
    """Schmidt decomposition of psi relative to the given TPS."""
    c = coefficient_matrix(psi, tps)
    res = svd(c)
    # right Schmidt vectors are the conjugated right singular vectors, so the
    # reconstruction reads as a plain (not conjugated) tensor sum
    return SchmidtDecomposition(
        coefficients=res.singular_values,
        left_basis=res.left,
        right_basis=res.right.conj(),
        rank=rank_from_singular_values(res.singular_values, truncation_tol),
        truncation_tol=truncation_tol,
    )


@dataclass(frozen=True)
class FactorizabilityVerdict:
    factorizable: bool
    rank: int


def is_factorizable(
    psi,
    tps: TensorProductStructure,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> FactorizabilityVerdict:
    """Whether psi is a product state in this TPS (Schmidt rank one)."""
    sd = schmidt(psi, tps, truncation_tol)
    return FactorizabilityVerdict(factorizable=sd.rank == 1, rank=sd.rank)


def factors(sd: SchmidtDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """The two unit factor states of a rank-one decomposition.

    Global phase is fixed by making the first factor's largest-modulus
    component real positive; the second factor absorbs the conjugate phase so
    tensor_vec(f1, f2) still reconstructs the state.

    Raises:
        NotFactorizableError: if the Schmidt rank is not 1.
    """
    if sd.rank != 1:
        raise NotFactorizableError(
            f"state has Schmidt rank {sd.rank}; factors exist only for rank 1"
        )
    u = sd.left_basis[:, 0]
    v = sd.right_basis[:, 0]
    ph = _fix_phase(u)
    return u * ph, v * np.conj(ph)


def schmidt_values(psi, tps: TensorProductStructure) -> np.ndarray:
    """Just the descending Schmidt coefficients (no bases)."""
    c = coefficient_matrix(psi, tps)
    return np.linalg.svd(c, compute_uv=False)
