"""Tensor product structures over a global Hilbert space, and their refactorizations.

A tensor product structure (TPS) is an optional rotation R of the global
space followed by an optional index relabeling P; with neither it is the
trivial TPS, the stored factorization.  R is either a dense unitary U or a
Householder vector w standing for the Hermitian reflector
``H = I - 2 w w^dagger / |w|^2`` (D numbers instead of D^2).  The relabeling
(an ``IndexBijection``) is its flat array ``targets``: global index
``g = i*d2 + j`` gets the product label ``t_g = targets[g] = a*d2 + b`` of its
image (a, b) = map(i, j); composing relabelings indexes one targets array by
another.  Coefficients are the scatter by P of R^dagger psi,
``c[t_g] = (R^dagger psi)[g]``: the dense factorization unitary is R P with
P[g, t_g] = 1, whose column ``k*d2 + r`` is the product basis vector |k, r>,
but neither P nor H is ever formed.  Coefficients are reshaped to d1 x d2
(left factor slow).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import BijectionError, ContractError, GridSpecError, ShapeError
from .linalg import STATE_NORM_TOL, UNITARY_TOL, as_matrix, as_vector, check_state


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ShapeError(f"unitary must be square, got {u.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or nan, refused
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if not defect <= UNITARY_TOL:
        raise ContractError(f"factorization matrix is not unitary: max defect {defect:.3e}")
    return u


@dataclass(frozen=True)
class TensorProductStructure:
    """Factor dimensions, an optional rotation (dense ``unitary`` or ``reflector``) and
    an optional ``relabeling``; at most one rotation, and no part at all is the trivial TPS."""

    d1: int
    d2: int
    unitary: np.ndarray | None = None
    relabeling: IndexBijection | None = None
    reflector: np.ndarray | None = None

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ShapeError(f"factor dimensions must be positive, got ({self.d1}, {self.d2})")
        if self.unitary is not None and self.reflector is not None:
            raise ContractError("a TPS rotation is a dense unitary or a reflector, not both")
        bij = self.relabeling
        if bij is not None and (bij.d1, bij.d2) != (self.d1, self.d2):
            raise ShapeError(f"relabeling grid does not match factors ({self.d1}, {self.d2})")
        if self.unitary is not None:
            u = _check_unitary(self.unitary)
            if u.shape[0] != self.dim:
                raise ShapeError(f"unitary dimension {u.shape[0]} != d1*d2 = {self.dim}")
            object.__setattr__(self, "unitary", u)
        if self.reflector is not None:
            w = as_vector(self.reflector)
            if w.size != self.dim:
                raise ShapeError(f"reflector dimension {w.size} != d1*d2 = {self.dim}")
            # H is unitary for every w != 0; 2 / |w|^2 must also be a finite double
            if not np.finfo(float).tiny <= np.vdot(w, w).real < np.inf:
                raise ContractError("reflector must be a nonzero vector of finite squared norm")
            object.__setattr__(self, "reflector", w)

    @property
    def dim(self) -> int:
        return self.d1 * self.d2


def trivial_tps(d1: int, d2: int) -> TensorProductStructure:
    return TensorProductStructure(d1, d2)


def _coefficients(psi: np.ndarray, tps: TensorProductStructure) -> np.ndarray:
    """d1 x d2 coefficient matrices of psi (one state or a stack on the last axis); unchecked."""
    c = psi
    if tps.unitary is not None:  # U^dagger psi for each state
        c = psi @ tps.unitary.conj()
    elif tps.reflector is not None:  # H psi = psi - w (2 w^dagger psi / |w|^2), as H = H^dagger
        w = tps.reflector
        c = psi - ((2.0 / np.vdot(w, w).real) * (psi @ w.conj()))[..., None] * w
    if tps.relabeling is not None:
        rotated, c = c, np.empty_like(c)
        c[..., tps.relabeling.targets] = rotated
    return c.reshape(*psi.shape[:-1], tps.d1, tps.d2)


def coefficient_matrix(psi, tps: TensorProductStructure) -> np.ndarray:
    """d1 x d2 coefficient matrix of psi in the given TPS (unit Frobenius norm); in the
    trivial TPS a reshape of psi that may share its memory, so callers only read it."""
    psi = check_state(psi)
    if psi.size != tps.dim:
        raise ShapeError(f"state dim {psi.size} vs TPS dim {tps.dim}")
    # no norm check: a relabeling or a reflector keeps |psi| up to rounding, and a unitary
    # that passes _check_unitary changes it by a relative D*UNITARY_TOL/2 at most, to first
    # order (every eigenvalue of U^dagger U lies within D*UNITARY_TOL of 1)
    return _coefficients(psi, tps)


def _not_integers(values, array: np.ndarray) -> str | None:
    """What array, numpy's reading of the index list values, holds instead of integers, or
    None.  A float would be truncated and a string or a bool read as an index; numpy stores a
    bool among integers as 0 or 1, so the entries of a list are looked at too."""
    if array.dtype.kind not in "iu":
        return f"dtype {array.dtype}"
    if array is not values and not {bool, np.bool_}.isdisjoint(map(type, values)):
        return "a bool"
    return None


@dataclass(frozen=True)
class IndexBijection:
    """A bijection of the d1 x d2 product index grid onto itself.

    ``targets[i*d2 + j] = a*d2 + b`` for the image (a, b) = map(i, j); the
    construction proves that targets is a permutation of range(d1*d2) by a
    range check and a count of each target.
    """

    d1: int
    d2: int
    targets: np.ndarray

    def __post_init__(self):
        dim = self.d1 * self.d2
        t = np.asarray(self.targets)
        if t.shape != (dim,):
            raise ShapeError(f"targets must have length {dim}, got shape {t.shape}")
        if held := _not_integers(self.targets, t):
            raise BijectionError(f"targets must be integers, got {held}")
        if np.any((t < 0) | (t >= dim)):
            raise BijectionError("image indices fall outside the grid")
        t = t.astype(np.intp, copy=False)
        seen = np.bincount(t, minlength=dim)
        if seen.max(initial=0) > 1:  # an empty grid has no target to count
            dup = int(np.argmax(seen))
            raise BijectionError(
                f"index map is not a bijection: target ({dup // self.d2}, {dup % self.d2}) "
                f"is hit {int(seen[dup])} times"
            )
        object.__setattr__(self, "targets", t)


def swap_bijection(d: int) -> IndexBijection:
    """Exchange the two factors of a d x d grid: (i, j) -> (j, i)."""
    return IndexBijection(d, d, np.arange(d * d).reshape(d, d).T.ravel())


def factor_local_bijection(perm1, perm2) -> IndexBijection:
    """(i, j) -> (perm1[i], perm2[j]); never mixes the factors."""
    p1, p2 = np.asarray(perm1), np.asarray(perm2)
    if p1.ndim != 1 or p2.ndim != 1 or not (p1.size and p2.size):
        raise ShapeError("factor permutations must be nonempty vectors, "
                         f"got shapes {p1.shape} and {p2.shape}")
    if held := _not_integers(perm1, p1) or _not_integers(perm2, p2):
        raise BijectionError(f"permutation entries must be integers, got {held}")
    p1, p2 = p1.astype(np.intp), p2.astype(np.intp)
    # negative images could still add up to valid targets, as perm1 - k and perm2 + k*d2 do
    if min(p1.min(), p2.min()) < 0:
        raise BijectionError("image indices fall outside the grid")
    return IndexBijection(p1.size, p2.size, (p1[:, None] * p2.size + p2).ravel())


def random_bijection(d1: int, d2: int, rng: np.random.Generator) -> IndexBijection:
    """Uniformly random relabeling of the whole grid (generically factor-mixing)."""
    return IndexBijection(d1, d2, rng.permutation(d1 * d2))


def sum_diff_bijection(d: int) -> IndexBijection:
    """Modular sum/difference relabeling (i, j) -> ((i+j) mod d, (i-j) mod d).

    The grid must be odd so 2 is invertible mod d; the inverse uses
    inv2 = (d+1)/2: i = inv2*(a+b) mod d, j = inv2*(a-b) mod d.
    """
    if d < 1 or d % 2 == 0:
        raise GridSpecError(
            f"sum/difference relabeling needs an odd grid, got d={d}: "
            "2 has no modular inverse mod an even d, so the map would not be a bijection"
        )
    i, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return IndexBijection(d, d, ((i + j) % d * d + (i - j) % d).ravel())


def relabeled(tps: TensorProductStructure, bij: IndexBijection) -> TensorProductStructure:
    """tps followed by bij: the rotation is kept and each label t_g becomes bij.targets[t_g].

    The rotation was checked when tps was built and is not checked again;
    only the composed labels are.
    """
    if (bij.d1, bij.d2) != (tps.d1, tps.d2):
        raise ShapeError(f"relabeling grid ({bij.d1}, {bij.d2}) vs factors ({tps.d1}, {tps.d2})")
    t = bij.targets if tps.relabeling is None else bij.targets[tps.relabeling.targets]
    out = copy.copy(tps)
    # a frozen dataclass refuses setattr, not an update of its instance dict
    vars(out)["relabeling"] = IndexBijection(tps.d1, tps.d2, t)
    return out


def tps_with_spectrum(psi, alphas, tps: TensorProductStructure) -> TensorProductStructure:
    """A TPS with the factor dimensions of tps in which psi has Schmidt coefficients sqrt(alphas).

    The rotation is the Householder reflector ``H = I - 2 w w^dagger / |w|^2``
    with ``w = psi + e^{i arg <phi|psi>} phi`` for the target
    ``phi = sum_k sqrt(alpha_k) |k, k>``: H swaps psi with phi up to a phase,
    so the coefficient matrix of psi is diagonal with entries sqrt(alpha_k)
    (|w|^2 = 2 + 2|<phi|psi>| >= 2, so w never vanishes).  Costs O(D) time and
    memory.  alphas are at most min(d1, d2) nonnegative weights summing to 1;
    a single weight makes psi a product, equal weights maximally entangled.
    """
    psi = check_state(psi)
    if psi.size != tps.dim:
        raise ShapeError(f"state dim {psi.size} vs TPS dim {tps.dim}")
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or not 1 <= a.size <= min(tps.d1, tps.d2):
        raise ShapeError(
            f"{a.size} Schmidt weights for factors ({tps.d1}, {tps.d2}); "
            f"give between 1 and {min(tps.d1, tps.d2)}"
        )
    if not (np.all(a >= 0) and abs(a.sum() - 1.0) <= STATE_NORM_TOL):
        raise ContractError(f"Schmidt weights must be nonnegative and sum to 1, got {a.tolist()}")
    phi = np.zeros(tps.dim, dtype=complex)
    k = np.arange(a.size)
    phi[k * tps.d2 + k] = np.sqrt(a)
    w = psi + np.exp(1j * np.angle(np.vdot(phi, psi))) * phi
    return TensorProductStructure(tps.d1, tps.d2, reflector=w)


def disentangling_tps(psi, tps: TensorProductStructure) -> TensorProductStructure:
    """A TPS with the same factor dimensions in which psi is a product state.

    The reflector of ``tps_with_spectrum`` for the single weight 1, i.e.
    ``w = psi + e^{i arg psi_0} e_0``, which swaps psi with the product basis
    state (0, 0) up to a phase.  One canonical choice among many;
    deterministic.
    """
    return tps_with_spectrum(psi, (1.0,), tps)
