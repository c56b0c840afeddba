"""Tensor product structures over a global Hilbert space, and their refactorizations.

A tensor product structure (TPS) is an optional rotation R of the global
space followed by an optional index relabeling P; it has at least one of the
two.  R is either a dense unitary U or a Householder vector w standing for
the Hermitian reflector ``H = I - 2 w w^dagger / |w|^2`` (D numbers instead
of D^2).  The relabeling (an ``IndexBijection``) is its flat array
``targets``: global index ``g = i*d2 + j`` gets the product label
``t_g = targets[g] = a*d2 + b`` of its image (a, b) = map(i, j); composing
relabelings indexes one targets array by another.  Coefficients are the
scatter by P of R^dagger psi, ``c[t_g] = (R^dagger psi)[g]``: the dense
factorization unitary is R P with P[g, t_g] = 1, whose column ``k*d2 + r`` is
the product basis vector |k, r>, but neither P nor H is ever formed.  The
trivial TPS is the identity relabeling.  Coefficients are reshaped to d1 x d2
(left factor slow).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import (
    BijectionError,
    ContractError,
    GridSpecError,
    ShapeError,
    SpectrumError,
)
from .linalg import (
    HERMITIAN_TOL,
    UNITARY_TOL,
    STATE_NORM_TOL,
    _fix_phase,
    as_matrix,
    as_vector,
    check_hermitian,
    check_state,
    commutator_maxnorm,
    eigh,
)


def _check_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ShapeError(f"unitary must be square, got {u.shape}")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if defect > tol:
        raise ContractError(f"factorization matrix is not unitary: max defect {defect:.3e}")
    return u


@dataclass(frozen=True)
class TensorProductStructure:
    """Factor dimensions, an optional rotation (dense ``unitary`` or ``reflector``) and
    an optional ``relabeling``; at most one rotation, and at least one of the two parts."""

    d1: int
    d2: int
    unitary: np.ndarray | None = None
    label_left: tuple[str, ...] | None = None
    label_right: tuple[str, ...] | None = None
    relabeling: IndexBijection | None = None
    reflector: np.ndarray | None = None

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ShapeError(f"factor dimensions must be positive, got ({self.d1}, {self.d2})")
        if self.unitary is not None and self.reflector is not None:
            raise ContractError("a TPS rotation is a dense unitary or a reflector, not both")
        if self.unitary is None and self.reflector is None and self.relabeling is None:
            raise ContractError("a TPS needs a rotation, a relabeling, or both")
        for name, labels, d in (("label_left", self.label_left, self.d1),
                                ("label_right", self.label_right, self.d2)):
            if labels is not None and len(labels) != d:
                raise ShapeError(f"{name} has {len(labels)} labels for a factor of dimension {d}")
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
    return relabel_tps(identity_bijection(d1, d2))


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
    """d1 x d2 coefficient matrix of psi in the given TPS (unit Frobenius norm)."""
    psi = check_state(psi)
    if psi.size != tps.dim:
        raise ShapeError(f"state dim {psi.size} vs TPS dim {tps.dim}")
    c = _coefficients(psi, tps)
    fro = float(np.linalg.norm(c))
    if abs(fro - 1.0) > 1e-10:
        raise ContractError(f"coefficient matrix norm {fro!r} deviates from 1")
    return c


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
        if t.dtype.kind not in "biu":  # numpy reads a bool as the integer 0 or 1
            raise BijectionError(f"targets must be integers, got dtype {t.dtype}")
        if np.any((t < 0) | (t >= dim)):
            raise BijectionError("image indices fall outside the grid")
        t = t.astype(np.intp, copy=False)
        seen = np.bincount(t, minlength=dim)
        dup = int(np.argmax(seen))
        if seen[dup] > 1:
            raise BijectionError(
                f"index map is not a bijection: target ({dup // self.d2}, {dup % self.d2}) "
                f"is hit {int(seen[dup])} times"
            )
        object.__setattr__(self, "targets", t)


def identity_bijection(d1: int, d2: int) -> IndexBijection:
    return IndexBijection(d1, d2, np.arange(d1 * d2))


def swap_bijection(d: int) -> IndexBijection:
    """Exchange the two factors of a d x d grid: (i, j) -> (j, i)."""
    return IndexBijection(d, d, np.arange(d * d).reshape(d, d).T.ravel())


def factor_local_bijection(perm1, perm2) -> IndexBijection:
    """(i, j) -> (perm1[i], perm2[j]); never mixes the factors."""
    p1 = np.asarray(perm1, dtype=int)
    p2 = np.asarray(perm2, dtype=int)
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


def relabel_tps(bij: IndexBijection) -> TensorProductStructure:
    """TPS whose product labels are the bijection's images of the trivial labels.

    The coefficient of a state at new label map(i, j) equals its coefficient
    at (i, j) in the trivial TPS.
    """
    return TensorProductStructure(bij.d1, bij.d2, relabeling=bij)


def relabeled(tps: TensorProductStructure, bij: IndexBijection) -> TensorProductStructure:
    """tps followed by bij: the rotation is kept and each label t_g becomes bij.targets[t_g].

    The factor labels are dropped, as a relabeling that mixes the factors
    leaves them naming nothing.  The rotation was checked when tps was built
    and is not checked again; only the composed labels are.
    """
    if (bij.d1, bij.d2) != (tps.d1, tps.d2):
        raise ShapeError(f"relabeling grid ({bij.d1}, {bij.d2}) vs factors ({tps.d1}, {tps.d2})")
    t = bij.targets if tps.relabeling is None else bij.targets[tps.relabeling.targets]
    out = copy.copy(tps)
    # a frozen dataclass refuses setattr, not an update of its instance dict
    vars(out).update(relabeling=IndexBijection(tps.d1, tps.d2, t), label_left=None, label_right=None)
    return out


def _cluster_eigenvalues(vals: np.ndarray, tol: float) -> list[tuple[float, slice]]:
    """Group ascending eigenvalues into near-degenerate clusters."""
    clusters = []
    start = 0
    for k in range(1, vals.size + 1):
        if k == vals.size or abs(vals[k] - vals[k - 1]) > tol:
            clusters.append((float(np.mean(vals[start:k])), slice(start, k)))
            start = k
    return clusters


def tps_from_joint_eigenbasis(
    f_obs,
    g_obs,
    d1: int,
    d2: int,
    herm_tol: float = HERMITIAN_TOL,
    cluster_tol: float = 1e-8,
) -> TensorProductStructure:
    """TPS whose product basis is the joint eigenbasis of two commuting observables.

    The joint spectrum must separate into d1 distinct eigenvalues of the first
    observable times d2 distinct eigenvalues of the second, each F-eigenspace
    carrying the same G-spectrum.  Product label (s, t) pairs the s-th
    F-eigenvalue (descending) with the t-th G-eigenvalue (descending).

    Raises:
        ContractError: non-commuting or non-Hermitian inputs.
        SpectrumError: joint spectrum is not a d1 x d2 grid.
    """
    f_obs = check_hermitian(f_obs, herm_tol)
    g_obs = check_hermitian(g_obs, herm_tol)
    dim = f_obs.shape[0]
    if g_obs.shape[0] != dim or dim != d1 * d2:
        raise ShapeError(f"observable dims {f_obs.shape[0]}, {g_obs.shape[0]} vs d1*d2 = {d1 * d2}")
    comm = commutator_maxnorm(f_obs, g_obs)
    if comm > herm_tol:
        raise ContractError(f"observables do not commute: max|[F,G]| = {comm:.3e}")

    fvals, fvecs = eigh(f_obs, herm_tol)
    scale = max(1.0, float(np.max(np.abs(fvals))))
    clusters = _cluster_eigenvalues(fvals, cluster_tol * scale)
    if len(clusters) != d1:
        raise SpectrumError(
            f"first observable has {len(clusters)} distinct eigenvalues with "
            f"multiplicities {[c[1].stop - c[1].start for c in clusters]}, expected {d1}"
        )
    clusters.sort(key=lambda c: -c[0])
    f_labels = tuple(f"F={c[0]:.12g}" for c in clusters)

    columns = []
    g_grid = None
    for fval, block in clusters:
        w = fvecs[:, block]
        mult = w.shape[1]
        if mult != d2:
            raise SpectrumError(
                f"eigenvalue {fval:.6g} of the first observable has multiplicity "
                f"{mult}, expected {d2}"
            )
        restricted = w.conj().T @ g_obs @ w
        gvals, gvecs = eigh(restricted, herm_tol * 10)
        order = np.argsort(-gvals, kind="stable")
        gvals = gvals[order]
        gvecs = gvecs[:, order]
        gscale = max(1.0, float(np.max(np.abs(gvals))))
        if d2 > 1 and np.min(np.abs(np.diff(gvals))) <= cluster_tol * gscale:
            raise SpectrumError(
                f"second observable is degenerate inside the F={fval:.6g} eigenspace: "
                f"eigenvalues {gvals.tolist()}"
            )
        if g_grid is None:
            g_grid = gvals
        elif np.max(np.abs(gvals - g_grid)) > cluster_tol * gscale:
            raise SpectrumError(
                f"G-spectrum {gvals.tolist()} inside the F={fval:.6g} eigenspace "
                f"differs from the first eigenspace's {g_grid.tolist()}"
            )
        for t in range(d2):
            col = w @ gvecs[:, t]
            columns.append(col * _fix_phase(col))
    u = np.column_stack(columns)
    g_labels = tuple(f"G={v:.12g}" for v in g_grid)
    return TensorProductStructure(d1, d2, u, label_left=f_labels, label_right=g_labels)


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
