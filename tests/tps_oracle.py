"""Dense-matrix routes for TPS reads: the test-side oracles for relabelings and qcf_local.

A TPS never forms its permutation matrix or its Householder reflector, and
``qcf_local`` reads its covariance from traces on the d1 x d2 coefficient
matrix.  The routes here do all three with D x D matrices instead: the
permutation unitary is built from the bijection's targets, the
reflector from its vector, and the local observables are lifted to global
operators before the plain covariance is taken.  The eigen-route to the chi
basis, which ``spins.chi_basis`` writes in closed form as the Bell basis,
lives here as well.
"""

import numpy as np

from tpslab.qcf import qcf
from tpslab.spins import TOTAL_X2, TOTAL_Z2


def permutation_matrix(bij) -> np.ndarray:
    """Dense unitary of the relabeling TPS of bij: P[i*d2 + j, map(i, j)] = 1."""
    dim = bij.d1 * bij.d2
    p = np.zeros((dim, dim), dtype=complex)
    p[np.arange(dim), bij.targets] = 1.0
    return p


def reflector_matrix(w) -> np.ndarray:
    """Dense Householder reflector I - 2 w w^dagger / |w|^2."""
    w = np.asarray(w, dtype=complex)
    return np.eye(w.size) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real


def dense_unitary(tps) -> np.ndarray:
    """Dense factorization unitary R P of a TPS: its rotation times its permutation."""
    r = np.eye(tps.dim, dtype=complex)
    if tps.unitary is not None:
        r = tps.unitary
    elif tps.reflector is not None:
        r = reflector_matrix(tps.reflector)
    return r if tps.relabeling is None else r @ permutation_matrix(tps.relabeling)


def qcf_local_global(a1, b2, psi, u) -> complex:
    """Covariance of u (A (x) 1) u^dagger and u (1 (x) B) u^dagger in psi."""
    a1 = np.asarray(a1, dtype=complex)
    b2 = np.asarray(b2, dtype=complex)
    a_global = u @ np.kron(a1, np.eye(b2.shape[0])) @ u.conj().T
    b_global = u @ np.kron(np.eye(a1.shape[0]), b2) @ u.conj().T
    return qcf(a_global, b_global, psi)


def chi_rows_from_eigh() -> np.ndarray:
    """Rows chi_{s,t} (row s*2+t) as the eigenvectors of 2 z2 + x2 from numpy's eigh.

    The eigenvalue 2s + t is 3, 2, 1, 0 for (s, t) = (1, 1), (1, 0), (0, 1), (0, 0),
    so the ascending columns are reversed; each is then phased so that its first
    largest-modulus entry is real and positive.
    """
    _, vecs = np.linalg.eigh(2.0 * TOTAL_Z2 + TOTAL_X2)
    rows = vecs[:, ::-1].T.copy()
    for row in rows:
        pivot = row[np.argmax(np.abs(row))]
        row *= np.conj(pivot) / abs(pivot)
    return rows
