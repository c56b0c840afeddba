"""Dense-matrix routes for TPS reads: the test-side oracles for relabelings and qcf_local.

A TPS never forms its permutation matrix or its Householder reflector, and
``qcf_local`` reads its covariance from traces on the d1 x d2 coefficient
matrix.  The routes here do all three with D x D matrices instead: the
permutation unitary is built from the bijection's targets, the
reflector from its vector, and the local observables are lifted to global
operators before the plain covariance is taken.  The reconstructions of an
SVD and of a Schmidt decomposition from their factors live here as well.
"""

import numpy as np

from tpslab.qcf import qcf


def permutation_matrix(bij) -> np.ndarray:
    """Dense unitary of ``relabel_tps(bij)``: P[i*d2 + j, map(i, j)] = 1."""
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


def svd_reconstruct(res) -> np.ndarray:
    """left @ diag(singular_values) @ right^dagger of a linalg.SvdResult."""
    return (res.left * res.singular_values) @ res.right.conj().T


def schmidt_reconstruct(sd) -> np.ndarray:
    """sum_k alpha_k left[:, k] (x) right[:, k], in the TPS product coordinates."""
    terms = sd.left_basis * sd.coefficients
    out = np.zeros(sd.left_basis.shape[0] * sd.right_basis.shape[0], dtype=complex)
    for k in range(sd.coefficients.size):
        out += np.kron(terms[:, k], sd.right_basis[:, k])
    return out
