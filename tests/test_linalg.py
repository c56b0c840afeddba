"""Core linear-algebra kernels: expectations, the observable limits,
and the SVD contracts of ``schmidt``: coefficients, rank, a wrapped non-convergence."""

import numpy as np
import pytest

from samplers import random_hermitian, random_unitary

from tpslab.errors import ContractError, NumericalError, ShapeError
from tpslab.linalg import (
    HERMITIAN_TOL,
    MAX_MATRIX_NORM,
    _expectation,
    as_matrix,
    as_vector,
    check_hermitian,
)
from tpslab.qcf import qcf, qcf_local
from tpslab.schmidt import schmidt
from tpslab.spins import PAULI_X, PAULI_Y, PAULI_Z
from tpslab.tps import trivial_tps

SQ2 = np.sqrt(2.0)


def unit(mat) -> np.ndarray:
    """The matrix as a unit state, whose coefficient matrix in the trivial TPS is mat/|mat|."""
    mat = np.asarray(mat, dtype=complex)
    return mat.ravel() / np.linalg.norm(mat)


def test_svd_diagonal():
    sd = schmidt(unit(np.diag([3.0, 2.0])), trivial_tps(2, 2))
    np.testing.assert_allclose(sd.coefficients, np.array([3.0, 2.0]) / np.sqrt(13.0))


def test_svd_rank_one_outer_product():
    rng = np.random.default_rng(5)
    u = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    sd = schmidt(unit(np.outer(u, v.conj())), trivial_tps(4, 3))
    np.testing.assert_allclose(sd.coefficients[0], 1.0, rtol=1e-12)
    np.testing.assert_allclose(sd.coefficients[1:], 0.0, atol=1e-12)
    assert sd.rank == 1


def test_svd_nonconvergence_wrapped(monkeypatch):
    def boom(*a, **k):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", boom)
    with pytest.raises(NumericalError, match="converge"):
        schmidt(unit(np.eye(3)), trivial_tps(3, 3))


def test_expectation_identity():
    psi = np.array([1, 1j, -1, 1]) / 2.0
    assert _expectation(np.eye(4), psi) == pytest.approx(1.0, abs=1e-12)


def test_expectation_pauli_z_plus_state():
    sz = np.diag([1.0, -1.0])
    psi = np.array([1.0, 1.0]) / SQ2
    assert _expectation(sz, psi) == pytest.approx(0.0, abs=1e-12)


def test_expectation_takes_the_hermitian_part_of_a_near_hermitian_observable():
    # a defect inside HERMITIAN_TOL no longer trips the imaginary-part check
    a = check_hermitian([[0, 1e-9j], [0, 0]])
    assert _expectation(a, np.array([1.0, 1.0]) / SQ2) == 0.0


def test_an_imaginary_expectation_beyond_the_tolerance_is_refused():
    # check_hermitian makes every observable that reaches the guard exactly Hermitian,
    # so only the unchecked core shows it: <psi, [[0, 1], [0, 0]] psi> = i/2
    psi = np.array([1.0, 1.0j]) / SQ2
    with pytest.raises(NumericalError,
                       match=r"^expectation has imaginary part 5\.000e-01 beyond 1e-10$"):
        _expectation(np.array([[0.0, 1.0], [0.0, 0.0]]), psi)


def test_check_hermitian_returns_the_hermitian_part():
    a = np.array([[1.0, 2.0 + 1e-9j], [2.0, -1.0]])
    h = check_hermitian(a)
    assert np.array_equal(h, h.conj().T)
    assert np.array_equal(h, (a + a.conj().T) / 2)


def test_check_hermitian_keeps_exact_hermitian_matrices_bit_for_bit():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 4, 9, 16):
        for _ in range(20):
            a = random_hermitian(dim, rng) * 10.0 ** rng.integers(-8, 9)
            assert check_hermitian(a).tobytes() == a.tobytes()
    # signed zeros and the Paulis too
    for a in (np.array([[-0.0, 0.0], [0.0, complex(0.0, -0.0)]]), PAULI_X, PAULI_Y, PAULI_Z):
        assert check_hermitian(a).tobytes() == np.asarray(a, dtype=complex).tobytes()


def rotated_spectrum(rng, k: int) -> np.ndarray:
    """V diag(l) V^dagger for a Haar V of size 2 to 8 and eigenvalues of size 10^k; its
    rounding leaves a Hermiticity defect near 1e-16 times 10^k."""
    n = int(rng.integers(2, 9))
    v = random_unitary(n, rng)
    return (v * rng.uniform(-1.0, 1.0, n) * 10.0**k) @ v.conj().T


@pytest.mark.parametrize("k", range(9))
def test_rounded_observables_pass_the_hermitian_check_at_every_scale(k):
    # an absolute 1e-9 refused most of these at 10^8, whose defects reach 1.5e-8
    rng = np.random.default_rng(700 + k)
    for _ in range(200):
        a = rotated_spectrum(rng, k)
        np.testing.assert_array_equal(check_hermitian(a), (a + a.conj().T) / 2)


@pytest.mark.parametrize("k", range(9))
def test_a_relative_hermitian_defect_of_1e_6_is_refused_at_every_scale(k):
    rng = np.random.default_rng(710 + k)
    for _ in range(50):
        a = rotated_spectrum(rng, k)
        a = (a + a.conj().T) / 2
        a[0, 1] += 1e-6 * max(1.0, float(np.abs(a).sum(axis=1).max()))
        with pytest.raises(ContractError, match="observable is not Hermitian"):
            check_hermitian(a)


def test_the_hermitian_tolerance_is_absolute_below_unit_norm():
    # max(1, |a|inf) keeps small observables at the plain 1e-9
    a = np.array([[0.0, 1e-3 + 2 * HERMITIAN_TOL], [1e-3, 0.0]])
    with pytest.raises(ContractError, match="observable is not Hermitian"):
        check_hermitian(a)
    check_hermitian(np.array([[0.0, 1e-3 + HERMITIAN_TOL / 2], [1e-3, 0.0]]))


def test_expectation_requires_unit_state():
    # the covariance is the checked route to the expectations
    with pytest.raises(ContractError, match="state norm"):
        qcf(np.eye(2), np.eye(2), np.array([1.0, 1.0]))


def test_rejects_non_finite_entries():
    with pytest.raises(ContractError, match="vector contains non-finite entries"):
        as_vector([1.0, np.nan])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_as_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ContractError, match="matrix contains non-finite entries"):
        as_matrix([[1.0, bad], [0.0, 1.0]])


BIG = np.diag([1e200, 1e200])  # Hermitian, finite, and of Frobenius norm above MAX_MATRIX_NORM
BIG4 = np.kron(BIG, np.eye(2))


@pytest.mark.parametrize(
    "call",
    [
        lambda psi: qcf(BIG4, BIG4, psi),
        lambda psi: qcf_local(BIG, BIG, psi, trivial_tps(2, 2)),
    ],
    ids=["qcf", "qcf_local"],
)
def test_observables_above_the_norm_limit_are_refused_before_any_overflow(call):
    # without the limit <A B> reaches 1e400 and overflows to inf with a RuntimeWarning
    assert BIG[0, 0] > MAX_MATRIX_NORM
    with pytest.raises(ContractError, match="Frobenius norm"):
        call(np.full(4, 0.5, dtype=complex))


def test_observable_at_the_norm_limit_is_accepted():
    a = check_hermitian(np.diag([MAX_MATRIX_NORM, 0.0]))
    assert _expectation(a, np.array([1.0, 0.0])) == MAX_MATRIX_NORM


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_hermitian(np.ones((2, 3))),
        lambda: as_vector(np.ones((2, 2))),
        lambda: as_vector(1.0),
        lambda: as_matrix(np.ones(4)),
        lambda: as_matrix(np.ones((2, 2, 2))),
    ],
    ids=["non-square-observable", "vector-of-rank-2",
         "vector-of-rank-0", "matrix-of-rank-1", "matrix-of-rank-3"],
)
def test_mismatched_shapes_raise_shape_error(call):
    with pytest.raises(ShapeError):
        call()
