"""Schmidt decomposition and rank verdicts."""

import numpy as np
import pytest
from tps_oracle import dense_unitary, schmidt_reconstruct

from tpslab.errors import NumericalError
from tpslab.linalg import tensor_vec
from tpslab.sampling import haar_state, random_product_pair, random_unitary
from tpslab.schmidt import rank_from_singular_values, schmidt, spectra
from tpslab.spins import CHI_ROWS, chi_basis
from tpslab.tps import TensorProductStructure, _coefficients, random_bijection, trivial_tps

SQ2 = np.sqrt(2.0)
BELL = np.array([1, 0, 0, 1], dtype=complex) / SQ2


def test_product_state_rank_one():
    rng = np.random.default_rng(0)
    u, v = random_product_pair(3, 4, rng)
    sd = schmidt(tensor_vec(u, v), trivial_tps(3, 4))
    assert sd.rank == 1
    np.testing.assert_allclose(sd.coefficients[0], 1.0, atol=1e-12)


def test_bell_state_coefficients():
    sd = schmidt(BELL, trivial_tps(2, 2))
    assert sd.rank == 2
    np.testing.assert_allclose(sd.coefficients, [1 / SQ2, 1 / SQ2], atol=1e-12)


def test_spin_basis_state_in_chi_tps():
    # brute-force oracle: reshape row of the chi change-of-basis and SVD.
    # up-up = (chi_11 + chi_10)/sqrt(2) factorizes over the (s, t) labels,
    # so its Schmidt spectrum is (1, 0) and the rank is 1.
    tps = chi_basis()
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    oracle = np.linalg.svd((CHI_ROWS.conj() @ e0).reshape(2, 2), compute_uv=False)
    sd = schmidt(e0, tps)
    np.testing.assert_allclose(sd.coefficients, oracle, atol=1e-12)
    np.testing.assert_allclose(sd.coefficients, [1.0, 0.0], atol=1e-12)
    assert sd.rank == 1


def test_reconstruction_matches_mapped_state():
    rng = np.random.default_rng(1)
    for d1, d2 in [(2, 2), (3, 2), (3, 3)]:
        psi = haar_state(d1 * d2, rng)
        tps = trivial_tps(d1, d2)
        sd = schmidt(psi, tps)
        mapped = dense_unitary(tps).conj().T @ psi
        assert np.linalg.norm(schmidt_reconstruct(sd) - mapped) <= 1e-9


def test_rank_bounded_by_min_factor_dimension():
    rng = np.random.default_rng(2)
    for d1, d2 in [(2, 5), (4, 3), (2, 2)]:
        for _ in range(10):
            sd = schmidt(haar_state(d1 * d2, rng), trivial_tps(d1, d2))
            assert sd.rank <= min(d1, d2)
            np.testing.assert_allclose(np.sum(sd.coefficients**2), 1.0, atol=1e-10)
            # bases orthonormal
            k = sd.coefficients.size
            np.testing.assert_allclose(
                sd.left_basis.conj().T @ sd.left_basis, np.eye(k), atol=1e-10
            )
            np.testing.assert_allclose(
                sd.right_basis.conj().T @ sd.right_basis, np.eye(k), atol=1e-10
            )


def test_decomposition_idempotent_on_reconstruction():
    rng = np.random.default_rng(3)
    psi = haar_state(12, rng)
    tps = trivial_tps(3, 4)
    sd = schmidt(psi, tps)
    again = schmidt(schmidt_reconstruct(sd), tps)
    np.testing.assert_allclose(again.coefficients, sd.coefficients, atol=1e-10)


def test_truncation_tolerance_controls_rank():
    eps = 1e-6
    psi = np.array([1.0, 0, 0, eps], dtype=complex)
    psi /= np.linalg.norm(psi)
    loose = schmidt(psi, trivial_tps(2, 2), truncation_tol=1e-3)
    tight = schmidt(psi, trivial_tps(2, 2), truncation_tol=1e-10)
    assert loose.rank == 1 and tight.rank == 2


def test_spectra_of_a_stack_are_each_states_schmidt_coefficients():
    rng = np.random.default_rng(21)
    tps = TensorProductStructure(2, 3, random_unitary(6, rng), random_bijection(2, 3, rng))
    stack = haar_state(6, rng, (4, 3))
    values = spectra(stack, tps)
    assert values.shape == (4, 3, 2)
    for psi, v in zip(stack.reshape(12, 6), values.reshape(12, 2)):
        np.testing.assert_allclose(v, schmidt(psi, tps).coefficients, rtol=0, atol=1e-14)
    np.testing.assert_allclose(spectra(stack[0, 0], tps), values[0, 0], rtol=0, atol=1e-14)


def test_spectra_wrap_svd_nonconvergence(monkeypatch):
    def boom(*a, **k):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", boom)
    with pytest.raises(NumericalError, match=r"SVD of \(5, 2, 3\) coefficients did not converge"):
        spectra(haar_state(6, np.random.default_rng(0), (5,)), trivial_tps(2, 3))


@pytest.mark.parametrize("tps", [trivial_tps(2, 2), chi_basis()], ids=["trivial", "chi"])
def test_two_by_two_spectra_refuse_a_nan_coefficient(tps):
    stack = haar_state(4, np.random.default_rng(0), (5,))
    stack[3, 1] = np.nan
    for psi in (stack, stack[3]):
        with pytest.raises(NumericalError, match="did not converge"):
            spectra(psi, tps)


def two_qubit_families(rng) -> np.ndarray:
    """Haar states, products, maximally entangled states U/sqrt(2) (whose two equal
    coefficients can round apart), the z and Bell bases, cos t|00> + sin t|11>
    (t = pi/4 included) and the zero vector, as one (n, 4) stack."""
    theta = np.append(np.linspace(0.0, np.pi, 101), np.pi / 4)
    return np.concatenate([
        haar_state(4, rng, (500,)),
        [tensor_vec(*random_product_pair(2, 2, rng)) for _ in range(200)],
        [random_unitary(2, rng).reshape(4) / SQ2 for _ in range(200)],
        np.eye(4),
        CHI_ROWS,
        np.outer(np.cos(theta), [1, 0, 0, 0]) + np.outer(np.sin(theta), [0, 0, 0, 1]),
        np.zeros((1, 4)),
    ]).astype(complex)


@pytest.mark.parametrize("tps", [trivial_tps(2, 2), chi_basis()], ids=["trivial", "chi"])
def test_two_by_two_closed_form_matches_numpy_svd(tps):
    # the oracle is numpy's SVD of the same coefficient matrices, which spectra
    # no longer takes for a 2 x 2 TPS
    psi = two_qubit_families(np.random.default_rng(24))
    values = spectra(psi, tps)
    oracle = np.linalg.svd(_coefficients(psi, tps), compute_uv=False)
    assert np.abs(values - oracle).max() <= 2e-15
    assert np.all(values[:, 0] >= values[:, 1])
    np.testing.assert_array_equal(rank_from_singular_values(values, 1e-10),
                                  rank_from_singular_values(oracle, 1e-10))
    np.testing.assert_array_equal(np.array([spectra(v, tps) for v in psi]), values)
