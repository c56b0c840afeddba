"""Schmidt decomposition and rank verdicts."""

import numpy as np
from tps_oracle import permutation_matrix, schmidt_reconstruct

from tpslab.linalg import tensor_vec
from tpslab.sampling import haar_state, random_product_pair
from tpslab.schmidt import schmidt, schmidt_values
from tpslab.spins import chi_basis
from tpslab.tps import trivial_tps

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
    tps, rows = chi_basis()
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    oracle = np.linalg.svd((rows.conj() @ e0).reshape(2, 2), compute_uv=False)
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
        mapped = permutation_matrix(tps.relabeling).conj().T @ psi
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


def test_schmidt_values_match_full_decomposition():
    rng = np.random.default_rng(7)
    psi = haar_state(6, rng)
    np.testing.assert_allclose(
        schmidt_values(psi, trivial_tps(2, 3)),
        schmidt(psi, trivial_tps(2, 3)).coefficients,
        atol=1e-14,
    )
