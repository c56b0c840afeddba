"""Two-spin demo: total-spin squares, the chi basis, and the covariance closed form."""

import sys

import numpy as np
import pytest
from demo_oracle import spins_loop
from tps_oracle import chi_rows_from_eigh

from tpslab.errors import ContractError, SizeLimitError
import tpslab.linalg
from tpslab.linalg import MAX_GLOBAL_DIM, tensor_op
from tpslab.qcf import qcf
from tpslab.sampling import haar_state
from tpslab.schmidt import schmidt
from tpslab.spins import (
    CHI_ROWS,
    SPIN_X,
    SPIN_Y,
    SPIN_Z,
    TOTAL_X2,
    TOTAL_Z2,
    _spin_samples,
    chi_basis,
    demo_spins,
    spin_qcf_closed_form,
)

SQ2 = np.sqrt(2.0)

# the toolkit's units have hbar = 1; expected values keep hbar to show where it enters


@pytest.mark.parametrize("hbar", [1.0])
def test_spin_operator_eigenvalues(hbar):
    for s in (SPIN_X, SPIN_Y, SPIN_Z):
        w = np.linalg.eigvalsh(s)
        np.testing.assert_allclose(w, [-hbar / 2, hbar / 2], atol=1e-12)


def test_spin_squares_are_scalar():
    np.testing.assert_allclose(SPIN_X @ SPIN_X, np.eye(2) / 4.0, atol=1e-14)


@pytest.mark.parametrize("hbar", [1.0])
def test_spin_commutators(hbar):
    np.testing.assert_allclose(
        SPIN_X @ SPIN_Y - SPIN_Y @ SPIN_X, 1j * hbar * SPIN_Z, atol=1e-12
    )
    np.testing.assert_allclose(
        SPIN_Y @ SPIN_Z - SPIN_Z @ SPIN_Y, 1j * hbar * SPIN_X, atol=1e-12
    )
    np.testing.assert_allclose(
        SPIN_Z @ SPIN_X - SPIN_X @ SPIN_Z, 1j * hbar * SPIN_Y, atol=1e-12
    )


@pytest.mark.parametrize("hbar", [1.0])
def test_total_spin_squares_structure(hbar):
    np.testing.assert_allclose(
        TOTAL_Z2,
        hbar**2 / 2 * np.eye(4) + 2 * tensor_op(SPIN_Z, SPIN_Z),
        atol=1e-14,
    )
    assert np.max(np.abs(TOTAL_Z2 @ TOTAL_X2 - TOTAL_X2 @ TOTAL_Z2)) <= 1e-12
    for sq in (TOTAL_Z2, TOTAL_X2):
        w = np.sort(np.linalg.eigvalsh(sq))
        np.testing.assert_allclose(w, [0.0, 0.0, hbar**2, hbar**2], atol=1e-12)


def test_total_spin_square_eigenstates():
    up_up = np.array([1, 0, 0, 0], dtype=complex)
    up_down = np.array([0, 1, 0, 0], dtype=complex)
    np.testing.assert_allclose(TOTAL_Z2 @ up_up, up_up, atol=1e-14)
    np.testing.assert_allclose(TOTAL_Z2 @ up_down, np.zeros(4), atol=1e-14)


def test_chi_basis_matches_known_matrix():
    # rows (s, t) over the product basis (uu, ud, du, dd), hbar^2 before 0:
    #   chi_11 = (uu + dd)/sqrt(2), chi_10 = (uu - dd)/sqrt(2),
    #   chi_01 = (ud + du)/sqrt(2), chi_00 = (ud - du)/sqrt(2)
    rows = chi_basis().unitary.T
    expected = np.array(
        [
            [1, 0, 0, 1],
            [1, 0, 0, -1],
            [0, 1, 1, 0],
            [0, 1, -1, 0],
        ]
    ) / SQ2
    np.testing.assert_allclose(np.abs(rows), np.abs(expected), atol=1e-12)
    # phases are fixed, so the match is exact, not just entrywise modulus
    np.testing.assert_allclose(rows, expected, atol=1e-12)


def test_chi_basis_equals_the_eigh_oracle_bit_for_bit():
    oracle = chi_rows_from_eigh()
    assert np.array_equal(CHI_ROWS, oracle)
    assert np.array_equal(chi_basis().unitary, oracle.T)


@pytest.mark.parametrize("hbar", [1.0])
def test_chi_vectors_satisfy_both_eigenvalue_equations(hbar):
    rows = chi_basis().unitary.T
    eigs = [(1, 1), (1, 0), (0, 1), (0, 0)]  # (s, t) per row
    for k, (s, t) in enumerate(eigs):
        chi = rows[k]
        np.testing.assert_allclose(TOTAL_Z2 @ chi, s * hbar**2 * chi, atol=1e-12)
        np.testing.assert_allclose(TOTAL_X2 @ chi, t * hbar**2 * chi, atol=1e-12)


def test_closed_form_vanishes_for_both_up():
    up = np.array([1.0, 0.0], dtype=complex)
    assert spin_qcf_closed_form(up, up) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("hbar", [1.0])
def test_closed_form_both_plus_y(hbar):
    plus_y = np.array([1.0, 1j]) / SQ2
    val = spin_qcf_closed_form(plus_y, plus_y)
    assert val == pytest.approx(-(hbar**4) / 4.0, abs=1e-12)


def test_closed_form_matches_direct_covariance():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        psi1, psi2 = haar_state(2, rng), haar_state(2, rng)
        direct = qcf(TOTAL_Z2, TOTAL_X2, np.kron(psi1, psi2))
        closed = spin_qcf_closed_form(psi1, psi2)
        worst = max(worst, abs(direct - closed))
    assert worst <= 1e-12


def test_closed_form_rejects_unnormalized():
    with pytest.raises(ContractError):
        spin_qcf_closed_form(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


def test_demo_spins_builds_no_spin_operator(monkeypatch):
    # the spin operators and total-spin squares are module constants; the one matrix
    # check left is the chi unitary's, in chi_basis()
    calls = []
    for name in ("tensor_op", "as_matrix"):
        original = getattr(tpslab.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("tpslab")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    demo_spins(samples=3, seed=0)
    assert calls == ["as_matrix"]


def test_demo_spins_report():
    report = demo_spins(samples=2000, seed=7)
    assert report.closed_form_residual_max <= 1e-12
    assert report.fraction_nonzero >= 0.99
    # the four z-product basis states are the stationary exceptions: they stay
    # factorizable in the chi TPS (all transverse expectations vanish)
    assert report.chi_tps_rank_examples == (1, 1, 1, 1)
    # generic product states become entangled there
    assert report.sampled_rank2_fraction >= 0.99


def test_demo_spins_deterministic():
    a = demo_spins(samples=200, seed=5)
    b = demo_spins(samples=200, seed=5)
    assert a == b


def test_generic_product_state_rank_two_in_chi_tps():
    tps = chi_basis()
    plus_y = np.array([1.0, 1j]) / SQ2
    vals = schmidt(np.kron(plus_y, plus_y), tps).coefficients
    assert vals[1] > 1e-3 * vals[0]


def test_demo_spins_rejects_zero_samples():
    with pytest.raises(ContractError):
        demo_spins(samples=0, seed=42)


@pytest.mark.parametrize("seed,samples", [(42, 1000), (9, 300), (303, 10000)])
def test_stacked_spins_match_per_sample_loop(seed, samples):
    oracle = spins_loop(samples, seed)
    psi1, psi2, psi, direct, closed = _spin_samples(samples, seed)
    for got, key in ((psi1, "psi1"), (psi2, "psi2"), (direct, "direct"), (closed, "closed")):
        assert np.max(np.abs(got - oracle[key])) <= 1e-14, key
    products = np.array([np.kron(a, b) for a, b in zip(oracle["psi1"], oracle["psi2"])])
    assert np.max(np.abs(psi - products)) <= 1e-14
    report = demo_spins(samples=samples, seed=seed)
    assert report.fraction_nonzero == np.count_nonzero(np.abs(oracle["direct"]) > 1e-8) / samples
    assert report.sampled_rank2_fraction == np.count_nonzero(oracle["rank"] == 2) / samples
    assert report.chi_tps_rank_examples == tuple(oracle["basis_ranks"])
    residuals = np.abs(oracle["direct"] - oracle["closed"])
    assert abs(report.closed_form_residual_max - residuals.max()) <= 1e-14
    assert np.max(np.abs(report.residuals - residuals)) <= 1e-14
    assert np.max(np.abs(report.qcf_values - oracle["direct"].real)) <= 1e-14


def test_stacked_haar_draws_consume_the_stream_like_single_draws():
    rng = np.random.default_rng(17)
    stacked = haar_state(3, rng, (5, 2))
    single = np.random.default_rng(17)
    np.testing.assert_array_equal(
        stacked, [[haar_state(3, single) for _ in range(2)] for _ in range(5)]
    )
    assert rng.normal() == single.normal()


def test_demo_spins_rejects_more_samples_than_the_cap():
    with pytest.raises(SizeLimitError):
        demo_spins(samples=MAX_GLOBAL_DIM + 1, seed=42)


@pytest.mark.parametrize("psi1,psi2", [(np.ones(3) / np.sqrt(3), np.array([1.0, 0.0])),
                                       (np.array([1.0, 0.0]), np.ones(3) / np.sqrt(3))],
                         ids=["first", "second"])
def test_closed_form_rejects_a_state_that_is_not_one_spin(psi1, psi2):
    with pytest.raises(ContractError, match="two single-spin states"):
        spin_qcf_closed_form(psi1, psi2)
