"""Quantum covariance function: vanishing theorem, witness verdicts, variances."""

import numpy as np
import pytest
from samplers import random_hermitian, random_product_pair, random_unitary
from tps_oracle import qcf_local_global

from tpslab.errors import ContractError, ShapeError
from tpslab.qcf import (
    ENTANGLED_WITNESSED,
    INCONCLUSIVE,
    default_witness_threshold,
    qcf,
    qcf_local,
)
from tpslab.sampling import haar_state
from tpslab.schmidt import schmidt
from tpslab.spins import chi_basis
from tpslab.tps import TensorProductStructure, random_bijection, trivial_tps

SQ2 = np.sqrt(2.0)
BELL = np.array([1, 0, 0, 1], dtype=complex) / SQ2
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_identity_pair_vanishes():
    psi = haar_state(4, np.random.default_rng(0))
    assert qcf(np.eye(4), np.eye(4), psi) == pytest.approx(0.0, abs=1e-14)


def test_bell_state_zx_vanishes_despite_entanglement():
    # direct 4-dim oracle: <sz (x) sx> = 0 and <sz (x) I> = <I (x) sx> = 0
    value = qcf(np.kron(SZ, I2), np.kron(I2, SX), BELL)
    assert abs(value) <= 1e-14
    vals = schmidt(BELL, trivial_tps(2, 2)).coefficients
    assert vals[1] > 0.5  # vanishing covariance does not imply factorizable


def test_bell_state_zz_is_one():
    value = qcf(np.kron(SZ, I2), np.kron(I2, SZ), BELL)
    assert value.real == pytest.approx(1.0, abs=1e-12)
    assert value.imag == pytest.approx(0.0, abs=1e-12)


def test_qcf_real_for_commuting_pairs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_hermitian(3, rng)
        b = a @ a  # commutes with a
        psi = haar_state(3, rng)
        assert abs(qcf(a, b, psi).imag) <= 1e-10


def test_qcf_rejects_non_hermitian():
    with pytest.raises(ContractError):
        qcf(np.array([[0, 1], [0, 0]], dtype=complex), I2, np.array([1, 0], dtype=complex))


def test_qcf_rejects_dimension_mismatch():
    with pytest.raises(ShapeError):
        qcf(I2, I2, BELL)


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 3)])
def test_product_states_always_inconclusive(d1, d2):
    rng = np.random.default_rng(d1 * 11 + d2)
    tps = trivial_tps(d1, d2)
    for _ in range(50):
        u, v = random_product_pair(d1, d2, rng)
        psi = np.kron(u, v)
        rep = qcf_local(random_hermitian(d1, rng), random_hermitian(d2, rng), psi, tps)
        assert abs(rep.value) <= rep.witness_threshold
        assert rep.verdict == INCONCLUSIVE


def test_bell_local_zz_witnesses_entanglement():
    rep = qcf_local(SZ, SZ, BELL, trivial_tps(2, 2))
    assert rep.value.real == pytest.approx(1.0, abs=1e-12)
    assert rep.verdict == ENTANGLED_WITNESSED


def test_bell_local_zx_inconclusive():
    rep = qcf_local(SZ, SX, BELL, trivial_tps(2, 2))
    assert abs(rep.value) <= rep.witness_threshold
    assert rep.verdict == INCONCLUSIVE


def test_witness_threshold_scales_with_dimension():
    assert default_witness_threshold(4, SZ, SX) == pytest.approx(4e-12)
    # and with the observables' largest absolute row sums, here 3 and 2, never below 1
    assert default_witness_threshold(4, 3.0 * SZ, SX + SZ) == pytest.approx(4e-12 * 3.0 * 2.0)
    assert default_witness_threshold(4, 0.1 * SZ, SX) == pytest.approx(4e-12)


def product_in(tps: TensorProductStructure, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The state whose coefficients in tps are u (x) v."""
    c = np.kron(u, v)
    if tps.relabeling is not None:
        c = c[tps.relabeling.targets]
    return c if tps.unitary is None else tps.unitary @ c


@pytest.mark.parametrize("k", range(9))
@pytest.mark.parametrize("which", ["trivial", "chi", "relabeling"])
def test_product_states_are_never_witnessed_at_any_observable_scale(which, k):
    # Q = 0 exactly on a product state; the rounding of the three traces grows as
    # |A| |B|, and so does the default threshold
    rng = np.random.default_rng(70 + k)
    tps = {"trivial": trivial_tps(3, 2), "chi": chi_basis(),
           "relabeling": TensorProductStructure(3, 3, relabeling=random_bijection(3, 3, rng)),
           }[which]
    for _ in range(50):
        u, v = haar_state(tps.d1, rng), haar_state(tps.d2, rng)
        a1, b2 = (10.0**k * random_hermitian(d, rng) for d in (tps.d1, tps.d2))
        rep = qcf_local(a1, b2, product_in(tps, u, v), tps)
        assert rep.verdict == INCONCLUSIVE, (rep.value, rep.witness_threshold)


def test_witnessed_verdict_implies_rank_two():
    # soundness: witnessed => Schmidt rank >= 2 in the same TPS
    rng = np.random.default_rng(2)
    tps = trivial_tps(2, 2)
    hits = 0
    for _ in range(100):
        psi = haar_state(4, rng)
        rep = qcf_local(random_hermitian(2, rng), random_hermitian(2, rng), psi, tps)
        if rep.verdict == ENTANGLED_WITNESSED:
            hits += 1
            vals = schmidt(psi, tps).coefficients
            assert vals[1] > 1e-10 * vals[0]
    assert hits > 50  # random states are almost surely entangled and detected


# the variance of A is its covariance with itself, Q(A, A, psi) = <A^2> - <A>^2


def test_variance_eigenvector_is_zero():
    psi = np.array([1.0, 0.0], dtype=complex)
    assert qcf(SZ, SZ, psi) == pytest.approx(0.0, abs=1e-14)


def test_variance_pauli_z_plus_state():
    psi = np.array([1.0, 1.0], dtype=complex) / SQ2
    assert qcf(SZ, SZ, psi) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [np.pi / 8, 0.3, 1.1])
def test_variance_trigonometric_oracle(theta):
    psi = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    expected = 1.0 - np.cos(2 * theta) ** 2
    assert qcf(SZ, SZ, psi) == pytest.approx(expected, abs=1e-12)
    if theta == np.pi / 8:
        assert qcf(SZ, SZ, psi) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("k", range(9))
def test_variance_of_a_scaled_identity_vanishes_to_rounding(k):
    # exactly 0; the rounding of <A^2> - <A>^2 grows as |A|^2
    s = 10.0**k
    rng = np.random.default_rng(80 + k)
    for _ in range(50):
        assert abs(qcf(s * np.eye(4), s * np.eye(4), haar_state(4, rng))) <= 1e-12 * s * s


def test_qcf_complex_for_noncommuting_pair():
    # <sx sy> = i <sz>, so the covariance picks up an imaginary part
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    value = qcf(SX, sy, psi)
    assert value.imag == pytest.approx(1.0, abs=1e-12)
    assert value.real == pytest.approx(0.0, abs=1e-12)


def test_qcf_local_embeds_through_nontrivial_tps():
    from tpslab.spins import chi_basis

    tps = chi_basis()
    rng = np.random.default_rng(9)
    a1 = random_hermitian(2, rng)
    b2 = random_hermitian(2, rng)
    psi = haar_state(4, rng)
    rep = qcf_local(a1, b2, psi, tps)
    assert abs(rep.value - qcf_local_global(a1, b2, psi, tps.unitary)) <= 1e-12


@pytest.mark.parametrize("d1,d2", [(2, 3), (3, 3), (4, 2)])
def test_qcf_local_matches_global_operator_oracle_on_random_dense_tps(d1, d2):
    rng = np.random.default_rng(20 + d1 * d2)
    tps = TensorProductStructure(d1, d2, random_unitary(d1 * d2, rng))
    for _ in range(10):
        a1, b2 = random_hermitian(d1, rng), random_hermitian(d2, rng)
        psi = haar_state(d1 * d2, rng)
        value = qcf_local(a1, b2, psi, tps).value
        assert abs(value - qcf_local_global(a1, b2, psi, tps.unitary)) <= 1e-12


def test_qcf_local_product_in_chi_tps_vanishes():
    # a state that is a product *in the chi TPS* must give zero covariance
    # for chi-local observables, even though it is entangled in the trivial TPS
    from tpslab.spins import chi_basis

    tps = chi_basis()
    rng = np.random.default_rng(10)
    u, v = random_product_pair(2, 2, rng)
    psi = tps.unitary @ np.kron(u, v)  # product over the chi factors
    rep = qcf_local(random_hermitian(2, rng), random_hermitian(2, rng), psi, tps)
    assert rep.verdict == INCONCLUSIVE
    vals = schmidt(psi, trivial_tps(2, 2)).coefficients
    assert vals[1] > 1e-6  # generically entangled in the computational TPS


@pytest.mark.parametrize(
    "call",
    [
        lambda: qcf_local(SZ, np.eye(3), BELL, trivial_tps(2, 2)),
    ],
    ids=["qcf-local-factor-dims"],
)
def test_mismatched_dims_raise_shape_error(call):
    with pytest.raises(ShapeError):
        call()
