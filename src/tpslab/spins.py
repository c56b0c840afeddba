"""Two spin-1/2 particles: total-spin-component squares and the chi basis.

The single-spin operators ``SPIN_*`` are half the Pauli matrices.  The
squares of the z and x total-spin components, ``TOTAL_Z2`` and ``TOTAL_X2``,
each equal I/2 + 2 S_i (x) S_i with eigenvalues 0 and 1 twice each; they
commute and share the joint eigenbasis chi_{s,t}, which is the Bell basis and
is written here in closed form (its eigen-route check lives in
``tests/tps_oracle.py``).  Reading the four-dimensional space through that
basis gives a second tensor product structure in which a z-product state is
generically entangled.  The covariance of the two squares on a product state
has a closed form in single-spin expectations, evaluated here both directly
and in closed form.  The operators are module constants, built at import;
``chi_basis()`` builds its TPS on each call.  Units have hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .linalg import _expectation, check_state, tensor_op
from .qcf import _covariance
from .sampling import check_samples, haar_state
from .schmidt import DEFAULT_TRUNCATION_TOL, rank_from_singular_values, spectra
from .tps import TensorProductStructure

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SPIN_X, SPIN_Y, SPIN_Z = 0.5 * PAULI_X, 0.5 * PAULI_Y, 0.5 * PAULI_Z
TOTAL_Z2 = 0.5 * np.eye(4, dtype=complex) + 2.0 * tensor_op(SPIN_Z, SPIN_Z)
TOTAL_X2 = 0.5 * np.eye(4, dtype=complex) + 2.0 * tensor_op(SPIN_X, SPIN_X)

# chi_{s,t} in row s*2+t over (up-up, up-down, down-up, down-down): the Bell states
# Phi+, Phi-, Psi+, Psi-, with the z-square eigenvalue s and the x-square eigenvalue t
CHI_ROWS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]],
                    dtype=complex) / np.sqrt(2.0)

# a covariance above this is resolvably nonzero, witnessing entanglement in the chi TPS
NONZERO_THRESHOLD = 1e-8


def chi_basis() -> TensorProductStructure:
    """Joint eigenbasis TPS of the total-spin squares.

    The joint eigenbasis is the Bell basis, given in closed form by
    ``CHI_ROWS``, whose row s*2+t expresses chi_{s,t} over the two-spin
    product basis (up-up, up-down, down-up, down-down).  The TPS's unitary
    holds those rows as columns, so its product label (s, t) pairs
    eigenvalues of the z- and x-component squares (each descending: 1
    before 0).
    """
    return TensorProductStructure(2, 2, np.ascontiguousarray(CHI_ROWS.T))


def _closed_form(psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    """The covariance closed form on the last axis of psi1 and psi2; unchecked inputs."""
    x1, y1, z1 = (_expectation(op, psi1) for op in (SPIN_X, SPIN_Y, SPIN_Z))
    x2, y2, z2 = (_expectation(op, psi2) for op in (SPIN_X, SPIN_Y, SPIN_Z))
    return -y1 * y2 - 4.0 * x1 * x2 * z1 * z2


def spin_qcf_closed_form(psi1, psi2) -> float:
    """Closed form for the covariance of the two total-spin squares on a product state.

    Equals ``-<S_y>_1 <S_y>_2 - 4 <S_x>_1 <S_x>_2 <S_z>_1 <S_z>_2``
    where the expectations are taken in the single-spin factors.
    """
    psi1 = check_state(psi1)
    psi2 = check_state(psi2)
    if psi1.size != 2 or psi2.size != 2:
        raise ContractError("closed form is defined for two single-spin states")
    return float(_closed_form(psi1, psi2))


def _spin_samples(samples: int, seed: int) -> tuple[np.ndarray, ...]:
    """Seeded Haar pairs psi1, psi2 (psi1 drawn first, sample by sample), their
    products psi1 (x) psi2, the direct covariance of the two total-spin
    squares on them, and its closed form; all stacked over the samples."""
    pairs = haar_state(2, np.random.default_rng(seed), (samples, 2))
    psi1, psi2 = pairs[:, 0], pairs[:, 1]
    psi = (psi1[:, :, None] * psi2[:, None, :]).reshape(samples, 4)
    return psi1, psi2, psi, _covariance(TOTAL_Z2, TOTAL_X2, psi), _closed_form(psi1, psi2)


@dataclass(frozen=True)
class SpinDemoReport:
    """Closed-form residuals and chi-TPS entanglement statistics.

    ``residuals`` and ``qcf_values`` hold the per-sample |direct - closed|
    and direct covariance (real part); they are left out of equality.
    """

    samples: int
    closed_form_residual_max: float
    fraction_nonzero: float
    nonzero_threshold: float
    chi_tps_rank_examples: tuple[int, int, int, int]
    sampled_rank2_fraction: float
    residuals: np.ndarray = field(compare=False, repr=False)
    qcf_values: np.ndarray = field(compare=False, repr=False)


def demo_spins(samples: int, seed: int) -> SpinDemoReport:
    """Sample random product spin pairs and compare covariance routes.

    Reports the worst disagreement between the direct covariance and its
    closed form, the fraction of samples whose covariance is resolvably
    nonzero (witnessing entanglement in the chi TPS), the Schmidt ranks of
    the four z-product basis states in the chi TPS, and the fraction of
    sampled product states with chi-TPS Schmidt rank 2.

    The z-basis states themselves sit in the measure-zero set that stays
    factorizable (all their transverse spin expectations vanish), so their
    ranks come out 1; generic product states come out entangled.  The samples
    and the four basis states take one stacked ``spectra`` in the chi TPS.
    """
    check_samples(samples)
    _, _, psi, direct, closed = _spin_samples(samples, seed)
    vals = spectra(np.concatenate([psi, np.eye(4)]), chi_basis())
    ranks = rank_from_singular_values(vals, DEFAULT_TRUNCATION_TOL)
    residuals = np.abs(direct - closed)
    return SpinDemoReport(
        samples=samples,
        closed_form_residual_max=float(residuals.max()),
        fraction_nonzero=int(np.count_nonzero(np.abs(direct) > NONZERO_THRESHOLD)) / samples,
        nonzero_threshold=NONZERO_THRESHOLD,
        chi_tps_rank_examples=tuple(ranks[samples:].tolist()),
        sampled_rank2_fraction=int(np.count_nonzero(ranks[:samples] == 2)) / samples,
        residuals=residuals,
        qcf_values=direct.real,
    )
