"""CHSH values for two-qubit pure states: maximization and the demo.

The maximal CHSH value is ``2 sqrt(t1^2 + t2^2)`` from the two largest
singular values of the 3x3 spin correlation matrix T, and the settings that
reach it follow in closed form from the same SVD.  chsh_max builds those
settings and evaluates the raw CHSH value at them from T itself: the
correlation ``E(u, v) = <psi|(u.sigma) (x) (v.sigma)|psi>`` is linear in u
and v, so ``E(u, v) = u^T T v`` and the value is one bilinear form summed
over the four setting pairs.  The independent checks live in the tests:
``tests/chsh_oracle.py`` keeps the raw value through four correlations of
the state and an iterative maximizer (angular grid scan, then coordinate
descent) on a correlation matrix of its own.

T is built on the last axes of the 2x2 coefficient matrices C
(``psi.reshape(2, 2)`` in the trivial TPS), so one state and a stack of
states run the same code: ``<psi|A (x) B|psi> = tr(C^dagger A C B^T)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError
from .sampling import check_samples, random_entangled_state
from .spins import PAULI_X, PAULI_Y, PAULI_Z
from .tps import TensorProductStructure, coefficient_matrix

_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])
_CHSH_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])

SETTING_NORM_TOL = 1e-12
TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)


def _check_direction(n, name: str) -> np.ndarray:
    arr = np.asarray(n, dtype=float)
    if arr.shape != (3,):
        raise ShapeError(f"{name} must be a real 3-vector, got shape {arr.shape}")
    if abs(float(np.linalg.norm(arr)) - 1.0) > SETTING_NORM_TOL:
        raise ContractError(f"{name} must be unit length to {SETTING_NORM_TOL}")
    return arr


@dataclass(frozen=True)
class ChshSettings:
    """Four measurement directions on the Bloch sphere: a, a' for the first
    qubit and b, b' for the second."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, _check_direction(getattr(self, name), name))


def _correlation_matrix(c: np.ndarray) -> np.ndarray:
    """T_ij = tr(C^dagger sigma_i C sigma_j^T), shaped (..., 3, 3), in one contraction."""
    return np.einsum("...ab,iac,...cd,jbd->...ij", c.conj(), _PAULIS, c, _PAULIS).real


def _chsh_value(t: np.ndarray, a, a_prime, b, b_prime) -> np.ndarray:
    """sum_k s_k u_k^T T v_k over the pairs (u_k, v_k) = (a, b), (a, b'), (a', b),
    (a', b') with signs s = (1, 1, 1, -1)."""
    u = np.stack((a, a, a_prime, a_prime), axis=-2)
    v = np.stack((b, b_prime, b, b_prime), axis=-2)
    return np.einsum("k,...ki,...ij,...kj->...", _CHSH_SIGNS, u, t, v)


def _chsh_max(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The raw CHSH value at the closed-form settings, the closed form
    ``2 hypot(t1, t2)``, and the settings (a, a', b, b'), from one SVD of T.

    With ``T = U diag(t) V^T``: ``a, a' = U[:, 0], U[:, 1]`` and
    ``b, b' = (t1 f1 +- t2 f2) / hypot(t1, t2)`` with ``f1, f2`` the first two
    right singular vectors (Horodecki, Phys. Lett. A 200, 340 (1995)).  For a
    pure state ``t1 = 1``, so the division is safe.
    """
    t_mat = _correlation_matrix(c)
    u, t, vt = np.linalg.svd(t_mat)
    h = np.hypot(t[..., 0], t[..., 1])[..., None]
    t1f1, t2f2 = t[..., :1] * vt[..., 0, :], t[..., 1:2] * vt[..., 1, :]
    settings = (u[..., :, 0], u[..., :, 1], (t1f1 + t2f2) / h, (t1f1 - t2f2) / h)
    return _chsh_value(t_mat, *settings), 2.0 * h[..., 0], settings


@dataclass(frozen=True)
class ChshMaxResult:
    value: float
    closed_form: float
    settings: ChshSettings


def chsh_max(psi, tps: TensorProductStructure) -> ChshMaxResult:
    """Maximize the CHSH value of a pure state read as two qubits through a TPS.

    The settings are the closed-form (Horodecki) ones from the SVD of the
    correlation matrix; ``value`` is the raw CHSH value at them and
    ``closed_form`` the maximum 2 sqrt(t1^2 + t2^2) from the same SVD.
    """
    if (tps.d1, tps.d2) != (2, 2):
        raise ShapeError(f"chsh needs a two-qubit state, got dims ({tps.d1}, {tps.d2})")
    value, closed, settings = _chsh_max(coefficient_matrix(psi, tps))
    return ChshMaxResult(value=float(value), closed_form=float(closed),
                         settings=ChshSettings(*settings))


@dataclass(frozen=True)
class BellDemoReport:
    """Maximal CHSH values of seeded entangled states against the closed form.

    ``values`` and ``closed_forms`` hold the per-sample raw CHSH value at the
    closed-form settings and the closed-form maximum; they are left out of
    equality.
    """

    samples: int
    bell_state_value: float
    max_oracle_residual: float
    min_value: float
    fraction_violating: float
    violation_margin: float
    values: np.ndarray = field(compare=False, repr=False)
    closed_forms: np.ndarray = field(compare=False, repr=False)


def demo_bell(samples: int, seed: int) -> BellDemoReport:
    """Maximize CHSH over seeded entangled two-qubit states, plus the Bell state.

    The states are Haar draws whose smaller Schmidt coefficient is at least
    ``MIN_ALPHA_RATIO`` = 0.05 of the larger, which keeps the violation above
    the 1e-3 margin; the Bell state, last in the stack, should reach 2 sqrt(2).
    """
    check_samples(samples)
    psi = random_entangled_state(2, 2, np.random.default_rng(seed), (samples,))
    bell = np.array([[1, 0, 0, 1]], dtype=complex) / np.sqrt(2.0)
    values, closed, _ = _chsh_max(np.concatenate([psi, bell]).reshape(-1, 2, 2))
    margin = 1e-3
    values, bell_value, closed = values[:-1], float(values[-1]), closed[:-1]
    return BellDemoReport(
        samples=samples,
        bell_state_value=bell_value,
        max_oracle_residual=float(np.max(np.abs(values - closed))),
        min_value=float(values.min()),
        fraction_violating=int(np.count_nonzero(values > 2.0 + margin)) / samples,
        violation_margin=margin,
        values=values,
        closed_forms=closed,
    )
