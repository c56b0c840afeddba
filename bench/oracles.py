"""Independent numpy routes for every value the benchmark checks.

Nothing here imports tpslab: each function recomputes a published number by
a different route from the one the program takes, so a check can fail only
when the program's value is wrong, never because both sides share a bug.
"""

from __future__ import annotations

import numpy as np

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
TSIRELSON = 2.0 * np.sqrt(2.0)
# matches the min_alpha_ratio that `demo bell` passes to random_entangled_state
MIN_SCHMIDT_RATIO = 0.05


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Normalized complex Gaussian vector: real parts drawn before imaginary parts."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# --- CHSH: the Horodecki closed form -------------------------------------


def correlation_matrix(psi: np.ndarray) -> np.ndarray:
    """T_ij = <psi| sigma_i (x) sigma_j |psi> for a two-qubit state."""
    m = psi.reshape(2, 2)
    # <psi| A (x) B |psi> = tr(M^dagger A M B^T) for psi = vec(M), left factor slow
    return np.array(
        [[np.trace(m.conj().T @ a @ m @ b.T).real for b in SIGMA] for a in SIGMA]
    )


def chsh_closed_form(psi: np.ndarray) -> float:
    """Maximal CHSH value 2 sqrt(t1^2 + t2^2) (Horodecki, Phys. Lett. A 200, 340)."""
    t = np.linalg.svd(correlation_matrix(psi), compute_uv=False)
    return float(2.0 * np.sqrt(t[0] ** 2 + t[1] ** 2))


def chsh_at(t_mat: np.ndarray, a, a_prime, b, b_prime) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b') with E(u, v) = u . T v."""
    a, a_prime, b, b_prime = (np.asarray(x, dtype=float) for x in (a, a_prime, b, b_prime))
    return float(a @ t_mat @ (b + b_prime) + a_prime @ t_mat @ (b - b_prime))


def entangled_draws(seed: int, samples: int) -> list[np.ndarray]:
    """The two-qubit states `demo bell` draws: Haar states whose smaller
    Schmidt coefficient is at least MIN_SCHMIDT_RATIO of the larger one."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < samples:
        psi = haar(rng, 4)
        s = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        if s[1] >= MIN_SCHMIDT_RATIO * s[0]:
            out.append(psi)
    return out


# --- spins: the product-state closed form ---------------------------------


def spin_pairs(seed: int, samples: int) -> np.ndarray:
    """The (samples, 2, 2) single-spin pairs `demo spins` draws, in draw order."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(samples, 2, 2, 2))  # sample, spin, re/im, component
    psi = v[:, :, 0, :] + 1j * v[:, :, 1, :]
    return psi / np.linalg.norm(psi, axis=2, keepdims=True)


def spin_closed_form(pairs: np.ndarray) -> np.ndarray:
    """Q(S_z_tot^2, S_x_tot^2) on psi1 (x) psi2 with hbar = 1:
    -<S_y>1<S_y>2 - 4 <S_x>1<S_x>2<S_z>1<S_z>2, spin operators sigma/2."""
    ev = np.einsum("nsi,kij,nsj->nsk", pairs.conj(), np.array(SIGMA) / 2.0, pairs).real
    x, y, z = ev[:, :, 0], ev[:, :, 1], ev[:, :, 2]
    return -y[:, 0] * y[:, 1] - 4.0 * x[:, 0] * x[:, 1] * z[:, 0] * z[:, 1]


# --- coordinate grid: the variance identity -------------------------------


def grid_points(d: int, halfwidth: float) -> np.ndarray:
    return (np.arange(d) - (d - 1) / 2.0) * (2.0 * halfwidth / (d - 1))


def position_variance(x: np.ndarray, amplitude: np.ndarray) -> float:
    p = np.abs(amplitude) ** 2
    p = p / p.sum()
    mean = float(np.sum(x * p))
    return float(np.sum((x - mean) ** 2 * p))


def gaussian(x: np.ndarray, sigma: float, center: float = 0.0) -> np.ndarray:
    return np.exp(-((x - center) ** 2) / (4.0 * sigma**2))


def double_gaussian(x: np.ndarray, sep: float, sigma: float) -> np.ndarray:
    return gaussian(x, sigma, sep) + gaussian(x, sigma, -sep)


# --- files and TPSs: permutation, SVD and trace formulas ------------------


def sum_diff_map(d: int) -> tuple[np.ndarray, np.ndarray]:
    i, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return (i + j) % d, (i - j) % d


def swap_map(d: int) -> tuple[np.ndarray, np.ndarray]:
    i, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return j, i


def relabeled(c: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Coefficient matrix after moving entry (i, j) to label (fa[i,j], fb[i,j])."""
    out = np.empty_like(c)
    out[fa, fb] = c
    return out


def rank(values: np.ndarray, tol: float) -> tuple[int, bool]:
    """Numerical rank at relative `tol`, and whether some value sits within a
    factor of ten of the cut, where two correct routes may disagree."""
    cut = tol * values[0]
    ambiguous = bool(np.any((values > cut / 10.0) & (values < cut * 10.0)))
    return int(np.sum(values > cut)), ambiguous


def position(d: int) -> np.ndarray:
    return np.diag(np.arange(d) - (d - 1) / 2.0)


def local_covariance(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> complex:
    """Q(A (x) 1, 1 (x) B) from the coefficient matrix C:
    <A (x) 1> = tr(C^dagger A C), <1 (x) B> = tr(C^dagger C B^T),
    <A (x) B> = tr(C^dagger A C B^T)."""
    ch = c.conj().T
    ea = np.trace(ch @ a @ c)
    eb = np.trace(ch @ c @ b.T)
    eab = np.trace(ch @ a @ c @ b.T)
    return complex(eab - ea * eb)
