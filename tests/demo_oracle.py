"""Per-sample loops for the demos: the oracles for their stacked cores.

`demo spins`, `demo bell` and `demo coords` compute every sample in one
array pass.  The loops here take one sample at a time instead, as the demos
once did.  For `coords`, one product pair at a time in complex arithmetic:
dense SVDs before and after the relabeling, and the covariance of the
diagonal observables on the joint distribution.  For the sampling demos, each
state is drawn with its own ``rng.normal`` calls (real parts, then imaginary
parts; psi1 before psi2; a Bell-demo candidate is redrawn until its Schmidt
ratio clears 0.05), and every value comes from ``np.kron``-built operators on
that one state.  Nothing here imports tpslab, so agreement also checks the
order in which the stacked draws consume the stream.  ``even_blocks_per_sigma``
keeps the earlier route of the even parity blocks, one index grid and four
gathers per block, as the bit-for-bit reference of their one-gather build.
"""

import math

import numpy as np
from chsh_oracle import spin_correlation_matrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
# chi_{s,t} over (up-up, up-down, down-up, down-down), rows (1,1), (1,0), (0,1), (0,0)
CHI_ROWS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)
BELL_RATIO = 0.05  # the Schmidt-ratio floor of `demo bell`'s draws


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def chi_rank(psi: np.ndarray) -> int:
    """Schmidt rank of a two-spin state read in the chi basis, at truncation 1e-10."""
    vals = np.linalg.svd((CHI_ROWS.conj() @ psi).reshape(2, 2), compute_uv=False)
    return 1 + int(vals[1] > 1e-10 * vals[0])


def spins_loop(samples: int, seed: int) -> dict:
    """psi1, psi2, the direct covariance of the total-spin squares, its closed
    form and the chi-TPS rank per sample (hbar = 1), plus the ranks of the four
    z-product basis states."""
    rng = np.random.default_rng(seed)
    z2 = np.eye(4) / 2.0 + np.kron(SZ, SZ) / 2.0
    x2 = np.eye(4) / 2.0 + np.kron(SX, SX) / 2.0
    out = {k: [] for k in ("psi1", "psi2", "direct", "closed", "rank")}
    for _ in range(samples):
        psi1, psi2 = haar(rng, 2), haar(rng, 2)
        psi = np.kron(psi1, psi2)
        direct = np.vdot(psi, z2 @ x2 @ psi) - np.vdot(psi, z2 @ psi) * np.vdot(psi, x2 @ psi)
        s1 = [np.vdot(psi1, op @ psi1).real / 2.0 for op in (SX, SY, SZ)]
        s2 = [np.vdot(psi2, op @ psi2).real / 2.0 for op in (SX, SY, SZ)]
        closed = -s1[1] * s2[1] - 4.0 * s1[0] * s2[0] * s1[2] * s2[2]
        for key, value in zip(out, (psi1, psi2, direct, closed, chi_rank(psi))):
            out[key].append(value)
    out = {k: np.array(v) for k, v in out.items()}
    out["basis_ranks"] = [chi_rank(e) for e in np.eye(4, dtype=complex)]
    return out


def chsh_closed_form(psi: np.ndarray) -> float:
    t = np.linalg.svd(spin_correlation_matrix(psi), compute_uv=False)
    return float(2.0 * np.sqrt(t[0] ** 2 + t[1] ** 2))


def bell_loop(samples: int, seed: int) -> dict:
    """The accepted states, their closed-form CHSH maxima, and the number of
    rejected candidates."""
    rng = np.random.default_rng(seed)
    states, rejected = [], 0
    while len(states) < samples:
        psi = haar(rng, 4)
        s = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        if s[1] >= BELL_RATIO * s[0]:
            states.append(psi)
        else:
            rejected += 1
    return {
        "states": np.array(states),
        "closed": np.array([chsh_closed_form(p) for p in states]),
        "rejected": rejected,
        "next_draw": rng.normal(),
    }


def coords_pair(f, g, x, targets, tol: float = 1e-10) -> dict:
    """One product pair f (x) g on grid points x under the relabeling that sends
    global index i*d + j to ``targets[i*d + j]``, as `demo coords` once
    computed it: complex coefficients, one dense SVD per labeling, and the
    covariance of X1 + X2 against X1 - X2 from the joint distribution.  Also
    returns the relabeled spectrum itself as ``values_ab``."""
    f, g, x = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex), np.asarray(x)
    c = np.outer(f, g)
    relabeled = np.empty(c.size, dtype=complex)
    relabeled[np.asarray(targets)] = c.ravel()
    vals_xy = np.linalg.svd(c, compute_uv=False)
    vals_ab = np.linalg.svd(relabeled.reshape(c.shape), compute_uv=False)
    prob = np.abs(c.ravel()) ** 2
    a = np.add.outer(x, x).ravel()
    b = np.subtract.outer(x, x).ravel()
    qcf = np.sum(a * b * prob) - np.sum(a * prob) * np.sum(b * prob)

    def variance(p):
        mean = np.sum(x * p)
        return np.sum((x - mean) ** 2 * p)

    return {
        "rank_xy": int(np.sum(vals_xy > tol * vals_xy[0])),
        "rank_ab": int(np.sum(vals_ab > tol * vals_ab[0])),
        "qcf_ab": float(qcf),
        "variance_diff": float(variance(np.abs(f) ** 2) - variance(np.abs(g) ** 2)),
        "alpha_ratio_ab": float(vals_ab[1] / vals_ab[0]) if vals_ab.size > 1 else 0.0,
        "values_ab": vals_ab,
    }


def even_blocks_per_sigma(f, g) -> np.ndarray:
    """(n, d) descending relabeled Schmidt coefficients of the pairs f_k (x) g_k of
    even real profiles, one parity block sigma = +1, then -1, at a time: each block
    rebuilds its index grid, gathers both products and adds sigma times the second
    to the first, before its fixed row and column are scaled by 1/sqrt(2)."""
    d = f.shape[1]
    h, k = (d - 1) // 2, (d + 1) // 2
    parts = []
    for sigma in (1, -1):
        a = np.arange(h + (sigma > 0))[:, None]  # rows 0..h-1, then d-1 if even
        b = a.T + 1  # columns 1..h, then 0 if even
        a[h:], b[:, h:] = d - 1, 0
        i, j = (a + b) * k % d, (a - b) * k % d
        block = np.take(f, i, axis=1) * np.take(g, j, axis=1)
        block += sigma * (np.take(f, j, axis=1) * np.take(g, i, axis=1))
        block[:, h:] *= math.sqrt(0.5)  # the fixed row, if any
        block[:, :, h:] *= math.sqrt(0.5)  # the fixed column, if any
        parts.append(np.abs(np.linalg.eigvalsh(block)))
    return np.sort(np.concatenate(parts, axis=1), axis=1)[:, ::-1]
