"""Iterative CHSH maximizer: the test-side oracle for the closed-form settings.

It shares no code with ``tpslab.bell``: the spin correlation matrix is built
here from its own Pauli matrices, and the maximum is found by a search over
measurement directions (a 15-degree angular grid scan per setting, then
coordinate descent with step halving) instead of from the SVD.  The search can
stall slightly below the true maximum, so it agrees with the closed form only
to about 1e-4, but it never exceeds the maximum.

``raw_chsh_value`` is the reference route for the value at given settings: four
correlations, each read from the state through its own Pauli matrices, where
the library takes one bilinear form on the correlation matrix.  The same
correlations at the coordinate axes, ``correlation_matrix_by_directions``, are
the reference for the library's correlation matrix, built in one contraction.
"""

from math import cos, sin

import numpy as np

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def spin_correlation_matrix(psi) -> np.ndarray:
    """T_ij = <psi|sigma_i (x) sigma_j|psi>, built from np.kron."""
    psi = np.asarray(psi, dtype=complex)
    return np.array(
        [[np.vdot(psi, np.kron(si, sj) @ psi).real for sj in _PAULIS] for si in _PAULIS]
    )


def _raw_correlation(c: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """E(u, v) = tr(C^dagger (u.sigma) C (v.sigma)^T) of coefficient matrices C."""
    paulis = np.array(_PAULIS)
    a = np.einsum("...i,ijk->...jk", u, paulis)
    b = np.einsum("...i,ijk->...jk", v, paulis)
    return np.einsum("...ab,...ac,...cd,...bd->...", c.conj(), a, c, b).real


def correlation_matrix_by_directions(c: np.ndarray) -> np.ndarray:
    """T_ij = E(e_i, e_j) of coefficient matrices C (a stack on the leading axes), one
    correlation at each pair of coordinate axes: the reference route for the bits of
    the library's one contraction."""
    axes = np.eye(3)
    return _raw_correlation(c[..., None, None, :, :], axes[:, None], axes[None])


def raw_chsh_value(psi, a, a_prime, b, b_prime) -> np.ndarray:
    """E(a, b) + E(a, b') + E(a', b) - E(a', b'), each correlation taken from the
    state itself, E(u, v) = <psi|(u.sigma) (x) (v.sigma)|psi>; psi (last axis of
    length 4) and the directions may carry the same leading stack axes."""
    c = np.asarray(psi, dtype=complex).reshape(*np.shape(psi)[:-1], 2, 2)
    return (
        _raw_correlation(c, a, b)
        + _raw_correlation(c, a, b_prime)
        + _raw_correlation(c, a_prime, b)
        - _raw_correlation(c, a_prime, b_prime)
    )


def chsh_at(t_mat: np.ndarray, settings) -> float:
    """The CHSH value a.T(b + b') + a'.T(b - b') of settings with fields a, a_prime, b, b_prime."""
    a, ap, b, bp = settings.a, settings.a_prime, settings.b, settings.b_prime
    return float(a @ t_mat @ (b + bp) + ap @ t_mat @ (b - bp))


def bloch_direction(theta: float, phi: float) -> np.ndarray:
    return np.array([sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta)])


# 15-degree angular grid over the sphere, shared by every maximization
_GRID_PARAMS = np.array(
    [
        (theta, phi)
        for theta in np.deg2rad(np.arange(0, 181, 15))
        for phi in np.deg2rad(np.arange(0, 360, 15))
    ]
)
_GRID_VECTORS = np.array([bloch_direction(t, p) for t, p in _GRID_PARAMS])

# two deterministic starting configurations guard against stalling in an
# alternating-maximization fixed point
_STARTS = (
    ((0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 4, 0.0), (3 * np.pi / 4, 0.0)),
    ((np.pi / 3, 1.0), (np.pi / 2, 2.2), (1.1, 0.5), (2.0, 4.0)),
)


def _linear_weights(t_mat: np.ndarray, vecs: list[np.ndarray], k: int) -> np.ndarray:
    """Gradient direction: CHSH is linear in each setting with the others fixed."""
    a, ap, b, bp = vecs
    if k == 0:
        return t_mat @ (b + bp)
    if k == 1:
        return t_mat @ (b - bp)
    if k == 2:
        return t_mat.T @ (a + ap)
    return t_mat.T @ (a - ap)


def _chsh_bilinear(t_mat: np.ndarray, vecs: list[np.ndarray]) -> float:
    a, ap, b, bp = vecs
    return float(a @ t_mat @ b + a @ t_mat @ bp + ap @ t_mat @ b - ap @ t_mat @ bp)


def _maximize_from(t_mat: np.ndarray, start) -> float:
    params = np.array(start, dtype=float)
    vecs = [bloch_direction(t, p) for t, p in params]
    best = _chsh_bilinear(t_mat, vecs)

    # coarse stage: cyclic scan of the full angular grid per setting
    for _ in range(6):
        improved = False
        for k in range(4):
            w = _linear_weights(t_mat, vecs, k)
            vals = _GRID_VECTORS @ w
            m = int(np.argmax(vals))
            candidate = best - float(w @ vecs[k]) + float(vals[m])
            if candidate > best + 1e-15:
                best = candidate
                params[k] = _GRID_PARAMS[m]
                vecs[k] = _GRID_VECTORS[m]
                improved = True
        if not improved:
            break

    # refinement: coordinate descent with step halving; each sweep first takes
    # the exact conditional optimum (the objective is linear in one setting
    # with the others fixed, so it peaks at the normalized weight vector) and
    # then probes +-step in each angle to escape ties
    step = np.deg2rad(15.0)
    while step > 1e-6:
        for _ in range(50):
            improved = False
            for k in range(4):
                w = _linear_weights(t_mat, vecs, k)
                wn = float(np.linalg.norm(w))
                base = best - float(w @ vecs[k])
                if wn > 0.0:
                    exact = base + wn
                    if exact > best + 1e-15:
                        best = exact
                        vecs[k] = w / wn
                        params[k] = (np.arccos(np.clip(vecs[k][2], -1.0, 1.0)),
                                     np.arctan2(vecs[k][1], vecs[k][0]))
                        improved = True
                        continue
                w0, w1, w2 = float(w[0]), float(w[1]), float(w[2])
                th, ph = params[k]
                for tt, pp in ((th + step, ph), (th - step, ph), (th, ph + step), (th, ph - step)):
                    st, ct, sp, cp = sin(tt), cos(tt), sin(pp), cos(pp)
                    val = base + w0 * st * cp + w1 * st * sp + w2 * ct
                    if val > best + 1e-15:
                        best = val
                        params[k] = (tt, pp)
                        vecs[k] = np.array([st * cp, st * sp, ct])
                        improved = True
            if not improved:
                break
        step *= 0.5
    return best


def chsh_search(psi) -> float:
    """The largest CHSH value the search finds for a two-qubit pure state."""
    t_mat = spin_correlation_matrix(psi)
    return max(_maximize_from(t_mat, start) for start in _STARTS)
