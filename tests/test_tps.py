"""Tensor product structures, index bijections, and refactorizations."""

import numpy as np
import pytest
from samplers import random_product_state, random_unitary
from tps_oracle import dense_unitary, permutation_matrix, reflector_matrix

from tpslab.errors import BijectionError, ContractError, GridSpecError, ShapeError
from tpslab.linalg import STATE_NORM_TOL, UNITARY_TOL
from tpslab.sampling import haar_state
from tpslab.schmidt import schmidt
from tpslab.tps import (
    IndexBijection,
    TensorProductStructure,
    _check_unitary,
    _coefficients,
    coefficient_matrix,
    disentangling_tps,
    factor_local_bijection,
    identity_bijection,
    random_bijection,
    relabeled,
    sum_diff_bijection,
    swap_bijection,
    tps_with_spectrum,
    trivial_tps,
)

SQ2 = np.sqrt(2.0)
BELL = np.array([1, 0, 0, 1], dtype=complex) / SQ2


def test_tps_rejects_non_unitary():
    with pytest.raises(ContractError):
        TensorProductStructure(2, 2, np.ones((4, 4), dtype=complex))


def test_tps_rejects_wrong_dimension():
    with pytest.raises(Exception):
        TensorProductStructure(2, 3, np.eye(4, dtype=complex))


def test_coefficient_matrix_basis_state():
    c = coefficient_matrix(np.array([1, 0, 0, 0], dtype=complex), trivial_tps(2, 2))
    np.testing.assert_array_equal(c, [[1, 0], [0, 0]])


def test_coefficient_matrix_bell_reshape():
    c = coefficient_matrix(BELL, trivial_tps(2, 2))
    np.testing.assert_allclose(c, np.eye(2) / SQ2)


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 3), (4, 2)])
def test_coefficient_matrix_product_state_rank_one(d1, d2):
    rng = np.random.default_rng(d1 * 10 + d2)
    for _ in range(10):
        psi = random_product_state(d1, d2, rng)
        c = coefficient_matrix(psi, trivial_tps(d1, d2))
        s = np.linalg.svd(c, compute_uv=False)
        assert s[1] <= 1e-10 * s[0]


def test_index_bijection_rejects_repeats():
    with pytest.raises(BijectionError, match="hit 2 times"):
        IndexBijection(2, 2, [0, 0, 3, 3])


@pytest.mark.parametrize("targets", [[True, False], [True, 0], [np.True_, 0]],
                         ids=["bools", "bool-among-ints", "numpy-bool-among-ints"])
def test_index_bijection_refuses_bools(targets):
    # as factor_local_bijection does: each would read as the swap of a 1 x 2 grid
    with pytest.raises(BijectionError, match="must be integers"):
        IndexBijection(1, 2, targets)


def test_factor_local_bijection_refuses_images_off_the_grid():
    # (i, j) -> (i - 1, j + 2) has the targets 0..3 of a 2 x 2 grid, but no image on it
    with pytest.raises(BijectionError, match="outside the grid"):
        factor_local_bijection([-1, 0], [2, 3])


@pytest.mark.parametrize(
    "perm,error,match",
    [
        ([0.7, 1.2], BijectionError, "must be integers"),  # int() would truncate to [0, 1]
        ([True, False], BijectionError, "must be integers"),
        ([True, 0], BijectionError, "must be integers"),  # numpy would store [1, 0]
        (["1", "0"], BijectionError, "must be integers"),
        ([], ShapeError, "nonempty vectors"),
        ([[0], [1]], ShapeError, "nonempty vectors"),
    ],
    ids=["floats", "bools", "bool-among-ints", "strings", "empty", "column"],
)
@pytest.mark.parametrize("side", ["first", "second"])
def test_factor_local_bijection_refuses_a_permutation_that_is_not_integer_indices(
        perm, error, match, side):
    perms = (perm, [0, 1]) if side == "first" else ([0, 1], perm)
    with pytest.raises(error, match=match):
        factor_local_bijection(*perms)


def test_index_bijection_inverse_tables():
    bij = sum_diff_bijection(5)
    inverse = np.argsort(bij.targets)
    np.testing.assert_array_equal(bij.targets[inverse], np.arange(25))
    np.testing.assert_array_equal(inverse[bij.targets], np.arange(25))


def test_relabel_identity_is_identity_matrix():
    tps = TensorProductStructure(2, 2, relabeling=identity_bijection(2, 2))
    assert tps.unitary is None
    np.testing.assert_array_equal(permutation_matrix(tps.relabeling), np.eye(4))


def test_relabel_swap_is_swap_matrix():
    tps = TensorProductStructure(2, 2, relabeling=swap_bijection(2))
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    np.testing.assert_array_equal(permutation_matrix(tps.relabeling).real, swap)


def test_relabel_permutation_structure():
    # exactly one unit entry per row and column
    for bij in (sum_diff_bijection(3), random_bijection(3, 4, np.random.default_rng(0))):
        u = permutation_matrix(bij)
        assert np.count_nonzero(u) == u.shape[0]
        np.testing.assert_array_equal(np.sort(np.nonzero(u)[0]), np.arange(u.shape[0]))
        np.testing.assert_array_equal(np.sort(np.nonzero(u)[1]), np.arange(u.shape[0]))
        np.testing.assert_allclose(np.abs(u[np.nonzero(u)]), 1.0)


def test_relabel_moves_coefficients_forward():
    # the amplitude at (i, j) reappears at label bij(i, j)
    d = 3
    bij = sum_diff_bijection(d)
    rng = np.random.default_rng(1)
    psi = haar_state(d * d, rng)
    c_old = coefficient_matrix(psi, trivial_tps(d, d))
    c_new = coefficient_matrix(psi, TensorProductStructure(d, d, relabeling=bij))
    for i in range(d):
        for j in range(d):
            a, b = divmod(int(bij.targets[i * d + j]), d)
            assert c_new[a, b] == pytest.approx(c_old[i, j])


def test_sum_diff_trivial_point():
    assert sum_diff_bijection(3).targets[0] == 0


def test_sum_diff_hand_modular_arithmetic():
    bij = sum_diff_bijection(3)
    assert bij.targets[1 * 3 + 2] == 0 * 3 + 2  # (1, 2) -> (0, 2)
    assert list(bij.targets).index(0 * 3 + 2) == 1 * 3 + 2


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_sum_diff_forward_inverse_exhaustive(d):
    bij = sum_diff_bijection(d)
    inv2 = (d + 1) // 2
    inverse = np.argsort(bij.targets)
    for i in range(d):
        for j in range(d):
            a, b = divmod(int(bij.targets[i * d + j]), d)
            assert (a, b) == ((i + j) % d, (i - j) % d)
            assert divmod(int(inverse[a * d + b]), d) == ((inv2 * (a + b)) % d, (inv2 * (a - b)) % d)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_sum_diff_rejects_even_grids(d):
    with pytest.raises(GridSpecError, match="odd"):
        sum_diff_bijection(d)


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 3)])
def test_local_unitary_keeps_products_rank_one(d1, d2):
    rng = np.random.default_rng(100 + d1 * d2)
    tps = trivial_tps(d1, d2)
    for _ in range(25):
        psi = random_product_state(d1, d2, rng)
        rotated = TensorProductStructure(d1, d2, np.kron(random_unitary(d1, rng),
                                                         random_unitary(d2, rng)))
        vals = schmidt(psi, rotated).coefficients
        assert vals[1] <= 1e-10 * vals[0]


def test_local_unitary_hadamard_keeps_bell_rank_two():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / SQ2
    rotated = TensorProductStructure(2, 2, np.kron(h, h))
    sd = schmidt(BELL, rotated)
    assert sd.rank == 2


def test_schmidt_coefficients_invariant_under_local_unitaries():
    rng = np.random.default_rng(8)
    tps = trivial_tps(3, 3)
    psi = haar_state(9, rng)
    base = schmidt(psi, tps).coefficients
    for _ in range(10):
        rotated = TensorProductStructure(3, 3, np.kron(random_unitary(3, rng), random_unitary(3, rng)))
        np.testing.assert_allclose(schmidt(psi, rotated).coefficients, base, atol=1e-10)


def test_factor_local_bijection_never_mixes():
    rng = np.random.default_rng(9)
    bij = factor_local_bijection(rng.permutation(3), rng.permutation(4))
    psi = random_product_state(3, 4, rng)
    vals = schmidt(psi, TensorProductStructure(3, 4, relabeling=bij)).coefficients
    assert vals[1] <= 1e-10 * vals[0]


@pytest.mark.parametrize("case", ["product", "bell", "random9"])
def test_disentangling_tps_reaches_rank_one(case):
    rng = np.random.default_rng(hash(case) % 2**32)
    if case == "product":
        psi = random_product_state(2, 2, rng)
        tps = trivial_tps(2, 2)
    elif case == "bell":
        psi = BELL
        tps = trivial_tps(2, 2)
    else:
        psi = haar_state(9, rng)
        tps = trivial_tps(3, 3)
    out = disentangling_tps(psi, tps)
    assert (out.d1, out.d2) == (tps.d1, tps.d2)
    sd = schmidt(psi, out)
    assert sd.rank == 1
    np.testing.assert_allclose(sd.coefficients[0], 1.0, atol=1e-12)


def test_disentangling_tps_unitarity_near_basis_states():
    # adversarial: psi nearly parallel to a computational basis vector
    psi = np.zeros(6, dtype=complex)
    psi[2] = 1.0
    psi[4] = 1e-7
    psi /= np.linalg.norm(psi)
    out = disentangling_tps(psi, trivial_tps(2, 3))
    assert out.unitary is None
    u = reflector_matrix(out.reflector)
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-9
    assert schmidt(psi, out).rank == 1


def test_relabel_random_bijection_roundtrip_dimension():
    bij = random_bijection(3, 5, np.random.default_rng(4))
    tps = TensorProductStructure(3, 5, relabeling=bij)
    assert (tps.d1, tps.d2, tps.dim) == (3, 5, 15)


def _tps(rotation, relabeled, d1, d2, rng):
    """A TPS of the given form: rotation none|dense|reflector, with or without a random map."""
    parts = {}
    if relabeled:
        parts["relabeling"] = random_bijection(d1, d2, rng)
    if rotation == "dense":
        parts["unitary"] = random_unitary(d1 * d2, rng)
    elif rotation == "reflector":
        parts["reflector"] = rng.normal(size=d1 * d2) + 1j * rng.normal(size=d1 * d2)
    return TensorProductStructure(d1, d2, **parts)


FORMS = [(r, m) for r in ("none", "dense", "reflector") for m in (False, True)
         if (r, m) != ("none", False)]


@pytest.mark.parametrize("rotation,relabeled", FORMS)
@pytest.mark.parametrize("d1,d2", [(2, 2), (3, 4)])
def test_coefficients_match_the_dense_route(rotation, relabeled, d1, d2):
    # coefficients of every TPS form are (R P)^dagger psi, one state and a stack
    rng = np.random.default_rng(d1 * 10 + d2)
    tps = _tps(rotation, relabeled, d1, d2, rng)
    dense = dense_unitary(tps)
    psi = haar_state(d1 * d2, rng)
    np.testing.assert_allclose(
        coefficient_matrix(psi, tps), (dense.conj().T @ psi).reshape(d1, d2), rtol=0, atol=1e-12
    )
    stack = np.stack([haar_state(d1 * d2, rng) for _ in range(5)])
    np.testing.assert_allclose(
        _coefficients(stack, tps), (stack @ dense.conj()).reshape(5, d1, d2), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize(
    "parts",
    [
        {"unitary": np.eye(4), "reflector": np.ones(4)},
        {"reflector": np.zeros(4)},
        {"reflector": np.full(4, 1e-160)},
        {"reflector": np.full(4, 1e160)},
    ],
    ids=["two-rotations", "zero-reflector", "underflowing-reflector",
         "overflowing-reflector"],
)
def test_tps_refuses_a_bad_combination_of_parts(parts):
    with pytest.raises(ContractError):
        TensorProductStructure(2, 2, **parts)


@pytest.mark.parametrize("d1,d2", [(1, 4), (2, 2), (2, 3), (3, 3)])
def test_the_tps_with_no_parts_reads_states_as_a_reshape(d1, d2):
    # the trivial TPS is the one with no rotation and no relabeling
    tps = TensorProductStructure(d1, d2)
    assert trivial_tps(d1, d2) == tps
    rng = np.random.default_rng(62)
    psi = haar_state(d1 * d2, rng)
    assert coefficient_matrix(psi, tps).tobytes() == psi.reshape(d1, d2).tobytes()
    stack = np.stack([haar_state(d1 * d2, rng) for _ in range(5)])
    c = _coefficients(stack, tps)
    assert c.shape == (5, d1, d2) and c.tobytes() == stack.reshape(5, d1, d2).tobytes()


def test_tps_refuses_a_reflector_of_the_wrong_size():
    with pytest.raises(ShapeError, match="reflector dimension 3"):
        TensorProductStructure(2, 2, reflector=np.ones(3))


def test_tps_refuses_a_relabeling_of_another_grid():
    # 3 x 2 and 2 x 3 have the same dimension; only the grids differ
    with pytest.raises(ShapeError, match=r"relabeling grid does not match factors \(2, 3\)"):
        TensorProductStructure(2, 3, relabeling=identity_bijection(3, 2))


@pytest.mark.parametrize("rotation", ["relabeling", "reflector", "unitary"])
def test_coefficient_matrix_accepts_every_state_that_check_state_accepts(rotation):
    # states at the edge of STATE_NORM_TOL: no TPS moves their norm beyond rounding,
    # or beyond a relative D * UNITARY_TOL / 2 for a dense unitary
    rng = np.random.default_rng(61)
    edge = 0
    for _ in range(400):
        d1, d2 = (int(d) for d in rng.integers(2, 9, size=2))
        dim = d1 * d2
        psi = haar_state(dim, rng) * (1.0 + rng.choice([-1.0, 1.0]) * STATE_NORM_TOL)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > STATE_NORM_TOL:
            continue  # check_state refuses it before any TPS is read
        edge += 1
        if rotation == "relabeling":
            bij = random_bijection(d1, d2, rng)
            tps, bound = TensorProductStructure(d1, d2, relabeling=bij), 1e-15
        elif rotation == "reflector":
            tps, bound = TensorProductStructure(d1, d2, reflector=haar_state(dim, rng)), 1e-15
        else:
            tps, bound = TensorProductStructure(d1, d2, random_unitary(dim, rng)), dim * UNITARY_TOL / 2
        c = coefficient_matrix(psi, tps)
        assert c.shape == (d1, d2)
        assert abs(np.linalg.norm(c) / norm - 1.0) <= bound
    assert edge >= 50


def _phi(alphas, d1, d2):
    phi = np.zeros(d1 * d2, dtype=complex)
    for k, a in enumerate(alphas):
        phi[k * d2 + k] = np.sqrt(a)
    return phi


@pytest.mark.parametrize("d1,d2", [(2, 2), (3, 3), (3, 4)])
@pytest.mark.parametrize("spectrum", ["product", "maximal", "random"])
@pytest.mark.parametrize("state", ["haar", "target", "orthogonal"])
def test_tps_with_spectrum_gives_the_requested_schmidt_values(d1, d2, spectrum, state):
    rng = np.random.default_rng(d1 * d2 + len(spectrum) + 7 * len(state))
    n = min(d1, d2)
    alphas = {"product": np.ones(1), "maximal": np.full(n, 1.0 / n)}.get(spectrum)
    if alphas is None:
        alphas = rng.random(n)
        alphas /= alphas.sum()
    phi = _phi(alphas, d1, d2)
    psi = haar_state(d1 * d2, rng)
    if state == "target":
        psi = phi * np.exp(0.3j)
    elif state == "orthogonal":  # psi with <phi|psi> = 0 (for the product target, psi_0 = 0)
        psi = psi - np.vdot(phi, psi) * phi
        psi /= np.linalg.norm(psi)
    out = tps_with_spectrum(psi, alphas, trivial_tps(d1, d2))
    assert out.unitary is None and out.relabeling is None and out.reflector.shape == (d1 * d2,)
    wanted = np.zeros(n)
    wanted[: alphas.size] = np.sort(np.sqrt(alphas))[::-1]
    np.testing.assert_allclose(schmidt(psi, out).coefficients, wanted, rtol=0, atol=1e-12)
    # and the reflector route agrees with the dense one on the full coefficient matrix
    np.testing.assert_allclose(
        coefficient_matrix(psi, out),
        (reflector_matrix(out.reflector) @ psi).reshape(d1, d2), rtol=0, atol=1e-12,
    )


def test_tps_with_a_single_weight_is_the_disentangling_tps():
    psi = haar_state(12, np.random.default_rng(5))
    one = tps_with_spectrum(psi, (1.0,), trivial_tps(3, 4))
    assert np.array_equal(one.reflector, disentangling_tps(psi, trivial_tps(3, 4)).reflector)
    w = psi.copy()
    w[0] += np.exp(1j * np.angle(psi[0]))
    assert np.array_equal(one.reflector, w)


@pytest.mark.parametrize(
    "alphas,error",
    [((0.5, 0.25, 0.25), ShapeError), ((), ShapeError), ((0.5, 0.4), ContractError),
     ((1.5, -0.5), ContractError), ((float("nan"), 1.0), ContractError)],
    ids=["too-many", "none", "short-sum", "negative", "nan"],
)
def test_tps_with_spectrum_refuses_bad_weights(alphas, error):
    with pytest.raises(error):
        tps_with_spectrum(BELL, alphas, trivial_tps(2, 2))


def test_disentangling_tps_at_d45_stays_linear():
    # D = 2025: one reflector of D numbers instead of a D x D unitary
    rng = np.random.default_rng(45)
    psi = haar_state(45 * 45, rng)
    out = disentangling_tps(psi, trivial_tps(45, 45))
    assert out.unitary is None and out.reflector.nbytes == 45 * 45 * 16
    sd = schmidt(psi, out)
    assert sd.rank == 1
    np.testing.assert_allclose(sd.coefficients[0], 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _check_unitary(np.eye(4, 2)),
        lambda: coefficient_matrix(BELL, trivial_tps(2, 3)),
        lambda: tps_with_spectrum(BELL, (1.0,), trivial_tps(2, 3)),
        lambda: relabeled(trivial_tps(2, 3), identity_bijection(3, 2)),
        lambda: trivial_tps(0, 2),
    ],
    ids=["non-square-unitary", "coefficients-dim", "spectrum-dim", "transposed-relabeling",
         "empty-grid"],
)
def test_mismatched_shapes_raise_shape_error(call):
    with pytest.raises(ShapeError):
        call()


def test_an_empty_grid_is_an_empty_bijection():
    # the duplicate count has no target to look at, so it finds no repeat
    assert IndexBijection(0, 2, np.arange(0)).targets.size == 0
