"""Core linear-algebra kernels: tensor products, svd/eigh contracts, phases."""

import numpy as np
import pytest
from tps_oracle import svd_reconstruct

from tpslab.errors import (
    ContractError,
    NumericalError,
    ShapeError,
    SizeLimitError,
)
from tpslab.linalg import (
    eigh,
    expectation,
    svd,
    tensor_op,
    tensor_vec,
)

SQ2 = np.sqrt(2.0)


def test_tensor_vec_basis_product():
    out = tensor_vec([1, 0], [1, 0])
    np.testing.assert_array_equal(out, [1, 0, 0, 0])


def test_tensor_vec_scalar_case():
    out = tensor_vec([2 + 1j], [3 - 1j])
    np.testing.assert_allclose(out, [(2 + 1j) * (3 - 1j)])


def test_tensor_vec_hand_expansion():
    u = np.array([1, 1]) / SQ2
    v = np.array([1, -1]) / SQ2
    np.testing.assert_allclose(tensor_vec(u, v), np.array([1, -1, 1, -1]) / 2, atol=1e-15)


def test_tensor_vec_index_convention():
    # left factor is the slow index: entry (i*dv + j) = u[i] v[j]
    u = np.array([1.0, 2.0])
    v = np.array([10.0, 20.0, 30.0])
    out = tensor_vec(u, v)
    assert out[1 * 3 + 2] == u[1] * v[2]


def test_tensor_vec_size_limit():
    with pytest.raises(SizeLimitError):
        tensor_vec(np.ones(2049), np.ones(1025), max_dim=2**20)


def test_tensor_op_identity():
    np.testing.assert_array_equal(tensor_op(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_op_diagonal():
    out = tensor_op(np.diag([1.0, -1.0]), np.eye(2))
    np.testing.assert_array_equal(out, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_tensor_op_rejects_non_square():
    with pytest.raises(ShapeError):
        tensor_op(np.ones((2, 3)), np.eye(2))


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 4), (8, 5)])
def test_tensor_product_compatibility(da, db):
    # (A (x) B)(u (x) v) = (A u) (x) (B v)
    rng = np.random.default_rng(11 * da + db)
    for _ in range(20):
        a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        u = rng.normal(size=da) + 1j * rng.normal(size=da)
        v = rng.normal(size=db) + 1j * rng.normal(size=db)
        lhs = tensor_op(a, b) @ tensor_vec(u, v)
        rhs = tensor_vec(a @ u, b @ v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_svd_diagonal():
    res = svd(np.diag([3.0, 2.0]))
    np.testing.assert_allclose(res.singular_values, [3.0, 2.0])


def test_svd_rank_one_outer_product():
    rng = np.random.default_rng(5)
    u = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    res = svd(np.outer(u, v.conj()))
    np.testing.assert_allclose(
        res.singular_values[0], np.linalg.norm(u) * np.linalg.norm(v), rtol=1e-12
    )
    np.testing.assert_allclose(res.singular_values[1:], 0.0, atol=1e-12)


@pytest.mark.parametrize("m,n", [(4, 4), (5, 3), (3, 7), (32, 32)])
def test_svd_reconstruction_and_orthonormality(m, n):
    rng = np.random.default_rng(m * 100 + n)
    for _ in range(10):
        mat = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        res = svd(mat)
        scale = max(1.0, np.linalg.norm(mat))
        assert np.linalg.norm(svd_reconstruct(res) - mat) <= 1e-10 * scale
        k = min(m, n)
        np.testing.assert_allclose(res.left.conj().T @ res.left, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(res.right.conj().T @ res.right, np.eye(k), atol=1e-10)
        assert np.all(np.diff(res.singular_values) <= 1e-15)


def test_svd_deterministic_phases():
    rng = np.random.default_rng(17)
    mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    r1 = svd(mat.copy())
    r2 = svd(mat.copy())
    assert np.array_equal(r1.left, r2.left)
    assert np.array_equal(r1.right, r2.right)
    for k in range(6):
        piv = r1.left[np.argmax(np.abs(r1.left[:, k])), k]
        assert piv.imag == pytest.approx(0.0, abs=1e-14)
        assert piv.real > 0


def test_svd_nonconvergence_wrapped(monkeypatch):
    def boom(*a, **k):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", boom)
    with pytest.raises(NumericalError, match="converge"):
        svd(np.eye(3))


def test_eigh_diagonal():
    w, v = eigh(np.diag([0.0, 1.0]))
    np.testing.assert_allclose(w, [0.0, 1.0])
    np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)


def test_eigh_pauli_x_hand_values():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    w, v = eigh(sx)
    np.testing.assert_allclose(w, [-1.0, 1.0])
    np.testing.assert_allclose(np.abs(v[:, 0]), [1 / SQ2, 1 / SQ2], atol=1e-14)
    np.testing.assert_allclose(np.abs(v[:, 1]), [1 / SQ2, 1 / SQ2], atol=1e-14)
    # phase convention: first largest-modulus component real positive
    assert v[0, 0].real > 0 and v[0, 1].real > 0
    np.testing.assert_allclose(sx @ v[:, 0], -v[:, 0], atol=1e-14)


def test_eigh_random_reconstruction():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (m + m.conj().T) / 2
        w, v = eigh(h)
        np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-9)
        for k in range(4):
            assert np.linalg.norm(h @ v[:, k] - w[k] * v[:, k]) <= 1e-9


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ContractError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_bit_identical_repeat():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = (m + m.conj().T) / 2
    w1, v1 = eigh(h.copy())
    w2, v2 = eigh(h.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_expectation_identity():
    psi = np.array([1, 1j, -1, 1]) / 2.0
    assert expectation(np.eye(4), psi) == pytest.approx(1.0, abs=1e-12)


def test_expectation_pauli_z_plus_state():
    sz = np.diag([1.0, -1.0])
    psi = np.array([1.0, 1.0]) / SQ2
    assert expectation(sz, psi) == pytest.approx(0.0, abs=1e-12)


def test_expectation_requires_unit_state():
    with pytest.raises(ContractError):
        expectation(np.eye(2), np.array([1.0, 1.0]))


def test_rejects_non_finite_entries():
    with pytest.raises(ContractError):
        tensor_vec([1.0, np.nan], [1.0])
