"""Linear-algebra helper tests against numpy/analytic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss
from irsmimo.numerics import (commutation_matrix, khatri_rao, kron, mat,
                              random_unit_modulus, sq_norms, truncated_svd,
                              vec)

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def test_vec_is_column_major():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 3.0, 2.0, 4.0])


@given(seed=seeds, n=dims, m=dims)
@settings(deadline=None, max_examples=50)
def test_vec_mat_roundtrip(seed, n, m):
    a = cgauss(np.random.default_rng(seed), (n, m))
    assert np.array_equal(mat(vec(a), n, m), a)


def test_mat_rejects_wrong_length():
    with pytest.raises(ValueError):
        mat(np.arange(5.0), 2, 3)


@given(seed=seeds, n=dims, k=dims, m=dims, p=dims)
@settings(deadline=None, max_examples=50)
def test_vec_kron_identity(seed, n, k, m, p):
    rng = np.random.default_rng(seed)
    a, b, c = cgauss(rng, (n, k)), cgauss(rng, (k, m)), cgauss(rng, (m, p))
    np.testing.assert_allclose(vec(a @ b @ c), kron(c.T, a) @ vec(b),
                               rtol=0, atol=1e-10)


@given(seed=seeds, ra=dims, rb=dims, n=dims)
@settings(deadline=None, max_examples=50)
def test_khatri_rao_columns(seed, ra, rb, n):
    rng = np.random.default_rng(seed)
    a, b = cgauss(rng, (ra, n)), cgauss(rng, (rb, n))
    out = khatri_rao(a, b)
    assert out.shape == (ra * rb, n)
    for j in range(n):
        assert np.array_equal(out[:, j], np.kron(a[:, j], b[:, j]))


def test_khatri_rao_rejects_bad_inputs():
    with pytest.raises(ValueError):
        khatri_rao(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        khatri_rao(np.ones(3), np.ones((2, 3)))


# Matrix shapes whose norms the pipeline takes at paper and desk scale.
NORM_SHAPES = [(576, 36), (128, 16), (36, 3), (16, 3), (36, 300)]


@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_sq_norms_of_a_stack_equal_each_matrix_alone(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for size in range(1, 17):
        stack = cgauss(rng, (size,) + shape)
        got = sq_norms(stack)
        assert got.shape == (size,)
        for i, x in enumerate(stack):
            assert got[i] == sq_norms(np.array(x))


@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_sq_norms_match_linalg_norm(shape):
    a = cgauss(np.random.default_rng(7), shape)
    np.testing.assert_allclose(sq_norms(a), np.linalg.norm(a) ** 2,
                               rtol=1e-12, atol=0)


def test_sq_norms_of_zeros_are_zero():
    assert sq_norms(np.zeros((4, 3), dtype=complex)) == 0.0
    assert np.array_equal(sq_norms(np.zeros((2, 4, 3))), [0.0, 0.0])


def test_commutation_matrix_2x2_frozen():
    # vec(A) = [a11, a21, a12, a22] maps to vec(A.T) = [a11, a12, a21, a22].
    expected = np.array([[1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])
    assert np.array_equal(commutation_matrix(2, 2), expected)


@given(seed=seeds, m=dims, n=dims)
@settings(deadline=None, max_examples=50)
def test_commutation_matrix_property(seed, m, n):
    a = cgauss(np.random.default_rng(seed), (m, n))
    k = commutation_matrix(m, n)
    assert np.array_equal(k @ vec(a), vec(a.T))
    assert np.array_equal(k.sum(axis=0), np.ones(m * n))
    assert np.array_equal(k.sum(axis=1), np.ones(m * n))
    assert np.array_equal(k.T, commutation_matrix(n, m))


def test_commutation_matrix_rejects_bad_dims():
    with pytest.raises(ValueError):
        commutation_matrix(0, 3)


def test_truncated_svd_eckart_young():
    rng = np.random.default_rng(0)
    a = cgauss(rng, (8, 6))
    sig = np.linalg.svd(a, compute_uv=False)
    for r in (1, 3, 6):
        u, s, v = truncated_svd(a, r)
        assert u.shape == (8, r) and v.shape == (6, r)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(r), atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(r), atol=1e-12)
        assert np.all(np.diff(s) <= 1e-12) and np.all(s >= 0)
        err = np.linalg.norm(a - (u * s) @ v.conj().T)
        np.testing.assert_allclose(err, np.sqrt(np.sum(sig[r:] ** 2)),
                                   rtol=1e-10, atol=1e-12)


def test_truncated_svd_rejects_rank():
    with pytest.raises(ValueError):
        truncated_svd(np.ones((3, 4)), 4)


def test_random_unit_modulus():
    rng = np.random.default_rng(5)
    v = random_unit_modulus(64, rng)
    assert v.shape == (64,)
    np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
    again = random_unit_modulus(64, np.random.default_rng(5))
    assert np.array_equal(v, again)
