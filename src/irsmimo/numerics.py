"""Complex dense linear-algebra utilities shared by all modules.

Conventions used throughout the package:
  * vec/mat are column-major (Fortran order), so vec(A @ B @ C) equals
    kron(C.T, A) @ vec(B).
  * complex arrays are numpy complex128; shapes follow the docstrings.
"""

import numpy as np


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, block (i, j) of the result equals a[i, j] * b."""
    return np.kron(a, b)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product.

    Args:
        a: (ra, n) matrix, or a stack (..., ra, n) of them.
        b: (rb, n) matrix with the same column count, stacked like a.

    Returns:
        (..., ra * rb, n) matrix whose column j is kron(a[:, j], b[:, j]).
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("khatri_rao expects matrices")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"column-count mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    return (a[..., :, None, :] * b[..., None, :, :]).reshape(
        a.shape[:-2] + (a.shape[-2] * b.shape[-2], a.shape[-1]))


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def matrix_sums(a: np.ndarray) -> np.ndarray:
    """Sum of the entries of a matrix, or of each matrix of a stack."""
    return a.sum(axis=(-2, -1))


def sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of a matrix, or of each matrix of a stack."""
    m = np.abs(a)
    return matrix_sums(np.square(m, out=m))


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major stacking of a matrix into a vector."""
    return np.asarray(a).reshape(-1, order="F")


def mat(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of vec: reshape a length rows*cols vector column-major."""
    x = np.asarray(x).reshape(-1)
    if x.size != rows * cols:
        raise ValueError(f"cannot reshape length {x.size} into {rows}x{cols}")
    return x.reshape((rows, cols), order="F")


def commutation_matrix(m: int, n: int) -> np.ndarray:
    """Permutation matrix K with K @ vec(A) == vec(A.T) for any m-by-n A.

    Returns a real 0/1 array of shape (m*n, m*n).
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be >= 1")
    k = np.zeros((m * n, m * n))
    i, j = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    # vec(A) places A[i, j] at i + j*m; vec(A.T) places it at j + i*n.
    k[(j + i * n).ravel(), (i + j * m).ravel()] = 1.0
    return k


def truncated_svd(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-r approximation factors of a dense matrix, or of each
    matrix of a stack.

    Args:
        a: (n, m) matrix, or a stack (..., n, m) of them.
        r: target rank, r <= min(n, m).

    Returns:
        (u, s, v) with u (n, r), s (r,) non-increasing and non-negative,
        v (m, r), stacked like a; u @ diag(s) @ v.conj().T is the rank-r
        approximation.
    """
    if r > min(a.shape[-2:]):
        raise ValueError(f"rank {r} exceeds matrix dimensions {a.shape}")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u[..., :r], s[..., :r], vh[..., :r, :].conj().swapaxes(-1, -2)


def random_unit_modulus(shape: int | tuple[int, ...],
                        rng: np.random.Generator) -> np.ndarray:
    """Array of the given shape (an int for a vector) of i.i.d.
    unit-modulus entries with uniform phases."""
    return np.exp(2j * np.pi * rng.random(shape))
