"""Dense complex linear algebra over small bipartite Hilbert spaces.

Matrices are plain complex numpy arrays.  Joint indices are C-major: the
product basis state |i_C i_H> sits at row/column  i_C * d_H + i_H,  i.e.
the C factor is the slow index and the H factor the fast one.  Every
function in this package that takes a joint-space matrix assumes this
ordering.

Intended for local dimensions up to ~16 per subsystem; everything is
dense and double precision.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
NOT_A_GENERATOR = "matrix_exp needs a Hermitian or anti-Hermitian matrix"

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _reshape4(m, dims: tuple[int, int]) -> np.ndarray:
    d_c, d_h = dims
    m = _square(m) if np.ndim(m) < 3 else np.asarray(m, dtype=complex)
    if m.shape[-2:] != (d_c * d_h,) * 2:
        raise ValueError(f"matrix side {m.shape[-1]} does not match dims {dims}")
    return m.reshape(*m.shape[:-2], d_c, d_h, d_c, d_h)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices with the C factor first: kron(A_C, B_H),
    or of each pair of two broadcast (..., rows, columns) stacks.

    One broadcast multiply: the products ``np.kron`` takes, bit for bit,
    without its per-call dispatch.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def partial_trace(m, dims: tuple[int, int], which: str) -> np.ndarray:
    """Trace out one subsystem ('C' or 'H') of a joint-space matrix, or of
    each matrix of an (n, D, D) stack."""
    r = _reshape4(m, dims)
    if which == "H":
        return np.einsum("...ijkj->...ik", r)
    if which == "C":
        return np.einsum("...ijil->...jl", r)
    raise ValueError(f"subsystem tag must be 'C' or 'H', got {which!r}")


def partial_transpose(m, dims: tuple[int, int], which: str) -> np.ndarray:
    """Transpose the indices of one subsystem only, of a matrix or of each
    matrix of an (n, D, D) stack."""
    m = np.asarray(m, dtype=complex)
    d = dims[0] * dims[1]
    if m.ndim not in (2, 3) or m.shape[-2:] != (d, d):
        raise ValueError(f"expected ({d}, {d}) matrices for dims {dims}, got shape {m.shape}")
    if which not in ("C", "H"):
        raise ValueError(f"subsystem tag must be 'C' or 'H', got {which!r}")
    r = m.reshape(-1, *dims, *dims)  # (n, i_C, i_H, j_C, j_H)
    return (r.swapaxes(2, 4) if which == "H" else r.swapaxes(1, 3)).reshape(m.shape)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real eigenvalues of a matrix, or of each of an (n, D, D)
    stack; rejects non-Hermitian input."""
    m = np.asarray(m, dtype=complex)
    defect = hermiticity_defects(_square(m)[None] if m.ndim < 3 else m).max(initial=0.0)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return np.linalg.eigvalsh(m)


def spectral_norm(m) -> float:
    """Largest singular value."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.norm(m, 2))


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential of a Hermitian or anti-Hermitian generator.

    Every use in this package is exp(-i H t) with H Hermitian.  It is
    ``matrix_exp_stack`` on a one-matrix stack; any other square input
    raises ValueError.
    """
    return matrix_exp_stack(_square(m)[None])[0]


def hermiticity_defects(m: np.ndarray) -> np.ndarray:
    """Max absolute entry of M - M† of each matrix of an (n, D, D) stack
    (0.0 for an empty matrix)."""
    return np.maximum.reduce(np.abs(m - m.conj().swapaxes(-1, -2)).reshape(*m.shape[:-2], m.shape[-1] ** 2), axis=-1, initial=0.0)


def spectral_norms(m: np.ndarray) -> np.ndarray:
    """``spectral_norm`` of each matrix of an (n, D, D) stack.

    The largest of the descending singular values: the LAPACK call that
    ``np.linalg.norm(m, 2, axis=(-2, -1))`` makes, bit for bit, without
    its axis handling.
    """
    return np.linalg.svd(m, compute_uv=False)[..., 0]


def _eigh_exp(x: np.ndarray, phase) -> np.ndarray:
    """exp(phase * H) of the Hermitian part H of a matrix, or of each matrix of a stack."""
    w, v = np.linalg.eigh(0.5 * (x + x.conj().swapaxes(-1, -2)))
    return (v * np.exp(phase * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def matrix_exp_stack(m) -> np.ndarray:
    """``matrix_exp`` of each matrix of an (n, D, D) stack.

    Each matrix takes its own branch, Hermitian first, through the one
    formula of ``_eigh_exp`` (exp(1.0 * w) is exp(w) bit for bit); stacked
    ``eigh`` and matmul make the same LAPACK/BLAS call per matrix, so every
    result equals ``matrix_exp`` of that matrix alone bit for bit.  A
    matrix that is neither Hermitian nor anti-Hermitian raises ValueError.
    A branch no matrix takes is skipped, and so is the anti-Hermitian test
    of a stack of Hermitian matrices.
    """
    m = np.asarray(m, dtype=complex)
    herm = hermiticity_defects(m) <= HERMITICITY_TOL
    if herm.all():
        return _eigh_exp(m, 1.0)
    k = 1j * m
    anti = ~herm & (hermiticity_defects(k) <= HERMITICITY_TOL)
    if not (herm | anti).all():
        raise ValueError(NOT_A_GENERATOR)
    out = np.empty_like(m)
    if herm.any():
        out[herm] = _eigh_exp(m[herm], 1.0)
    out[anti] = _eigh_exp(k[anti], -1j)
    return out
