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
    m = _square(m)
    if m.shape[0] != d_c * d_h:
        raise ValueError(f"matrix side {m.shape[0]} does not match dims {dims}")
    return m.reshape(d_c, d_h, d_c, d_h)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices with the C factor first: kron(A_C, B_H).

    One broadcast multiply: the products ``np.kron`` takes, bit for bit,
    without its per-call dispatch.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def partial_trace(m, dims: tuple[int, int], which: str) -> np.ndarray:
    """Trace out one subsystem ('C' or 'H') of a joint-space matrix."""
    r = _reshape4(m, dims)
    if which == "H":
        return np.einsum("ijkj->ik", r)
    if which == "C":
        return np.einsum("ijil->jl", r)
    raise ValueError(f"subsystem tag must be 'C' or 'H', got {which!r}")


def partial_transpose(m, dims: tuple[int, int], which: str) -> np.ndarray:
    """Transpose the indices of one subsystem only."""
    r = _reshape4(m, dims)
    if which == "H":
        out = r.transpose(0, 3, 2, 1)
    elif which == "C":
        out = r.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"subsystem tag must be 'C' or 'H', got {which!r}")
    d = dims[0] * dims[1]
    return out.reshape(d, d)


def hermiticity_defect(m) -> float:
    """Max absolute entry of M - M†."""
    m = _square(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real eigenvalues; rejects non-Hermitian input."""
    m = _square(m)
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return np.linalg.eigvalsh(m)


def spectral_norm(m) -> float:
    """Largest singular value."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.norm(m, 2))


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential of a Hermitian or anti-Hermitian generator.

    Every use in this package is exp(-i H t) with H Hermitian.  Both kinds
    go through the eigendecomposition of ``matrix_exp_stack`` (``_eigh_exp``
    on the one matrix); any other square input raises ValueError.
    """
    m = _square(m)
    for x, phase in ((m, 1.0), (1j * m, -1j)):  # the branches of matrix_exp_stack, in its order
        if hermiticity_defects(x) <= HERMITICITY_TOL:
            return _eigh_exp(x, phase)
    raise ValueError(NOT_A_GENERATOR)


def hermiticity_defects(m: np.ndarray) -> np.ndarray:
    """``hermiticity_defect`` of each matrix of an (n, D, D) stack."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).reshape(*m.shape[:-2], m.shape[-1] ** 2).max(axis=-1)


def spectral_norms(m: np.ndarray) -> np.ndarray:
    """``spectral_norm`` of each matrix of an (n, D, D) stack."""
    return np.linalg.norm(m, 2, axis=(-2, -1))


def _eigh_exp(x: np.ndarray, phase) -> np.ndarray:
    """exp(phase * H) of the Hermitian part H of a matrix, or of each matrix of a stack."""
    w, v = np.linalg.eigh(0.5 * (x + x.conj().swapaxes(-1, -2)))
    return (v * np.exp(phase * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def matrix_exp_stack(m) -> np.ndarray:
    """``matrix_exp`` of each matrix of an (n, D, D) stack.

    Each matrix takes the branch ``matrix_exp`` takes for it, through the
    same formula (exp(1.0 * w) is exp(w) bit for bit); stacked ``eigh``
    and matmul make the same LAPACK/BLAS call per matrix, so every result
    equals the single-matrix one bit for bit.  A matrix that is neither
    Hermitian nor anti-Hermitian raises ValueError, as in ``matrix_exp``.
    """
    m = np.asarray(m, dtype=complex)
    herm = hermiticity_defects(m) <= HERMITICITY_TOL
    if herm.all():
        return _eigh_exp(m, 1.0)
    k = 1j * m
    anti = ~herm & (hermiticity_defects(k) <= HERMITICITY_TOL)
    if anti.all():
        return _eigh_exp(k, -1j)
    if not (herm | anti).all():
        raise ValueError(NOT_A_GENERATOR)
    out = np.empty_like(m)
    out[herm], out[anti] = _eigh_exp(m[herm], 1.0), _eigh_exp(k[anti], -1j)
    return out
