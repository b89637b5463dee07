import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qheatflow
import reference
from qheatflow.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    hermitian_eigenvalues,
    hermiticity_defects,
    kron,
    matrix_exp,
    matrix_exp_stack,
    partial_trace,
    partial_transpose,
    spectral_norm,
    spectral_norms,
)


def _rand_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _rand_unitary(rng, n):
    q, _ = np.linalg.qr(_rand_complex(rng, n))
    return q


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------

def test_kron_identity_case():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_projectors():
    p = np.diag([1.0, 0.0])
    assert np.array_equal(kron(p, p), np.diag([1.0, 0.0, 0.0, 0.0]))


def test_kron_matches_index_formula_oracle():
    # (A kron B)[i*n+k, j*n+l] = A[i,j] B[k,l], written out independently
    a, b = SIGMA_X, SIGMA_Y
    got = kron(a, b)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expected[i * 2 + k, j * 2 + l] = a[i, j] * b[k, l]
    assert np.max(np.abs(got - expected)) == 0.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kron_bilinear_and_associative(seed):
    rng = np.random.default_rng(seed)
    a, c = _rand_complex(rng, 2), _rand_complex(rng, 2)
    b = _rand_complex(rng, 3)
    s, t = rng.standard_normal(2)
    lin = kron(s * a + t * c, b) - (s * kron(a, b) + t * kron(c, b))
    asc = kron(kron(a, b), c) - kron(a, kron(b, c))
    assert np.max(np.abs(lin)) < 1e-12
    assert np.max(np.abs(asc)) < 1e-12


@pytest.mark.parametrize(
    "shape_a, shape_b", [((2, 2), (3, 3)), ((2, 3), (4, 1)), ((1, 5), (3, 2)), ((4, 4), (4, 4))]
)
@pytest.mark.parametrize(
    "complex_a, complex_b", [(False, False), (True, False), (False, True), (True, True)]
)
def test_kron_equals_numpy_kron_bit_for_bit(shape_a, shape_b, complex_a, complex_b):
    rng = np.random.default_rng(sum(shape_a) * 10 + sum(shape_b))

    def draw(shape, cplx):
        m = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if cplx else 0.0)
        # signed zeros, a subnormal and a huge entry; complex zeros with mixed signs
        specials = [-0.0, 0.0, 5e-324, -1e300] + ([complex(-0.0, 0.0), complex(0.0, -0.0)] if cplx else [])
        m.flat[: len(specials)] = specials[: m.size]
        return m

    a, b = draw(shape_a, complex_a), draw(shape_b, complex_b)
    with np.errstate(over="ignore", invalid="ignore"):  # -1e300 * -1e300 overflows in both
        got = kron(a, b)
        expected = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# partial trace / transpose
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    rng = np.random.default_rng(2)
    a = _rand_complex(rng, 3)
    rho_c = a @ a.conj().T
    rho_c /= np.trace(rho_c)
    b = _rand_complex(rng, 2)
    rho_h = b @ b.conj().T
    rho_h /= np.trace(rho_h)
    joint = kron(rho_c, rho_h)
    assert np.max(np.abs(partial_trace(joint, (3, 2), "H") - rho_c)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, (3, 2), "C") - rho_h)) < 1e-12


def test_partial_trace_maximally_mixed():
    assert np.max(np.abs(partial_trace(np.eye(4) / 4, (2, 2), "C") - np.eye(2) / 2)) == 0


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    m = _rand_complex(rng, 6)
    for which in ("C", "H"):
        assert np.isclose(np.trace(partial_trace(m, (2, 3), which)), np.trace(m))


def test_partial_trace_scaling_oracle():
    # tr_H(A kron B) = tr(B) * A for arbitrary (non-density) matrices
    rng = np.random.default_rng(4)
    a, b = _rand_complex(rng, 3), _rand_complex(rng, 3)
    got = partial_trace(kron(a, b), (3, 3), "H")
    assert np.max(np.abs(got - np.trace(b) * a)) < 1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 2), "H")


def test_partial_transpose_product_and_involution():
    rng = np.random.default_rng(5)
    a, b = _rand_complex(rng, 2), _rand_complex(rng, 3)
    m = kron(a, b)
    pt = partial_transpose(m, (2, 3), "H")
    assert np.max(np.abs(pt - kron(a, b.T))) < 1e-12
    assert np.max(np.abs(partial_transpose(pt, (2, 3), "H") - m)) < 1e-12


@pytest.mark.parametrize("which", ["C", "H"])
def test_partial_transpose_of_a_stack_is_each_matrixs_bit_for_bit(which):
    rng = np.random.default_rng(7)
    stack = np.stack([_rand_complex(rng, 6) for _ in range(3)])
    want = np.stack([stack[k].reshape(2, 3, 2, 3) for k in range(3)])
    want = want.transpose(0, 1, 4, 3, 2) if which == "H" else want.transpose(0, 3, 2, 1, 4)
    got = partial_transpose(stack, (2, 3), which)
    assert got.shape == stack.shape and got.tobytes() == want.reshape(3, 6, 6).tobytes()
    assert all(got[k].tobytes() == partial_transpose(stack[k], (2, 3), which).tobytes() for k in range(3))
    with pytest.raises(ValueError):
        partial_transpose(stack, (3, 3), which)


def test_partial_transpose_spectrum_of_product_states():
    rng = np.random.default_rng(6)
    a = _rand_complex(rng, 2)
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    b = _rand_complex(rng, 2)
    sig = b @ b.conj().T
    sig /= np.trace(sig)
    prod = kron(rho, sig)
    ev = hermitian_eigenvalues(prod)
    ev_pt = hermitian_eigenvalues(partial_transpose(prod, (2, 2), "H"))
    assert np.max(np.abs(ev - ev_pt)) < 1e-10


# ---------------------------------------------------------------------------
# eigenvalues / norms
# ---------------------------------------------------------------------------

def test_hermitian_eigenvalues_sorted():
    assert np.allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])


def test_hermitian_eigenvalues_pauli_x():
    assert np.allclose(hermitian_eigenvalues(SIGMA_X), [-1, 1])


def test_hermitian_eigenvalue_trace_identity():
    rng = np.random.default_rng(7)
    m = _rand_complex(rng, 5)
    h = m + m.conj().T
    assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-10


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_norm_basics():
    assert spectral_norm(np.eye(3)) == 1.0
    assert np.isclose(spectral_norm(2.0 * SIGMA_Z), 2.0)


def test_unitary_distance_at_most_two():
    rng = np.random.default_rng(8)
    for _ in range(20):
        u, v = _rand_unitary(rng, 4), _rand_unitary(rng, 4)
        assert spectral_norm(u - v) <= 2.0 + 1e-12
        assert np.isclose(spectral_norm(u), 1.0)


@pytest.mark.parametrize("n,dim", [(500, 4), (1, 4), (20, 9)])
def test_spectral_norms_equal_the_numpy_matrix_two_norm_bit_for_bit(n, dim):
    rng = np.random.default_rng(dim * 1000 + n)
    stack = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    stack[n // 2] = 0.0
    assert spectral_norms(stack).tobytes() == np.linalg.norm(stack, 2, axis=(-2, -1)).tobytes()


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def _expm_taylor(m, n_square=8, n_terms=24):
    """Independent scaling-and-squaring Taylor reference."""
    a = np.asarray(m, dtype=complex) / (2.0**n_square)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, n_terms + 1):
        term = term @ a / k
        out = out + term
    for _ in range(n_square):
        out = out @ out
    return out


def test_matrix_exp_zero():
    assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_rotation_closed_form():
    theta = 0.37
    got = matrix_exp(-1j * theta * SIGMA_Y)
    expected = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert np.max(np.abs(got - expected)) < 1e-12


def test_matrix_exp_vs_taylor_reference_and_step_halving():
    # the coupling Hamiltonian used by the exchange dynamics
    h = 0.5 * np.pi * 215.1 * (kron(SIGMA_Y, SIGMA_X) - kron(SIGMA_X, SIGMA_Y))
    t = 1.3e-3
    u = matrix_exp(-1j * h * t)
    ref = _expm_taylor(-1j * h * t)
    half = _expm_taylor(-1j * h * (t / 2))
    assert np.max(np.abs(u - ref)) < 1e-10
    assert np.max(np.abs(u - half @ half)) < 1e-10


def test_matrix_exp_unitary_for_anti_hermitian():
    rng = np.random.default_rng(9)
    m = _rand_complex(rng, 4)
    k = m + m.conj().T
    u = matrix_exp(-1j * 0.8 * k)
    assert spectral_norm(u @ u.conj().T - np.eye(4)) < 1e-10
    assert spectral_norm(u @ matrix_exp(1j * 0.8 * k) - np.eye(4)) < 1e-10


def test_matrix_exp_rejects_a_general_generator():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])  # Jordan block, not (anti-)Hermitian
    with pytest.raises(ValueError, match="Hermitian or anti-Hermitian"):
        matrix_exp(m)
    with pytest.raises(ValueError, match="Hermitian or anti-Hermitian"):
        matrix_exp_stack(np.array([np.eye(2), m]))


def test_import_does_not_load_scipy():
    # qheatflow does not depend on scipy
    code = (
        "import sys\n"
        "import qheatflow, qheatflow.cli, qheatflow.sweeps, qheatflow.properties, qheatflow.probe\n"
        "assert 'scipy' not in sys.modules, 'scipy imported at package import'\n"
    )
    src = str(Path(qheatflow.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, check=True)


def test_matrix_exp_stack_equals_matrix_exp_per_matrix():
    rng = np.random.default_rng(5)
    h1, h2 = (a + a.conj().T for a in (_rand_complex(rng, 4), _rand_complex(rng, 4)))
    stack = np.array([
        -1j * h1,  # anti-Hermitian branch
        h2,  # Hermitian branch
        np.zeros((4, 4)),  # both: Hermitian branch first
        -1e-12j * h1,  # anti-Hermitian but within the Hermiticity tolerance
    ])
    out = matrix_exp_stack(stack)
    for m, got in zip(stack, out):
        assert got.tobytes() == reference.matrix_exp(m).tobytes()


def test_hermiticity_defect_and_matrix_exp_equal_the_scalar_reference():
    """The n = 1 calls of the stacked kernels give the one-matrix bodies' bits."""
    rng = np.random.default_rng(11)
    assert hermiticity_defects(np.zeros((1, 0, 0)))[0] == 0.0
    for d in (1, 2, 4, 9):
        a = _rand_complex(rng, d)
        h = a + a.conj().T
        for m in (a, h, h + 1e-11j * a, np.full((d, d), np.nan)):
            got, want = hermiticity_defects(m[None])[0], reference.hermiticity_defect(m)
            assert np.array_equal(got, want, equal_nan=True)
        for m in (h, -1j * h, np.zeros((d, d)), -1e-12j * h):
            assert matrix_exp(m).tobytes() == reference.matrix_exp(m).tobytes()
