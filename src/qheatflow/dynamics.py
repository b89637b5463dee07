"""Energy-preserving exchange unitaries and near-preserving perturbations.

With equal local spectra and nondegenerate gaps, a work-free unitary can
only rotate within the exchange manifolds {|n m>, |m n>}.  Each manifold
block (indices a = n*d+m, b = m*d+n, n < m) takes the form

    [ e^{i(kappa+lam)} cos(theta)   -e^{i(kappa-phi)} sin(theta) ]
    [ e^{i(kappa+phi)} sin(theta)    e^{i(kappa-lam)} cos(theta) ]

The transition tables depend on the phases only through cos(xi+phi+lam),
so the phase-free rotation (kappa = lam = phi = 0) is the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    kron,
    matrix_exp,
    matrix_exp_stack,
    spectral_norm,
    spectral_norms,
)
from .states import EnergySpectrum

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class ManifoldRotation:
    """Rotation angle and phases for one exchange manifold (n, m), n < m."""

    level_pair: tuple[int, int]
    theta: float
    phi: float = 0.0
    lam: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        n, m = self.level_pair
        if n == m:
            raise ValueError("manifold levels must differ")
        if n > m:
            object.__setattr__(self, "level_pair", (m, n))


@dataclass(frozen=True)
class UnitaryReport:
    """A constructed unitary plus how well it conserves energy.

    ``commutator_norm`` is ||[U, H_C + H_H]|| for the Hamiltonian the
    constructor was given; ``epsilon`` is ||U - U_ref|| against an ideal
    reference when one exists.
    """

    matrix: np.ndarray
    commutator_norm: float
    epsilon: float | None = None

    def __post_init__(self):
        u = np.array(self.matrix, dtype=complex)
        _check_unitary(u)
        u.setflags(write=False)
        object.__setattr__(self, "matrix", u)


def _check_unitary(u: np.ndarray, adjoint: np.ndarray | None = None) -> None:
    """Raise unless ||U U^dag - I|| <= UNITARITY_TOL, for U or each matrix of
    an (n, D, D) stack; ``adjoint`` is U^dag when the caller has it.

    The Frobenius norm bounds the spectral norm from above, so a Frobenius
    defect within half the tolerance settles the check; only the other
    matrices (and any with nan entries) take the SVD.
    """
    if adjoint is None:
        adjoint = u.conj().swapaxes(-1, -2)
    r = u @ adjoint
    r -= np.eye(u.shape[-1])
    unsure = ~(np.linalg.norm(r, axis=(-2, -1)) <= 0.5 * UNITARITY_TOL)
    if unsure.any():
        defect = spectral_norms(r[unsure])  # a 0-d mask indexes a single matrix as a stack of one
        bad = np.flatnonzero(defect > UNITARITY_TOL)
        if bad.size:
            raise ValueError(f"matrix is not unitary (defect {defect[bad[0]]:.3e})")


def unwrap(u) -> np.ndarray:
    """Accept either a UnitaryReport or a bare matrix."""
    return u.matrix if isinstance(u, UnitaryReport) else np.asarray(u, dtype=complex)


def _commutes_exactly(u: np.ndarray, h_total: np.ndarray) -> np.ndarray:
    """Is U H - H U the exact zero matrix by structure?  For U or per matrix
    of an (n, D, D) stack, against one H or one per matrix.

    True when H is diagonal and real, and U_ij != 0 only where
    H_ii == H_jj: then (U H)_ij and (H U)_ij are the same single rounded
    product (every other term of the matrix product is an exact zero), so
    the dense difference is exactly zero and its norm exactly 0.0.  The
    entries and their products must be finite.
    """
    h_total = np.asarray(h_total)
    h = h_total.diagonal(axis1=-2, axis2=-1)
    diagonal = (np.count_nonzero(h_total, axis=(-2, -1)) == np.count_nonzero(h, axis=-1)) & ~h.imag.any(axis=-1)
    finite = np.isfinite(np.abs(u).max(axis=(-2, -1)) * np.abs(h).max(axis=-1))
    return diagonal & finite & ~((u != 0) & (h[..., :, None] != h[..., None, :])).any(axis=(-2, -1))


def commutator_norm(u, h_total: np.ndarray) -> float:
    """|| U H - H U ||; exactly 0.0 without the products when U only
    connects levels of equal energy (``_commutes_exactly``)."""
    u = unwrap(u)
    if _commutes_exactly(u, h_total):
        return 0.0
    return spectral_norm(u @ h_total - h_total @ u)


def _two_level(gap) -> np.ndarray:
    """The levels (0, gap) of ``EnergySpectrum.two_level``, per cell for an array of gaps."""
    gap = np.asarray(gap, dtype=float)
    return np.stack([np.zeros_like(gap), gap], axis=-1)


def _total_hamiltonian(levels_c, levels_h=None) -> np.ndarray:
    """H_C + H_H of local levels (d,), or per cell of (n, d) levels; the hot
    levels default to the cold ones.

    The diagonal matrix of E_C(i) + E_H(j) at row i * d_H + j, which is
    kron(H_C, I) + kron(I, H_H) bit for bit: every product with an entry
    of the identity is exact, and every zero comes out +0.0.
    """
    e_c = np.asarray(levels_c, dtype=float)
    e_h = e_c if levels_h is None else np.asarray(levels_h, dtype=float)
    e = (e_c[..., :, None] + e_h[..., None, :]).reshape(*np.broadcast_shapes(e_c.shape[:-1], e_h.shape[:-1]), -1)
    h = np.zeros(e.shape + e.shape[-1:], dtype=complex)
    diag = np.arange(e.shape[-1])
    h[..., diag, diag] = e
    return h


def energy_preserving_unitary(
    spectrum: EnergySpectrum, rotations: list[ManifoldRotation] | tuple = ()
) -> UnitaryReport:
    """Identity outside the listed manifolds, rotation blocks inside.

    Requires a nondegenerate Bohr spectrum (equal local Hamiltonians) and
    at most one rotation per manifold.
    """
    if not spectrum.bohr_nondegenerate():
        raise ValueError("spectrum has degenerate gaps; manifolds are not independent")
    d = spectrum.dim
    u = np.eye(d * d, dtype=complex)
    seen: set[tuple[int, int]] = set()
    for rot in rotations:
        n, m = rot.level_pair
        if not 0 <= n < m < d:
            raise ValueError(f"manifold {rot.level_pair} invalid for dimension {d}")
        if (n, m) in seen:
            raise ValueError(f"duplicate rotation for manifold ({n}, {m})")
        seen.add((n, m))
        a, b = n * d + m, m * d + n
        ct, st = np.cos(rot.theta), np.sin(rot.theta)
        u[a, a] = np.exp(1j * (rot.kappa + rot.lam)) * ct
        u[a, b] = -np.exp(1j * (rot.kappa - rot.phi)) * st
        u[b, a] = np.exp(1j * (rot.kappa + rot.phi)) * st
        u[b, b] = np.exp(1j * (rot.kappa - rot.lam)) * ct
    cnorm = commutator_norm(u, _total_hamiltonian(spectrum.levels))
    return UnitaryReport(u, cnorm)


def two_qubit_exchange_unitary(
    theta: float,
    kappa: float = 0.0,
    lam: float = 0.0,
    phi: float = 0.0,
    gap: float = 1.0,
) -> UnitaryReport:
    """4x4 exchange unitary rotating the |01>/|10> manifold by theta."""
    spec = EnergySpectrum.two_level(gap)
    rot = ManifoldRotation((0, 1), theta, phi=phi, lam=lam, kappa=kappa)
    return energy_preserving_unitary(spec, [rot])


def _xy_hamiltonian(j_hz: float) -> np.ndarray:
    # (pi J / 2) * (sigma_y^C sigma_x^H - sigma_x^C sigma_y^H); acts only
    # on the |01>/|10> manifold, so it commutes with any resonant pair.
    return 0.5 * np.pi * j_hz * (kron(SIGMA_Y, SIGMA_X) - kron(SIGMA_X, SIGMA_Y))


def xy_exchange_unitary(j_hz: float, t: float, gap: float = 1.0) -> UnitaryReport:
    """exp(-i H_int t) for the XY-type spin coupling of strength J (Hz).

    The block rotation angle grows linearly in time; tests read it off
    the matrix rather than assuming the slope.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    u = matrix_exp(-1j * _xy_hamiltonian(j_hz) * t)
    cnorm = commutator_norm(u, _total_hamiltonian(_two_level(gap)))
    return UnitaryReport(u, cnorm)


def _xy_perturbation(j_hz: np.ndarray, t: np.ndarray):
    """J_x -> (U, epsilon) for the XY coupling J plus J_x sigma_x sigma_x,
    for per-cell arrays of n values of J, t and (per call) J_x.

    U = exp(-i (H_xy + J_x sigma_x sigma_x) t), as an (n, 4, 4) stack, and
    epsilon = ||U - U_ref|| per matrix, with U_ref the J_x = 0 unitary.
    H_xy and U_ref are built once, so repeated evaluations (the J_x
    bisection) cost one stacked exponential and norm each.  By the
    contract of ``matrix_exp_stack`` each matrix and epsilon equal the
    single-cell ones bit for bit.
    """
    h_xy, t = _xy_generators(j_hz, t)
    xx = kron(SIGMA_X, SIGMA_X)
    u_ref = matrix_exp_stack(-1j * h_xy * t)

    def perturbed(j_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = matrix_exp_stack(-1j * (h_xy + j_x[:, None, None] * xx) * t)
        return u, spectral_norms(u - u_ref)

    return perturbed


def perturbed_xy_unitary(
    j_hz: float, j_x: float, t: float, gap: float = 1.0, gap_h: float | None = None
) -> UnitaryReport:
    """XY coupling plus a J_x sigma_x sigma_x term that injects work.

    epsilon is the spectral-norm distance to the unperturbed member of
    the same family (the J_x = 0 unitary), which is the explicit
    energy-preserving reference used by the nonideal witness.
    ``commutator_norm`` is taken against H_C + H_H with gaps ``gap`` and
    ``gap_h`` (default: ``gap``).
    """
    u, eps = _xy_perturbation(np.array([j_hz], dtype=float), np.array([t], dtype=float))(
        np.array([j_x], dtype=float)
    )
    u, eps = u[0], float(eps[0])
    h_total = _total_hamiltonian(_two_level(gap), _two_level(gap if gap_h is None else gap_h))
    return UnitaryReport(u, commutator_norm(u, h_total), epsilon=eps)


def rotation_angle(u) -> float:
    """Extract the |01>/|10> rotation angle from a two-qubit exchange unitary."""
    u = unwrap(u)
    return float(np.arctan2(np.real(u[2, 1]), np.real(u[1, 1])))


class UnitaryStack(NamedTuple):
    """An (n, D, D) stack of unitaries with what ``UnitaryReport`` records
    for each: the commutator norm and, for the perturbed family, epsilon.
    ``adjoint`` is the stack's U^dag, a conjugated copy seen through
    ``swapaxes(-1, -2)``, made once and shared by every product with it."""

    matrix: np.ndarray
    commutator_norm: np.ndarray
    adjoint: np.ndarray
    epsilon: np.ndarray | None = None


def _stack_report(u: np.ndarray, h_total: np.ndarray, epsilon=None) -> UnitaryStack:
    """Take each matrix's commutator norm, by the rule of ``commutator_norm``,
    and check it as ``UnitaryReport`` does; ``h_total`` is one H or one per
    matrix."""
    adjoint = u.conj().swapaxes(-1, -2)
    _check_unitary(u, adjoint)
    cnorm = np.zeros(len(u))
    dense = ~_commutes_exactly(u, h_total)
    if dense.any():
        x, h = u[dense], np.broadcast_to(h_total, u.shape)[dense]
        cnorm[dense] = spectral_norms(x @ h - h @ x)
    return UnitaryStack(u, cnorm, adjoint, epsilon)


def exchange_unitary_stack(levels, n: int, angles: dict) -> UnitaryStack:
    """``energy_preserving_unitary`` for each of n cells.

    ``levels`` are the local levels, one spectrum (d,) for every cell or
    one per cell (n, d).  ``angles`` maps a manifold (n, m), n < m, to
    per-cell arrays (theta, phi, lam, kappa); every block entry is the
    closed form of the single-cell constructor, evaluated elementwise.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim == 2 and (levels == levels[:1]).all():
        levels = levels[0]  # one spectrum: one H for the stack
    for row in set(map(tuple, np.atleast_2d(levels).tolist())):
        if not EnergySpectrum(row).bohr_nondegenerate():
            raise ValueError("spectrum has degenerate gaps; manifolds are not independent")
    d = levels.shape[-1]
    u = np.zeros((n, d * d, d * d), dtype=complex)
    u[:] = np.eye(d * d)
    for (lo, hi), (theta, phi, lam, kappa) in angles.items():
        if not 0 <= lo < hi < d:
            raise ValueError(f"manifold {(lo, hi)} invalid for dimension {d}")
        a, b = lo * d + hi, hi * d + lo
        ct, st = np.cos(theta), np.sin(theta)
        u[:, a, a] = np.exp(1j * (kappa + lam)) * ct
        u[:, a, b] = -np.exp(1j * (kappa - phi)) * st
        u[:, b, a] = np.exp(1j * (kappa + phi)) * st
        u[:, b, b] = np.exp(1j * (kappa - lam)) * ct
    return _stack_report(u, _total_hamiltonian(levels))


def _xy_generators(j_hz: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell H_xy and t as (n, 1, 1)-broadcastable stacks; rejects t < 0."""
    if (t < 0).any():
        raise ValueError("time must be nonnegative")
    return _xy_hamiltonian(j_hz[:, None, None]), t[:, None, None]


def xy_unitary_stack(j_hz: np.ndarray, t: np.ndarray, gap=1.0) -> UnitaryStack:
    """``xy_exchange_unitary`` for per-cell arrays of J and t; ``gap`` is one
    gap or one per cell."""
    h_xy, t = _xy_generators(j_hz, t)
    u = matrix_exp_stack(-1j * h_xy * t)
    return _stack_report(u, _total_hamiltonian(_two_level(gap)))


def perturbed_xy_unitary_stack(j_hz: np.ndarray, j_x: np.ndarray, t: np.ndarray, gap, gap_h) -> UnitaryStack:
    """``perturbed_xy_unitary`` for per-cell arrays of J, J_x and t; each gap
    is one value or one per cell."""
    u, epsilon = _xy_perturbation(j_hz, t)(j_x)
    h_total = _total_hamiltonian(_two_level(gap), _two_level(gap_h))
    return _stack_report(u, h_total, epsilon=epsilon)


def rotation_angles(u: np.ndarray) -> np.ndarray:
    """``rotation_angle`` of each matrix of an (n, 4, 4) stack."""
    return np.arctan2(np.real(u[:, 2, 1]), np.real(u[:, 1, 1]))
