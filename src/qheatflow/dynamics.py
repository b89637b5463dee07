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

# perfbench/tracing.py wraps dynamics.matrix_exp and dynamics.spectral_norm; keep them bound.
from .linalg import (  # noqa: F401
    SIGMA_X,
    SIGMA_Y,
    kron,
    matrix_exp,
    matrix_exp_stack,
    spectral_norm,
    spectral_norms,
)
from .states import EnergySpectrum, bohr_nondegenerate, spectrum_levels

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
    reference when one exists.  ``stack`` is the checked one-matrix
    ``UnitaryStack`` that ``matrix`` is a view of.
    """

    matrix: np.ndarray
    commutator_norm: float
    epsilon: float | None = None

    def __post_init__(self):
        u = np.array(self.matrix, dtype=complex)[None]
        adjoint = u.conj().swapaxes(-1, -2)
        _check_unitary(u, adjoint)
        u.setflags(write=False)
        epsilon = None if self.epsilon is None else np.array([self.epsilon])
        self.__dict__.update(matrix=u[0], stack=UnitaryStack(u, np.array([self.commutator_norm]), adjoint, epsilon))

    @classmethod
    def _of_stack(cls, stack: "UnitaryStack") -> "UnitaryReport":
        """The report of a one-matrix stack ``_stack_report`` checked, built without checking again."""
        report = object.__new__(cls)
        u = stack.matrix[0]
        u.setflags(write=False)
        epsilon = None if stack.epsilon is None else float(stack.epsilon[0])
        report.__dict__.update(matrix=u, commutator_norm=float(stack.commutator_norm[0]), epsilon=epsilon, stack=stack)
        return report


def _check_unitary(u: np.ndarray, adjoint: np.ndarray) -> None:
    """Raise unless ||U U^dag - I|| <= UNITARITY_TOL, for U or each matrix of
    an (n, D, D) stack; ``adjoint`` is U^dag.

    The Frobenius norm bounds the spectral norm from above, so a Frobenius
    defect within half the tolerance settles the check; only the other
    matrices (and any with nan entries) take the SVD.  The squared
    Frobenius norm is summed over a real view of the defect, with no
    temporary arrays.
    """
    r = u @ adjoint
    _diagonal(r)[...] -= 1.0
    x = r.view(float)
    unsure = ~(np.einsum("...ij,...ij->...", x, x) <= (0.5 * UNITARITY_TOL) ** 2)
    if unsure.any():
        defect = spectral_norms(r[unsure])  # a 0-d mask indexes a single matrix as a stack of one
        bad = np.flatnonzero(defect > UNITARITY_TOL)
        if bad.size:
            raise ValueError(f"matrix is not unitary (defect {defect[bad[0]]:.3e})")


def _diagonal(m: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of each matrix of a C-contiguous stack."""
    side = m.shape[-1]
    return m.reshape(*m.shape[:-2], side * side)[..., :: side + 1]


def unwrap(u) -> np.ndarray:
    """Accept either a UnitaryReport or a bare matrix."""
    return u.matrix if isinstance(u, UnitaryReport) else np.asarray(u, dtype=complex)


def _commutator_norms(u: np.ndarray, h_total: np.ndarray) -> np.ndarray:
    """|| U H - H U || of U or each matrix of an (n, D, D) stack, against one
    H or one per matrix."""
    return spectral_norms(u @ h_total - h_total @ u)


def commutator_norm(u, h_total: np.ndarray) -> float:
    """|| U H - H U ||."""
    return float(_commutator_norms(unwrap(u), h_total))


def _total_hamiltonian(levels_c, levels_h=None) -> np.ndarray:
    """H_C + H_H of local levels (d,), or per cell of (n, d) levels; the hot
    levels default to the cold ones.

    The diagonal matrix of E_C(i) + E_H(j) at row i * d_H + j, which is
    kron(H_C, I) + kron(I, H_H) bit for bit: every product with an entry
    of the identity is exact, and every zero comes out +0.0.
    """
    e_c = np.asarray(levels_c, dtype=float)
    e_h = e_c if levels_h is None else np.asarray(levels_h, dtype=float)
    e = e_c[..., :, None] + e_h[..., None, :]
    e = e.reshape(*e.shape[:-2], e.shape[-2] * e.shape[-1])
    h = np.zeros(e.shape + e.shape[-1:], dtype=complex)
    _diagonal(h)[...] = e
    return h


def energy_preserving_unitary(
    spectrum: EnergySpectrum, rotations: list[ManifoldRotation] | tuple = ()
) -> UnitaryReport:
    """Identity outside the listed manifolds, rotation blocks inside.

    Requires a nondegenerate Bohr spectrum (equal local Hamiltonians) and
    at most one rotation per manifold.
    """
    blocks = [(rot.level_pair, (rot.theta, rot.phi, rot.lam, rot.kappa)) for rot in rotations]
    return UnitaryReport._of_stack(exchange_unitary_stack(spectrum.levels, 1, blocks))


def two_qubit_exchange_unitary(
    theta: float, kappa: float = 0.0, lam: float = 0.0, phi: float = 0.0, gap: float = 1.0
) -> UnitaryReport:
    """4x4 exchange unitary rotating the |01>/|10> manifold by theta."""
    blocks = [((0, 1), (theta, phi, lam, kappa))]
    return UnitaryReport._of_stack(exchange_unitary_stack(EnergySpectrum.two_level(gap).levels, 1, blocks))


def _xy_hamiltonian(j_hz: float) -> np.ndarray:
    # (pi J / 2) * (sigma_y^C sigma_x^H - sigma_x^C sigma_y^H); acts only
    # on the |01>/|10> manifold, so it commutes with any resonant pair.
    return 0.5 * np.pi * j_hz * (kron(SIGMA_Y, SIGMA_X) - kron(SIGMA_X, SIGMA_Y))


def xy_exchange_unitary(j_hz: float, t: float, gap: float = 1.0) -> UnitaryReport:
    """exp(-i H_int t) for the XY-type spin coupling of strength J (Hz).

    The block rotation angle grows linearly in time; tests read it off
    the matrix rather than assuming the slope.
    """
    return UnitaryReport._of_stack(xy_unitary_stack(np.array([j_hz], float), np.array([t], float), gap))


def _xy_perturbation(j_hz: np.ndarray, t: np.ndarray):
    """J_x -> (U, epsilon) for the XY coupling J plus J_x sigma_x sigma_x,
    for per-cell arrays of n values of J, t and (per call) J_x.

    U = exp(-i (H_xy + J_x sigma_x sigma_x) t), as an (n, 4, 4) stack, and
    epsilon = ||U - U_ref|| per matrix, with U_ref the J_x = 0 unitary.
    H_xy and U_ref are built once; each evaluation is one stacked
    exponential and norm, over the cells at ``index`` (J_x then holds one
    value per such cell).  By the contract of ``matrix_exp_stack`` each
    matrix and epsilon equal the single-cell ones bit for bit, whichever
    cells are evaluated together.
    """
    h_xy, t = _xy_generators(j_hz, t)
    xx = kron(SIGMA_X, SIGMA_X)
    u_ref = matrix_exp_stack(-1j * h_xy * t)

    def perturbed(j_x: np.ndarray, index=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        u = matrix_exp_stack(-1j * (h_xy[index] + j_x[:, None, None] * xx) * t[index])
        return u, spectral_norms(u - u_ref[index])

    return perturbed


def _xy_perturbation_epsilon(j_hz: np.ndarray, j_x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(epsilon, margin): the epsilon of ``_xy_perturbation`` in closed form,
    elementwise, and a bound on its distance to the stacked epsilon.

    H_xy + J_x sigma_x sigma_x is J_x sigma_x on {|00>, |11>} and
    J_x sigma_x + pi J sigma_y on {|01>, |10>}, where H_xy alone is
    pi J sigma_y.  On the first block U - U_ref has norm 2|sin(J_x t / 2)|;
    on the second it is a - i v.sigma, of norm |(a, v)|, with r = |(J_x, pi J)|,
    phi = pi J t, a = cos(r t) - cos(phi) and
    v = (sin(r t) J_x / r, sin(r t) pi J / r - sin(phi)).  sin(r t) / r is
    t sinc, finite at r = 0.  Both forms round to within a few ulps of the
    phases, which ``margin`` covers with room to spare (the tests hold the
    two to margin / 8).  A nan epsilon or margin is to count as a near tie.
    """
    pi_j = np.pi * j_hz
    r = np.hypot(j_x, pi_j)
    phi = pi_j * t
    sin_rt_over_r = t * np.sinc(r * t / np.pi)
    a = np.cos(r * t) - np.cos(phi)
    v = np.hypot(sin_rt_over_r * j_x, sin_rt_over_r * pi_j - np.sin(phi))
    epsilon = np.maximum(2.0 * np.abs(np.sin(0.5 * j_x * t)), np.hypot(a, v))
    margin = 64 * np.finfo(float).eps * (1.0 + (np.abs(j_x) + np.abs(pi_j)) * t)
    return epsilon, margin


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
    cells = (np.array([x], float) for x in (j_hz, j_x, t))
    return UnitaryReport._of_stack(perturbed_xy_unitary_stack(*cells, gap, gap if gap_h is None else gap_h))


def rotation_angle(u) -> float:
    """Extract the |01>/|10> rotation angle from a two-qubit exchange unitary."""
    return float(rotation_angles(unwrap(u)[None])[0])


class UnitaryStack(NamedTuple):
    """An (n, D, D) stack of unitaries with what ``UnitaryReport`` records
    for each: the commutator norm and, for the perturbed family, epsilon.
    ``adjoint`` is the stack's U^dag, a conjugated copy seen through
    ``swapaxes(-1, -2)``, made once and shared by every product with it."""

    matrix: np.ndarray
    commutator_norm: np.ndarray
    adjoint: np.ndarray
    epsilon: np.ndarray | None = None

    def take(self, index) -> "UnitaryStack":
        """The matrices at ``index`` with their records; each U^dag keeps the stack's layout, and so its BLAS calls."""
        epsilon = None if self.epsilon is None else self.epsilon[index]
        return UnitaryStack(self.matrix[index], self.commutator_norm[index], self.adjoint.swapaxes(-1, -2)[index].swapaxes(-1, -2), epsilon)


def _stack_report(u: np.ndarray, h_total, epsilon=None) -> UnitaryStack:
    """Check each matrix as ``UnitaryReport`` does and take its commutator
    norm (``_commutator_norms``) against ``h_total``, one H or one per matrix,
    or set it to a float: 0.0 where each commutes exactly, nan if not taken."""
    adjoint = u.conj().swapaxes(-1, -2)
    _check_unitary(u, adjoint)
    cnorm = np.full(len(u), h_total) if isinstance(h_total, float) else _commutator_norms(u, h_total)
    return UnitaryStack(u, cnorm, adjoint, epsilon)


def exchange_unitary_stack(levels, n: int, blocks) -> UnitaryStack:
    """``energy_preserving_unitary`` for each of n cells.

    ``levels`` are the local levels, one spectrum (d,) for every cell or
    one per cell (n, d).  ``blocks`` lists (manifold (n, m) with n < m,
    angles (theta, phi, lam, kappa)), each angle one value for every cell
    or a per-cell array; every block entry is the closed form of the
    module docstring, evaluated elementwise.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim == 2 and (levels == levels[:1]).all():
        levels = levels[0]  # one spectrum: one H for the stack
    if not np.all(bohr_nondegenerate(levels)):
        raise ValueError("spectrum has degenerate gaps; manifolds are not independent")
    d = levels.shape[-1]
    u = np.zeros((n, d * d, d * d), dtype=complex)
    _diagonal(u)[...] = 1.0
    cells = u[0] if n == 1 else u  # a lone matrix takes its entries as scalar stores
    seen = set()
    for (lo, hi), (theta, phi, lam, kappa) in blocks:
        if not 0 <= lo < hi < d:
            raise ValueError(f"manifold {(lo, hi)} invalid for dimension {d}")
        if (lo, hi) in seen:
            raise ValueError(f"duplicate rotation for manifold ({lo}, {hi})")
        seen.add((lo, hi))
        a, b = lo * d + hi, hi * d + lo
        ct, st = np.cos(theta), np.sin(theta)
        cells[..., a, a] = np.exp(1j * (kappa + lam)) * ct
        cells[..., a, b] = -np.exp(1j * (kappa - phi)) * st
        cells[..., b, a] = np.exp(1j * (kappa + phi)) * st
        cells[..., b, b] = np.exp(1j * (kappa - lam)) * ct
    # U connects only levels of equal total energy and H is diagonal and real,
    # so U H - H U is exactly zero where the entries and levels are finite;
    # H is built, and the dense norm taken, only when one is not
    energies = levels[..., :, None] + levels[..., None, :]
    exact = np.isfinite(np.maximum.reduce(np.abs(u), axis=(-2, -1)) * np.abs(energies).max(axis=(-2, -1))).all()
    return _stack_report(u, 0.0 if exact else _total_hamiltonian(levels))


def _xy_generators(j_hz: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell H_xy and t as (n, 1, 1)-broadcastable stacks; rejects t < 0."""
    if (t < 0).any():
        raise ValueError("time must be nonnegative")
    return _xy_hamiltonian(j_hz[:, None, None]), t[:, None, None]


def xy_unitary_stack(j_hz: np.ndarray, t: np.ndarray, gap=1.0) -> UnitaryStack:
    """``xy_exchange_unitary`` for per-cell arrays of J and t; ``gap`` is one
    gap or one per cell, or None to take no commutator norm (nan)."""
    h_xy, t = _xy_generators(j_hz, t)
    u = matrix_exp_stack(-1j * h_xy * t)
    return _stack_report(u, np.nan if gap is None else _total_hamiltonian(spectrum_levels(gap)))


def perturbed_xy_unitary_stack(j_hz: np.ndarray, j_x: np.ndarray, t: np.ndarray, gap, gap_h) -> UnitaryStack:
    """``perturbed_xy_unitary`` for per-cell arrays of J, J_x and t; each gap
    is one value or one per cell, and a ``gap`` of None takes no norm (nan)."""
    u, epsilon = _xy_perturbation(j_hz, t)(j_x)
    h_total = np.nan if gap is None else _total_hamiltonian(spectrum_levels(gap), spectrum_levels(gap_h))
    return _stack_report(u, h_total, epsilon=epsilon)


def rotation_angles(u: np.ndarray) -> np.ndarray:
    """``rotation_angle`` of each matrix of an (n, 4, 4) stack."""
    return np.arctan2(np.real(u[:, 2, 1]), np.real(u[:, 1, 1]))
