"""Locally thermal bipartite states.

Constructors for the state families used throughout the package: a pair
of Gibbs marginals plus correlations confined to the exchange manifolds
{|n m>, |m n>}.  All joint matrices are C-major (see linalg).

Coherence convention: for a manifold pair n < m with joint indices
a = n*d + m and b = m*d + n, the upper-triangle entry is stored as

    rho[a, b] = eta * exp(i xi) * sqrt(rho[a,a] * rho[b,b]).

Units: k = hbar = 1; inverse temperatures are dimensionless products
beta * E with the local gap (so "beta_C = 1.13" already includes the
gap for a two-level system with E = 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    hermitian_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
)

TRACE_TOL = 1e-10
HERM_TOL = 1e-10
PSD_TOL = 1e-10
THERMAL_TOL = 1e-9
BOHR_TOL = 1e-9
DEGENERACY_TOL = 1e-9
EIGVALSH_MAX_SIDE = 16


def bohr_nondegenerate(levels, tol: float = BOHR_TOL) -> bool:
    """True when the gaps |E_n - E_m| of the levels, n > m, are distinct
    within tol; the levels may come in any order."""
    gaps = sorted(abs(a - b) for i, a in enumerate(levels) for b in levels[:i])
    return all(b - a > tol for a, b in zip(gaps, gaps[1:]))


class InfeasibleStateError(ValueError):
    """Requested state parameters do not yield a valid density matrix.

    ``constraint`` names the first violated requirement, so sweeps can
    distinguish unphysical parameter points from bugs.
    """

    def __init__(self, constraint: str, message: str | None = None):
        self.constraint = constraint
        super().__init__(message or f"infeasible state: {constraint}")


@dataclass(frozen=True)
class EnergySpectrum:
    """Ascending local energy levels with the ground state pinned at 0."""

    levels: tuple[float, ...]

    def __post_init__(self):
        levels = tuple(float(e) for e in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 2:
            raise ValueError("a spectrum needs at least two levels")
        if levels[0] != 0.0:
            raise ValueError(f"ground energy must be 0, got {levels[0]}")
        if any(b - a <= 0 for a, b in zip(levels, levels[1:])):
            raise ValueError(f"levels must be strictly ascending, got {levels}")

    @classmethod
    def two_level(cls, gap: float = 1.0) -> "EnergySpectrum":
        return cls((0.0, gap))

    @property
    def dim(self) -> int:
        return len(self.levels)

    def bohr_nondegenerate(self, tol: float = BOHR_TOL) -> bool:
        """True when all pairwise gaps are distinct within tol."""
        return bohr_nondegenerate(self.levels, tol)

    def hamiltonian(self) -> np.ndarray:
        return np.diag(np.asarray(self.levels, dtype=complex))


def thermal_populations(spectrum: EnergySpectrum, beta: float) -> np.ndarray:
    """Gibbs populations e^(-beta E_n) / Z as a real vector."""
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    w = np.exp(-beta * np.asarray(spectrum.levels, dtype=float))
    return w / w.sum()


def thermal_state(spectrum: EnergySpectrum, beta: float) -> np.ndarray:
    """Diagonal Gibbs density matrix."""
    return np.diag(thermal_populations(spectrum, beta).astype(complex))


def _min_eigenvalue_bound(rho: np.ndarray) -> float:
    """A lower bound on the smallest eigenvalue of the matrix ``eigvalsh``
    reads: the Hermitian completion H of rho's lower triangle.

    A row without off-diagonal entries is an eigenvalue of its own.  The
    other rows need H_ii > 0 (else -inf); with D = diag(H_ii^-1/2),
    Gershgorin's theorem bounds the smallest eigenvalue of D H D from below
    by mu = min_i (1 - sum_{j != i} |H_ij| / sqrt(H_ii H_jj)), so that of H
    by min(mu, 0) * max_i H_ii.  Unscaled, the bound fails on an exchange
    pair whose coherence exceeds its smaller population; scaled, it holds
    for every eta <= 1.  nan stays nan.
    """
    h = rho.diagonal().real
    off = np.abs(np.tril(rho, -1))
    off += off.T
    coupled = off.any(axis=1)
    alone = h[~coupled].min(initial=np.inf)
    h, off = h[coupled], off[np.ix_(coupled, coupled)]
    if not (h > 0).all():
        return -np.inf
    s = 1.0 / np.sqrt(h)
    mu = 1.0 - (s[:, None] * off * s[None, :]).sum(axis=1).max(initial=0.0)
    return float(np.minimum(alone, np.minimum(mu, 0.0) * h.max(initial=0.0)))


@dataclass(frozen=True)
class BipartiteSystem:
    """A joint density matrix together with the two local spectra.

    Construction validates trace, Hermiticity and positivity, and (when
    the inverse temperatures are given) that both marginals are the
    corresponding Gibbs states.  Instances are immutable; ``rho`` is
    marked read-only.
    """

    spectrum_c: EnergySpectrum
    spectrum_h: EnergySpectrum
    rho: np.ndarray
    beta_c: float | None = None
    beta_h: float | None = None

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        d = self.spectrum_c.dim * self.spectrum_h.dim
        if rho.shape != (d, d):
            raise InfeasibleStateError(
                "dimension", f"rho has shape {rho.shape}, expected {(d, d)}"
            )
        if abs((tr := np.trace(rho)).real - 1.0) > TRACE_TOL or abs(tr.imag) > TRACE_TOL:
            raise InfeasibleStateError("trace", f"tr(rho) = {tr}")
        defect = float(np.max(np.abs(rho - rho.conj().T)))
        if defect > HERM_TOL:
            raise InfeasibleStateError("hermiticity", f"defect {defect:.3e}")
        # a bound within half the tolerance settles positivity (nan does not);
        # up to EIGVALSH_MAX_SIDE, eigvalsh costs less than the bound
        if d <= EIGVALSH_MAX_SIDE or not _min_eigenvalue_bound(rho) >= -0.5 * PSD_TOL:
            min_eig = float(np.linalg.eigvalsh(rho)[0])
            if min_eig < -PSD_TOL:
                raise InfeasibleStateError("psd", f"min eigenvalue {min_eig:.3e}")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        # the real diagonals of the C and H marginals, checked here and read by ``stack``
        marginals = tuple(partial_trace(rho, self.dims, side).diagonal().real for side in ("H", "C"))
        object.__setattr__(self, "_marginal_populations", marginals)
        for side, spectrum, beta, got in zip("CH", (self.spectrum_c, self.spectrum_h), (self.beta_c, self.beta_h), marginals):
            if beta is not None and np.max(np.abs(got - thermal_populations(spectrum, beta))) > THERMAL_TOL:
                raise InfeasibleStateError(f"thermal_marginal_{side}")

    @property
    def dims(self) -> tuple[int, int]:
        return (self.spectrum_c.dim, self.spectrum_h.dim)

    @property
    def d_c(self) -> int:
        return self.spectrum_c.dim

    @property
    def d_h(self) -> int:
        return self.spectrum_h.dim

    def marginal_c(self) -> np.ndarray:
        return partial_trace(self.rho, self.dims, "H")

    def marginal_h(self) -> np.ndarray:
        return partial_trace(self.rho, self.dims, "C")

    def populations(self) -> np.ndarray:
        return self.rho.diagonal().real.copy()

    def h_total(self) -> np.ndarray:
        """H_C (x) I + I (x) H_H on the joint space."""
        hc = self.spectrum_c.hamiltonian()
        hh = self.spectrum_h.hamiltonian()
        return kron(hc, np.eye(self.d_h)) + kron(np.eye(self.d_c), hh)

    def total_energies(self) -> np.ndarray:
        ec = np.asarray(self.spectrum_c.levels)
        eh = np.asarray(self.spectrum_h.levels)
        return (ec[:, None] + eh[None, :]).reshape(-1)

    @cached_property
    def stack(self) -> "StateStack":
        """This system as a one-row ``StateStack``, built on first use from
        its own arrays and methods."""
        (b_c, b_h), (marginal_c, marginal_h) = (self.beta_c, self.beta_h), self._marginal_populations
        return StateStack(
            self.rho[None], self.populations()[None], marginal_c[None], marginal_h[None],
            np.array([self.spectrum_c.levels]), np.array([self.spectrum_h.levels]),
            np.array([np.nan if b_c is None else b_c]), np.array([np.nan if b_h is None else b_h]),
            np.array([b_c is not None and b_h is not None and b_c != b_h]),
            np.array([self.spectrum_c == self.spectrum_h]), np.array([self.spectrum_c.bohr_nondegenerate()]),
        )

    def with_rho(self, rho: np.ndarray, keep_betas: bool = True) -> "BipartiteSystem":
        return replace(
            self,
            rho=rho,
            beta_c=self.beta_c if keep_betas else None,
            beta_h=self.beta_h if keep_betas else None,
        )


class StateStack(NamedTuple):
    """Per-cell state data of an (n, D, D) evaluation stack: the arrays the
    stacked kernels read where a single-cell function reads a
    ``BipartiteSystem``.

    Each row is a system's own one-row ``BipartiteSystem.stack``, made from
    its arrays and methods, so it holds the values the single-cell
    functions read, bit for bit.  Stack one row per distinct state with
    ``of`` and gather per-cell rows with ``take``.
    A stack has one row per cell, or one row that every cell shares and
    that broadcasts against the cells' arrays.
    """

    rho: np.ndarray  # (n, D, D)
    populations: np.ndarray  # (n, D), the real diagonal of rho
    marginal_c: np.ndarray  # (n, d_C), the real diagonal of the C marginal
    marginal_h: np.ndarray  # (n, d_H)
    levels_c: np.ndarray  # (n, d_C)
    levels_h: np.ndarray  # (n, d_H)
    beta_c: np.ndarray  # (n,), nan for a state without one
    beta_h: np.ndarray
    unequal_betas: np.ndarray  # (n,) bool: both betas set and different
    equal_spectra: np.ndarray  # (n,) bool
    bohr_nondegenerate: np.ndarray  # (n,) bool, of the C spectrum

    @classmethod
    def of(cls, systems) -> "StateStack":
        """One row per system, each system's ``stack``; the systems share
        their dimensions."""
        return cls(*map(np.concatenate, zip(*(s.stack for s in systems))))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.levels_c.shape[-1], self.levels_h.shape[-1])

    def take(self, index) -> "StateStack":
        """The rows at ``index``, an index array or a slice; one row when
        every index names the same state."""
        if isinstance(index, np.ndarray) and index.size and (index == index[0]).all():
            index = index[:1]
        return StateStack(*(column[index] for column in self))


def _manifold_indices(n: int, m: int, d: int) -> tuple[int, int]:
    """Joint indices (a, b) of the exchange pair |n m>, |m n>, n < m."""
    if not 0 <= n < m < d:
        raise ValueError(f"invalid manifold pair ({n}, {m}) for dimension {d}")
    return n * d + m, m * d + n


@dataclass(frozen=True)
class TwoQubitParams:
    """Resonant two-qubit locally thermal state parameters.

    eta may be negative (the sign can always be absorbed into the
    rotation angle of the protocol, but keeping it signed makes the
    comparison with measured coherences direct).
    """

    beta_c: float
    beta_h: float
    p00: float
    eta: float = 0.0
    xi: float = 0.0
    gap: float = 1.0

    def partition_values(self) -> tuple[float, float]:
        z_c = 1.0 + np.exp(-self.beta_c * self.gap)
        z_h = 1.0 + np.exp(-self.beta_h * self.gap)
        return float(z_c), float(z_h)

    def p00_bounds(self) -> tuple[float, float]:
        z_c, z_h = self.partition_values()
        lower = max(0.0, 1.0 / z_c + 1.0 / z_h - 1.0)
        upper = min(1.0 / z_c, 1.0 / z_h)
        return lower, upper

    def eta_cap(self) -> float:
        z_c, z_h = self.partition_values()
        a = 1.0 / z_c - self.p00
        b = 1.0 / z_h - self.p00
        return float(np.sqrt(max(a, 0.0) * max(b, 0.0)))


def two_qubit_state(params: TwoQubitParams) -> BipartiteSystem:
    """Resonant two-qubit state with thermal marginals.

    Diagonal (P00, 1/z_C - P00, 1/z_H - P00, 1 - 1/z_C - 1/z_H + P00) and
    coherence eta*e^{i xi} between |01> and |10>.
    """
    z_c, z_h = params.partition_values()
    lower, upper = params.p00_bounds()
    if params.p00 > upper + 1e-12:
        raise InfeasibleStateError(
            "p00_upper", f"P00 = {params.p00} exceeds upper bound {upper}"
        )
    if params.p00 < lower - 1e-12:
        raise InfeasibleStateError(
            "p00_lower", f"P00 = {params.p00} below lower bound {lower}"
        )
    cap = params.eta_cap()
    if abs(params.eta) > cap + 1e-12:
        raise InfeasibleStateError(
            "eta_cap", f"|eta| = {abs(params.eta)} exceeds cap {cap}"
        )
    p00 = params.p00
    diag = [p00, 1.0 / z_c - p00, 1.0 / z_h - p00, 1.0 - 1.0 / z_c - 1.0 / z_h + p00]
    rho = np.diag(np.asarray(diag, dtype=complex))
    coh = params.eta * np.exp(1j * params.xi)
    rho[1, 2] = coh
    rho[2, 1] = np.conj(coh)
    spec = EnergySpectrum.two_level(params.gap)
    return BipartiteSystem(spec, spec, rho, beta_c=params.beta_c, beta_h=params.beta_h)


def gamma_correlated_state(
    gamma: complex,
    beta_c: float,
    beta_h: float,
    gap: float = 1.0,
    gap_h: float | None = None,
) -> BipartiteSystem:
    """Product of local Gibbs states plus a single exchange coherence.

    gamma multiplies the |0_H 1_C><1_H 0_C| element when the two qubits
    are written H-first; in the C-major storage used here that is
    rho[2, 1] = gamma and rho[1, 2] = conj(gamma).  Marginals are thermal
    for any admissible gamma.  ``gap_h`` detunes the H qubit.
    """
    spec_c = EnergySpectrum.two_level(gap)
    spec_h = EnergySpectrum.two_level(gap if gap_h is None else gap_h)
    pc = thermal_populations(spec_c, beta_c)
    ph = thermal_populations(spec_h, beta_h)
    rho = kron(np.diag(pc), np.diag(ph)).astype(complex)
    rho[2, 1] += gamma
    rho[1, 2] += np.conj(gamma)
    return BipartiteSystem(spec_c, spec_h, rho, beta_c=beta_c, beta_h=beta_h)


@dataclass(frozen=True)
class QutritStateParams:
    """Two-qutrit locally thermal state with exchange-manifold coherences.

    Free populations are (rho_0, rho_5, rho_7, rho_8) in the C-major joint
    labeling (00,01,02,10,11,12,20,21,22) = (0..8); the remaining five are
    solved from the thermal-marginal constraints.  Coherences live on the
    pairs (1,3), (2,6), (5,7) with amplitudes eta in [0, 1].
    """

    beta_c: float
    beta_h: float
    e1: float
    e2: float
    rho_0: float
    rho_5: float
    rho_7: float
    rho_8: float
    eta_13: float = 0.0
    eta_26: float = 0.0
    eta_57: float = 0.0
    xi_13: float = 0.0
    xi_26: float = 0.0
    xi_57: float = 0.0

    def spectrum(self) -> EnergySpectrum:
        return EnergySpectrum((0.0, self.e1, self.e2))


def two_qutrit_state(params: QutritStateParams) -> BipartiteSystem:
    """Two-qutrit state; populations solved in closed form from marginals."""
    spec = params.spectrum()
    c = thermal_populations(spec, params.beta_c)
    h = thermal_populations(spec, params.beta_h)
    p = np.full(9, np.nan)
    p[0], p[5], p[7], p[8] = params.rho_0, params.rho_5, params.rho_7, params.rho_8
    # row/column sums: sum_m rho[3n+m] = c_n, sum_n rho[3n+m] = h_m
    p[6] = c[2] - p[7] - p[8]
    p[3] = h[0] - p[0] - p[6]
    p[4] = c[1] - p[3] - p[5]
    p[1] = h[1] - p[4] - p[7]
    p[2] = h[2] - p[5] - p[8]
    for idx in (6, 3, 4, 1, 2, 0, 5, 7, 8):
        if p[idx] < -PSD_TOL:
            raise InfeasibleStateError(
                f"population_{idx}", f"implied population rho_{idx} = {p[idx]:.3e} < 0"
            )
    rho = np.diag(np.clip(p, 0.0, None).astype(complex))
    coherences = {
        (0, 1): (params.eta_13, params.xi_13),
        (0, 2): (params.eta_26, params.xi_26),
        (1, 2): (params.eta_57, params.xi_57),
    }
    for (n, m), (eta, xi) in coherences.items():
        if not 0.0 <= eta <= 1.0:
            raise InfeasibleStateError(
                f"eta_{n}{m}", f"eta for manifold ({n},{m}) must lie in [0, 1]"
            )
        a, b = _manifold_indices(n, m, 3)
        val = eta * np.exp(1j * xi) * np.sqrt(max(p[a], 0.0) * max(p[b], 0.0))
        rho[a, b] = val
        rho[b, a] = np.conj(val)
    return BipartiteSystem(spec, spec, rho, beta_c=params.beta_c, beta_h=params.beta_h)


def qudit_locally_thermal(
    spectrum: EnergySpectrum,
    beta_c: float,
    beta_h: float,
    free_populations: dict[int, float],
    eta_map: dict[tuple[int, int], float] | None = None,
    xi_map: dict[tuple[int, int], float] | None = None,
) -> BipartiteSystem:
    """General d x d locally thermal state with manifold coherences.

    Generalizes the qutrit construction: the free populations are the
    joint indices {0} plus {n*d+m : n,m >= 1, (n,m) != (1,1)}; the
    remaining 2d-1 populations (row 0, column 0 and the (1,1) cell) are
    obtained from a linear solve of the marginal constraints.  Requires a
    nondegenerate Bohr spectrum so that exchange manifolds are the only
    coherence carriers compatible with energy-preserving dynamics.
    """
    if not spectrum.bohr_nondegenerate():
        raise InfeasibleStateError("bohr_degenerate", "spectrum has degenerate gaps")
    d = spectrum.dim
    expected_free = {0} | {
        n * d + m for n in range(1, d) for m in range(1, d) if (n, m) != (1, 1)
    }
    if set(free_populations) != expected_free:
        raise ValueError(
            f"free populations must be exactly indices {sorted(expected_free)}"
        )
    c = thermal_populations(spectrum, beta_c)
    h = thermal_populations(spectrum, beta_h)
    solved = sorted(set(range(d * d)) - expected_free)
    col = {idx: k for k, idx in enumerate(solved)}
    # Row sums (d) plus column sums 1..d-1; column 0 is implied by the rest.
    n_eq = 2 * d - 1
    a_mat = np.zeros((n_eq, n_eq))
    b_vec = np.zeros(n_eq)
    for n in range(d):
        b_vec[n] = c[n]
        for m in range(d):
            idx = n * d + m
            if idx in col:
                a_mat[n, col[idx]] = 1.0
            else:
                b_vec[n] -= free_populations[idx]
    for m in range(1, d):
        row = d + m - 1
        b_vec[row] = h[m]
        for n in range(d):
            idx = n * d + m
            if idx in col:
                a_mat[row, col[idx]] = 1.0
            else:
                b_vec[row] -= free_populations[idx]
    x = np.linalg.solve(a_mat, b_vec)
    p = np.zeros(d * d)
    for idx, val in free_populations.items():
        p[idx] = val
    for idx, k in col.items():
        p[idx] = x[k]
    # consistency of the dropped column-0 equation
    resid = abs(p.reshape(d, d)[:, 0].sum() - h[0])
    if resid > 1e-9:
        raise InfeasibleStateError("marginal_consistency", f"residual {resid:.3e}")
    for idx in range(d * d):
        if p[idx] < -PSD_TOL:
            raise InfeasibleStateError(
                f"population_{idx}", f"implied population rho_{idx} = {p[idx]:.3e} < 0"
            )
    rho = np.diag(np.clip(p, 0.0, None).astype(complex))
    eta_map = eta_map or {}
    xi_map = xi_map or {}
    for (n, m), eta in eta_map.items():
        n, m = min(n, m), max(n, m)
        if not 0.0 <= eta <= 1.0:
            raise InfeasibleStateError(f"eta_{n}{m}", "eta must lie in [0, 1]")
        a, b = _manifold_indices(n, m, d)
        xi = xi_map.get((n, m), xi_map.get((m, n), 0.0))
        val = eta * np.exp(1j * xi) * np.sqrt(max(p[a], 0.0) * max(p[b], 0.0))
        rho[a, b] = val
        rho[b, a] = np.conj(val)
    return BipartiteSystem(spectrum, spectrum, rho, beta_c=beta_c, beta_h=beta_h)


def dephase(sys: BipartiteSystem, tol: float = DEGENERACY_TOL) -> BipartiteSystem:
    """Remove coherences between distinct total-energy eigenspaces.

    Entries within a degenerate eigenspace of H_C + H_H survive (for a
    resonant pair, the |01>/|10> coherence); everything else is zeroed.
    Idempotent and trace preserving.
    """
    energies = sys.total_energies()
    same = np.abs(energies[:, None] - energies[None, :]) <= tol
    return sys.with_rho(np.where(same, sys.rho, 0.0))


def min_partial_transpose_eigenvalue(sys: BipartiteSystem) -> float:
    """Smallest eigenvalue of rho^(T_H).

    A nonnegative value certifies separability only for 2x2 and 2x3
    systems (positive partial transpose is conclusive there).
    """
    pt = partial_transpose(sys.rho, sys.dims, "H")
    return float(hermitian_eigenvalues(pt)[0])
