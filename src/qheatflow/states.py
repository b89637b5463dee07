"""Locally thermal bipartite states.

Constructors for the state families used throughout the package: a pair
of Gibbs marginals plus correlations confined to the exchange manifolds
{|n m>, |m n>}.  All joint matrices are C-major (see linalg).  Each kind
has one columnar builder (``two_qubit_rows``, ``gamma_rows``,
``two_qutrit_rows``, ``locally_thermal_rows``) that takes parameter
columns (n,), runs the kind's parameter checks as masks and builds and
checks every row in one ``entry_stack`` call; a one-state constructor is
its kind's builder on one row, its first failure raised.

Coherence convention: for a manifold pair n < m with joint indices
a = n*d + m and b = m*d + n, the upper-triangle entry is stored as

    rho[a, b] = eta * exp(i xi) * sqrt(rho[a,a] * rho[b,b]).

Units: k = hbar = 1; inverse temperatures are dimensionless products
beta * E with the local gap (so "beta_C = 1.13" already includes the
gap for a two-level system with E = 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import hermitian_eigenvalues, hermiticity_defects, partial_trace, partial_transpose

TRACE_TOL = 1e-10
HERM_TOL = 1e-10
PSD_TOL = 1e-10
THERMAL_TOL = 1e-9
BOHR_TOL = 1e-9
DEGENERACY_TOL = 1e-9
EXP_SHIFT_ABOVE = 700.0  # a Boltzmann exponent past this is divided out, as e^{709.8} overflows
EIGVALSH_MAX_SIDE = 16
# the shortest Golomb ruler of d marks: its pairwise differences are distinct, so levels at the marks are Bohr-nondegenerate
RULERS = {
    4: (0, 1, 4, 6), 5: (0, 1, 4, 9, 11), 6: (0, 1, 4, 10, 12, 17), 7: (0, 1, 4, 10, 18, 23, 25),
    8: (0, 1, 4, 9, 15, 22, 32, 34), 9: (0, 1, 5, 12, 25, 27, 35, 41, 44), 10: (0, 1, 6, 10, 23, 26, 34, 41, 53, 55),
    11: (0, 1, 4, 13, 28, 33, 47, 54, 64, 70, 72), 12: (0, 2, 6, 24, 29, 40, 43, 55, 68, 75, 76, 85),
    13: (0, 2, 5, 25, 37, 43, 59, 70, 85, 89, 98, 99, 106), 14: (0, 4, 6, 20, 35, 52, 59, 77, 78, 86, 89, 99, 122, 127),
    15: (0, 4, 20, 30, 57, 59, 62, 76, 100, 111, 123, 136, 144, 145, 151),
    16: (0, 1, 4, 11, 26, 32, 56, 68, 76, 115, 117, 134, 150, 163, 168, 177),
}


def bohr_nondegenerate(levels, tol: float = BOHR_TOL):
    """True when the gaps |E_n - E_m| of the levels, n > m, are distinct
    within tol; the levels may come in any order.  Of levels (..., d) given
    as columns, one answer per row."""
    levels = np.asarray(levels, dtype=float)
    if levels.shape[-1] < 3:  # one gap at most, so none repeats
        return _py(np.ones(levels.shape[:-1], bool)[()])
    n, m = _lower_triangle(levels.shape[-1])
    gaps = np.sort(np.abs(levels[..., n] - levels[..., m]), axis=-1)
    return _py((gaps[..., 1:] - gaps[..., :-1] > tol).all(axis=-1))


@functools.cache
def _lower_triangle(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(d, -1)


def _py(x):
    """x as a Python scalar where it is one numpy scalar (the one-state case), else as it is."""
    return x.item() if isinstance(x, np.generic) else x


def pymax(a, b):
    """Python's ``max(a, b)``, elementwise on arrays: b where b > a, else a (so a nan a is kept)."""
    return np.where(b > a, b, a) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else max(a, b)


def pymin(a, b):
    """Python's ``min(a, b)``, elementwise on arrays: b where b < a, else a."""
    return np.where(b < a, b, a) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else min(a, b)


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


def thermal_populations(spectrum: EnergySpectrum, beta: float) -> np.ndarray:
    """Gibbs populations e^(-beta E_n) / Z as a real vector; the largest exponent,
    -beta E_max (the levels ascend from 0), is divided out where it passes EXP_SHIFT_ABOVE."""
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    x = -beta * np.asarray(spectrum.levels, dtype=float)
    w = np.exp(x - x[-1] if x[-1] > EXP_SHIFT_ABOVE else x)
    return w / np.add.reduce(w)


def gibbs_stack(levels: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``thermal_populations`` (n, d) of each row of levels (n, d) at its
    inverse temperature of beta (n,), bit for bit."""
    if not all(map(math.isfinite, beta.tolist())):  # Python checks cost less than numpy ones on the usual one-row stack
        raise ValueError("beta must be finite")
    x = -beta[:, None] * levels
    if True in (shift := x[:, -1:] > EXP_SHIFT_ABOVE).ravel().tolist():
        x = np.where(shift, x - x[:, -1:], x)
    w = np.exp(x)
    return w / np.add.reduce(w, axis=-1, keepdims=True)


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


def validate_stack(rho: np.ndarray, dims: tuple[int, int], gibbs=(None, None), errors=None):
    """The checks of ``BipartiteSystem`` on each rho of an (n, D, D) stack, in
    the order trace, hermiticity, psd, thermal_marginal_C, thermal_marginal_H:
    (each row's first failure, an ``InfeasibleStateError``, or None; the real
    diagonals of the C and H marginals, bit for bit those of ``partial_trace``).
    ``gibbs`` holds the Gibbs populations, (d,) or (n, d), that each marginal
    must match, or None for a side without a temperature.  A row failed in
    ``errors`` keeps that failure and is not checked."""
    n, side = len(rho), rho.shape[-1]
    errors = [None] * n if errors is None else list(errors)

    def passing(keep=lambda k: True):  # the rows without a failure yet that ``keep``, and their matrices
        rows = [k for k in range(n) if errors[k] is None and keep(k)]
        return rows, rho[rows] if len(rows) < n else rho

    traces = rho.trace(axis1=1, axis2=2)
    for k, tr in enumerate(traces.tolist()):
        if errors[k] is None and not (abs(tr.real - 1.0) <= TRACE_TOL and abs(tr.imag) <= TRACE_TOL):  # nan fails
            errors[k] = InfeasibleStateError("trace", f"tr(rho) = {traces[k]}")
    rows, matrices = passing()
    for k, defect in zip(rows, hermiticity_defects(matrices).tolist()):
        if not defect <= HERM_TOL:
            errors[k] = InfeasibleStateError("hermiticity", f"defect {defect:.3e}")
    # a bound within half the tolerance settles positivity (nan does not);
    # up to EIGVALSH_MAX_SIDE, eigvalsh costs less than the bound
    rows, matrices = passing(lambda k: side <= EIGVALSH_MAX_SIDE or not _min_eigenvalue_bound(rho[k]) >= -0.5 * PSD_TOL)
    for k, min_eig in zip(rows, np.linalg.eigvalsh(matrices)[:, 0].tolist() if rows else ()):
        if min_eig < -PSD_TOL:
            errors[k] = InfeasibleStateError("psd", f"min eigenvalue {min_eig:.3e}")
    r = rho.reshape(n, *dims, *dims)
    marginals = np.einsum("nijkj->nik", r).diagonal(axis1=1, axis2=2).real, np.einsum("nijil->njl", r).diagonal(axis1=1, axis2=2).real
    for name, got, target in zip("CH", marginals, gibbs):
        if target is not None:
            for k, dev in enumerate(np.maximum.reduce(np.abs(got - target), axis=-1).tolist()):
                if errors[k] is None and dev > THERMAL_TOL:
                    errors[k] = InfeasibleStateError(f"thermal_marginal_{name}")
    return errors, marginals


def state_rows(levels_c, levels_h, beta_c, beta_h, rho: np.ndarray, gibbs, errors=None) -> tuple[list, "StateStack"]:
    """(each row's first failure or None, the ``StateStack``) of the states
    rho (n, D, D), with local levels (n, d) and inverse temperatures (n,),
    nan for a side without one: one ``validate_stack`` call against ``gibbs``
    and ``errors``, and every column filled, a failing row's too."""
    errors, (marginal_c, marginal_h) = validate_stack(rho, (levels_c.shape[-1], levels_h.shape[-1]), gibbs, errors)
    equal = (levels_c == levels_h).all(axis=-1) if levels_c.shape == levels_h.shape else np.zeros(len(rho), bool)
    return errors, StateStack(
        rho, rho.diagonal(axis1=1, axis2=2).real.copy(), marginal_c, marginal_h, levels_c, levels_h, beta_c, beta_h,
        (beta_c < beta_h) | (beta_c > beta_h),  # both set (a nan compares false) and different
        equal, bohr_nondegenerate(levels_c),
    )


def valid_stack(rows) -> "StateStack":
    """The stack of ``state_rows``' ``(errors, stack)``; the first error is raised."""
    errors, stack = rows
    for error in filter(None, errors):
        raise error
    return stack


@dataclass(frozen=True)
class BipartiteSystem:
    """A joint density matrix together with the two local spectra.

    Construction validates trace, Hermiticity and positivity, and (when
    the inverse temperatures are given) that both marginals are the
    corresponding Gibbs states, and builds ``stack``, the system as a
    one-row ``StateStack`` (``state_rows`` at n = 1).  Instances are
    immutable; ``rho`` is marked read-only.
    """

    spectrum_c: EnergySpectrum
    spectrum_h: EnergySpectrum
    rho: np.ndarray
    beta_c: float | None = None
    beta_h: float | None = None

    def __post_init__(self):
        pairs = ((self.spectrum_c, self.beta_c), (self.spectrum_h, self.beta_h))
        gibbs = tuple(None if beta is None else thermal_populations(s, beta) for s, beta in pairs)
        rho = np.array(self.rho, dtype=complex)
        d = self.spectrum_c.dim * self.spectrum_h.dim
        if rho.shape != (d, d):
            raise InfeasibleStateError("dimension", f"rho has shape {rho.shape}, expected {(d, d)}")
        rho.setflags(write=False)
        levels = (np.array([s.levels]) for s, _ in pairs)
        betas = (np.array([np.nan if beta is None else beta]) for _, beta in pairs)
        self.__dict__.update(rho=rho, stack=valid_stack(state_rows(*levels, *betas, rho[None], gibbs)))

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

    def with_rho(self, rho: np.ndarray) -> "BipartiteSystem":
        """This system with the state ``rho``, checked against the same inverse temperatures."""
        return BipartiteSystem(self.spectrum_c, self.spectrum_h, rho, self.beta_c, self.beta_h)


class StateStack(NamedTuple):
    """Per-cell state data of an (n, D, D) evaluation stack: the arrays the
    stacked kernels read where a single-cell function reads a
    ``BipartiteSystem``.

    Every stack is checked and filled by ``state_rows``, so a system's own
    one-row ``BipartiteSystem.stack`` holds the values the single-cell
    functions read, bit for bit.  Build one row per distinct state with its
    kind's columnar builder and gather per-cell rows with ``take``.  A stack
    has one row per cell, or one row that every cell shares and that
    broadcasts against the cells' arrays.
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

    @property
    def dims(self) -> tuple[int, int]:
        return (self.levels_c.shape[-1], self.levels_h.shape[-1])

    def take(self, index) -> "StateStack":
        """The rows at ``index``, an index array or a slice; one row when
        every index names the same state."""
        if isinstance(index, np.ndarray) and index.size and (index == index[0]).all():
            index = index[:1]
        return StateStack(*(column[index] for column in self))

    def system(self, k: int) -> BipartiteSystem:
        """Row k as the ``BipartiteSystem`` it holds, not checked again: its
        ``stack`` is that row, and its read-only rho a view of the row's."""
        row = self if (len(self.rho), k) == (1, 0) else self.take(slice(k, k + 1))
        rho = row.rho[0]
        rho.flags.writeable = False
        spectra = [EnergySpectrum(tuple(row.levels_c[0].tolist()))]
        spectra.append(spectra[0] if row.equal_spectra[0] else EnergySpectrum(tuple(row.levels_h[0].tolist())))
        betas = (None if math.isnan(beta) else beta for beta in (row.beta_c[0].item(), row.beta_h[0].item()))
        sys = object.__new__(BipartiteSystem)
        sys.__dict__.update(zip(("spectrum_c", "spectrum_h", "beta_c", "beta_h"), (*spectra, *betas)), rho=rho, stack=row)
        return sys

    def with_rho(self, rho: np.ndarray) -> "StateStack":
        """These rows with the states of ``rho`` (n, D, D), checked against
        the Gibbs populations of each row's levels and inverse temperatures."""
        gibbs = gibbs_stack(self.levels_c, self.beta_c), gibbs_stack(self.levels_h, self.beta_h)
        return valid_stack(state_rows(self.levels_c, self.levels_h, self.beta_c, self.beta_h, rho, gibbs))


def entry_stack(levels_c, levels_h, beta_c, beta_h, populations, coherences=(), errors=None, gibbs=None):
    """(each row's first failure or None, the ``StateStack``) of the states with
    the diagonals ``populations`` (n, D) and rho[k, a, b] = conj(rho[k, b, a]) =
    values[k] of the ``coherences`` (a, b (M,) and values (n, M), or indices and
    (n,)), checked by one ``state_rows`` call against ``gibbs`` (each side's
    ``gibbs_stack`` when None).  A row that ``errors`` fails keeps that failure
    and is not checked."""
    beta_c, beta_h = np.asarray(beta_c, float), np.asarray(beta_h, float)
    n, side = populations.shape
    rho = np.zeros((n, side, side), complex)
    rho.reshape(n, -1)[:, :: side + 1] = populations
    if coherences:
        a, b, values = coherences
        rho[:, a, b], rho[:, b, a] = values, np.conj(values)
    gibbs = gibbs or (gibbs_stack(levels_c, beta_c), gibbs_stack(levels_h, beta_h))
    return state_rows(levels_c, levels_h, beta_c, beta_h, rho, gibbs, errors)


def _failures(n: int, checks) -> list:
    """Each of n rows' first failure or None: the checks (failed (n,),
    the ``InfeasibleStateError`` of row k) in order."""
    errors = [None] * n
    for failed, error in checks:
        for k in np.flatnonzero(failed).tolist() if True in failed.tolist() else ():
            if errors[k] is None:
                errors[k] = error(k)
    return errors


def _require_spectra(*levels, errors=None) -> None:
    """Raise ``EnergySpectrum``'s ValueError for the first row without a failure
    in ``errors`` whose levels (n, d), each of ``levels`` in turn, do not ascend."""
    bad = sum((x[:, 1:] - x[:, :-1] <= 0).any(axis=-1) for x in levels).tolist()
    for k in (k for k, b in enumerate(bad) if b and (errors is None or errors[k] is None)):
        for x in levels:
            EnergySpectrum(tuple(x[k].tolist()))


def spectrum_levels(*upper) -> np.ndarray:
    """The levels (0, *upper): (1 + k,) of scalars, or (n, 1 + k) of columns (n,)."""
    return np.array([np.zeros_like(upper[0]), *upper], float).T


@dataclass(frozen=True)
class TwoQubitParams:
    """Resonant two-qubit locally thermal state parameters.

    eta may be negative (the sign can always be absorbed into the
    rotation angle of the protocol, but keeping it signed makes the
    comparison with measured coherences direct).  The fields may be
    columns of equal length: the methods then give one value per row,
    each bit for bit the one-state value.
    """

    beta_c: float
    beta_h: float
    p00: float
    eta: float = 0.0
    xi: float = 0.0
    gap: float = 1.0

    def partition_values(self) -> tuple[float, float]:
        return _py(1.0 + np.exp(-self.beta_c * self.gap)), _py(1.0 + np.exp(-self.beta_h * self.gap))

    def ground_populations(self) -> tuple[float, float]:
        """(1/z_C, 1/z_H): the ground populations of the two Gibbs marginals."""
        return tuple(1.0 / z for z in self.partition_values())

    def p00_bounds(self, q=None) -> tuple[float, float]:
        """(lower, upper) bound on P00, of ``ground_populations()`` or the given ``q``."""
        q_c, q_h = q or self.ground_populations()
        return pymax(0.0, q_c + q_h - 1.0), pymin(q_c, q_h)

    def eta_cap(self, q=None) -> float:
        """The largest |eta| at this P00, of ``ground_populations()`` or the given ``q``."""
        q_c, q_h = q or self.ground_populations()
        return _py(np.sqrt(pymax(q_c - self.p00, 0.0) * pymax(q_h - self.p00, 0.0)))

    def populations(self, q=None) -> np.ndarray:
        """The diagonal (P00, 1/z_C - P00, 1/z_H - P00, 1 - 1/z_C - 1/z_H + P00), (..., 4)."""
        q_c, q_h = q or self.ground_populations()
        p00 = self.p00
        return np.array([p00, q_c - p00, q_h - p00, 1.0 - q_c - q_h + p00]).T


def _one_row(params):
    """``params``, a dataclass of state parameters, with each field a column of one row."""
    return type(params)(*(np.array([value]) for value in vars(params).values()))


def two_qubit_state(params: TwoQubitParams) -> BipartiteSystem:
    """Resonant two-qubit state with thermal marginals.

    Diagonal (P00, 1/z_C - P00, 1/z_H - P00, 1 - 1/z_C - 1/z_H + P00) and
    coherence eta*e^{i xi} between |01> and |10>.
    """
    return valid_stack(two_qubit_rows(_one_row(params))).system(0)


def two_qubit_rows(params: TwoQubitParams) -> tuple[list, StateStack | None]:
    """(each row's first failure or None, the ``StateStack``) of the states of
    ``two_qubit_state`` at the columns (n,) of ``params``: the checks p00_upper,
    p00_lower and eta_cap as masks (all failed: nothing more is built); a gap <= 0 of
    a row that passes them is a ValueError."""
    q = params.ground_populations()
    lower, upper = params.p00_bounds(q)
    cap, p00, eta = params.eta_cap(q), params.p00, np.abs(params.eta)
    errors = _failures(len(p00), [
        (p00 > upper + 1e-12, lambda k: InfeasibleStateError("p00_upper", f"P00 = {p00[k]} exceeds upper bound {upper[k]}")),
        (p00 < lower - 1e-12, lambda k: InfeasibleStateError("p00_lower", f"P00 = {p00[k]} below lower bound {lower[k]}")),
        (eta > cap + 1e-12, lambda k: InfeasibleStateError("eta_cap", f"|eta| = {eta[k]} exceeds cap {cap[k]}")),
    ])
    if None not in errors:
        return errors, None
    levels = spectrum_levels(params.gap)
    _require_spectra(levels, errors=errors)
    coherence = params.eta * np.exp(1j * params.xi)
    return entry_stack(levels, levels, params.beta_c, params.beta_h, params.populations(q), (1, 2, coherence), errors)


def gamma_correlated_state(gamma: complex, beta_c: float, beta_h: float, gap: float = 1.0, gap_h: float | None = None) -> BipartiteSystem:
    """Product of local Gibbs states plus a single exchange coherence.

    gamma multiplies the |0_H 1_C><1_H 0_C| element when the two qubits
    are written H-first; in the C-major storage used here that is
    rho[2, 1] = gamma and rho[1, 2] = conj(gamma).  Marginals are thermal
    for any admissible gamma.  ``gap_h`` detunes the H qubit.
    """
    return valid_stack(gamma_rows(*(np.array([x]) for x in (gamma, beta_c, beta_h, gap, gap if gap_h is None else gap_h)))).system(0)


def gamma_rows(gamma, beta_c, beta_h, gap, gap_h) -> tuple[list, StateStack]:
    """(each row's first failure or None, the ``StateStack``) of the states of
    ``gamma_correlated_state`` at columns (n,); a gap <= 0 is a ValueError."""
    levels_c, levels_h = spectrum_levels(gap), spectrum_levels(gap_h)
    _require_spectra(levels_c, levels_h)
    c, h = gibbs_stack(levels_c, beta_c), gibbs_stack(levels_h, beta_h)
    populations = (c[:, :, None] * h[:, None, :]).reshape(len(c), -1)
    # + 0.0: a gamma of -0.0 is stored as 0.0, the product state's zero plus gamma
    return entry_stack(levels_c, levels_h, beta_c, beta_h, populations, (2, 1, gamma + 0.0), gibbs=(c, h))


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
    """Two-qutrit state: the closed-form solve of ``qudit_locally_thermal``
    at d = 3, five equations with the nonnegativity checks in the order
    (6, 3, 4, 1, 2, 0, 5, 7, 8)."""
    return valid_stack(two_qutrit_rows(_one_row(params))).system(0)


def two_qutrit_rows(params: QutritStateParams) -> tuple[list, StateStack | None]:
    """``locally_thermal_rows`` of the states of ``two_qutrit_state`` at the columns
    (n,) of ``params``; levels that do not ascend are a ValueError."""
    levels = spectrum_levels(params.e1, params.e2)
    _require_spectra(levels)
    free = {0: params.rho_0, 5: params.rho_5, 7: params.rho_7, 8: params.rho_8}
    eta = np.array([params.eta_13, params.eta_26, params.eta_57], float).T
    xi = np.array([params.xi_13, params.xi_26, params.xi_57], float).T
    return locally_thermal_rows(levels, params.beta_c, params.beta_h, free, [(0, 1), (0, 2), (1, 2)], eta, xi)


def locally_thermal_rows(levels, beta_c, beta_h, free, pairs, eta, xi, qudit=False) -> tuple[list, StateStack | None]:
    """(each row's first failure or None, the ``StateStack``) of the d x d
    states with the levels (n, d) and the Gibbs marginals at beta_c and
    beta_h (n,), the populations ``free`` ({joint index: column (n,)} on
    {0} and {n*d+m : n, m >= 1, (n, m) != (1, 1)}) and the others of
    ``solve_populations``, and the ``exchange_coherence`` of each manifold
    (n, m) of ``pairs`` at eta and xi (n, pairs).  The checks, as masks:
    with ``qudit``, bohr_degenerate and marginal_consistency; then
    population_<index>, and eta_<n><m> of the first eta outside [0, 1] (all failed: no coherence)."""
    d = levels.shape[-1]
    c, h = gibbs_stack(levels, beta_c), gibbs_stack(levels, beta_h)
    p, first = solve_populations(c, h, free)
    resid, outside = marginal_residual(c, h), ~((0.0 <= eta) & (eta <= 1.0))
    checks = [
        (~bohr_nondegenerate(levels), lambda k: InfeasibleStateError("bohr_degenerate", "spectrum has degenerate gaps")),
        (resid > 1e-9, lambda k: InfeasibleStateError("marginal_consistency", f"residual {resid[k]:.3e}")),
    ] if qudit else []
    checks += [
        (first >= 0, lambda k: InfeasibleStateError(f"population_{first[k]}", f"implied population rho_{first[k]} = {p[k, first[k]]:.3e} < 0")),
        (outside.any(axis=-1), lambda k: InfeasibleStateError(
            "eta_%s%s" % (pair := pairs[outside[k].argmax()]), "eta for manifold (%s,%s) must lie in [0, 1]" % pair)),
    ]
    errors = _failures(len(p), checks)
    if None not in errors:
        return errors, None
    a, b = (np.array([[n * d + m, m * d + n] for n, m in pairs], np.intp).reshape(-1, 2)).T
    coherences = exchange_coherence(eta, xi, p[:, a], p[:, b])
    return entry_stack(levels, levels, beta_c, beta_h, np.maximum(p, 0.0), (a, b, coherences), errors, (c, h))


def solve_populations(c, h, free):
    """(p, first): the populations p (..., d*d) of the d x d states with the
    marginals c, h (..., d) and the populations ``free`` ({joint index:
    value}, a value or a column per index), and the joint index of each
    state's first population below -PSD_TOL in the order checked, or -1.

    The other 2d - 1 populations follow by back-substitution, each a
    left-to-right chain of subtractions on floats: rows n >= 2 give
    p[n, 0] = c_n - p[n, 1] - ... - p[n, d-1], column 0 gives p[1, 0],
    row 1 gives p[1, 1] and columns m >= 1 give p[0, m].  Row 0 is the
    equation left out.  Each solved population is checked in that order,
    then the free ones by index.
    """
    d = c.shape[-1]
    p = [0.0] * (d * d)
    for idx, value in free.items():
        p[idx] = np.asarray(value, dtype=float)
    solved = []

    def solve(idx, total, others):
        for k in others:
            total = total - p[k]
        p[idx] = total
        solved.append(idx)

    for n in range(2, d):
        solve(n * d, c[..., n], range(n * d + 1, n * d + d))
    solve(d, h[..., 0], [0, *range(2 * d, d * d, d)])
    solve(d + 1, c[..., 1], [d, *range(d + 2, 2 * d)])
    for m in range(1, d):
        solve(m, h[..., m], range(d + m, d * d, d))
    p = np.stack(p, axis=-1)
    order = solved + sorted(free)
    low = p[..., order] < -PSD_TOL
    return p, np.where(low.any(axis=-1), np.array(order)[low.argmax(axis=-1)], -1)[()]


def exchange_coherence(eta, xi, p_a, p_b):
    """rho[a, b] = eta e^{i xi} sqrt(p_a p_b) of a manifold (a, b), a negative population read as 0."""
    return eta * np.exp(1j * xi) * np.sqrt(pymax(p_a, 0.0) * pymax(p_b, 0.0))


def qudit_locally_thermal(
    spectrum: EnergySpectrum, beta_c: float, beta_h: float, free_populations: dict[int, float],
    eta_map: dict[tuple[int, int], float] | None = None, xi_map: dict[tuple[int, int], float] | None = None,
) -> BipartiteSystem:
    """General d x d locally thermal state with manifold coherences.

    Generalizes the qutrit construction: the free populations are the
    joint indices {0} plus {n*d+m : n,m >= 1, (n,m) != (1,1)}; the
    remaining 2d-1 populations (row 0, column 0 and the (1,1) cell) are
    solved from the marginal constraints in closed form, the solve that
    ``two_qutrit_state`` runs at d = 3.  Requires a nondegenerate Bohr
    spectrum so that exchange manifolds are the only coherence carriers
    compatible with energy-preserving dynamics.  Wrong free indices or a
    manifold outside the spectrum are a ValueError.
    """
    d = spectrum.dim
    expected_free = {0} | {n * d + m for n in range(1, d) for m in range(1, d) if (n, m) != (1, 1)}
    if set(free_populations) != expected_free:
        raise ValueError(f"free populations must be exactly indices {sorted(expected_free)}")
    eta_map, xi_map = eta_map or {}, xi_map or {}
    pairs = [(min(n, m), max(n, m)) for n, m in eta_map]
    for n, m in pairs:
        if not 0 <= n < m < d:
            raise ValueError(f"invalid manifold pair ({n}, {m}) for dimension {d}")
    eta = np.array([list(eta_map.values())], float).reshape(1, -1)
    xi = np.array([[xi_map.get(pair, xi_map.get(pair[::-1], 0.0)) for pair in pairs]], float).reshape(1, -1)
    free = {k: np.array([value]) for k, value in free_populations.items()}
    return valid_stack(locally_thermal_rows(np.array([spectrum.levels]), np.array([beta_c]), np.array([beta_h]), free, pairs, eta, xi, True)).system(0)


def marginal_residual(c, h):
    """|sum(h) - sum(c)| of marginals (..., d): the residual of row 0, which the solve leaves out."""
    return np.abs(h.sum(axis=-1) - c.sum(axis=-1))


def dephase(sys: BipartiteSystem) -> BipartiteSystem:
    """Remove coherences between distinct total-energy eigenspaces.

    Entries within a degenerate eigenspace of H_C + H_H survive (for a
    resonant pair, the |01>/|10> coherence); everything else is zeroed.
    Idempotent and trace preserving.
    """
    return sys.with_rho(dephased_rho(sys.rho, np.asarray(sys.spectrum_c.levels), np.asarray(sys.spectrum_h.levels)))


def dephased_rho(rho: np.ndarray, levels_c, levels_h) -> np.ndarray:
    """The rho of ``dephase``, of one state (levels (d,)) or of each of a
    stack (rho (n, D, D), levels (n, d))."""
    e = levels_c[..., :, None] + levels_h[..., None, :]
    e = e.reshape(*e.shape[:-2], -1)  # the total energies, C-major
    return np.where(np.abs(e[..., :, None] - e[..., None, :]) <= DEGENERACY_TOL, rho, 0.0)


def min_partial_transpose_eigenvalue(sys):
    """Smallest eigenvalue of rho^(T_H) of a ``BipartiteSystem``, or of each
    row of a ``StateStack`` (an (n,) array), by one stacked eigvalsh.

    A nonnegative value certifies separability only for 2x2 and 2x3
    systems (positive partial transpose is conclusive there).
    """
    low = hermitian_eigenvalues(partial_transpose(sys.rho, sys.dims, "H"))[..., 0]
    return low if sys.rho.ndim == 3 else float(low)
