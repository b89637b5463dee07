"""Heat-flow inequalities that witness quasiprobability negativity.

Every witness returns a WitnessVerdict.  A verdict only reports
``violated`` when all of its preconditions hold, so sweeps can record
precondition failures as distinct cells rather than errors.  Inequalities
are non-strict: values on the boundary (within 1e-12) count as satisfied.

Identifiers: T1 (resonant two-qubit), T2 (nonideal two-qubit), T3 /
T3-nonideal (exchange-fluctuation bound, any dimension), I4 (alternative
correlation bound), T4-lower / T4-upper (TPM band, projective data only),
strong-backflow (entanglement threshold log(d) / dBeta).

Each inequality has one implementation, a ``*_stack`` kernel over arrays
of per-cell observables (see "stacks of cells" below).  The single-cell
``*_witness`` functions check their arguments, run their kernel on plain
floats and wrap its one cell as a WitnessVerdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fluctuations import (
    DivergenceError,
    TransitionTable,
    XftReport,
    energy_changes,
    masked_sums,
    table_heat,
)
from .states import EXP_SHIFT_ABOVE, bohr_nondegenerate

VIOLATION_MARGIN = 1e-12
ENERGY_PRESERVING_TOL = 1e-10


@dataclass(frozen=True)
class WitnessVerdict:
    inequality_id: str
    bound: float
    observed: float
    violated: bool
    preconditions_ok: bool
    preconditions: tuple[tuple[str, bool], ...] = ()
    extras: tuple[tuple[str, float], ...] = ()

    def precondition(self, name: str) -> bool:
        return dict(self.preconditions)[name]

    def extra(self, name: str) -> float:
        return dict(self.extras)[name]


def _verdict(inequality_id: str, v: StackVerdict, observed, with_extras=True) -> WitnessVerdict:
    """The WitnessVerdict of a one-cell StackVerdict."""
    return WitnessVerdict(
        inequality_id=inequality_id,
        bound=v.bound.item(),
        observed=observed,
        violated=v.violated.item(),
        preconditions_ok=v.preconditions_ok.item(),
        preconditions=tuple((name, np.asarray(ok).item()) for name, ok in v.preconditions),
        extras=tuple((name, np.asarray(x).item()) for name, x in v.extras) if with_extras else (),
    )


def two_qubit_flow_witness(
    q: float,
    q_tpm: float,
    beta_c: float,
    beta_h: float,
    gap: float = 1.0,
    commutator_norm: float | None = None,
) -> WitnessVerdict:
    """|Q| <= (2 + e^{bH E} + e^{bC E}) / (e^{bC E} - e^{bH E}) * |Q_TPM|.

    Holds whenever the MH table is nonnegative, for resonant qubits under
    a work-free unitary; a violation therefore certifies negativity (and
    implies |Q| > |Q_TPM| since the prefactor exceeds one).
    """
    if beta_c == beta_h:
        raise ValueError("bound undefined for equal inverse temperatures")
    return _verdict("T1", two_qubit_flow_stack(q, q_tpm, beta_c, beta_h, gap, commutator_norm), abs(q))


def nonideal_flow_witness(
    q: float,
    q_tpm: float,
    beta_c: float,
    beta_h: float,
    e_c: float,
    e_h: float,
    epsilon: float,
) -> WitnessVerdict:
    """Two-qubit witness tolerant to detuning and injected work.

    With R = (1+e^{bH EH})/(1+e^{bC EC}), Ebar = (EC+EH)/2 and
    Delta = |EC-EH|/(2 Ebar), nonnegativity of the MH table implies

      |Q| <= [(1+R+D(1+R)) |Q_TPM| + 4 Ebar eps (2+D(1+R))] / (1-R-D(1+R))

    plus two stronger one-sided variants (reported in extras: the lower
    admissible Q for a direct flow, the upper admissible Q for a
    backflow).  ``bound`` is the tightest bound applicable to the
    observed flow direction; at eps = Delta = 0 everything reduces to the
    resonant witness.  Preconditions: the detuning is below the critical
    value (the denominator stays positive) and the flow is large enough
    to be distinguishable from injected work, |Q| > 2 eps Ebar.  Past the
    critical detuning the bound is infinite and there are no extras.
    """
    if beta_c == beta_h:
        raise ValueError("bound undefined for equal inverse temperatures")
    v = nonideal_flow_stack(q, q_tpm, beta_c, beta_h, e_c, e_h, epsilon)
    return _verdict("T2", v, abs(q), with_extras=dict(v.preconditions)["gap_subcritical"])


def xft_flow_witness(
    q: float,
    xft: XftReport,
    beta_c: float,
    beta_h: float,
    epsilon_work: float | None = None,
) -> WitnessVerdict:
    """Q <= [-<dI> + log(1 + chi_bar)] / dBeta, any finite dimension.

    Follows from Jensen's inequality applied to the exchange-fluctuation
    average, so it is sound whenever the MH table is nonnegative and the
    dynamics conserves energy on every contributing entry.  With
    ``epsilon_work`` set, per-entry energy mismatch up to that amount is
    tolerated and the bound gains a slack term beta_H * eps / dBeta.
    Raises DivergenceError when 1 + chi_bar <= 0 (the log is reported,
    never clamped).
    """
    if xft.chi_bar is None:
        raise ValueError("attach chi_bar to the XftReport first")
    if beta_c - beta_h == 0:
        raise ValueError("bound undefined for equal inverse temperatures")
    if 1.0 + xft.chi_bar <= 0.0:
        raise DivergenceError(f"1 + chi_bar = {1.0 + xft.chi_bar:.3e} <= 0")
    v = xft_flow_stack(
        q, xft.chi_bar, xft.lhs, xft.avg_delta_i, xft.resonance_ok, beta_c, beta_h,
        epsilon_work, xft.max_energy_mismatch,
    )
    return _verdict("T3" if epsilon_work is None else "T3-nonideal", v, q)


def correlation_flow_witness(
    q: float, j_value: float, mh_table: TransitionTable, beta_c: float, beta_h: float
) -> WitnessVerdict:
    """Q <= log(1 + J) / dBeta with J the correlation correction.

    Sound on a nonnegative MH table when the dynamics conserves energy, as
    the identity 1 + J = <e^{dBeta dE_C}>_MH behind it needs.
    ``mh_table.resonance()`` is the ``resonance`` precondition, so a cell
    whose XFT average diverges still gets a verdict.
    """
    if mh_table.kind != "MH":
        raise ValueError("the correlation witness reads its resonance from an MH table")
    if beta_c - beta_h == 0:
        raise ValueError("bound undefined for equal inverse temperatures")
    if 1.0 + j_value <= 0.0:
        raise DivergenceError(f"1 + J = {1.0 + j_value:.3e} <= 0")
    return _verdict("I4", correlation_flow_stack(q, j_value, mh_table.resonance()[0], beta_c, beta_h), q)


def _require_bohr_nondegenerate(energies_c, energies_h) -> None:
    for label, levels in (("C", energies_c), ("H", energies_h)):
        if not bohr_nondegenerate(levels):
            raise ValueError(f"degenerate Bohr spectrum on {label}")


def tpm_band_witness(
    q: float, tpm_table: TransitionTable
) -> tuple[WitnessVerdict, WitnessVerdict]:
    """Q must stay in [Q_TPM - 2 lambda-, Q_TPM + 2 lambda+].

    lambda- (lambda+) is the TPM-weighted energy leaving (entering) C.
    Everything on the right-hand side is measurable with projective
    energy statistics alone, and no local thermality is required; the
    spectra must have nondegenerate gaps and the dynamics must conserve
    energy (checked from the table's off-resonant weight).
    """
    if tpm_table.kind != "TPM":
        raise ValueError("band witness needs a TPM table")
    _require_bohr_nondegenerate(tpm_table.energies_c, tpm_table.energies_h)
    lower, upper = tpm_band_stack(
        q, table_heat(tpm_table), tpm_table.values[None], tpm_table.energies_c, tpm_table.energies_h
    )
    return _verdict("T4-lower", lower, q), _verdict("T4-upper", upper, q)


def strong_backflow_witness(
    q: float, beta_c: float, beta_h: float, d: int
) -> WitnessVerdict:
    """Backflow beyond log(d) / dBeta is impossible for separable states."""
    return _verdict("strong-backflow", strong_backflow_stack(q, beta_c, beta_h, d), q)


# --- stacks of cells ------------------------------------------------------
# The one implementation of each inequality, for arrays of per-cell
# observables or plain floats; betas, gaps and epsilon are one value or
# one per cell.  A single-cell branch is a per-cell choice, and each
# single-cell function above is its kernel on floats, so one cell of a
# stack equals its single-cell verdict bit for bit.  The scalar reference
# the kernels are checked against lives in the tests.


class StackVerdict(NamedTuple):
    """Per-cell bound, precondition status and verdict of one witness.

    ``preconditions`` names each precondition's mask, in the order the
    verdict lists them, and ``extras`` the side values the verdict
    reports; each is per cell, or one value that holds for every cell.
    """

    bound: np.ndarray
    preconditions_ok: np.ndarray
    violated: np.ndarray
    preconditions: tuple[tuple[str, np.ndarray], ...] = ()
    extras: tuple[tuple[str, np.ndarray], ...] = ()

    def flags(self) -> np.ndarray:
        """1 violated, 0 not violated, -1 a precondition failed."""
        return np.where(self.preconditions_ok, self.violated.astype(int), -1)


def _resolve_stack(bound, preconditions, exceeds, extras=()) -> StackVerdict:
    ok = np.ones(np.shape(exceeds), dtype=bool)
    for _, flag in preconditions:
        ok = ok & flag
    bound = np.asarray(bound, dtype=float)
    if bound.shape != ok.shape:
        bound = np.broadcast_to(bound, ok.shape)
    return StackVerdict(bound, ok, ok & exceeds, tuple(preconditions), tuple(extras))


def _shifted_exps(x, y):
    """(e^-s, e^(x-s), e^(y-s)): s is the larger of x and y where it passes
    EXP_SHIFT_ABOVE, else 0.0, which gives 1.0, e^x and e^y bit for bit."""
    top = np.maximum(x, y)
    s = np.where(top > EXP_SHIFT_ABOVE, top, 0.0)
    return np.exp(-s), np.exp(x - s), np.exp(y - s)


def two_qubit_flow_stack(q, q_tpm, beta_c, beta_h, gap=1.0, commutator_norm=None) -> StackVerdict:
    """``two_qubit_flow_witness`` per cell; the energy-preserving
    precondition is checked when ``commutator_norm`` is given."""
    one, a, b = _shifted_exps(beta_h * gap, beta_c * gap)
    ordered = beta_c > beta_h
    pre = [("beta_order", ordered)]
    if commutator_norm is not None:
        pre.append(("energy_preserving", commutator_norm < ENERGY_PRESERVING_TOL))
    bound = np.where(ordered, (2.0 * one + a + b) / (b - a) * np.abs(q_tpm), np.inf)
    observed = np.abs(q)
    return _resolve_stack(bound, pre, observed > bound + VIOLATION_MARGIN)


def nonideal_flow_stack(q, q_tpm, beta_c, beta_h, e_c, e_h, epsilon) -> StackVerdict:
    """``nonideal_flow_witness`` per cell; a cell whose denominator is not
    positive gets the infinite bound and no violation."""
    ebar = 0.5 * (e_c + e_h)
    delta = np.abs(e_c - e_h) / (2.0 * ebar)
    one, a, b = _shifted_exps(beta_h * e_h, beta_c * e_c)
    r = (one + a) / (one + b)
    den = 1.0 - r - delta * (1.0 + r)
    observed = np.abs(q)
    pre = [
        ("beta_order", beta_c > beta_h),
        ("gap_subcritical", den > 0),
        ("flow_above_work", (epsilon == 0.0) | (observed > 2.0 * epsilon * ebar)),
    ]
    cut = den <= 0
    den = np.where(cut, 1.0, den)
    slack = delta * (1.0 + r)
    sym_bound = ((1.0 + r + slack) * np.abs(q_tpm) + 4.0 * ebar * epsilon * (2.0 + slack)) / den
    direct_floor = ((1.0 + r - slack) * q_tpm - 4.0 * ebar * epsilon * (2.0 + slack)) / den
    back_ceiling = (
        -(1.0 + r + slack) * q_tpm + 4.0 * ebar * epsilon * (2.0 - r + slack)
    ) / den
    # the tightest bound of the flow direction; min(a, b) keeps a unless b < a
    bound = np.where(
        cut,
        np.inf,
        np.where(
            q < 0,
            np.where(-direct_floor < sym_bound, -direct_floor, sym_bound),
            np.where((q > 0) & (back_ceiling < sym_bound), back_ceiling, sym_bound),
        ),
    )
    extras = (
        ("symmetric_bound", sym_bound),
        ("direct_floor", direct_floor),
        ("back_ceiling", back_ceiling),
        ("delta", delta),
        ("ratio_r", r),
    )
    return _resolve_stack(bound, pre, observed > bound + VIOLATION_MARGIN, extras)


def xft_flow_stack(
    q, chi, lhs, avg_delta_i, resonance_ok, beta_c, beta_h, epsilon_work=None, max_energy_mismatch=None
) -> StackVerdict:
    """``xft_flow_witness`` per cell.  With ``epsilon_work`` (T3-nonideal)
    the resonance precondition reads ``max_energy_mismatch`` in place of
    ``resonance_ok``.  The caller flags cells with 1 + chi_bar <= 0,
    where the single-cell function raises."""
    delta_beta = beta_c - beta_h
    if epsilon_work is None:
        slack = 0.0  # "+ 0.0" maps a -0.0 bound to 0.0
    else:
        resonance_ok = max_energy_mismatch <= epsilon_work + 1e-15
        # Jensen with per-entry mismatch <= eps gives +beta_H eps / dBeta.
        slack = beta_h * epsilon_work / delta_beta
    pre = [
        ("beta_order", delta_beta > 0),
        ("resonance", resonance_ok),
        ("finite", np.isfinite(lhs) & np.isfinite(avg_delta_i)),
    ]
    bound = (-avg_delta_i + np.log1p(chi)) / delta_beta + slack
    return _resolve_stack(bound, pre, q > bound + VIOLATION_MARGIN)


def correlation_flow_stack(q, j_value, resonance_ok, beta_c, beta_h) -> StackVerdict:
    """``correlation_flow_witness`` per cell, with the resonance
    precondition ``resonance_ok`` (the mask of ``resonance_stack``, as
    ``xft_flow_stack`` takes it).  The caller flags cells with 1 + J <= 0,
    where the single-cell function raises."""
    delta_beta = beta_c - beta_h
    bound = np.log1p(j_value) / delta_beta
    pre = [("beta_order", delta_beta > 0), ("resonance", resonance_ok)]
    return _resolve_stack(bound, pre, q > bound + VIOLATION_MARGIN)


def tpm_band_stack(q, q_tpm, tpm_values, energies_c, energies_h):
    """(lower, upper) verdicts of ``tpm_band_witness`` per cell, on one pair
    of spectra or one per cell.  The spectra must be Bohr-nondegenerate
    (the single-cell function raises otherwise); the caller checks that."""
    de_c, de_h = energy_changes(energies_c, energies_h)
    v = tpm_values
    off_weight = masked_sums(v, np.abs(de_c + de_h) > 1e-9)
    pre = [("energy_preserving", off_weight < ENERGY_PRESERVING_TOL)]
    lam_minus = masked_sums(v * de_c, de_c > 1e-12)
    lam_plus = masked_sums(v * (-de_c), de_c < -1e-12)
    lower = q_tpm - 2.0 * lam_minus
    upper = q_tpm + 2.0 * lam_plus
    extras = (("lambda_minus", lam_minus), ("lambda_plus", lam_plus), ("q_tpm", q_tpm))
    return (
        _resolve_stack(lower, pre, q < lower - VIOLATION_MARGIN, extras),
        _resolve_stack(upper, pre, q > upper + VIOLATION_MARGIN, extras),
    )


def strong_backflow_stack(q, beta_c, beta_h, d) -> StackVerdict:
    """``strong_backflow_witness`` per cell, at one local dimension d or one per cell."""
    delta_beta = beta_c - beta_h
    ordered = delta_beta > 0
    bound = np.where(ordered, np.log(d) / np.where(ordered, delta_beta, 1.0), np.inf)
    return _resolve_stack(bound, [("beta_order", ordered)], q > bound + VIOLATION_MARGIN)
