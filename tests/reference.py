"""The scalar per-cell reference that every fast path is checked against.

One cell is built and evaluated alone, with the single-matrix
constructors, tables, heat functionals and witnesses below.  ``qheatflow``
computes each of those quantities once, as a kernel over stacks of cells
(``dynamics.*_stack``, ``linalg.matrix_exp_stack``,
``fluctuations.*_stack``, ``witnesses.*_stack``), and its single-cell
names run that kernel on one cell; these are the scalar bodies they
replaced.  ``qheatflow.sweeps`` has one state builder, one unitary
builder and one evaluator, all on (n, D, D) stacks; a sweep checks its
distinct states as one stack and builds and evaluates its unitaries on
chunks of cells, and ``_build_cell``, ``evaluate_cell`` and
``analyze_point`` run the same steps at n = 1.  Every value they produce
equals this reference's bit for bit.  The reference builds each cell's
state alone (``build_state``) with the public scalar constructors, each
checked by its own ``BipartiteSystem``, the gamma state as the product
of Gibbs matrices plus gamma, the body that
``states.gamma_correlated_state`` had before its entries, and
``min_pt_eig`` from one matrix's partial transpose.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np

from qheatflow.dynamics import ManifoldRotation, UnitaryReport, _xy_hamiltonian, unwrap
from qheatflow.fluctuations import (
    MH_LOWER_BOUND,
    NEGLIGIBLE_WEIGHT,
    DivergenceError,
    HeatExpCorrection,
    HeatReport,
    TransitionTable,
    XftReport,
)
from qheatflow.linalg import HERMITICITY_TOL, NOT_A_GENERATOR, SIGMA_X, _square, spectral_norm
from qheatflow import dynamics, fluctuations, probe, states, witnesses
from qheatflow import linalg as qlinalg
from qheatflow.properties import MIN_POPULATION, QUDIT_MIN_POPULATION, _edge_rho, _tables
from qheatflow.states import (
    EIGVALSH_MAX_SIDE,
    HERM_TOL,
    PSD_TOL,
    THERMAL_TOL,
    TRACE_TOL,
    BipartiteSystem,
    EnergySpectrum,
    _min_eigenvalue_bound,
    bohr_nondegenerate,
    thermal_populations,
)
from qheatflow.sweeps import (
    FLAG_COLUMNS,
    NEGATIVITY_THRESHOLD,
    QUTRIT_ANGLES,
    SCENARIOS,
    _derive,
    _KindParams,
)
from qheatflow.witnesses import (
    ENERGY_PRESERVING_TOL,
    VIOLATION_MARGIN,
    WitnessVerdict,
    _require_bohr_nondegenerate,
)


# --- tables and unitaries ------------------------------------------------

def _check_table(kind, v) -> None:
    total = v.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"table sums to {total}, expected 1")
    lo = v.min()
    if kind == "TPM" and lo < -1e-12:
        raise ValueError(f"TPM entry {lo} below 0")
    if kind == "MH" and lo < MH_LOWER_BOUND - 1e-10:
        raise ValueError(f"MH entry {lo} below -1/8")
    if v.max() > 1.0 + 1e-10:
        raise ValueError(f"entry {v.max()} above 1")


def tpm_distribution(sys, u) -> TransitionTable:
    u = unwrap(u)
    if u.shape[0] != sys.d_c * sys.d_h:
        raise ValueError("unitary dimension does not match the system")
    pops = sys.populations()
    vals = (np.abs(u.T) ** 2) * pops[:, None]
    d_c, d_h = sys.dims
    vals = np.clip(vals, 0.0, None).reshape(d_c, d_h, d_c, d_h)
    _check_table("TPM", vals)
    return TransitionTable("TPM", vals, sys.spectrum_c.levels, sys.spectrum_h.levels)


def mh_distribution(sys, u) -> TransitionTable:
    u = unwrap(u)
    if u.shape[0] != sys.d_c * sys.d_h:
        raise ValueError("unitary dimension does not match the system")
    # entry [i, f] = Re[ U_{f,i} (rho U^dag)_{i,f} ]
    vals = np.real(u.T * (sys.rho @ u.conj().T))
    d_c, d_h = sys.dims
    vals = vals.reshape(d_c, d_h, d_c, d_h)
    _check_table("MH", vals)
    return TransitionTable("MH", vals, sys.spectrum_c.levels, sys.spectrum_h.levels)


def hermiticity_defect(m) -> float:
    """Max absolute entry of M - M†, one matrix at a time."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def matrix_exp(m) -> np.ndarray:
    m = _square(m)
    if hermiticity_defect(m) <= HERMITICITY_TOL:
        w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
        return (v * np.exp(w)) @ v.conj().T
    k = 1j * m
    if hermiticity_defect(k) <= HERMITICITY_TOL:
        w, v = np.linalg.eigh(0.5 * (k + k.conj().T))
        return (v * np.exp(-1j * w)) @ v.conj().T
    raise ValueError(NOT_A_GENERATOR)


def commutator_norm(u, h_total) -> float:
    """The dense || U H - H U ||, also where it is exactly zero."""
    u = unwrap(u)
    return spectral_norm(u @ h_total - h_total @ u)


def total_hamiltonian(levels_c, levels_h) -> np.ndarray:
    """kron(H_C, I) + kron(I, H_H)."""
    h_c, h_h = (np.diag(np.asarray(levels, dtype=complex)) for levels in (levels_c, levels_h))
    return np.kron(h_c, np.eye(len(levels_h))) + np.kron(np.eye(len(levels_c)), h_h)


def energy_preserving_unitary(spectrum, rotations=()) -> UnitaryReport:
    if not spectrum.bohr_nondegenerate():
        raise ValueError("spectrum has degenerate gaps; manifolds are not independent")
    d = spectrum.dim
    u = np.eye(d * d, dtype=complex)
    seen = set()
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
    return UnitaryReport(u, commutator_norm(u, total_hamiltonian(spectrum.levels, spectrum.levels)))


def two_qubit_exchange_unitary(theta, kappa=0.0, lam=0.0, phi=0.0, gap=1.0) -> UnitaryReport:
    spec = EnergySpectrum.two_level(gap)
    return energy_preserving_unitary(spec, [ManifoldRotation((0, 1), theta, phi=phi, lam=lam, kappa=kappa)])


def xy_exchange_unitary(j_hz, t, gap=1.0) -> UnitaryReport:
    if t < 0:
        raise ValueError("time must be nonnegative")
    u = matrix_exp(-1j * _xy_hamiltonian(j_hz) * t)
    return UnitaryReport(u, commutator_norm(u, total_hamiltonian((0.0, gap), (0.0, gap))))


def perturbed_xy_unitary(j_hz, j_x, t, gap=1.0, gap_h=None) -> UnitaryReport:
    if t < 0:
        raise ValueError("time must be nonnegative")
    h_xy = _xy_hamiltonian(j_hz)
    u = matrix_exp(-1j * (h_xy + j_x * np.kron(SIGMA_X, SIGMA_X)) * t)
    epsilon = spectral_norm(u - matrix_exp(-1j * h_xy * t))
    h_total = total_hamiltonian((0.0, gap), (0.0, gap if gap_h is None else gap_h))
    return UnitaryReport(u, commutator_norm(u, h_total), epsilon=epsilon)


def rotation_angle(u) -> float:
    u = unwrap(u)
    return float(np.arctan2(np.real(u[2, 1]), np.real(u[1, 1])))


# --- heat functionals -----------------------------------------------------

def marginal_check(table, sys, u, against_dephased=None) -> float:
    u = unwrap(u)
    if against_dephased is None:
        against_dephased = table.kind == "TPM"
    rho = np.diag(np.diag(sys.rho)) if against_dephased else sys.rho
    d_c, d_h = sys.dims
    init = np.real(np.diag(rho)).reshape(d_c, d_h)
    final = np.real(np.diag(u @ rho @ u.conj().T)).reshape(d_c, d_h)
    dev_i = np.max(np.abs(table.initial_marginal() - init))
    dev_f = np.max(np.abs(table.final_marginal() - final))
    return float(max(dev_i, dev_f))


def hamiltonian(levels) -> np.ndarray:
    """The local Hamiltonian diag(levels), complex."""
    return np.diag(np.asarray(levels, dtype=complex))


def average_heat(sys, u) -> float:
    u = unwrap(u)
    h_c = np.kron(hamiltonian(sys.spectrum_c.levels), np.eye(sys.d_h))
    rho_t = u @ sys.rho @ u.conj().T
    return float(np.real(np.trace(sys.rho @ h_c) - np.trace(rho_t @ h_c)))


def table_heat(table) -> float:
    m = table.values.sum(axis=(1, 3))
    ec = np.asarray(table.energies_c)
    return float((m * (ec[:, None] - ec[None, :])).sum())


def flow_decomposition(table, q_tpm=None) -> HeatReport:
    v = table.values
    pos = np.clip(v, 0.0, None)
    neg = np.clip(v, None, 0.0)
    pos_rev = pos.transpose(2, 3, 0, 1)
    neg_rev = neg.transpose(2, 3, 0, 1)
    de = table.delta_e_c()
    mask = de > 1e-12
    return HeatReport(
        q=table_heat(table),
        q_back=float(((pos - neg_rev) * de)[mask].sum()),
        q_direct=float(((pos_rev - neg) * de)[mask].sum()),
        q_tpm=q_tpm,
        negative_entries=tuple(table.negative_entries()),
    )


def xft_coherence_term(sys, u) -> float:
    u = unwrap(u)
    pops = sys.populations()
    w = u.conj().T @ (pops[:, None] * u)  # (U^dag diag(pops) U)
    num = np.asarray(sys.rho * w.T)  # term[k, m] = rho_km * w[m, k]
    np.fill_diagonal(num, 0.0)
    needed = np.abs(num) > 1e-15
    starved = needed & (pops[:, None] <= NEGLIGIBLE_WEIGHT)
    if starved.any():
        k = int(np.argwhere(starved)[0][0])
        raise DivergenceError(f"population rho_{k}{k} = {pops[k]:.3e} divides a nonzero coherence term")
    safe = np.where(pops > NEGLIGIBLE_WEIGHT, pops, 1.0)
    return float(np.real(num / safe[:, None]).sum())


def _log_or_raise(values, label: str, needed):
    bad = needed & (values <= 0.0)
    if bad.any():
        idx = np.argwhere(bad)[0]
        raise DivergenceError(f"{label}{tuple(int(i) for i in idx)} vanishes inside a log")
    return np.log(np.where(values > 0.0, values, 1.0))


def xft_average(table, sys) -> XftReport:
    if table.kind != "MH":
        raise ValueError("the exchange-fluctuation average is defined on MH tables")
    if sys.beta_c is None or sys.beta_h is None:
        raise ValueError("system must carry its inverse temperatures")
    d_c, d_h = sys.dims
    p = table.values
    mask = np.abs(p) > NEGLIGIBLE_WEIGHT
    needed = mask.any(axis=(2, 3)) | mask.any(axis=(0, 1))
    log_pop = _log_or_raise(sys.populations().reshape(d_c, d_h), "population", needed)
    log_pc = _log_or_raise(np.real(np.diag(sys.marginal_c())), "marginal_C", needed.any(axis=1))
    log_ph = _log_or_raise(np.real(np.diag(sys.marginal_h())), "marginal_H", needed.any(axis=0))
    info = log_pop - log_pc[:, None] - log_ph[None, :]
    delta_i = info[None, None, :, :] - info[:, :, None, None]  # [i_C, i_H, f_C, f_H] = I_f - I_i
    resonance_ok, max_mismatch = resonance(table)
    weight = np.exp(np.where(mask, delta_i + (sys.beta_c - sys.beta_h) * table.delta_e_c(), 0.0))
    return XftReport(
        lhs=float((p * weight)[mask].sum()),
        avg_delta_i=float((p * np.where(mask, delta_i, 0.0))[mask].sum()),
        resonance_ok=resonance_ok,
        max_energy_mismatch=max_mismatch,
    )


def resonance(table) -> tuple[bool, float]:
    """(resonance_ok, max energy mismatch) of a table: whether every entry
    with |p| > 1e-12 conserves H_C + H_H, and the largest mismatch."""
    mask = np.abs(table.values) > NEGLIGIBLE_WEIGHT
    mismatch = np.abs(table.delta_e_c() + table.delta_e_h())
    energy_scale = max(1.0, max(abs(e) for e in table.energies_c + table.energies_h))
    max_mismatch = float(mismatch[mask].max()) if mask.any() else 0.0
    return max_mismatch <= 1e-9 * energy_scale, max_mismatch


def heat_exp_correction(sys, u) -> HeatExpCorrection:
    u = unwrap(u)
    pops = np.real(np.diag(sys.rho))
    qpop = np.kron(np.real(np.diag(sys.marginal_c())), np.real(np.diag(sys.marginal_h())))
    if qpop.min() <= NEGLIGIBLE_WEIGHT:
        raise DivergenceError("a product-marginal population vanishes")
    c_mat = np.diag((pops / qpop - 1.0).astype(complex))
    q_mat = np.asarray(sys.rho / qpop[:, None])
    np.fill_diagonal(q_mat, 0.0)
    evolved_product = u.conj().T @ (qpop[:, None] * u)
    j = float(np.real(np.trace(evolved_product @ (c_mat + q_mat))))
    return HeatExpCorrection(j=j, c=c_mat, q=q_mat)


# --- witnesses ------------------------------------------------------------

def _resolve(inequality_id, bound, observed, preconditions, exceeds, extras=()) -> WitnessVerdict:
    ok = all(flag for _, flag in preconditions)
    return WitnessVerdict(
        inequality_id, bound, observed, bool(ok and exceeds), ok, tuple(preconditions), extras
    )


def two_qubit_flow_witness(q, q_tpm, beta_c, beta_h, gap=1.0, commutator_norm=None) -> WitnessVerdict:
    if beta_c == beta_h:
        raise ValueError("bound undefined for equal inverse temperatures")
    a = np.exp(beta_h * gap)
    b = np.exp(beta_c * gap)
    pre = [("beta_order", beta_c > beta_h)]
    if commutator_norm is not None:
        pre.append(("energy_preserving", commutator_norm < ENERGY_PRESERVING_TOL))
    bound = (2.0 + a + b) / (b - a) * abs(q_tpm) if beta_c > beta_h else np.inf
    observed = abs(q)
    return _resolve("T1", float(bound), observed, pre, observed > bound + VIOLATION_MARGIN)


def nonideal_flow_witness(q, q_tpm, beta_c, beta_h, e_c, e_h, epsilon) -> WitnessVerdict:
    if beta_c == beta_h:
        raise ValueError("bound undefined for equal inverse temperatures")
    ebar = 0.5 * (e_c + e_h)
    delta = abs(e_c - e_h) / (2.0 * ebar)
    r = (1.0 + np.exp(beta_h * e_h)) / (1.0 + np.exp(beta_c * e_c))
    den = 1.0 - r - delta * (1.0 + r)
    pre = [
        ("beta_order", beta_c > beta_h),
        ("gap_subcritical", den > 0),
        ("flow_above_work", epsilon == 0.0 or abs(q) > 2.0 * epsilon * ebar),
    ]
    if den <= 0:
        return _resolve("T2", np.inf, abs(q), pre, False)
    slack = delta * (1.0 + r)
    sym_bound = ((1.0 + r + slack) * abs(q_tpm) + 4.0 * ebar * epsilon * (2.0 + slack)) / den
    direct_floor = ((1.0 + r - slack) * q_tpm - 4.0 * ebar * epsilon * (2.0 + slack)) / den
    back_ceiling = (-(1.0 + r + slack) * q_tpm + 4.0 * ebar * epsilon * (2.0 - r + slack)) / den
    bound = sym_bound
    if q < 0:
        bound = min(sym_bound, -direct_floor)
    elif q > 0:
        bound = min(sym_bound, back_ceiling)
    observed = abs(q)
    extras = tuple(
        (name, float(x))
        for name, x in zip(
            ("symmetric_bound", "direct_floor", "back_ceiling", "delta", "ratio_r"),
            (sym_bound, direct_floor, back_ceiling, delta, r),
        )
    )
    return _resolve("T2", float(bound), observed, pre, observed > bound + VIOLATION_MARGIN, extras)


def xft_flow_witness(q, xft, beta_c, beta_h, epsilon_work=None) -> WitnessVerdict:
    if xft.chi_bar is None:
        raise ValueError("attach chi_bar to the XftReport first")
    delta_beta = beta_c - beta_h
    if delta_beta == 0:
        raise ValueError("bound undefined for equal inverse temperatures")
    if 1.0 + xft.chi_bar <= 0.0:
        raise DivergenceError(f"1 + chi_bar = {1.0 + xft.chi_bar:.3e} <= 0")
    if epsilon_work is None:
        ident, resonance_ok, slack = "T3", xft.resonance_ok, 0.0
    else:
        ident = "T3-nonideal"
        resonance_ok = xft.max_energy_mismatch <= epsilon_work + 1e-15
        slack = beta_h * epsilon_work / delta_beta
    pre = [
        ("beta_order", delta_beta > 0),
        ("resonance", resonance_ok),
        ("finite", bool(np.isfinite(xft.lhs) and np.isfinite(xft.avg_delta_i))),
    ]
    bound = (-xft.avg_delta_i + np.log1p(xft.chi_bar)) / delta_beta + slack
    return _resolve(ident, float(bound), q, pre, q > bound + VIOLATION_MARGIN)


def correlation_flow_witness(q, j_value, mh_table, beta_c, beta_h) -> WitnessVerdict:
    if mh_table.kind != "MH":
        raise ValueError("the correlation witness reads its resonance from an MH table")
    delta_beta = beta_c - beta_h
    if delta_beta == 0:
        raise ValueError("bound undefined for equal inverse temperatures")
    if 1.0 + j_value <= 0.0:
        raise DivergenceError(f"1 + J = {1.0 + j_value:.3e} <= 0")
    bound = np.log1p(j_value) / delta_beta
    pre = [("beta_order", delta_beta > 0), ("resonance", resonance(mh_table)[0])]
    return _resolve("I4", float(bound), q, pre, q > bound + VIOLATION_MARGIN)


def tpm_band_witness(q, tpm_table) -> tuple[WitnessVerdict, WitnessVerdict]:
    if tpm_table.kind != "TPM":
        raise ValueError("band witness needs a TPM table")
    _require_bohr_nondegenerate(tpm_table.energies_c, tpm_table.energies_h)
    de = tpm_table.delta_e_c()
    mismatch = np.abs(de + tpm_table.delta_e_h())
    off_weight = float(tpm_table.values[mismatch > 1e-9].sum())
    pre = [("energy_preserving", off_weight < ENERGY_PRESERVING_TOL)]
    v = tpm_table.values
    lam_minus = float((v * de)[de > 1e-12].sum())
    lam_plus = float((v * (-de))[de < -1e-12].sum())
    q_tpm = table_heat(tpm_table)
    lower = q_tpm - 2.0 * lam_minus
    upper = q_tpm + 2.0 * lam_plus
    extras = (("lambda_minus", lam_minus), ("lambda_plus", lam_plus), ("q_tpm", q_tpm))
    return (
        _resolve("T4-lower", float(lower), q, pre, q < lower - VIOLATION_MARGIN, extras),
        _resolve("T4-upper", float(upper), q, pre, q > upper + VIOLATION_MARGIN, extras),
    )


def strong_backflow_witness(q, beta_c, beta_h, d) -> WitnessVerdict:
    delta_beta = beta_c - beta_h
    bound = np.log(d) / delta_beta if delta_beta > 0 else np.inf
    return _resolve("strong-backflow", float(bound), q, [("beta_order", delta_beta > 0)], q > bound + VIOLATION_MARGIN)


# --- one cell -------------------------------------------------------------


def flag(verdict) -> int:
    if not verdict.preconditions_ok:
        return -1
    return 1 if verdict.violated else 0


def build_unitary(kind: str, params: dict, sys: BipartiteSystem):
    """(unitary report, extra output columns) of one kind acting on ``sys``."""
    params = _KindParams(f"{kind} unitary", params)
    if kind == "xy":
        u = xy_exchange_unitary(
            params["unitary.J"], params["unitary.t"], gap=params.get("state.E", 1.0)
        )
        return u, {"theta": rotation_angle(u)}
    if kind == "perturbed-xy":
        u = perturbed_xy_unitary(
            params["unitary.J"], params.get("unitary.Jx", 0.0), params["unitary.t"],
            gap=sys.spectrum_c.levels[1], gap_h=sys.spectrum_h.levels[1],
        )
        return u, {"eps_actual": u.epsilon}
    if sys.d_c == 2:
        u = two_qubit_exchange_unitary(
            params["unitary.theta"],
            kappa=params.get("unitary.kappa", 0.0),
            lam=params.get("unitary.lam", 0.0),
            phi=params.get("unitary.phi", 0.0),
            gap=params.get("state.E", 1.0),
        )
        return u, {"theta": params["unitary.theta"]}
    rots = [
        ManifoldRotation(pair, params[key]) for pair, key in QUTRIT_ANGLES.items() if key in params
    ]
    return energy_preserving_unitary(sys.spectrum_c, rots), {}


def min_partial_transpose_eigenvalue(sys: BipartiteSystem) -> float:
    """The smallest eigenvalue of rho^(T_H), of the one matrix transposed
    index by index (``states.min_partial_transpose_eigenvalue`` runs the
    stacked ``linalg.partial_transpose``)."""
    (d_c, d_h), side = sys.dims, len(sys.rho)
    return float(np.linalg.eigvalsh(sys.rho.reshape(d_c, d_h, d_c, d_h).transpose(0, 3, 2, 1).reshape(side, side))[0])


def build_state(kind: str, params: dict) -> BipartiteSystem:
    """The state of one kind, built and checked alone by its public scalar
    constructor; unset optional keys take the defaults of ``sweeps._build_state``."""
    params = _KindParams(f"{kind} state", params)
    if kind == "gamma":
        return gamma_correlated_state(
            params["state.gamma"], params["state.beta_C"], params["state.beta_H"],
            gap=params.get("state.E", 1.0), gap_h=params.get("state.E_H"),
        )
    eta = params.get("state.eta", 0.0)
    xi = params.get("state.xi", 0.0)
    if kind == "two-qubit":
        return states.two_qubit_state(
            states.TwoQubitParams(
                beta_c=params["state.beta_C"],
                beta_h=params["state.beta_H"],
                p00=params["state.P00"],
                eta=eta,
                xi=xi,
                gap=params.get("state.E", 1.0),
            )
        )
    return states.two_qutrit_state(
        states.QutritStateParams(
            beta_c=params["state.beta_C"],
            beta_h=params["state.beta_H"],
            e1=params.get("state.E1", 1.0),
            e2=params.get("state.E2", 1.15),
            rho_0=params["state.rho_0"],
            rho_5=params["state.rho_5"],
            rho_7=params["state.rho_7"],
            rho_8=params["state.rho_8"],
            eta_13=params.get("state.eta_13", eta),
            eta_26=params.get("state.eta_26", eta),
            eta_57=params.get("state.eta_57", eta),
            xi_13=params.get("state.xi_13", xi),
            xi_26=params.get("state.xi_26", xi),
            xi_57=params.get("state.xi_57", xi),
        )
    )


def gamma_correlated_state(gamma, beta_c, beta_h, gap=1.0, gap_h=None) -> BipartiteSystem:
    """The gamma state as a product of Gibbs matrices with gamma added to
    its two exchange entries, in place of its entries' fill."""
    spec_c = EnergySpectrum.two_level(gap)
    spec_h = EnergySpectrum.two_level(gap if gap_h is None else gap_h)
    rho = qlinalg.kron(np.diag(thermal_populations(spec_c, beta_c)), np.diag(thermal_populations(spec_h, beta_h)))
    rho[2, 1] += gamma
    rho[1, 2] += np.conj(gamma)
    return BipartiteSystem(spec_c, spec_h, rho, beta_c, beta_h)


def build_cell(scenario: str, kinds: tuple[str, str], params: dict):
    """(system, unitary report, cell extras) of one grid point; J_x is
    solved for this cell alone, by the scalar call."""
    row = SCENARIOS[scenario]
    state, unitary = kinds
    params = dict(params)
    _derive(row, params, "state.")
    sys = build_state(state, params)
    _derive(row, params, "unitary.")
    u, extras = build_unitary(unitary, params, sys)
    extras.update((column, params[key]) for column, key in row.columns.items())
    return sys, u, extras


def evaluate_cell(sys: BipartiteSystem, u, extras: dict | None = None) -> dict:
    """All derived quantities and verdict flags for one (state, protocol) cell.

    A witness that does not apply to the cell is flagged -1 with no bound.
    """
    row: dict = dict(extras or {})
    row.update(dict.fromkeys(FLAG_COLUMNS, -1))
    beta_c, beta_h = sys.beta_c, sys.beta_h
    mh = mh_distribution(sys, u)
    tpm = tpm_distribution(sys, u)
    q = table_heat(mh)
    q_tpm = table_heat(tpm)
    report = flow_decomposition(mh, q_tpm=q_tpm)
    row.update(
        Q=q,
        Q_tpm=q_tpm,
        Q_back=report.q_back,
        Q_direct=report.q_direct,
        min_pw=mh.min_entry(),
        negativity=int(mh.min_entry() < NEGATIVITY_THRESHOLD),
        min_pt_eig=min_partial_transpose_eigenvalue(sys),
    )

    unequal_betas = beta_c is not None and beta_h is not None and beta_c != beta_h
    if unequal_betas and sys.dims == (2, 2) and sys.spectrum_c == sys.spectrum_h:
        v1 = two_qubit_flow_witness(
            q, q_tpm, beta_c, beta_h,
            gap=sys.spectrum_c.levels[1], commutator_norm=u.commutator_norm,
        )
        row["t1_violated"] = flag(v1)
        row["t1_bound"] = v1.bound

    if unequal_betas and "eps_actual" in row:
        v2 = nonideal_flow_witness(
            q, q_tpm, beta_c, beta_h,
            e_c=sys.spectrum_c.levels[1], e_h=sys.spectrum_h.levels[1],
            epsilon=row["eps_actual"],
        )
        row["t2_violated"] = flag(v2)
        row["t2_bound"] = v2.bound

    if unequal_betas:
        try:
            chi = xft_coherence_term(sys, u)
            xft = xft_average(mh, sys).with_chi(chi)
            row["chi_bar"] = chi
            row["xft_lhs"] = xft.lhs
            row["avg_delta_I"] = xft.avg_delta_i
            v3 = xft_flow_witness(q, xft, beta_c, beta_h)
            row["t3_violated"] = flag(v3)
            row["t3_bound"] = v3.bound
        except DivergenceError:
            row["t3_violated"] = -2
        try:
            corr = heat_exp_correction(sys, u)
            row["j_term"] = corr.j
            v4 = correlation_flow_witness(q, corr.j, mh, beta_c, beta_h)
            row["i4_violated"] = flag(v4)
            row["i4_bound"] = v4.bound
        except DivergenceError:
            row["i4_violated"] = -2
        vs = strong_backflow_witness(q, beta_c, beta_h, sys.d_c)
        row["strong_backflow_violated"] = flag(vs)
        row["strong_backflow_bound"] = vs.bound

    if sys.spectrum_c == sys.spectrum_h and sys.spectrum_c.bohr_nondegenerate():
        try:
            lower, upper = tpm_band_witness(q, tpm)
            row["t4_lower_violated"] = flag(lower)
            row["t4_upper_violated"] = flag(upper)
            row["t4_lower_bound"] = lower.bound
            row["t4_upper_bound"] = upper.bound
        except ValueError:
            row["t4_lower_violated"] = row["t4_upper_violated"] = -2
    return row


# --- states: the checks of BipartiteSystem, one system at a time ----------

def validation_failure(spectrum_c, spectrum_h, rho, beta_c=None, beta_h=None):
    """The constraint a ``BipartiteSystem`` of these fields fails first, or
    None: the scalar checks that ``states.validate_stack`` replaced."""
    rho = np.array(rho, dtype=complex)
    d = spectrum_c.dim * spectrum_h.dim
    if rho.shape != (d, d):
        return "dimension"
    tr = np.trace(rho)
    if not (abs(tr.real - 1.0) <= TRACE_TOL and abs(tr.imag) <= TRACE_TOL):  # nan fails
        return "trace"
    if not hermiticity_defect(rho) <= HERM_TOL:
        return "hermiticity"
    if d <= EIGVALSH_MAX_SIDE or not _min_eigenvalue_bound(rho) >= -0.5 * PSD_TOL:
        if float(np.linalg.eigvalsh(rho)[0]) < -PSD_TOL:
            return "psd"
    dims = (spectrum_c.dim, spectrum_h.dim)
    for side, trace_out, spectrum, beta in (("C", "H", spectrum_c, beta_c), ("H", "C", spectrum_h, beta_h)):
        got = qlinalg.partial_trace(rho, dims, trace_out).diagonal().real
        if beta is not None and np.max(np.abs(got - thermal_populations(spectrum, beta))) > THERMAL_TOL:
            return f"thermal_marginal_{side}"
    return None


def eager_state_row(sys) -> tuple:
    """The eleven columns of a system's one-row ``StateStack``, all built
    at once from its arrays and methods."""
    marginal_c, marginal_h = (qlinalg.partial_trace(sys.rho, sys.dims, side).diagonal().real for side in ("H", "C"))
    b_c, b_h = sys.beta_c, sys.beta_h
    return (
        sys.rho[None], sys.populations()[None], marginal_c[None], marginal_h[None],
        np.array([sys.spectrum_c.levels]), np.array([sys.spectrum_h.levels]),
        np.array([np.nan if b_c is None else b_c]), np.array([np.nan if b_h is None else b_h]),
        np.array([b_c is not None and b_h is not None and b_c != b_h]),
        np.array([sys.spectrum_c == sys.spectrum_h]), np.array([bohr_nondegenerate(sys.spectrum_c.levels)]),
    )



# --- states: the populations the way the constructors used to solve them --

def two_qutrit_state(params) -> BipartiteSystem:
    """The two-qutrit state from its five hand-written marginal equations."""
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
    coherences = [
        ((0, 1), params.eta_13, params.xi_13), ((0, 2), params.eta_26, params.xi_26), ((1, 2), params.eta_57, params.xi_57)
    ]
    return _exchange_state(spec, p, (6, 3, 4, 1, 2, 0, 5, 7, 8), coherences, params.beta_c, params.beta_h)


def qudit_locally_thermal(spectrum, beta_c, beta_h, free_populations, eta_map=None, xi_map=None) -> BipartiteSystem:
    """The d x d state whose solved populations come from ``np.linalg.solve``
    on the assembled (2d - 1)^2 system of the row sums and the column sums
    1..d-1; its dropped column-0 equation is checked, then each population
    >= 0 in joint-index order."""
    d = spectrum.dim
    c = thermal_populations(spectrum, beta_c)
    h = thermal_populations(spectrum, beta_h)
    col = {idx: k for k, idx in enumerate(sorted(set(range(d * d)) - set(free_populations)))}
    a_mat = np.zeros((2 * d - 1, 2 * d - 1))
    b_vec = np.concatenate([c, h[1:]])
    for row, cells in enumerate([range(n * d, n * d + d) for n in range(d)] + [range(m, d * d, d) for m in range(1, d)]):
        for idx in cells:
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
    if abs(p.reshape(d, d)[:, 0].sum() - h[0]) > 1e-9:
        raise states.InfeasibleStateError("marginal_consistency")
    xi_map = xi_map or {}
    pairs = [((min(n, m), max(n, m)), eta) for (n, m), eta in (eta_map or {}).items()]
    coherences = [(pair, eta, xi_map.get(pair, xi_map.get(pair[::-1], 0.0))) for pair, eta in pairs]
    return _exchange_state(spectrum, p, range(d * d), coherences, beta_c, beta_h)


def _exchange_state(spectrum, p, order, coherences, beta_c, beta_h) -> BipartiteSystem:
    """The state of joint populations ``p``, each checked >= 0 in ``order``,
    with the coherence eta e^{i xi} sqrt(p_a p_b) of each (manifold, eta, xi)."""
    for idx in order:
        if p[idx] < -PSD_TOL:
            raise states.InfeasibleStateError(f"population_{idx}")
    rho = np.diag(np.clip(p, 0.0, None).astype(complex))
    for (n, m), eta, xi in coherences:
        if not 0.0 <= eta <= 1.0:
            raise states.InfeasibleStateError(f"eta_{n}{m}")
        a, b = n * spectrum.dim + m, m * spectrum.dim + n
        rho[a, b] = val = eta * np.exp(1j * xi) * np.sqrt(max(p[a], 0.0) * max(p[b], 0.0))
        rho[b, a] = np.conj(val)
    return BipartiteSystem(spectrum, spectrum, rho, beta_c, beta_h)

def entry_columns(st, rows: np.ndarray) -> tuple:
    """The ``states.entry_stack`` arguments, copied, of the rows ``rows`` (an
    index array) of a stack of exchange states, every manifold's coherence stored."""
    d = st.dims[0]
    a, b = np.array([(n * d + m, m * d + n) for n in range(d) for m in range(n + 1, d)]).T
    return (*(column[rows] for column in (st.levels_c, st.levels_h, st.beta_c, st.beta_h, st.populations)), (a, b, st.rho[rows][:, a, b]))


def checked_system(st, k: int) -> BipartiteSystem:
    """Row k of a stack as the ``BipartiteSystem`` of its rho, built and checked alone."""
    spectra = (EnergySpectrum(tuple(levels[k].tolist())) for levels in (st.levels_c, st.levels_h))
    return BipartiteSystem(*spectra, st.rho[k], st.beta_c[k].item(), st.beta_h[k].item())


# --- the qubit probe, one row at a time --------------------------------

_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def probe_statistics(sys, u, target, eps) -> probe.ProbeOutcomeStats:
    """The dense one-row probe: the system+ancilla state and the 2D x 2D
    products of one cell, and each outcome's 2 x 2 ancilla block read alone."""
    if not 0.0 < eps < 0.5 * np.pi:
        raise ValueError("coupling angle must lie strictly between 0 and pi/2")
    u = unwrap(u)
    d_c, d_h = sys.dims
    dim = d_c * d_h
    i_c, i_h = target
    if not (0 <= i_c < d_c and 0 <= i_h < d_h):
        raise ValueError(f"target {target} out of range for dims {sys.dims}")
    idx = i_c * d_h + i_h
    p_free = np.real(np.diag(u @ sys.rho @ u.conj().T))
    ancilla = np.array([np.cos(eps), -np.sin(eps)], dtype=complex)
    joint = qlinalg.kron(sys.rho, np.outer(ancilla, ancilla.conj()))
    # V = Pi_perp x I + Pi x sigma_z flips the sign of row and column (target, ancilla |1>)
    flip = 2 * idx + 1
    joint[flip, :] *= -1.0
    joint[:, flip] *= -1.0
    u_joint = qlinalg.kron(u, np.eye(2))
    evolved = u_joint @ joint
    np.conjugate(u_joint, out=u_joint)
    evolved = evolved @ u_joint.T
    blocks = evolved.reshape(dim, 2, dim, 2)
    q_plus = np.empty(dim)
    q_minus = np.empty(dim)
    for f in range(dim):
        block = blocks[f, :, f, :]
        q_plus[f] = np.real(_PLUS.conj() @ block @ _PLUS)
        q_minus[f] = np.real(_MINUS.conj() @ block @ _MINUS)
    return probe.ProbeOutcomeStats(
        target=(i_c, i_h),
        eps=float(eps),
        q_plus=q_plus.reshape(d_c, d_h),
        q_minus=q_minus.reshape(d_c, d_h),
        p_undisturbed=p_free.reshape(d_c, d_h),
        energies_c=sys.spectrum_c.levels,
        energies_h=sys.spectrum_h.levels,
    )


# --- the random instance generators, one system per attempt -------------
# Each attempt builds and checks its system, and a constructor that raises
# or a population under the floor draws again; ``properties`` draws the
# same parameters in the same order and builds only the accepted states.

def random_two_qubit_system(rng, coherent=True):
    while True:
        beta_h = rng.uniform(0.1, 1.2)
        beta_c = beta_h + rng.uniform(0.1, 1.5)
        probe_params = states.TwoQubitParams(beta_c, beta_h, 0.0)
        lo, hi = probe_params.p00_bounds()
        p00 = lo + rng.uniform(0.08, 0.92) * (hi - lo)
        base = states.TwoQubitParams(beta_c, beta_h, p00)
        eta = rng.uniform(-0.95, 0.95) * base.eta_cap() if coherent else 0.0
        xi = rng.uniform(0.0, 2.0 * np.pi) if coherent else 0.0
        params = states.TwoQubitParams(beta_c, beta_h, p00, eta, xi)
        sys = states.two_qubit_state(params)
        if sys.populations().min() >= MIN_POPULATION:
            return sys, params


def random_two_qutrit_system(rng, coherent=True):
    while True:
        e1 = rng.uniform(0.7, 1.3)
        e2 = e1 + rng.uniform(0.2, 0.8)
        if abs(e2 - 2.0 * e1) < 5e-3:
            continue
        beta_h = rng.uniform(0.1, 0.8)
        beta_c = beta_h + rng.uniform(0.2, 1.0)
        spec = EnergySpectrum((0.0, e1, e2))
        prod = np.outer(thermal_populations(spec, beta_c), thermal_populations(spec, beta_h)).ravel()
        free = [prod[k] * rng.uniform(0.7, 1.3) for k in (0, 5, 7, 8)]
        eta = [rng.uniform(0.2, 0.95) if coherent else 0.0 for _ in range(3)]
        xi = [rng.uniform(0.0, 2.0 * np.pi) if coherent else 0.0 for _ in range(3)]
        params = states.QutritStateParams(beta_c, beta_h, e1, e2, *free, *eta, *xi)
        try:
            sys = states.two_qutrit_state(params)
        except states.InfeasibleStateError:
            continue
        if sys.populations().min() >= MIN_POPULATION:
            return sys, params


def random_qudit_system(rng, d=4):
    while True:
        levels = [0.0]
        for _ in range(d - 1):
            levels.append(levels[-1] + rng.uniform(0.5, 1.7))
        spec = EnergySpectrum(tuple(levels))
        if not spec.bohr_nondegenerate(1e-3):
            continue
        beta_h = rng.uniform(0.1, 0.6)
        beta_c = beta_h + rng.uniform(0.2, 0.8)
        prod = np.outer(thermal_populations(spec, beta_c), thermal_populations(spec, beta_h)).ravel()
        keys = [0] + [n * d + m for n in range(1, d) for m in range(1, d) if (n, m) != (1, 1)]
        free = {k: prod[k] * rng.uniform(0.8, 1.2) for k in keys}
        eta_map = {(n, m): rng.uniform(0.2, 0.95) for n in range(d) for m in range(n + 1, d)}
        xi_map = {pair: rng.uniform(0.0, 2.0 * np.pi) for pair in eta_map}
        try:
            sys = states.qudit_locally_thermal(spec, beta_c, beta_h, free, eta_map, xi_map)
        except states.InfeasibleStateError:
            continue
        if sys.populations().min() >= QUDIT_MIN_POPULATION:
            return sys


def random_rotations(rng, spec):
    return [
        ManifoldRotation((n, m), rng.uniform(0.0, np.pi), *(rng.uniform(0.0, 2.0 * np.pi) for _ in range(3)))
        for n in range(spec.dim) for m in range(n + 1, spec.dim)
    ]


def random_system(rng, dim, coherent=True):
    """The system ``properties`` draws at local dimension ``dim``; every qudit draw is coherent."""
    if dim == 2:
        return random_two_qubit_system(rng, coherent)[0]
    return random_two_qutrit_system(rng, coherent)[0] if dim == 3 else random_qudit_system(rng, dim)


def random_system_and_unitary(rng, dim):
    sys = random_system(rng, dim)
    rots = random_rotations(rng, sys.spectrum_c)
    return sys, dynamics.energy_preserving_unitary(sys.spectrum_c, rots), rots


# --- properties: the trial-by-trial bodies of the stacked ones ------------
# A body of the form (rng, k) -> (deviation, failures) is one trial; the
# others take (rng, n) -> (failures, max_dev, note).

def prop_unitarity(rng, k):
    dim = int(rng.integers(2, 5))
    sys, u, rots = random_system_and_unitary(rng, dim if dim <= 3 else 4)
    mat = u.matrix
    dev = qlinalg.spectral_norm(mat @ mat.conj().T - np.eye(mat.shape[0]))
    dev = max(dev, u.commutator_norm)
    dev = max(dev, abs(qlinalg.spectral_norm(mat) - 1.0))
    # identity outside the declared manifolds
    d = sys.d_c
    mask = np.eye(d * d, dtype=bool)
    for rot in rots:
        a, b = rot.level_pair[0] * d + rot.level_pair[1], rot.level_pair[1] * d + rot.level_pair[0]
        mask[a, a] = mask[b, b] = mask[a, b] = mask[b, a] = False
    off = np.abs(mat - np.eye(d * d))[mask].max()
    dev = max(dev, off)
    return dev, dev >= 1e-10


def prop_state_validity(rng, k):
    sys, _ = (random_two_qubit_system if k % 2 == 0 else random_two_qutrit_system)(rng)
    target_c = states.thermal_populations(sys.spectrum_c, sys.beta_c)
    target_h = states.thermal_populations(sys.spectrum_h, sys.beta_h)
    dev = np.max(np.abs(np.diag(sys.marginal_c()).real - target_c))
    dev = max(dev, np.max(np.abs(np.diag(sys.marginal_h()).real - target_h)))
    dev = max(dev, abs(np.trace(sys.rho).real - 1.0))
    dev = max(dev, max(0.0, -float(np.linalg.eigvalsh(sys.rho)[0])))
    return dev, dev >= 1e-9


def prop_probe_disturbance(rng, k):
    sys, _ = random_two_qubit_system(rng)
    idx = int(rng.integers(0, 4))
    pi_op = np.zeros((4, 4), dtype=complex)
    pi_op[idx, idx] = 1.0
    flip = 2.0 * pi_op - np.eye(4)
    failures, prev = 0, np.inf
    for eps in (0.6, 0.3, 0.1, 0.02):
        post = np.cos(eps) ** 2 * sys.rho + np.sin(eps) ** 2 * (flip @ sys.rho @ flip)
        tdist = 0.5 * float(np.abs(qlinalg.hermitian_eigenvalues(sys.rho - post)).sum())
        failures += tdist > prev + 1e-15
        prev = tdist
    return prev, failures


def prop_p00_bounds(rng, k):
    beta_h = rng.uniform(0.1, 1.2)
    beta_c = beta_h + rng.uniform(0.1, 1.5)
    base = states.TwoQubitParams(beta_c, beta_h, 0.0)
    lo, hi = base.p00_bounds()
    inside = lo + rng.uniform(0.0, 1.0) * (hi - lo)
    states.two_qubit_state(states.TwoQubitParams(beta_c, beta_h, inside))
    cap = states.TwoQubitParams(beta_c, beta_h, inside).eta_cap()
    failures = 0
    for outside in ((hi + max(1e-6, 0.05 * (hi - lo)), 0.0), (inside, cap * 1.05 + 1e-6)):  # P00, then eta
        try:
            states.two_qubit_state(states.TwoQubitParams(beta_c, beta_h, *outside))
            failures += 1
        except states.InfeasibleStateError:
            pass
    # boundary eta is PSD up to tolerance
    sys = states.two_qubit_state(states.TwoQubitParams(beta_c, beta_h, inside, eta=cap))
    return max(0.0, -float(np.linalg.eigvalsh(sys.rho)[0])), failures


def prop_dephase(rng, k):
    sys, _ = random_two_qutrit_system(rng)
    deph = states.dephase(sys)
    twice = states.dephase(deph)
    dev = np.max(np.abs(twice.rho - deph.rho))
    dims = sys.dims
    for which in ("C", "H"):
        lhs = qlinalg.partial_trace(deph.rho, dims, which)
        rhs = qlinalg.partial_trace(sys.rho, dims, which)
        # local spectra are nondegenerate, so dephasing the joint state
        # cannot move the marginals
        dev = max(dev, np.max(np.abs(lhs - rhs)))
    return dev, dev >= 1e-12


def prop_mh_marginals(rng, k):
    sys, u, _ = random_system_and_unitary(rng, 2 if k % 2 == 0 else 3)
    mh = fluctuations.mh_distribution(sys, u)
    dev = marginal_check(mh, sys, u)
    tpm = fluctuations.tpm_distribution(sys, u)
    dev = max(dev, marginal_check(tpm, sys, u))
    return dev, dev >= 1e-10


def prop_table_norm_range(rng, n):
    failures = 0
    worst_sum = 0.0
    lowest = 0.0
    for k in range(n):
        sys, u, _ = random_system_and_unitary(rng, 2 if k % 2 == 0 else 3)
        mh = fluctuations.mh_distribution(sys, u)
        tpm = fluctuations.tpm_distribution(sys, u)
        sums = (abs(mh.values.sum() - 1.0), abs(tpm.values.sum() - 1.0))
        worst_sum = max(worst_sum, *sums)
        lowest = min(lowest, mh.min_entry())
        bad = (
            max(sums) >= 1e-10
            or mh.min_entry() < fluctuations.MH_LOWER_BOUND - 1e-10
            or tpm.min_entry() < -1e-12
            or mh.values.max() > 1 + 1e-10
        )
        failures += bad
    return failures, worst_sum, f"sum=1; min MH entry seen {lowest:.4f} >= -1/8"


def prop_heat_identities(rng, k):
    sys, u, _ = random_system_and_unitary(rng, 2 if k % 2 == 0 else 3)
    mh = fluctuations.mh_distribution(sys, u)
    tpm = fluctuations.tpm_distribution(sys, u)
    q = average_heat(sys, u)
    dev = abs(fluctuations.table_heat(mh) - q)
    diag = sys.with_rho(np.diag(np.diag(sys.rho)))
    dev = max(dev, abs(fluctuations.table_heat(tpm) - average_heat(diag, u)))
    rep = fluctuations.flow_decomposition(mh)
    dev = max(dev, abs(rep.q_back - rep.q_direct - rep.q))
    return dev, dev >= 1e-10


def prop_mh_tpm_dephased(rng, k):
    sys, u, _ = random_system_and_unitary(rng, 2)
    diag = sys.with_rho(np.diag(np.diag(sys.rho)))
    dev = np.max(
        np.abs(
            fluctuations.mh_distribution(diag, u).values
            - fluctuations.tpm_distribution(diag, u).values
        )
    )
    # block dephasing never changes either table under energy-preserving U
    deph = states.dephase(sys)
    dev = max(
        dev,
        np.max(
            np.abs(
                fluctuations.mh_distribution(deph, u).values
                - fluctuations.mh_distribution(sys, u).values
            )
        ),
    )
    return dev, dev >= 1e-12


def prop_two_qubit_closed_forms(rng, k):
    sys, params = random_two_qubit_system(rng)
    theta = rng.uniform(0.0, np.pi)
    phi, lam = rng.uniform(0.0, 2.0 * np.pi, size=2)
    u = dynamics.two_qubit_exchange_unitary(theta, lam=lam, phi=phi)
    mh = fluctuations.mh_distribution(sys, u)
    tpm = fluctuations.tpm_distribution(sys, u)
    cf = fluctuations.two_qubit_exchange_probs(
        theta, params.eta, params.xi, params.beta_c, params.beta_h, params.p00,
        phi=phi, lam=lam,
    )
    dev = max(
        abs(cf["mh_01_10"] - mh.entry(0, 1, 1, 0)),
        abs(cf["mh_10_01"] - mh.entry(1, 0, 0, 1)),
        abs(cf["tpm_01_10"] - tpm.entry(0, 1, 1, 0)),
        abs(cf["tpm_10_01"] - tpm.entry(1, 0, 0, 1)),
    )
    dev = max(
        dev,
        abs(
            fluctuations.two_qubit_heat(
                theta, params.eta, params.xi, params.beta_c, params.beta_h,
                phi=phi, lam=lam,
            )
            - average_heat(sys, u)
        ),
    )
    dev = max(
        dev,
        abs(
            fluctuations.two_qubit_tpm_heat(theta, params.beta_c, params.beta_h)
            - fluctuations.table_heat(tpm)
        ),
    )
    return dev, dev >= 1e-12


def prop_qudit_closed_forms(rng, k):
    sys, u, rots = random_system_and_unitary(rng, 3 + k % 2)
    mh, tpm = fluctuations.mh_distribution(sys, u), fluctuations.tpm_distribution(sys, u)
    pw, tp = fluctuations.exchange_manifold_pw(sys, rots), fluctuations.exchange_manifold_tpm(sys, rots)
    dev = max([0.0, *(abs(v - mh.entry(*key)) for key, v in pw.items()), *(abs(v - tpm.entry(*key)) for key, v in tp.items())])
    return dev, dev >= 1e-12


def prop_all_negative_direction(rng, n):
    failures = checked = 0
    pairs = ((0, 1), (0, 2), (1, 2))
    for _ in range(n):
        sys, _ = random_two_qutrit_system(rng)
        pops = sys.populations()
        coh = [sys.rho[3 * lo + hi, 3 * hi + lo] for lo, hi in pairs]
        if min(map(abs, coh)) < 1e-6:
            continue
        # pick each angle so the coherence term defeats the population term
        rots = [
            ManifoldRotation(pair, theta=np.pi - 0.5 * np.arctan(abs(c) / max(pops[3 * pair[0] + pair[1]], 1e-12)),
                             phi=0.0, lam=-float(np.angle(c)))
            for pair, c in zip(pairs, coh)
        ]
        u = dynamics.energy_preserving_unitary(sys.spectrum_c, rots)
        mh = fluctuations.mh_distribution(sys, u)
        if not all(mh.entry(lo, hi, hi, lo) < 0.0 for lo, hi in pairs):
            continue
        checked += 1
        q, q_tpm = fluctuations.table_heat(mh), fluctuations.table_heat(fluctuations.tpm_distribution(sys, u))
        failures += not abs(q) > abs(q_tpm)
    note = f"all-negative direction => |Q| > |Q_tpm| ({checked} instances)"
    if checked == 0:
        failures += 1
        note += " [generator produced none]"
    return failures, float(checked), note


def prop_delta_q_max(rng, k):
    sys, _ = random_two_qutrit_system(rng)
    target = fluctuations.max_heat_coherence_shift(sys)
    # phases tuned so cos(xi + phi + lam) = 1, theta = pi/4 on all manifolds
    rots = [
        ManifoldRotation((lo, hi), theta=np.pi / 4.0, phi=0.0, lam=-float(np.angle(sys.rho[lo * 3 + hi, hi * 3 + lo])))
        for lo, hi in ((0, 1), (0, 2), (1, 2))
    ]
    u = dynamics.energy_preserving_unitary(sys.spectrum_c, rots)
    q = average_heat(sys, u)
    q_tpm = fluctuations.table_heat(fluctuations.tpm_distribution(sys, u))
    dev = abs(abs(q - q_tpm) - target)
    return dev, dev >= 1e-12


def prop_probe_exactness(rng, k):
    sys, u, _ = random_system_and_unitary(rng, 2 if k % 2 == 0 else 3)
    mh = fluctuations.mh_distribution(sys, u)
    i_c, i_h = int(rng.integers(0, sys.d_c)), int(rng.integers(0, sys.d_h))
    failures, worst, recs = 0, 0.0, []
    for eps in (0.05, 0.2, np.pi / 4.0):
        stats = probe_statistics(sys, u, (i_c, i_h), eps)
        rec = probe.reconstruct_quasiprobability(stats)
        recs.append(rec)
        dev = float(np.max(np.abs(rec - mh.values[i_c, i_h])))
        worst = max(worst, dev)
        failures += dev >= 1e-10
        e_plus, e_minus = probe.probe_effects(eps, sys.d_c * sys.d_h, i_c * sys.d_h + i_h)
        pov = np.max(np.abs(e_plus + e_minus - np.eye(sys.d_c * sys.d_h)))
        dq = stats.q_plus - stats.q_minus
        ident = np.sin(2 * eps) * (2 * mh.values[i_c, i_h] - stats.p_undisturbed)
        dev2 = max(pov, float(np.max(np.abs(dq - ident))))
        worst = max(worst, dev2)
        failures += dev2 >= 1e-12
    failures += float(np.max(np.abs(recs[0] - recs[2]))) >= 1e-10
    return worst, failures


def prop_probe_sampling(rng, n):
    failures, worst = 0, 0.0
    for _ in range(max(1, min(n, 20))):
        sys, u, _ = random_system_and_unitary(rng, 2)
        stats = probe_statistics(sys, u, (0, 1), 0.2)
        seed = int(rng.integers(0, 2**31))
        s1 = probe.sampled_reconstruction(stats, 10**5, seed)
        s2 = probe.sampled_reconstruction(stats, 10**5, seed)
        failures += not (np.array_equal(s1.values, s2.values) and np.array_equal(s1.stderr, s2.stderr))
        exact = probe.reconstruct_quasiprobability(stats)
        dev = np.abs(s1.values - exact)
        failures += not bool((dev <= 5.0 * s1.stderr + 1e-12).all())
        worst = max(worst, float(np.max(dev / np.maximum(s1.stderr, 1e-15))))
    return failures, worst, "deterministic seeding; 5-sigma agreement at 1e5 shots"


def prop_xft_identity(rng, k):
    sys, u, _ = random_system_and_unitary(rng, 2 if k % 2 == 0 else 3)
    mh = fluctuations.mh_distribution(sys, u)
    rep = fluctuations.xft_average(mh, sys).with_chi(
        fluctuations.xft_coherence_term(sys, u)
    )
    dev = rep.identity_gap() if rep.resonance_ok else np.inf
    return dev, dev >= 1e-8


def prop_j_identity(rng, k):
    sys, u, _ = random_system_and_unitary(rng, 2 if k % 2 == 0 else 3)
    mh = fluctuations.mh_distribution(sys, u)
    corr = fluctuations.heat_exp_correction(sys, u)
    dbeta = sys.beta_c - sys.beta_h
    direct = float((mh.values * np.exp(dbeta * mh.delta_e_c())).sum())
    dev = abs(1.0 + corr.j - direct)
    return dev, dev >= 1e-10 or corr.j > corr.norm_bound + 1e-10


def prop_t1_violation_implies_strong_flow(rng, n):
    failures = 0
    seen = 0
    for _ in range(n):
        sys, params = random_two_qubit_system(rng)
        theta = rng.uniform(0.0, np.pi)
        u = dynamics.two_qubit_exchange_unitary(theta)
        mh = fluctuations.mh_distribution(sys, u)
        tpm = fluctuations.tpm_distribution(sys, u)
        q, q_tpm = fluctuations.table_heat(mh), fluctuations.table_heat(tpm)
        v = witnesses.two_qubit_flow_witness(q, q_tpm, params.beta_c, params.beta_h)
        if v.violated:
            seen += 1
            failures += not abs(q) > abs(q_tpm)
            failures += not mh.min_entry() < 0.0
    return failures, float(seen), f"violations carry |Q| > |Q_tpm| ({seen} seen)"


def prop_tpm_no_backflow(rng, n):
    failures = 0
    worst = -np.inf
    for _ in range(n):
        sys, params = random_two_qubit_system(rng, coherent=False)
        theta = rng.uniform(0.0, np.pi)
        u = dynamics.two_qubit_exchange_unitary(theta)
        q_tpm = fluctuations.table_heat(fluctuations.tpm_distribution(sys, u))
        q = average_heat(sys, u)
        worst = max(worst, q_tpm)
        failures += q_tpm > 1e-12 or abs(q - q_tpm) > 1e-12
    return failures, worst, "Q_tpm <= 0 and Q(eta=0) = Q_tpm"


def prop_witness_soundness_nonideal(rng, n):
    failures = 0
    for _ in range(n):
        sys, _ = random_two_qubit_system(rng)
        j_hz, t, jx = rng.uniform(100.0, 400.0), rng.uniform(0.0, 6e-3), rng.uniform(0.0, 60.0)
        u = dynamics.perturbed_xy_unitary(j_hz, jx, t)
        sys = sys.with_rho(_edge_rho(sys.rho[None], *_tables(sys.stack, u.stack))[0])
        mh, tpm = fluctuations.mh_distribution(sys, u), fluctuations.tpm_distribution(sys, u)
        q, q_tpm = fluctuations.table_heat(mh), fluctuations.table_heat(tpm)
        failures += witnesses.nonideal_flow_witness(q, q_tpm, sys.beta_c, sys.beta_h, 1.0, 1.0, u.epsilon).violated
        with suppress(fluctuations.DivergenceError):
            rep = fluctuations.xft_average(mh, sys).with_chi(fluctuations.xft_coherence_term(sys, u))
            failures += witnesses.xft_flow_witness(q, rep, sys.beta_c, sys.beta_h, epsilon_work=rep.max_energy_mismatch).violated
    return failures, float(failures), "perturbed dynamics: T2 / nonideal T3 stay sound"


def _random_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def prop_kron_algebra(rng, k):
    a, b, c = (_random_complex(rng, side) for side in (2, 3, 2))
    dev = np.max(np.abs(qlinalg.kron(qlinalg.kron(a, b), c) - qlinalg.kron(a, qlinalg.kron(b, c))))
    s, t = rng.standard_normal(2)
    dev = max(dev, np.max(np.abs(qlinalg.kron(s * a + t * c, b) - (s * qlinalg.kron(a, b) + t * qlinalg.kron(c, b)))))
    return dev, dev >= 1e-12


def prop_partial_ops(rng, k):
    d_c, d_h = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    a, b = _random_complex(rng, d_c), _random_complex(rng, d_h)
    m = qlinalg.kron(a, b)
    dev = np.max(np.abs(qlinalg.partial_trace(m, (d_c, d_h), "H") - np.trace(b) * a))
    dev = max(dev, np.max(np.abs(qlinalg.partial_trace(m, (d_c, d_h), "C") - np.trace(a) * b)))
    pt = qlinalg.partial_transpose(m, (d_c, d_h), "H")
    dev = max(dev, np.max(np.abs(qlinalg.partial_transpose(pt, (d_c, d_h), "H") - m)))
    # a stack is transposed matrix by matrix (the path of min_pt_eig)
    dev = max(dev, np.max(np.abs(qlinalg.partial_transpose(np.stack([m, pt]), (d_c, d_h), "H") - [pt, m])))
    # spectrum of a product state is preserved under partial transposition
    rho, sig = a @ a.conj().T, b @ b.conj().T
    rho /= np.trace(rho).real
    sig /= np.trace(sig).real
    prod = qlinalg.kron(rho, sig)
    ev1 = qlinalg.hermitian_eigenvalues(prod)
    ev2 = qlinalg.hermitian_eigenvalues(qlinalg.partial_transpose(prod, (d_c, d_h), "H"))
    dev = max(dev, np.max(np.abs(ev1 - ev2)))
    return dev, dev >= 1e-10


def prop_strong_backflow_threshold(rng, k):
    beta_h = rng.uniform(0.1, 1.0)
    beta_c = beta_h + rng.uniform(0.1, 1.0)
    d = int(rng.integers(2, 5))
    threshold = np.log(d) / (beta_c - beta_h)
    above = strong_backflow_witness(threshold * 1.001, beta_c, beta_h, d)
    below = strong_backflow_witness(threshold * 0.999, beta_c, beta_h, d)
    zero = strong_backflow_witness(0.0, beta_c, beta_h, d)
    return 0.0, (not above.violated) + below.violated + zero.violated
