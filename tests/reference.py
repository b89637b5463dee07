"""The scalar per-cell reference that every fast path is checked against.

One cell is built and evaluated alone, with the single-matrix
constructors, tables, heat functionals and witnesses below.  ``qheatflow``
computes each of those quantities once, as a kernel over stacks of cells
(``dynamics.*_stack``, ``linalg.matrix_exp_stack``,
``fluctuations.*_stack``, ``witnesses.*_stack``), and its single-cell
names run that kernel on one cell; these are the scalar bodies they
replaced.  ``qheatflow.sweeps`` has one unitary builder and one
evaluator, both on (n, D, D) stacks; a sweep runs them
on chunks of cells, and ``_build_cell``, ``evaluate_cell`` and
``analyze_point`` run them at n = 1.  Every value they produce equals
this reference's bit for bit.
"""

from __future__ import annotations

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
from qheatflow.linalg import HERMITICITY_TOL, NOT_A_GENERATOR, SIGMA_X, _square, hermiticity_defect, spectral_norm
from qheatflow.states import BipartiteSystem, EnergySpectrum, min_partial_transpose_eigenvalue
from qheatflow.sweeps import (
    FLAG_COLUMNS,
    NEGATIVITY_THRESHOLD,
    QUTRIT_ANGLES,
    SCENARIOS,
    _build_state,
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
    de_c = table.delta_e_c()
    mismatch = np.abs(de_c + table.delta_e_h())
    energy_scale = max(1.0, max(abs(e) for e in table.energies_c + table.energies_h))
    max_mismatch = float(mismatch[mask].max()) if mask.any() else 0.0
    weight = np.exp(np.where(mask, delta_i + (sys.beta_c - sys.beta_h) * de_c, 0.0))
    return XftReport(
        lhs=float((p * weight)[mask].sum()),
        avg_delta_i=float((p * np.where(mask, delta_i, 0.0))[mask].sum()),
        resonance_ok=max_mismatch <= 1e-9 * energy_scale,
        max_energy_mismatch=max_mismatch,
    )


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


def correlation_flow_witness(q, j_value, beta_c, beta_h) -> WitnessVerdict:
    delta_beta = beta_c - beta_h
    if delta_beta == 0:
        raise ValueError("bound undefined for equal inverse temperatures")
    if 1.0 + j_value <= 0.0:
        raise DivergenceError(f"1 + J = {1.0 + j_value:.3e} <= 0")
    bound = np.log1p(j_value) / delta_beta
    return _resolve("I4", float(bound), q, [("beta_order", delta_beta > 0)], q > bound + VIOLATION_MARGIN)


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


def build_cell(scenario: str, kinds: tuple[str, str], params: dict):
    """(system, unitary report, cell extras) of one grid point; J_x is
    solved for this cell alone, by the scalar call."""
    row = SCENARIOS[scenario]
    state, unitary = kinds
    params = dict(params)
    _derive(row, params, "state.")
    sys = _build_state(state, params)
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
            v4 = correlation_flow_witness(q, corr.j, beta_c, beta_h)
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
