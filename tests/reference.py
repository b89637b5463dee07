"""The scalar per-cell reference that every fast path is checked against.

One cell is built and evaluated alone, with the single-matrix
constructors, tables and witnesses.  ``qheatflow.sweeps`` has one unitary
builder and one evaluator, both on (n, D, D) stacks; a sweep runs them
on chunks of cells, and ``_build_cell``, ``evaluate_cell`` and
``analyze_point`` run them at n = 1.  Every value they produce equals
this reference's bit for bit.
"""

from __future__ import annotations

from qheatflow.dynamics import (
    ManifoldRotation,
    energy_preserving_unitary,
    perturbed_xy_unitary,
    rotation_angle,
    two_qubit_exchange_unitary,
    xy_exchange_unitary,
)
from qheatflow.fluctuations import (
    DivergenceError,
    flow_decomposition,
    heat_exp_correction,
    mh_distribution,
    table_heat,
    tpm_distribution,
    xft_average,
    xft_coherence_term,
)
from qheatflow.states import BipartiteSystem, min_partial_transpose_eigenvalue
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
    correlation_flow_witness,
    nonideal_flow_witness,
    strong_backflow_witness,
    tpm_band_witness,
    two_qubit_flow_witness,
    xft_flow_witness,
)


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
