import itertools

import numpy as np
import pytest

from qheatflow import dynamics, fluctuations, linalg, witnesses
from qheatflow.dynamics import (
    ManifoldRotation,
    UnitaryReport,
    _total_hamiltonian,
    energy_preserving_unitary,
    perturbed_xy_unitary,
    two_qubit_exchange_unitary,
    unwrap,
    xy_exchange_unitary,
)
from qheatflow.fluctuations import (
    DivergenceError,
    HeatExpCorrection,
    TransitionTable,
    XftReport,
    mh_distribution,
    table_heat,
    tpm_distribution,
    two_qubit_heat,
    two_qubit_tpm_heat,
    xft_average,
    xft_coherence_term,
)
from qheatflow.properties import random_system_and_unitary
from qheatflow.sweeps import evaluate_cell
from qheatflow.linalg import matrix_exp
from qheatflow.states import (
    BipartiteSystem,
    EnergySpectrum,
    TwoQubitParams,
    gamma_correlated_state,
    thermal_state,
    two_qubit_state,
)
from qheatflow.witnesses import (
    WitnessVerdict,
    correlation_flow_stack,
    correlation_flow_witness,
    nonideal_flow_stack,
    nonideal_flow_witness,
    strong_backflow_stack,
    strong_backflow_witness,
    tpm_band_stack,
    tpm_band_witness,
    two_qubit_flow_stack,
    two_qubit_flow_witness,
    xft_flow_stack,
    xft_flow_witness,
)

import reference

BC, BH = 1.13, 0.9618


# ---------------------------------------------------------------------------
# resonant two-qubit witness
# ---------------------------------------------------------------------------

def test_t1_bound_formula():
    v = two_qubit_flow_witness(0.0, -0.01, BC, BH)
    a, b = np.exp(BH), np.exp(BC)
    assert v.bound == pytest.approx((2 + a + b) / (b - a) * 0.01)
    assert v.inequality_id == "T1"


def test_t1_never_violated_without_coherence():
    for theta in np.linspace(0.05, np.pi - 0.05, 17):
        q = two_qubit_heat(theta, 0.0, 0.0, BC, BH)
        q_tpm = two_qubit_tpm_heat(theta, BC, BH)
        assert not two_qubit_flow_witness(q, q_tpm, BC, BH).violated


def test_t1_violated_at_backflow_point():
    sys = gamma_correlated_state(-0.19, BC, BH)
    u = xy_exchange_unitary(215.1, 6e-4)
    q = table_heat(mh_distribution(sys, u))
    q_tpm = table_heat(tpm_distribution(sys, u))
    v = two_qubit_flow_witness(q, q_tpm, BC, BH, commutator_norm=u.commutator_norm)
    assert v.violated and v.preconditions_ok
    assert abs(q) > abs(q_tpm)


def test_t1_equal_betas_error():
    with pytest.raises(ValueError):
        two_qubit_flow_witness(0.1, -0.01, 1.0, 1.0)


def test_t1_beta_order_precondition():
    v = two_qubit_flow_witness(5.0, -0.01, BH, BC)  # reversed labels
    assert not v.preconditions_ok and not v.violated


def test_t1_boundary_counts_as_satisfied():
    v = two_qubit_flow_witness(0.05, -0.01, BC, BH)
    exact = v.bound
    assert not two_qubit_flow_witness(exact, -0.01, BC, BH).violated


def test_verdicts_are_pure_functions():
    a = two_qubit_flow_witness(0.21, -0.01, BC, BH)
    b = two_qubit_flow_witness(0.21, -0.01, BC, BH)
    assert a == b


# ---------------------------------------------------------------------------
# nonideal witness
# ---------------------------------------------------------------------------

def test_t2_reduces_to_t1():
    v1 = two_qubit_flow_witness(0.1, -0.02, BC, BH)
    v2 = nonideal_flow_witness(0.1, -0.02, BC, BH, 1.0, 1.0, 0.0)
    assert abs(v1.bound - v2.bound) < 1e-12
    assert v1.violated == v2.violated


def test_t2_bound_grows_with_imperfections():
    base = nonideal_flow_witness(-0.15, -0.02, BC, BH, 1.0, 1.0, 0.0)
    with_eps = nonideal_flow_witness(-0.15, -0.02, BC, BH, 1.0, 1.0, 1e-3)
    with_detuning = nonideal_flow_witness(-0.15, -0.02, BC, BH, 1.0, 1.05, 0.0)
    assert with_eps.bound > base.bound
    assert with_detuning.bound > base.bound
    assert with_eps.extra("symmetric_bound") >= base.extra("symmetric_bound")


def test_t2_detuning_precondition_boundary():
    r = (1 + np.exp(BH)) / (1 + np.exp(BC))
    crit = (1 - r) / (1 + r)
    e_h = (1 + crit) / (1 - crit)  # lands exactly on the critical detuning
    v = nonideal_flow_witness(-0.5, -0.02, BC, BH, 1.0, e_h, 0.0)
    assert not v.precondition("gap_subcritical")
    assert not v.violated


def test_t2_work_indistinguishable_flow_precondition():
    v = nonideal_flow_witness(1e-4, -0.02, BC, BH, 1.0, 1.0, 1e-3)
    assert not v.precondition("flow_above_work")
    assert not v.violated


def test_t2_one_sided_bounds_are_tighter():
    v = nonideal_flow_witness(-0.15, -0.02, BC, BH, 1.0, 1.02, 5e-4)
    assert v.bound <= v.extra("symmetric_bound") + 1e-15
    assert v.extra("direct_floor") < 0.0


def test_t1_t2_bounds_stay_finite_past_the_exponent_range():
    # beta * E past ~709 overflows e^{beta E}; the kernels divide it out,
    # so the bounds stay finite and no RuntimeWarning (an error here) fires
    sys = gamma_correlated_state(0.0, 800.0, 700.0)
    row = evaluate_cell(sys, two_qubit_exchange_unitary(0.4))
    one, a = np.exp(-800.0), np.exp(700.0 - 800.0)  # e^{bC E} divided out
    t1 = (2.0 * one + a + 1.0) / (1.0 - a) * abs(row["Q_tpm"])
    assert row["t1_bound"] == t1 > 0.0
    assert two_qubit_flow_witness(row["Q"], row["Q_tpm"], 800.0, 700.0).bound == t1

    sys, u = gamma_correlated_state(0.0, 1200.0, 800.0), perturbed_xy_unitary(220, 5.0, 0.004)
    row = evaluate_cell(sys, u, {"eps_actual": u.epsilon})
    assert np.isfinite(row["t1_bound"])
    v = nonideal_flow_witness(row["Q"], row["Q_tpm"], 1200.0, 800.0, 1.0, 1.0, u.epsilon)
    r = (np.exp(-1200.0) + np.exp(800.0 - 1200.0)) / (np.exp(-1200.0) + 1.0)
    assert v.extra("ratio_r") == r > 0.0
    # no detuning: the symmetric bound, which the direct floor equals at this Q < 0
    t2 = ((1.0 + r) * abs(row["Q_tpm"]) + 8.0 * u.epsilon) / (1.0 - r)
    assert row["t2_bound"] == v.bound == pytest.approx(t2, rel=1e-15)


@pytest.mark.parametrize("beta_c, beta_h", [(BC, BH), (3.0, -2.0), (700.0, 600.0), (-650.0, -690.0)])
def test_t1_t2_bounds_below_the_shift_are_the_plain_exponentials_bit_for_bit(beta_c, beta_h):
    a, b = np.exp(beta_h), np.exp(beta_c)
    assert two_qubit_flow_stack(0.1, -0.02, beta_c, beta_h).bound == (2.0 + a + b) / (b - a) * 0.02
    r = (1.0 + np.exp(beta_h * 1.1)) / (1.0 + np.exp(beta_c * 0.9))
    assert nonideal_flow_stack(0.1, -0.02, beta_c, beta_h, 0.9, 1.1, 1e-3).extras[-1] == ("ratio_r", r)


# ---------------------------------------------------------------------------
# exchange-fluctuation witness
# ---------------------------------------------------------------------------

def test_t3_classical_form_without_coherence(rng):
    # chi_bar = 0: the bound reduces to the classical -<dI>/dBeta
    sys, u, _ = random_system_and_unitary(rng, 2)
    diag = sys.with_rho(np.diag(np.diag(sys.rho)))
    mh = mh_distribution(diag, u)
    rep = xft_average(mh, diag).with_chi(xft_coherence_term(diag, u))
    assert rep.chi_bar == pytest.approx(0.0, abs=1e-14)
    v = xft_flow_witness(table_heat(mh), rep, diag.beta_c, diag.beta_h)
    expected = -rep.avg_delta_i / (diag.beta_c - diag.beta_h)
    assert v.bound == pytest.approx(expected, abs=1e-12)
    assert not v.violated


def test_t3_requires_chi_bar():
    rep = XftReport(lhs=1.0, avg_delta_i=0.0, resonance_ok=True, max_energy_mismatch=0.0)
    with pytest.raises(ValueError, match="chi_bar"):
        xft_flow_witness(0.0, rep, BC, BH)


def test_t3_log_domain_error_reported_not_clamped():
    rep = XftReport(
        lhs=-0.5, avg_delta_i=0.0, resonance_ok=True, max_energy_mismatch=0.0,
        chi_bar=-1.5,
    )
    with pytest.raises(DivergenceError):
        xft_flow_witness(0.0, rep, BC, BH)


def test_t3_resonance_precondition_blocks_verdict():
    rep = XftReport(
        lhs=1.2, avg_delta_i=0.0, resonance_ok=False, max_energy_mismatch=0.3,
        chi_bar=0.2,
    )
    v = xft_flow_witness(10.0, rep, BC, BH)
    assert not v.preconditions_ok and not v.violated


def test_t3_nonideal_variant_slackens_and_tolerates_mismatch():
    rep = XftReport(
        lhs=1.2, avg_delta_i=0.1, resonance_ok=False, max_energy_mismatch=0.05,
        chi_bar=0.2,
    )
    ideal = xft_flow_witness(0.0, rep.with_chi(0.2), BC, BH)
    assert not ideal.preconditions_ok
    nonideal = xft_flow_witness(0.0, rep, BC, BH, epsilon_work=0.05)
    assert nonideal.preconditions_ok
    assert nonideal.inequality_id == "T3-nonideal"
    base_bound = (-0.1 + np.log1p(0.2)) / (BC - BH)
    assert nonideal.bound == pytest.approx(base_bound + BH * 0.05 / (BC - BH), abs=1e-12)


# ---------------------------------------------------------------------------
# correlation witness
# ---------------------------------------------------------------------------

def _exchange_mh(gap_h: float = 1.0) -> TransitionTable:
    """The MH table of a product Gibbs pair under a qubit exchange, resonant unless ``gap_h`` != 1."""
    return mh_distribution(gamma_correlated_state(0.0, 1.13, 0.96, gap_h=gap_h), two_qubit_exchange_unitary(0.4))


RESONANT_MH, DETUNED_MH = _exchange_mh(), _exchange_mh(1.3)


def test_i4_product_state_reduces_to_second_law():
    v = correlation_flow_witness(-0.1, 0.0, RESONANT_MH, BC, BH)
    assert v.bound == 0.0
    assert not v.violated
    assert correlation_flow_witness(0.1, 0.0, RESONANT_MH, BC, BH).violated


def test_i4_log_domain_error():
    with pytest.raises(DivergenceError):
        correlation_flow_witness(0.0, -1.2, RESONANT_MH, BC, BH)


def test_i4_reads_resonance_from_its_mh_table():
    # a detuned H qubit under a resonant-gap exchange: energy is not
    # conserved, and the nonnegative table must not read as violated
    sys = gamma_correlated_state(0.0, 1.13, 0.96, gap_h=1.3)
    u = two_qubit_exchange_unitary(0.4)
    mh = mh_distribution(sys, u)
    assert mh.min_entry() == 0.0
    assert mh.resonance() == (False, pytest.approx(0.3))
    j = fluctuations.heat_exp_correction(sys, u).j
    v = correlation_flow_witness(table_heat(mh), j, mh, sys.beta_c, sys.beta_h)
    assert not v.violated and not v.precondition("resonance") and not v.preconditions_ok
    # the same observables with a resonant table are violated: the table decides
    assert correlation_flow_witness(table_heat(mh), j, RESONANT_MH, sys.beta_c, sys.beta_h).violated
    with pytest.raises(ValueError, match="MH table"):
        correlation_flow_witness(table_heat(mh), j, tpm_distribution(sys, u), sys.beta_c, sys.beta_h)


# ---------------------------------------------------------------------------
# band witness
# ---------------------------------------------------------------------------

def test_t4_zero_angle_not_violated(rng):
    sys, _, _ = random_system_and_unitary(rng, 3)
    tpm = tpm_distribution(sys, np.eye(9))
    lower, upper = tpm_band_witness(0.0, tpm)
    assert lower.extra("lambda_minus") == 0.0
    assert upper.extra("lambda_plus") == 0.0
    assert not lower.violated and not upper.violated


def test_t4_rejects_degenerate_bohr_spectrum():
    values = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            values[i, j, i, j] = 1.0 / 9.0
    table = TransitionTable("TPM", values, (0.0, 1.0, 2.0), (0.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="degenerate"):
        tpm_band_witness(0.0, table)


def test_t4_energy_preservation_precondition():
    sys = gamma_correlated_state(-0.19, BC, BH)
    from qheatflow.dynamics import perturbed_xy_unitary

    u = perturbed_xy_unitary(215.1, 80.0, 2e-3)
    tpm = tpm_distribution(sys, u)
    lower, upper = tpm_band_witness(0.0, tpm)
    assert not lower.precondition("energy_preserving")
    assert not lower.violated and not upper.violated


def test_t4_does_not_need_thermal_marginals():
    # skewed non-thermal diagonal state, energy-preserving rotation
    from qheatflow.states import BipartiteSystem, EnergySpectrum

    spec = EnergySpectrum.two_level()
    rho = np.diag([0.1, 0.1, 0.7, 0.1]).astype(complex)
    sys = BipartiteSystem(spec, spec, rho)
    u = two_qubit_exchange_unitary(0.8)
    q = table_heat(mh_distribution(sys, u))
    lower, upper = tpm_band_witness(q, tpm_distribution(sys, u))
    assert lower.preconditions_ok and upper.preconditions_ok
    assert not lower.violated and not upper.violated  # no coherence, no violation


# ---------------------------------------------------------------------------
# strong backflow
# ---------------------------------------------------------------------------

def test_strong_backflow_threshold_cases():
    thr = np.log(2) / (BC - BH)
    assert strong_backflow_witness(thr * 1.001, BC, BH, 2).violated
    assert not strong_backflow_witness(thr * 0.999, BC, BH, 2).violated
    assert not strong_backflow_witness(0.0, BC, BH, 2).violated


def test_strong_backflow_requires_beta_order():
    v = strong_backflow_witness(10.0, BH, BC, 2)
    assert not v.preconditions_ok and not v.violated


# ---------------------------------------------------------------------------
# soundness across the board
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_soundness_on_nonnegative_tables(dim, qubit_ensemble, qutrit_ensemble):
    ensemble = qubit_ensemble if dim == 2 else qutrit_ensemble
    checked = 0
    for sys, u, _ in ensemble:
        mh = mh_distribution(sys, u)
        if mh.min_entry() < 0.0:
            continue
        checked += 1
        q = table_heat(mh)
        tpm = tpm_distribution(sys, u)
        q_tpm = table_heat(tpm)
        verdicts = []
        if dim == 2:
            verdicts.append(two_qubit_flow_witness(q, q_tpm, sys.beta_c, sys.beta_h))
            verdicts.append(
                nonideal_flow_witness(q, q_tpm, sys.beta_c, sys.beta_h, 1.0, 1.0, 0.0)
            )
        rep = xft_average(mh, sys).with_chi(xft_coherence_term(sys, u))
        verdicts.append(xft_flow_witness(q, rep, sys.beta_c, sys.beta_h))
        from qheatflow.fluctuations import heat_exp_correction

        verdicts.append(
            correlation_flow_witness(
                q, heat_exp_correction(sys, u).j, mh, sys.beta_c, sys.beta_h
            )
        )
        verdicts.extend(tpm_band_witness(q, tpm))
        verdicts.append(strong_backflow_witness(q, sys.beta_c, sys.beta_h, dim))
        for v in verdicts:
            assert not v.violated, (v.inequality_id, v.bound, v.observed)
    assert checked >= 25  # the ensembles contain plenty of nonnegative tables


def test_t1_violation_implies_stronger_flow_and_negativity(qubit_ensemble):
    seen = 0
    for sys, u, _ in qubit_ensemble:
        mh = mh_distribution(sys, u)
        q = table_heat(mh)
        q_tpm = table_heat(tpm_distribution(sys, u))
        v = two_qubit_flow_witness(q, q_tpm, sys.beta_c, sys.beta_h)
        if v.violated:
            seen += 1
            assert abs(q) > abs(q_tpm)
            assert mh.min_entry() < 0.0
    assert seen > 0


# ---------------------------------------------------------------------------
# stacks of cells, against the scalar reference
# ---------------------------------------------------------------------------

EDGE_VALUES = (0.0, -0.0, 1e-13, 1e-3, -1e-3, 0.05, -0.2, 1.5)


def _assert_stack_matches(stack, verdicts):
    """Flags, and bounds and extras by repr (the sign of a zero counts), and
    the named preconditions, per cell; a cell without extras has none."""
    assert stack.flags().tolist() == [-1 if not v.preconditions_ok else int(v.violated) for v in verdicts]
    assert [repr(b) for b in stack.bound.tolist()] == [repr(float(v.bound)) for v in verdicts]
    def cell(x, k):
        return np.broadcast_to(x, stack.bound.shape)[k].item()

    for k, v in enumerate(verdicts):
        assert [(name, cell(ok, k)) for name, ok in stack.preconditions] == [
            (name, bool(ok)) for name, ok in v.preconditions
        ]
        if v.extras:
            assert [(name, repr(float(cell(x, k)))) for name, x in stack.extras] == [
                (name, repr(x)) for name, x in v.extras
            ]


@pytest.mark.parametrize("beta_c, beta_h", [(BC, BH), (BH, BC)])
def test_witness_stacks_equal_single_cell_verdicts(beta_c, beta_h):
    pairs = list(itertools.product(EDGE_VALUES, repeat=2))
    q, other = (np.array(c) for c in zip(*pairs))
    _assert_stack_matches(
        two_qubit_flow_stack(q, other, beta_c, beta_h, 1.0, np.abs(other) * 1e-8),
        [reference.two_qubit_flow_witness(a, b, beta_c, beta_h, 1.0, abs(b) * 1e-8) for a, b in pairs],
    )
    for e_h in (1.0, 1.02, 1.3):  # 1.3 detunes past the critical gap
        _assert_stack_matches(
            nonideal_flow_stack(q, other, beta_c, beta_h, 1.0, e_h, np.abs(other) / 10),
            [reference.nonideal_flow_witness(a, b, beta_c, beta_h, 1.0, e_h, abs(b) / 10) for a, b in pairs],
        )
    resonant = other >= 0
    _assert_stack_matches(
        xft_flow_stack(q, other, 1.0 + other, np.abs(other), resonant, beta_c, beta_h),
        [
            reference.xft_flow_witness(a, XftReport(1.0 + b, abs(b), b >= 0, 0.0, chi_bar=b), beta_c, beta_h)
            for a, b in pairs
        ],
    )
    _assert_stack_matches(
        xft_flow_stack(q, other, 1.0 + other, np.abs(other), resonant, beta_c, beta_h, 0.02, np.abs(other)),
        [
            reference.xft_flow_witness(a, XftReport(1.0 + b, abs(b), b >= 0, abs(b), chi_bar=b), beta_c, beta_h, 0.02)
            for a, b in pairs
        ],
    )
    _assert_stack_matches(
        correlation_flow_stack(q, other, resonant, beta_c, beta_h),
        [reference.correlation_flow_witness(a, b, RESONANT_MH if b >= 0 else DETUNED_MH, beta_c, beta_h) for a, b in pairs],
    )
    _assert_stack_matches(
        strong_backflow_stack(q, beta_c, beta_h, 3),
        [reference.strong_backflow_witness(a, beta_c, beta_h, 3) for a, _ in pairs],
    )


def test_witness_stacks_take_per_cell_betas_and_gaps():
    # one call over cells of both beta orders and of gaps on both sides of
    # the critical detuning: each cell takes its own single-cell branch
    pairs = list(itertools.product(EDGE_VALUES, repeat=2))
    q, other = (np.array(c) for c in zip(*pairs))
    n = len(pairs)
    beta_c = np.where(np.arange(n) % 2 == 0, BC, BH)
    beta_h = np.where(np.arange(n) % 2 == 0, BH, BC)
    e_h = np.array([1.0, 1.02, 1.3])[np.arange(n) % 3]
    cells = list(zip(pairs, beta_c.tolist(), beta_h.tolist(), e_h.tolist()))
    _assert_stack_matches(
        two_qubit_flow_stack(q, other, beta_c, beta_h, 1.0, np.abs(other) * 1e-8),
        [reference.two_qubit_flow_witness(a, b, bc, bh, 1.0, abs(b) * 1e-8) for (a, b), bc, bh, _ in cells],
    )
    _assert_stack_matches(
        nonideal_flow_stack(q, other, beta_c, beta_h, 1.0, e_h, np.abs(other) / 10),
        [reference.nonideal_flow_witness(a, b, bc, bh, 1.0, eh, abs(b) / 10) for (a, b), bc, bh, eh in cells],
    )
    _assert_stack_matches(
        strong_backflow_stack(q, beta_c, beta_h, 3),
        [reference.strong_backflow_witness(a, bc, bh, 3) for (a, _), bc, bh, _ in cells],
    )
    d = [2, 3, 4] * (n // 3) + [2, 3, 4][: n % 3]  # a local dimension per cell
    _assert_stack_matches(
        strong_backflow_stack(q, beta_c, beta_h, np.array(d)),
        [reference.strong_backflow_witness(a, bc, bh, side) for ((a, _), bc, bh, _), side in zip(cells, d)],
    )


def test_tpm_band_stack_equals_single_cell_verdicts():
    rng = np.random.default_rng(17)
    for _ in range(20):
        sys, u, _ = random_system_and_unitary(rng, 3)
        tpm, mh = tpm_distribution(sys, u), mh_distribution(sys, u)
        q, q_tpm = reference.table_heat(mh), reference.table_heat(tpm)
        stacks = tpm_band_stack(
            np.array([q]), np.array([q_tpm]), tpm.values[None], tpm.energies_c, tpm.energies_h
        )
        for stack, verdict in zip(stacks, reference.tpm_band_witness(q, tpm)):
            _assert_stack_matches(stack, [verdict])


# ---------------------------------------------------------------------------
# single-cell names: their kernel on one cell, against the scalar reference
# ---------------------------------------------------------------------------

def _outcome(fn, args) -> str:
    """What ``fn(*args)`` returns, by repr, or the error it raises.  A
    verdict shows its id, bound, flag, observed value, named preconditions
    (as bools) and extras; a J correction its j, c and q; a table, a
    unitary report and an array their bytes and types."""
    try:
        out = fn(*args)
    except ValueError as exc:  # DivergenceError included
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, HeatExpCorrection):
        return repr((out.j, out.c.tobytes(), out.q.tobytes()))
    if isinstance(out, TransitionTable):
        return repr((out.kind, out.values.dtype, out.values.shape, out.values.tobytes(), out.energies_c, out.energies_h))
    if isinstance(out, UnitaryReport):
        return repr((out.matrix.dtype, out.matrix.shape, out.matrix.tobytes(), out.commutator_norm, out.epsilon))
    if isinstance(out, np.ndarray):
        return repr((out.dtype, out.shape, out.tobytes()))
    if isinstance(out, (WitnessVerdict, tuple)):
        return repr([
            (
                v.inequality_id, v.bound, -1 if not v.preconditions_ok else int(v.violated), v.observed,
                [(name, bool(ok)) for name, ok in v.preconditions], v.extras,
            )
            for v in (out if isinstance(out, tuple) else (out,))
        ])
    return repr(out)


def _single_cell_calls(d: int) -> list[tuple[str, tuple]]:
    """(name, args) of calls of every public single-cell name on random
    cells of local dimension d, plus the calls where each one raises."""
    rng = np.random.default_rng(60 + d)
    spec = EnergySpectrum((0.0, 1.0, 4.0, 6.0)[:d])  # Bohr-nondegenerate
    cells = [random_system_and_unitary(rng, d)[:2] for _ in range(4)]
    # an energy-nonconserving unitary on the last cell: resonance and T4 preconditions fail
    sys, u = cells[-1]
    kick = rng.standard_normal((d * d, d * d))
    cells.append((sys, unwrap(u) @ matrix_exp(-0.05j * (kick + kick.T))))
    calls = []
    for sys, u in cells:
        bc, bh = sys.beta_c, sys.beta_h
        mh, tpm = mh_distribution(sys, u), tpm_distribution(sys, u)
        q, q_tpm = reference.table_heat(mh), reference.table_heat(tpm)
        chi, j = reference.xft_coherence_term(sys, u), reference.heat_exp_correction(sys, u).j
        xft = reference.xft_average(mh, sys).with_chi(chi)
        calls += [
            ("table_heat", (mh,)), ("table_heat", (tpm,)), ("flow_decomposition", (mh, q_tpm)),
            ("xft_coherence_term", (sys, u)), ("xft_average", (mh, sys)), ("heat_exp_correction", (sys, u)),
            ("two_qubit_flow_witness", (q, q_tpm, bc, bh)),
            ("two_qubit_flow_witness", (q, q_tpm, bh, bc, 1.1, 1e-3)),
            ("xft_flow_witness", (q, xft, bc, bh)),
            ("xft_flow_witness", (q, xft, bh, bc, 1e-3)),
            ("correlation_flow_witness", (q, j, mh, bc, bh)),
            ("tpm_band_witness", (q, tpm)),
            ("strong_backflow_witness", (q, bc, bh, d)),
            ("strong_backflow_witness", (q, bh, bc, d)),
        ]
        calls += [
            ("nonideal_flow_witness", (q, q_tpm, bc, bh, 1.0, e_h, eps))
            for e_h in (1.0, 1.02, 1.3) for eps in (0.0, 1e-4, 0.1)
        ]
    # every raising case
    flush = BipartiteSystem(spec, spec, np.kron(thermal_state(spec, 800.0), thermal_state(spec, 0.5)), 800.0, 0.5)
    rotation = energy_preserving_unitary(spec, [ManifoldRotation((0, 1), 0.7)])
    rho = np.diag(np.full(d * d, 1.0 / (d * d - 1))).astype(complex)
    rho[1, 1], rho[1, d], rho[d, 1] = 0.0, 1e-8, 1e-8  # |0 1> empty, its coherence with |1 0> not
    starved = BipartiteSystem(spec, spec, rho)
    calls += [
        ("xft_coherence_term", (starved, rotation)),
        ("xft_average", (mh_distribution(flush, rotation), flush)),
        ("xft_average", (tpm, sys)),
        ("xft_average", (mh, BipartiteSystem(sys.spectrum_c, sys.spectrum_h, sys.rho))),
        ("heat_exp_correction", (flush, rotation)),
        ("two_qubit_flow_witness", (q, q_tpm, bc, bc)),
        ("nonideal_flow_witness", (q, q_tpm, bc, bc, 1.0, 1.0, 0.0)),
        ("xft_flow_witness", (q, XftReport(1.0, 0.0, True, 0.0), bc, bh)),
        ("xft_flow_witness", (q, xft, bc, bc)),
        ("xft_flow_witness", (q, xft.with_chi(-1.5), bc, bh)),
        ("correlation_flow_witness", (q, j, mh, bh, bh)),
        ("correlation_flow_witness", (q, -1.0, mh, bc, bh)),
        ("correlation_flow_witness", (q, j, tpm, bc, bh)),
        ("tpm_band_witness", (q, mh)),
    ]
    if d > 2:  # equally spaced levels repeat a gap
        levels = tuple(map(float, range(d)))
        calls.append(("tpm_band_witness", (q, TransitionTable("TPM", tpm.values, levels, levels))))
    return calls + _table_and_unitary_calls(d, rng, spec, cells)


def _table_and_unitary_calls(d: int, rng, spec, cells) -> list[tuple[str, tuple]]:
    """(name, args) of calls of the tables, the unitary constructors,
    ``commutator_norm``, ``rotation_angle`` and ``matrix_exp``, plus the
    calls where each of them raises."""
    calls = []
    for sys, u in cells:
        h = _total_hamiltonian(sys.spectrum_c.levels, sys.spectrum_h.levels)
        calls += [
            ("mh_distribution", (sys, u)), ("tpm_distribution", (sys, u)),
            ("mh_distribution", (sys, unwrap(u))), ("commutator_norm", (u, h)),
        ]
    pairs = [(n, m) for n in range(d) for m in range(n + 1, d)]
    for with_phases in (False, True):
        rots = [ManifoldRotation(pair, *rng.uniform(0.0, 2.0 * np.pi, 4 if with_phases else 1)) for pair in pairs]
        calls.append(("energy_preserving_unitary", (spec, rots)))
    calls.append(("energy_preserving_unitary", (spec, rots[:1])))
    calls.append(("energy_preserving_unitary", (spec, ())))
    for theta, kappa, lam, phi, gap in rng.uniform(0.0, 2.0 * np.pi, (3, 5)):
        two_qubit = two_qubit_exchange_unitary(theta, kappa, lam, phi, 0.2 + gap)
        calls += [
            ("two_qubit_exchange_unitary", (theta, kappa, lam, phi, 0.2 + gap)),
            ("two_qubit_exchange_unitary", (theta,)),
            ("xy_exchange_unitary", (theta, kappa, 0.2 + gap)),
            ("xy_exchange_unitary", (theta, 0.0)),
            ("perturbed_xy_unitary", (theta, lam, kappa, 0.2 + gap, 0.2 + phi)),
            ("perturbed_xy_unitary", (theta, lam, kappa)),
            ("rotation_angle", (two_qubit,)),
            ("rotation_angle", (xy_exchange_unitary(theta, kappa).matrix,)),
            ("commutator_norm", (perturbed_xy_unitary(theta, lam, kappa), _total_hamiltonian((0.0, 1.0)))),
        ]
    generator = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    hermitian = generator + generator.conj().T
    calls += [
        ("matrix_exp", (hermitian,)), ("matrix_exp", (-0.3j * hermitian,)), ("matrix_exp", (np.zeros((d, d)),)),
        ("matrix_exp", (-1e-12j * hermitian,)),  # anti-Hermitian within the Hermiticity tolerance: Hermitian branch
        ("commutator_norm", (cells[0][1], hermitian)),
    ]
    # every raising case
    sys, u = cells[0]
    levels = tuple(map(float, range(d)))
    calls += [
        ("mh_distribution", (sys, np.eye(d * d + 1))),
        ("tpm_distribution", (sys, np.eye(d * d + 1))),
        ("mh_distribution", (sys, 2.0 * unwrap(u))),
        ("tpm_distribution", (sys, 2.0 * unwrap(u))),
        ("mh_distribution", (sys, 0.5 * unwrap(u))),
        ("tpm_distribution", (sys, 0.5 * unwrap(u))),
        ("energy_preserving_unitary", (spec, [ManifoldRotation((0, d), 0.3)])),
        ("energy_preserving_unitary", (spec, [ManifoldRotation((0, 1), 0.3), ManifoldRotation((1, 0), 0.2)])),
        ("two_qubit_exchange_unitary", (0.3, 0.0, 0.0, 0.0, -1.0)),
        ("xy_exchange_unitary", (1.0, -0.1)),
        ("perturbed_xy_unitary", (1.0, 0.1, -0.1)),
        ("matrix_exp", (generator,)),
    ]
    if d > 2:  # equally spaced levels repeat a gap
        calls.append(("energy_preserving_unitary", (EnergySpectrum(levels), [ManifoldRotation((0, 1), 0.3)])))
    return calls


def _package_name(name: str):
    """The package's single-cell function of that name."""
    modules = (witnesses, fluctuations, dynamics, linalg)
    return next(getattr(m, name) for m in modules if name in vars(m) and callable(vars(m)[name]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_single_cell_names_equal_the_scalar_reference(d):
    raised = set()
    for name, args in _single_cell_calls(d):
        got = _outcome(_package_name(name), args)
        assert got == _outcome(getattr(reference, name), args), name
        if "Error: " in got:
            raised.add((name, got.split(":")[0]))
    assert raised == {
        ("mh_distribution", "ValueError"),
        ("tpm_distribution", "ValueError"),
        ("energy_preserving_unitary", "ValueError"),
        ("two_qubit_exchange_unitary", "ValueError"),
        ("xy_exchange_unitary", "ValueError"),
        ("perturbed_xy_unitary", "ValueError"),
        ("matrix_exp", "ValueError"),
        ("xft_coherence_term", "DivergenceError"),
        ("xft_average", "DivergenceError"),
        ("xft_average", "ValueError"),
        ("heat_exp_correction", "DivergenceError"),
        ("two_qubit_flow_witness", "ValueError"),
        ("nonideal_flow_witness", "ValueError"),
        ("xft_flow_witness", "ValueError"),
        ("xft_flow_witness", "DivergenceError"),
        ("correlation_flow_witness", "ValueError"),
        ("correlation_flow_witness", "DivergenceError"),
        ("tpm_band_witness", "ValueError"),
    }


def test_each_single_cell_table_and_unitary_is_checked_once(monkeypatch):
    calls = []
    for module, name in ((fluctuations, "check_tables"), (dynamics, "_check_unitary"), (fluctuations, "_correction_operators")):
        check = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _check=check, _name=name: calls.append(_name) or _check(*args))

    def checks(fn, *args):
        calls.clear()
        fn(*args)
        return list(calls)

    rng = np.random.default_rng(5)
    for d in (2, 3):
        sys, u, rots = random_system_and_unitary(rng, d)
        assert checks(mh_distribution, sys, u) == ["check_tables"]
        assert checks(tpm_distribution, sys, u) == ["check_tables"]
        assert checks(energy_preserving_unitary, sys.spectrum_c, rots) == ["_check_unitary"]
        assert checks(fluctuations.heat_exp_correction, sys, u) == ["_correction_operators"]  # built once per J
        # built directly, a table or a report is checked
        values = mh_distribution(sys, u).values
        assert checks(TransitionTable, "MH", values, sys.spectrum_c.levels, sys.spectrum_h.levels) == ["check_tables"]
        assert checks(UnitaryReport, unwrap(u), 0.0) == ["_check_unitary"]
    assert checks(two_qubit_exchange_unitary, 0.4) == ["_check_unitary"]
    assert checks(xy_exchange_unitary, 2.0, 0.1) == ["_check_unitary"]
    assert checks(perturbed_xy_unitary, 2.0, 0.3, 0.1) == ["_check_unitary"]
