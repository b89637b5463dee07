import itertools

import numpy as np
import pytest

from qheatflow.dynamics import two_qubit_exchange_unitary, xy_exchange_unitary
from qheatflow.fluctuations import (
    DivergenceError,
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
from qheatflow.states import TwoQubitParams, gamma_correlated_state, two_qubit_state
from qheatflow.witnesses import (
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

def test_i4_product_state_reduces_to_second_law():
    v = correlation_flow_witness(-0.1, 0.0, BC, BH)
    assert v.bound == 0.0
    assert not v.violated
    assert correlation_flow_witness(0.1, 0.0, BC, BH).violated


def test_i4_log_domain_error():
    with pytest.raises(DivergenceError):
        correlation_flow_witness(0.0, -1.2, BC, BH)


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
    from qheatflow.fluctuations import TransitionTable

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
                q, heat_exp_correction(sys, u).j, sys.beta_c, sys.beta_h
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
# stacks of cells
# ---------------------------------------------------------------------------

EDGE_VALUES = (0.0, -0.0, 1e-13, 1e-3, -1e-3, 0.05, -0.2, 1.5)


def _assert_stack_matches(stack, verdicts):
    """Flags, and bounds by repr (the sign of a zero counts), per cell."""
    assert stack.flags().tolist() == [-1 if not v.preconditions_ok else int(v.violated) for v in verdicts]
    assert [repr(b) for b in stack.bound.tolist()] == [repr(float(v.bound)) for v in verdicts]


@pytest.mark.parametrize("beta_c, beta_h", [(BC, BH), (BH, BC)])
def test_witness_stacks_equal_single_cell_verdicts(beta_c, beta_h):
    pairs = list(itertools.product(EDGE_VALUES, repeat=2))
    q, other = (np.array(c) for c in zip(*pairs))
    _assert_stack_matches(
        two_qubit_flow_stack(q, other, beta_c, beta_h, 1.0, np.abs(other) * 1e-8),
        [two_qubit_flow_witness(a, b, beta_c, beta_h, 1.0, abs(b) * 1e-8) for a, b in pairs],
    )
    for e_h in (1.0, 1.02, 1.3):  # 1.3 detunes past the critical gap
        _assert_stack_matches(
            nonideal_flow_stack(q, other, beta_c, beta_h, 1.0, e_h, np.abs(other) / 10),
            [nonideal_flow_witness(a, b, beta_c, beta_h, 1.0, e_h, abs(b) / 10) for a, b in pairs],
        )
    resonant = other >= 0
    _assert_stack_matches(
        xft_flow_stack(q, other, 1.0 + other, np.abs(other), resonant, beta_c, beta_h),
        [
            xft_flow_witness(a, XftReport(1.0 + b, abs(b), b >= 0, 0.0, chi_bar=b), beta_c, beta_h)
            for a, b in pairs
        ],
    )
    _assert_stack_matches(
        correlation_flow_stack(q, other, beta_c, beta_h),
        [correlation_flow_witness(a, b, beta_c, beta_h) for a, b in pairs],
    )
    _assert_stack_matches(
        strong_backflow_stack(q, beta_c, beta_h, 3),
        [strong_backflow_witness(a, beta_c, beta_h, 3) for a, _ in pairs],
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
        [two_qubit_flow_witness(a, b, bc, bh, 1.0, abs(b) * 1e-8) for (a, b), bc, bh, _ in cells],
    )
    _assert_stack_matches(
        nonideal_flow_stack(q, other, beta_c, beta_h, 1.0, e_h, np.abs(other) / 10),
        [nonideal_flow_witness(a, b, bc, bh, 1.0, eh, abs(b) / 10) for (a, b), bc, bh, eh in cells],
    )
    _assert_stack_matches(
        strong_backflow_stack(q, beta_c, beta_h, 3),
        [strong_backflow_witness(a, bc, bh, 3) for (a, _), bc, bh, _ in cells],
    )


def test_tpm_band_stack_equals_single_cell_verdicts():
    rng = np.random.default_rng(17)
    for _ in range(20):
        sys, u, _ = random_system_and_unitary(rng, 3)
        tpm, mh = tpm_distribution(sys, u), mh_distribution(sys, u)
        q, q_tpm = table_heat(mh), table_heat(tpm)
        stacks = tpm_band_stack(
            np.array([q]), np.array([q_tpm]), tpm.values[None], tpm.energies_c, tpm.energies_h
        )
        for stack, verdict in zip(stacks, tpm_band_witness(q, tpm)):
            _assert_stack_matches(stack, [verdict])
