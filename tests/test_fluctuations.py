import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qheatflow.dynamics import (
    ManifoldRotation,
    energy_preserving_unitary,
    exchange_unitary_stack,
    two_qubit_exchange_unitary,
    xy_exchange_unitary,
)
from qheatflow.fluctuations import (
    DivergenceError,
    MH_LOWER_BOUND,
    TransitionTable,
    average_heat,
    check_tables,
    exchange_heat_shift,
    exchange_manifold_pw,
    exchange_manifold_tpm,
    flow_decomposition,
    flow_decomposition_stack,
    heat_exp_correction,
    heat_exp_j_stack,
    marginal_check,
    masked_sums,
    max_heat_coherence_shift,
    mh_distribution,
    resonance_stack,
    table_heat,
    table_heat_stack,
    table_stack,
    tpm_distribution,
    two_qubit_exchange_probs,
    two_qubit_heat,
    two_qubit_tpm_heat,
    xft_average,
    xft_average_stack,
    xft_coherence_stack,
    xft_coherence_term,
)
from qheatflow.probe import probe_statistics, reconstruct_quasiprobability, sampled_reconstruction
from qheatflow.properties import (
    _draw,
    random_rotations,
    random_system_and_unitary,
    random_two_qubit_system,
    random_two_qutrit_system,
)
from qheatflow.states import (
    EnergySpectrum,
    TwoQubitParams,
    dephase,
    entry_stack,
    gamma_correlated_state,
    gamma_rows,
    two_qubit_state,
    valid_stack,
)
from qheatflow.sweeps import probe_row_csv

import reference

BC, BH = 1.13, 0.9618


def _experiment_pair(t=6e-4, gamma=-0.19):
    sys = gamma_correlated_state(gamma, BC, BH)
    return sys, xy_exchange_unitary(215.1, t)


# ---------------------------------------------------------------------------
# table basics
# ---------------------------------------------------------------------------

def test_identity_unitary_gives_diagonal_tables():
    sys, _ = _experiment_pair()
    eye = np.eye(4)
    for table in (tpm_distribution(sys, eye), mh_distribution(sys, eye)):
        pops = sys.populations().reshape(2, 2)
        for i_c in range(2):
            for i_h in range(2):
                for f_c in range(2):
                    for f_h in range(2):
                        expected = (
                            pops[i_c, i_h] if (i_c, i_h) == (f_c, f_h) else 0.0
                        )
                        assert table.entry(i_c, i_h, f_c, f_h) == pytest.approx(
                            expected, abs=1e-14
                        )


def test_mh_equals_tpm_for_diagonal_state():
    sys, u = _experiment_pair(gamma=0.0)
    mh = mh_distribution(sys, u)
    tpm = tpm_distribution(sys, u)
    assert np.max(np.abs(mh.values - tpm.values)) < 1e-14


def test_tpm_independent_of_coherence():
    _, u = _experiment_pair()
    with_coh = tpm_distribution(gamma_correlated_state(-0.19, BC, BH), u)
    without = tpm_distribution(gamma_correlated_state(0.0, BC, BH), u)
    assert np.max(np.abs(with_coh.values - without.values)) < 1e-14


def test_mh_has_negative_entry_in_backflow_window():
    sys, u = _experiment_pair(t=6e-4)
    mh = mh_distribution(sys, u)
    assert mh.min_entry() < -1e-3
    assert mh.min_entry() >= MH_LOWER_BOUND - 1e-10
    assert mh.values.sum() == pytest.approx(1.0, abs=1e-12)


def test_block_dephasing_leaves_tables_unchanged():
    sys, u = _experiment_pair()
    deph = dephase(sys)
    assert np.max(np.abs(mh_distribution(deph, u).values - mh_distribution(sys, u).values)) < 1e-14
    assert np.max(np.abs(tpm_distribution(deph, u).values - tpm_distribution(sys, u).values)) < 1e-14


def test_csv_round_trip_precision():
    sys, u = _experiment_pair()
    mh = mh_distribution(sys, u)
    text = mh.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "i_C,i_H,f_C,f_H,value,dE_C,dE_H"
    assert len(lines) == 1 + 16
    for line in lines[1:]:
        parts = line.split(",")
        i_c, i_h, f_c, f_h = (int(p) for p in parts[:4])
        assert float(parts[4]) == mh.entry(i_c, i_h, f_c, f_h)  # 17 digits: lossless


def _row_loop_csv(table: TransitionTable) -> str:
    """Reference writer: one f-string per row, the three floats formatted per row."""
    buf = io.StringIO()
    buf.write("i_C,i_H,f_C,f_H,value,dE_C,dE_H\n")
    d_c, d_h = table.dims
    for i_c in range(d_c):
        for i_h in range(d_h):
            for f_c in range(d_c):
                for f_h in range(d_h):
                    de_c = table.energies_c[i_c] - table.energies_c[f_c]
                    de_h = table.energies_h[i_h] - table.energies_h[f_h]
                    buf.write(
                        f"{i_c},{i_h},{f_c},{f_h},"
                        f"{table.values[i_c, i_h, f_c, f_h]:.17g},"
                        f"{de_c:.17g},{de_h:.17g}\n"
                    )
    return buf.getvalue()


def _probe_loop_csv(stats, values, stderr=None) -> str:
    """Reference writer for one reconstructed row, with its stderr column."""
    if stderr is None:
        stderr = np.zeros_like(values)
    i_c, i_h = stats.target
    buf = io.StringIO()
    buf.write("i_C,i_H,f_C,f_H,value,dE_C,dE_H,stderr\n")
    for f_c, f_h in np.ndindex(values.shape):
        de_c = stats.energies_c[i_c] - stats.energies_c[f_c]
        de_h = stats.energies_h[i_h] - stats.energies_h[f_h]
        buf.write(
            f"{i_c},{i_h},{f_c},{f_h},{values[f_c, f_h]:.17g},"
            f"{de_c:.17g},{de_h:.17g},{stderr[f_c, f_h]:.17g}\n"
        )
    return buf.getvalue()


@pytest.mark.parametrize("kind", ["MH", "TPM"])
@pytest.mark.parametrize("d_c, d_h", [(2, 2), (2, 3), (3, 2), (4, 4), (8, 8)])
def test_table_csv_equals_row_loop_byte_for_byte(kind, d_c, d_h):
    rng = np.random.default_rng(100 * d_c + d_h)
    # irregular gaps, so every dE is a distinct non-trivial double
    energies_c = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, d_c - 1))])
    energies_h = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, d_h - 1)) / 3.0])
    values = rng.uniform(0.0, 1.0, (d_c, d_h) * 2)
    values /= values.sum()
    flat = values.reshape(-1)
    special = [-0.0, 0.0, 5e-324, 1e-300, -1e-17] + ([-0.0625, -1e-3] if kind == "MH" else [])
    flat[: len(special)] = special
    flat[-1] += 1.0 - values.sum()
    table = TransitionTable(kind, values, tuple(energies_c), tuple(energies_h))
    assert np.signbit(table.values.reshape(-1)[0])
    assert table.to_csv() == _row_loop_csv(table)


@pytest.mark.parametrize("kind", ["MH", "TPM"])
def test_a_table_with_a_nan_entry_is_rejected(kind):
    good = np.full((2, 2, 2, 2), 1.0 / 16.0)
    bad = good.copy()
    bad[0, 1, 1, 0] = np.nan
    with pytest.raises(ValueError, match="table sums to nan"):
        TransitionTable(kind, bad, (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError, match="table sums to nan"):
        check_tables(kind, np.stack([good, bad]))
    check_tables(kind, np.stack([good, good]))


@pytest.mark.parametrize("kind", ["MH", "TPM"])
@pytest.mark.parametrize("d_c, d_h", [(2, 2), (2, 3), (4, 4), (8, 8)])
def test_table_csv_of_repeated_values_equals_row_loop_byte_for_byte(kind, d_c, d_h):
    # few distinct values, each many times: the writer formats each once
    rng = np.random.default_rng(7 * d_c + d_h)
    energies_c = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, d_c - 1))])
    energies_h = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, d_h - 1))])
    pool = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, 1e-4, 2.0**-14, 1.0 / 30000.0]
    pool += [-1e-17, -3e-5] if kind == "MH" else []
    values = rng.choice(np.array(pool), size=(d_c, d_h) * 2)
    values.reshape(-1)[-1] = 0.0
    values.reshape(-1)[-1] = 1.0 - values.sum()
    table = TransitionTable(kind, values, tuple(energies_c), tuple(energies_h))
    flat = table.values.reshape(-1)
    assert np.signbit(flat[flat == 0.0]).any() and not np.signbit(flat[flat == 0.0]).all()
    assert table.to_csv() == _row_loop_csv(table)


def test_probe_row_csv_of_repeated_values_equals_row_loop_byte_for_byte(rng):
    sys, u, _ = random_system_and_unitary(rng, 4)
    stats = probe_statistics(sys, u, (1, 2), 0.3)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 0.25, -1e-17])
    for _ in range(5):
        values, stderr = rng.choice(pool, size=(2, 4, 4))
        assert probe_row_csv(stats, values, stderr) == _probe_loop_csv(stats, values, stderr)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_probe_row_csv_equals_row_loop_byte_for_byte(rng, dim):
    sys, u, _ = random_system_and_unitary(rng, dim)
    for target in [(0, 0), (sys.d_c - 1, 1)]:
        stats = probe_statistics(sys, u, target, 0.3)
        exact = reconstruct_quasiprobability(stats)
        sampled = sampled_reconstruction(stats, 500, 11)
        signed = exact.copy()
        signed[0, 0] = -0.0
        for values, stderr in [
            (exact, None), (signed, None), (sampled.values, sampled.stderr), (exact, sampled.stderr)
        ]:
            assert probe_row_csv(stats, values, stderr) == _probe_loop_csv(stats, values, stderr)


# ---------------------------------------------------------------------------
# marginal identities
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]))
def test_mh_marginals_random(seed, dim):
    gen = np.random.default_rng(seed)
    sys, u, _ = random_system_and_unitary(gen, dim)
    mh = mh_distribution(sys, u)
    assert marginal_check(mh, sys, u) < 1e-10


def test_tpm_final_marginal_vs_dephased_evolution(rng):
    sys, u, _ = random_system_and_unitary(rng, 2)
    tpm = tpm_distribution(sys, u)
    assert marginal_check(tpm, sys, u) < 1e-10
    diag = sys.with_rho(np.diag(np.diag(sys.rho)))
    evolved = u.matrix @ diag.rho @ u.matrix.conj().T
    got = tpm.final_marginal()
    assert np.max(np.abs(got - np.real(np.diag(evolved)).reshape(2, 2))) < 1e-12


def test_tpm_marginals_deviate_from_undisturbed_state():
    sys, u = _experiment_pair(t=6e-4)
    tpm = tpm_distribution(sys, u)
    assert marginal_check(tpm, sys, u, against_dephased=False) > 1e-3


# ---------------------------------------------------------------------------
# heat functionals
# ---------------------------------------------------------------------------

def test_heat_zero_for_identity():
    sys, _ = _experiment_pair()
    assert average_heat(sys, np.eye(4)) == 0.0
    assert table_heat(mh_distribution(sys, np.eye(4))) == pytest.approx(0.0, abs=1e-15)


def test_heat_closed_form_two_qubit(rng):
    for _ in range(30):
        sys, params = random_two_qubit_system(rng)
        theta = rng.uniform(0, np.pi)
        u = two_qubit_exchange_unitary(theta)
        q = average_heat(sys, u)
        assert q == pytest.approx(
            two_qubit_heat(theta, params.eta, params.xi, params.beta_c, params.beta_h),
            abs=1e-12,
        )
        q_tpm = table_heat(tpm_distribution(sys, u))
        assert q_tpm == pytest.approx(
            two_qubit_tpm_heat(theta, params.beta_c, params.beta_h), abs=1e-12
        )
        assert q_tpm <= 1e-12  # no backflow in the measured scheme
        # heat from the MH table reproduces the operator expression
        assert table_heat(mh_distribution(sys, u)) == pytest.approx(q, abs=1e-10)


def test_heat_coherence_free_case_matches_tpm(rng):
    sys, params = random_two_qubit_system(rng, coherent=False)
    u = two_qubit_exchange_unitary(1.1)
    assert average_heat(sys, u) == pytest.approx(
        table_heat(tpm_distribution(sys, u)), abs=1e-12
    )


def test_flow_decomposition_identity_and_negative_contributions():
    sys, u = _experiment_pair(t=6e-4)
    mh = mh_distribution(sys, u)
    report = flow_decomposition(mh)
    assert report.q == pytest.approx(report.q_back - report.q_direct, abs=1e-10)
    assert report.q > 0  # backflow window
    # the only negative entry sits on the direct-direction transition
    # (E_iC < E_fC), so it contributes positively to the backflow term
    negs = dict(report.negative_entries)
    assert ((0, 1, 1, 0) in negs) and negs[(0, 1, 1, 0)] < 0
    v = mh.values.copy()
    v[0, 1, 1, 0] = 0.0
    pos_only = float((np.clip(v, 0, None) * mh.delta_e_c())[mh.delta_e_c() > 0].sum())
    assert report.q_back > pos_only  # negative entry enlarged the back flow


def test_flow_decomposition_all_positive_table():
    sys, u = _experiment_pair(gamma=0.0, t=6e-4)
    report = flow_decomposition(mh_distribution(sys, u))
    assert report.negative_entries == ()
    assert report.q_back >= 0 and report.q_direct >= 0
    assert report.q == pytest.approx(report.q_back - report.q_direct, abs=1e-12)


def test_heat_report_convenience():
    sys, u = _experiment_pair(t=6e-4)
    report = flow_decomposition(mh_distribution(sys, u), q_tpm=table_heat(tpm_distribution(sys, u)))
    assert report.q_tpm == pytest.approx(table_heat(tpm_distribution(sys, u)))
    assert report.q == pytest.approx(average_heat(sys, u), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_flow_identity_random_qutrits(seed):
    gen = np.random.default_rng(seed)
    sys, u, _ = random_system_and_unitary(gen, 3)
    report = flow_decomposition(mh_distribution(sys, u))
    assert report.q == pytest.approx(report.q_back - report.q_direct, abs=1e-10)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_two_qubit_exchange_prob_formulas(rng):
    sys, params = random_two_qubit_system(rng)
    theta, phi, lam = 0.8, 0.5, 1.7
    u = two_qubit_exchange_unitary(theta, lam=lam, phi=phi)
    mh = mh_distribution(sys, u)
    cf = two_qubit_exchange_probs(
        theta, params.eta, params.xi, params.beta_c, params.beta_h, params.p00,
        phi=phi, lam=lam,
    )
    assert mh.entry(0, 1, 1, 0) == pytest.approx(cf["mh_01_10"], abs=1e-12)
    assert mh.entry(1, 0, 0, 1) == pytest.approx(cf["mh_10_01"], abs=1e-12)


def test_kappa_phase_leaves_tables_unchanged(rng):
    sys, _ = random_two_qubit_system(rng)
    base = two_qubit_exchange_unitary(0.9, lam=0.3, phi=0.7)
    shifted = two_qubit_exchange_unitary(0.9, kappa=1.3, lam=0.3, phi=0.7)
    assert np.max(np.abs(mh_distribution(sys, base).values - mh_distribution(sys, shifted).values)) < 1e-14
    assert np.max(np.abs(tpm_distribution(sys, base).values - tpm_distribution(sys, shifted).values)) < 1e-14


def test_phase_dependence_only_through_sum(rng):
    # MH entries depend on (xi, phi, lam) only via cos(xi + phi + lam)
    sys = two_qubit_state(TwoQubitParams(BC, BH, 0.547, eta=0.1, xi=0.4))
    sys2 = two_qubit_state(TwoQubitParams(BC, BH, 0.547, eta=0.1, xi=1.0))
    u1 = two_qubit_exchange_unitary(0.8, lam=0.9, phi=0.2)  # sum = 1.5
    u2 = two_qubit_exchange_unitary(0.8, lam=0.1, phi=0.4)  # sum = 1.5
    assert np.max(np.abs(mh_distribution(sys, u1).values - mh_distribution(sys2, u2).values)) < 1e-12


def test_qudit_closed_form_zero_angle():
    gen = np.random.default_rng(5)
    sys, _ = random_two_qutrit_system(gen)
    rots = [ManifoldRotation(p, 0.0) for p in ((0, 1), (0, 2), (1, 2))]
    assert all(abs(v) == 0.0 for v in exchange_manifold_pw(sys, rots).values())


def test_qudit_closed_form_matches_matrix_route(qutrit_ensemble):
    for sys, u, rots in qutrit_ensemble[:60]:
        mh = mh_distribution(sys, u)
        tpm = tpm_distribution(sys, u)
        for key, val in exchange_manifold_pw(sys, rots).items():
            assert val == pytest.approx(mh.entry(*key), abs=1e-12)
        for key, val in exchange_manifold_tpm(sys, rots).items():
            assert val == pytest.approx(tpm.entry(*key), abs=1e-12)


def test_exchange_heat_shift_matches_q_difference(qutrit_ensemble):
    for sys, u, rots in qutrit_ensemble[:40]:
        shift = average_heat(sys, u) - table_heat(tpm_distribution(sys, u))
        assert shift == pytest.approx(exchange_heat_shift(sys, rots), abs=1e-12)


def test_max_coherence_shift_attained_at_quarter_rotation():
    gen = np.random.default_rng(6)
    sys, _ = random_two_qutrit_system(gen)
    target = max_heat_coherence_shift(sys)
    rots = []
    for pair in ((0, 1), (0, 2), (1, 2)):
        a, b = pair[0] * 3 + pair[1], pair[1] * 3 + pair[0]
        xi = float(np.angle(sys.rho[a, b]))
        rots.append(ManifoldRotation(pair, np.pi / 4, phi=0.0, lam=-xi))
    u = energy_preserving_unitary(sys.spectrum_c, rots)
    shift = abs(average_heat(sys, u) - table_heat(tpm_distribution(sys, u)))
    assert shift == pytest.approx(target, abs=1e-12)
    # and the shift never exceeds the cap on a random grid
    for theta in np.linspace(0, np.pi, 9):
        rots2 = [ManifoldRotation(p, theta) for p in ((0, 1), (0, 2), (1, 2))]
        u2 = energy_preserving_unitary(sys.spectrum_c, rots2)
        s2 = abs(average_heat(sys, u2) - table_heat(tpm_distribution(sys, u2)))
        assert s2 <= target + 1e-12


def test_max_coherence_shift_zero_without_coherence():
    gen = np.random.default_rng(7)
    sys, _ = random_two_qutrit_system(gen, coherent=False)
    assert max_heat_coherence_shift(sys) == 0.0


# ---------------------------------------------------------------------------
# exchange-fluctuation machinery
# ---------------------------------------------------------------------------

def test_chi_bar_zero_for_diagonal_state(rng):
    sys, _ = random_two_qubit_system(rng, coherent=False)
    u = two_qubit_exchange_unitary(0.7)
    assert xft_coherence_term(sys, u) == 0.0


def test_chi_bar_zero_for_identity(rng):
    sys, _ = random_two_qubit_system(rng)
    assert xft_coherence_term(sys, np.eye(4)) == pytest.approx(0.0, abs=1e-15)


def test_chi_bar_divergence_on_starved_population():
    params = TwoQubitParams(BC, BH, 0.0)
    _, upper = params.p00_bounds()
    p00 = upper - 1e-13  # one population collapses to ~1e-13
    cap = TwoQubitParams(BC, BH, p00).eta_cap()
    sys = two_qubit_state(TwoQubitParams(BC, BH, p00, eta=0.9 * cap))
    with pytest.raises(DivergenceError):
        xft_coherence_term(sys, two_qubit_exchange_unitary(0.6))


def test_xft_uncorrelated_diagonal_recovers_unity():
    z_c = 1.0 + np.exp(-BC)
    z_h = 1.0 + np.exp(-BH)
    sys = two_qubit_state(TwoQubitParams(BC, BH, p00=1.0 / (z_c * z_h)))
    u = two_qubit_exchange_unitary(0.9)
    rep = xft_average(mh_distribution(sys, u), sys)
    assert rep.resonance_ok
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.avg_delta_i == pytest.approx(0.0, abs=1e-12)


def test_xft_classically_correlated_recovers_unity(rng):
    # eta = 0 but P00 away from the product value
    sys, params = random_two_qubit_system(rng, coherent=False)
    u = two_qubit_exchange_unitary(1.2)
    rep = xft_average(mh_distribution(sys, u), sys)
    assert rep.lhs == pytest.approx(1.0, abs=1e-10)


def test_xft_identity_with_coherence(qubit_ensemble, qutrit_ensemble):
    for sys, u, _ in qubit_ensemble[:50] + qutrit_ensemble[:30]:
        mh = mh_distribution(sys, u)
        rep = xft_average(mh, sys).with_chi(xft_coherence_term(sys, u))
        assert rep.resonance_ok
        assert rep.identity_gap() < 1e-8


def test_xft_divergence_for_zero_population_with_weight():
    params = TwoQubitParams(BC, BH, 0.0)
    _, upper = params.p00_bounds()
    sys = two_qubit_state(TwoQubitParams(BC, BH, p00=upper))  # one population exactly 0
    u = two_qubit_exchange_unitary(np.pi / 4)
    with pytest.raises(DivergenceError):
        xft_average(mh_distribution(sys, u), sys)


def test_xft_resonance_flag_for_detuned_pair():
    sys = gamma_correlated_state(-0.1, BC, BH, gap=1.0, gap_h=1.2)
    u = xy_exchange_unitary(215.1, 6e-4)
    rep = xft_average(mh_distribution(sys, u), sys)
    assert not rep.resonance_ok
    assert rep.max_energy_mismatch == pytest.approx(0.2, abs=1e-12)


def test_resonance_stack_equals_the_scalar_reference_per_cell():
    # (C gap, H gap, t): resonant, detuned, detuned with no transition yet,
    # mismatches just inside and outside 1e-9, and outside 1e-9 but inside
    # 1e-9 times the level scale
    cells = [(1.0, 1.0, 6e-4), (1.0, 1.2, 6e-4), (1.0, 1.2, 0.0), (1.0, 1.0 + 5e-10, 6e-4),
             (1.0, 1.0 + 2e-9, 6e-4), (3.0, 3.0 + 2e-9, 6e-4)]
    tables = []
    for gap, gap_h, t in cells:
        sys = gamma_correlated_state(-0.1 if gap == 1.0 else 0.0, BC, BH, gap=gap, gap_h=gap_h)
        u = xy_exchange_unitary(215.1, t, gap=gap)
        tables += [mh_distribution(sys, u), tpm_distribution(sys, u)]
    levels = [np.array([getattr(t, side) for t in tables]) for side in ("energies_c", "energies_h")]
    ok, mismatch = resonance_stack(np.stack([t.values for t in tables]), *levels)
    assert ok.tolist() == [True, True, False, False, True, True, True, True, False, False, True, True]
    for k, table in enumerate(tables):
        want = reference.resonance(table)
        assert table.resonance() == (ok[k].item(), mismatch[k].item()) == want
        assert repr(mismatch[k].item()) == repr(want[1])


def test_j_term_zero_for_product_diagonal():
    z_c = 1.0 + np.exp(-BC)
    z_h = 1.0 + np.exp(-BH)
    sys = two_qubit_state(TwoQubitParams(BC, BH, p00=1.0 / (z_c * z_h)))
    corr = heat_exp_correction(sys, two_qubit_exchange_unitary(0.9))
    assert corr.j == pytest.approx(0.0, abs=1e-14)
    assert corr.population_norm == pytest.approx(0.0, abs=1e-14)


def test_j_term_classical_part_vanishes_with_product_populations():
    # coherence present, but populations equal to the product values
    z_c = 1.0 + np.exp(-BC)
    z_h = 1.0 + np.exp(-BH)
    sys = two_qubit_state(TwoQubitParams(BC, BH, p00=1.0 / (z_c * z_h), eta=0.05))
    corr = heat_exp_correction(sys, two_qubit_exchange_unitary(0.9))
    assert corr.population_norm == pytest.approx(0.0, abs=1e-14)
    assert corr.coherence_norm > 0.0


def test_j_term_identity(qubit_ensemble):
    for sys, u, _ in qubit_ensemble[:40]:
        mh = mh_distribution(sys, u)
        corr = heat_exp_correction(sys, u)
        direct = float(
            (mh.values * np.exp((sys.beta_c - sys.beta_h) * mh.delta_e_c())).sum()
        )
        assert 1.0 + corr.j == pytest.approx(direct, abs=1e-10)
        assert corr.j <= corr.norm_bound + 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_j_term_norms_equal_the_dense_spectral_norms_bit_for_bit(rng, dim):
    for _ in range(3):
        sys, u, _ = random_system_and_unitary(rng, dim)
        corr = heat_exp_correction(sys, u)
        # the correction operators, written out independently
        pops = np.real(np.diag(sys.rho))
        qpop = np.kron(np.real(np.diag(sys.marginal_c())), np.real(np.diag(sys.marginal_h())))
        c_mat = np.diag((pops / qpop - 1.0).astype(complex))
        q_mat = sys.rho / qpop[:, None]
        np.fill_diagonal(q_mat, 0.0)
        pop, coh = np.linalg.norm(c_mat, 2), np.linalg.norm(q_mat, 2)
        assert np.float64(corr.population_norm).tobytes() == np.float64(pop).tobytes()
        assert np.float64(corr.coherence_norm).tobytes() == np.float64(coh).tobytes()
        assert np.float64(corr.norm_bound).tobytes() == np.float64(float(pop) + float(coh)).tobytes()


def test_j_term_divergence_for_vanishing_marginal():
    sys = gamma_correlated_state(0.0, 800.0, 700.0)  # marginals flush to (1, 0)
    with pytest.raises(DivergenceError):
        heat_exp_correction(sys, two_qubit_exchange_unitary(0.4))


# ---------------------------------------------------------------------------
# stacks of cells
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacks_equal_single_cell_functions_bit_for_bit(d):
    # three states with their own spectra, cells of each interleaved in one stack
    rng = np.random.default_rng(40 + d)
    drawn = _draw(rng, [d] * 3)[0].st  # the states of random_system_and_unitary
    systems = [reference.checked_system(drawn, k) for k in range(3)]
    state_of = np.array([0, 1, 2, 0, 0, 2, 1])
    draws = [random_rotations(rng, systems[i].spectrum_c) for i in state_of]
    fields = ("theta", "phi", "lam", "kappa")
    angles = {
        rot.level_pair: tuple(np.array([getattr(rots[i], f) for rots in draws]) for f in fields)
        for i, rot in enumerate(draws[0])
    }
    states = valid_stack(entry_stack(*reference.entry_columns(drawn, np.arange(3)))).take(state_of)
    stack = exchange_unitary_stack(states.levels_c, len(draws), angles.items())
    u = stack.matrix
    levels = (states.levels_c, states.levels_h)
    mh, tpm = table_stack("MH", states, u, stack.adjoint), table_stack("TPM", states, u, stack.adjoint)
    q_back, q_direct = flow_decomposition_stack(mh, *levels)
    chi, starved = xft_coherence_stack(states, u, stack.adjoint)
    lhs, avg_di, vanishing = xft_average_stack(mh, states)
    resonance_ok, max_mismatch = resonance_stack(mh, *levels)
    j, j_divergent = heat_exp_j_stack(states, u, stack.adjoint)
    got = zip(
        table_heat_stack(mh, levels[0]), table_heat_stack(tpm, levels[0]), q_back, q_direct,
        chi, lhs, avg_di, resonance_ok, max_mismatch, j,
    )
    assert not (starved.any() or j_divergent.any() or any(bad.any() for bad in vanishing.values()))
    for k, (rots, values) in enumerate(zip(draws, got)):
        sys = systems[state_of[k]]
        unit = reference.energy_preserving_unitary(sys.spectrum_c, rots)
        assert u[k].tobytes() == unit.matrix.tobytes()
        assert stack.commutator_norm[k] == unit.commutator_norm
        m, t = reference.mh_distribution(sys, unit), reference.tpm_distribution(sys, unit)
        assert mh[k].tobytes() == m.values.tobytes() and tpm[k].tobytes() == t.values.tobytes()
        report = reference.flow_decomposition(m)
        xft = reference.xft_average(m, sys)
        want = (
            reference.table_heat(m), reference.table_heat(t), report.q_back, report.q_direct,
            reference.xft_coherence_term(sys, unit), xft.lhs, xft.avg_delta_i, *reference.resonance(m),
            reference.heat_exp_correction(sys, unit).j,
        )
        assert [repr(float(x)) for x in values] == [repr(float(x)) for x in want]


def test_stacks_mark_the_cells_where_the_single_cell_function_diverges():
    # a state whose hot marginal is flush to (1, 0) beside a regular one
    regular, flush = gamma_correlated_state(-0.1, 1.13, 0.9618), gamma_correlated_state(0.0, 800.0, 700.0)
    states = valid_stack(gamma_rows(np.array([-0.1, 0.0]), np.array([1.13, 800.0]), np.array([0.9618, 700.0]), np.ones(2), np.ones(2)))
    states = states.take(np.array([0, 1, 0]))
    stack = exchange_unitary_stack(states.levels_c, 3, [((0, 1), (np.array([0.4, 0.4, 0.9]), *np.zeros((3, 3))))])
    j, divergent = heat_exp_j_stack(states, stack.matrix, stack.adjoint)
    assert divergent.tolist() == [False, True, False]
    with pytest.raises(DivergenceError):
        reference.heat_exp_correction(flush, stack.matrix[1])
    for k in (0, 2):
        assert repr(float(j[k])) == repr(reference.heat_exp_correction(regular, stack.matrix[k]).j)


def test_masked_sums_add_like_the_single_cell_sum():
    rng = np.random.default_rng(11)
    n, shape = 40, (3, 3, 3, 3)
    x = rng.standard_normal((n, *shape)) * 10.0 ** rng.integers(-6, 3, size=(n, *shape))
    shared = rng.random(shape) < 0.6
    per_cell = rng.random((n, *shape)) < 0.7
    per_cell[::5] = per_cell[0]  # cells with one pattern are summed together
    assert masked_sums(x, shared).tolist() == [x[k][shared].sum() for k in range(n)]
    assert masked_sums(x, per_cell).tolist() == [x[k][per_cell[k]].sum() for k in range(n)]
