"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria marked with intervals or tolerances are asserted exactly at
those values; random ensembles are the session fixtures (500 two-qubit,
200 two-qutrit instances).
"""

import csv
import pathlib

import numpy as np
import pytest

from qheatflow.dynamics import (
    energy_preserving_unitary,
    two_qubit_exchange_unitary,
    xy_exchange_unitary,
)
from qheatflow.fluctuations import (
    MH_LOWER_BOUND,
    average_heat,
    exchange_heat_shift,
    exchange_manifold_pw,
    exchange_manifold_tpm,
    heat_exp_correction,
    marginal_check,
    max_heat_coherence_shift,
    mh_distribution,
    table_heat,
    tpm_distribution,
    two_qubit_exchange_probs,
    two_qubit_heat,
    two_qubit_tpm_heat,
    xft_average,
    xft_coherence_term,
)
from qheatflow.probe import (
    probe_statistics,
    reconstruct_quasiprobability,
    sampled_reconstruction,
)
from qheatflow.properties import (
    random_qudit_system,
    random_rotations,
    random_system_and_unitary,
    random_two_qubit_system,
)
from qheatflow.states import gamma_correlated_state, min_partial_transpose_eigenvalue
from qheatflow.sweeps import SweepSpec, run_sweep
from qheatflow.witnesses import (
    correlation_flow_witness,
    nonideal_flow_witness,
    strong_backflow_witness,
    tpm_band_witness,
    two_qubit_flow_witness,
    xft_flow_witness,
)
from qheatflow.config import load_config

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _sweep_rows(config_name, **overrides):
    cfg = load_config(str(CONFIG_DIR / config_name))
    cfg.update(overrides)
    result = run_sweep(SweepSpec.from_config(cfg))
    reader = csv.DictReader(
        line for line in result.to_csv().splitlines() if not line.startswith("#")
    )
    return list(reader)


def test_criterion_1_separability_number():
    sys = gamma_correlated_state(-0.19, 1.13, 0.9618, gap=1.0)
    val = min_partial_transpose_eigenvalue(sys)
    assert 0.0009 <= val <= 0.0019
    print(f"\n[criterion 1] PASS separability: min PT eigenvalue {val:.6f} in [0.0009, 0.0019]")


def test_criterion_2_xft_identity(qubit_ensemble, qutrit_ensemble):
    worst = 0.0
    for sys, u, _ in qubit_ensemble + qutrit_ensemble:
        rep = xft_average(mh_distribution(sys, u), sys).with_chi(
            xft_coherence_term(sys, u)
        )
        assert rep.resonance_ok
        gap = rep.identity_gap()
        worst = max(worst, gap)
        assert gap < 1e-8
    print(
        f"\n[criterion 2] PASS exchange-fluctuation identity on "
        f"{len(qubit_ensemble)}+{len(qutrit_ensemble)} instances, worst gap {worst:.2e} < 1e-8"
    )


def test_criterion_3_marginal_property(qubit_ensemble, qutrit_ensemble):
    worst = 0.0
    for sys, u, _ in qubit_ensemble + qutrit_ensemble:
        dev = marginal_check(mh_distribution(sys, u), sys, u)
        worst = max(worst, dev)
        assert dev < 1e-10
    print(f"\n[criterion 3] PASS both marginal identities, worst deviation {worst:.2e} < 1e-10")


def test_criterion_4_range_and_normalization(qubit_ensemble, qutrit_ensemble):
    worst_sum = 0.0
    lowest = 0.0
    for sys, u, _ in qubit_ensemble + qutrit_ensemble:
        mh = mh_distribution(sys, u)
        worst_sum = max(worst_sum, abs(mh.values.sum() - 1.0))
        lowest = min(lowest, mh.min_entry())
        assert abs(mh.values.sum() - 1.0) < 1e-10
        assert mh.min_entry() >= MH_LOWER_BOUND - 1e-10
    print(
        f"\n[criterion 4] PASS normalization (worst {worst_sum:.2e}) and range "
        f"(min entry {lowest:.4f} >= -1/8)"
    )


def test_criterion_5_closed_form_equivalence(qutrit_ensemble):
    rng = np.random.default_rng(500)
    worst = 0.0
    # resonant two-qubit family: 100 states x 100 protocol draws
    n_points = 0
    for _ in range(100):
        sys, params = random_two_qubit_system(rng)
        for _ in range(100):
            theta = rng.uniform(0.0, np.pi)
            phi, lam = rng.uniform(0.0, 2.0 * np.pi, size=2)
            u = two_qubit_exchange_unitary(theta, lam=lam, phi=phi)
            mh = mh_distribution(sys, u)
            tpm = tpm_distribution(sys, u)
            cf = two_qubit_exchange_probs(
                theta, params.eta, params.xi, params.beta_c, params.beta_h,
                params.p00, phi=phi, lam=lam,
            )
            dev = max(
                abs(cf["mh_01_10"] - mh.entry(0, 1, 1, 0)),
                abs(cf["mh_10_01"] - mh.entry(1, 0, 0, 1)),
                abs(cf["tpm_01_10"] - tpm.entry(0, 1, 1, 0)),
                abs(cf["tpm_10_01"] - tpm.entry(1, 0, 0, 1)),
                abs(
                    two_qubit_heat(
                        theta, params.eta, params.xi, params.beta_c, params.beta_h,
                        phi=phi, lam=lam,
                    )
                    - average_heat(sys, u)
                ),
                abs(
                    two_qubit_tpm_heat(theta, params.beta_c, params.beta_h)
                    - table_heat(tpm)
                ),
            )
            worst = max(worst, dev)
            assert dev < 1e-12
            n_points += 1
    assert n_points >= 10**4

    # qudit family: qutrit ensemble x 30 protocols each, plus d = 4
    n_qudit = 0
    for sys, _, _ in qutrit_ensemble:
        for _ in range(30):
            rots = random_rotations(rng, sys.spectrum_c)
            u = energy_preserving_unitary(sys.spectrum_c, rots)
            mh = mh_distribution(sys, u)
            tpm = tpm_distribution(sys, u)
            dev = 0.0
            for key, val in exchange_manifold_pw(sys, rots).items():
                dev = max(dev, abs(val - mh.entry(*key)))
            for key, val in exchange_manifold_tpm(sys, rots).items():
                dev = max(dev, abs(val - tpm.entry(*key)))
            dev = max(
                dev,
                abs(
                    exchange_heat_shift(sys, rots)
                    - (average_heat(sys, u) - table_heat(tpm))
                ),
            )
            shift_cap = max_heat_coherence_shift(sys)
            assert abs(average_heat(sys, u) - table_heat(tpm)) <= shift_cap + 1e-12
            worst = max(worst, dev)
            assert dev < 1e-12
            n_qudit += 1
    for _ in range(40):
        sys = random_qudit_system(rng, 4)
        for _ in range(100):
            rots = random_rotations(rng, sys.spectrum_c)
            u = energy_preserving_unitary(sys.spectrum_c, rots)
            mh = mh_distribution(sys, u)
            dev = 0.0
            for key, val in exchange_manifold_pw(sys, rots).items():
                dev = max(dev, abs(val - mh.entry(*key)))
            worst = max(worst, dev)
            assert dev < 1e-12
            n_qudit += 1
    assert n_qudit >= 10**4
    print(
        f"\n[criterion 5] PASS closed forms vs matrix route on {n_points} two-qubit "
        f"and {n_qudit} qudit points, worst deviation {worst:.2e} < 1e-12"
    )


def test_criterion_6_witness_soundness():
    rng = np.random.default_rng(600)
    for dim in (2, 3):
        kept = 0
        while kept < 500:
            sys, u, _ = random_system_and_unitary(rng, dim)
            mh = mh_distribution(sys, u)
            if mh.min_entry() < 0.0:
                continue
            kept += 1
            tpm = tpm_distribution(sys, u)
            q = table_heat(mh)
            q_tpm = table_heat(tpm)
            verdicts = []
            if dim == 2:
                verdicts.append(
                    two_qubit_flow_witness(q, q_tpm, sys.beta_c, sys.beta_h)
                )
                verdicts.append(
                    nonideal_flow_witness(q, q_tpm, sys.beta_c, sys.beta_h, 1.0, 1.0, 0.0)
                )
            rep = xft_average(mh, sys).with_chi(xft_coherence_term(sys, u))
            verdicts.append(xft_flow_witness(q, rep, sys.beta_c, sys.beta_h))
            verdicts.append(
                correlation_flow_witness(
                    q, heat_exp_correction(sys, u).j, mh, sys.beta_c, sys.beta_h
                )
            )
            verdicts.extend(tpm_band_witness(q, tpm))
            verdicts.append(strong_backflow_witness(q, sys.beta_c, sys.beta_h, dim))
            for v in verdicts:
                assert not v.violated, (dim, v.inequality_id, v.bound, v.observed)
    print("\n[criterion 6] PASS witness soundness: 500 nonnegative instances per dimension, no violations")


def test_criterion_7a_experiment_time_regions():
    rows = _sweep_rows("experiment_time.cfg")
    q = np.array([float(r["Q"]) for r in rows])
    q_tpm = np.array([float(r["Q_tpm"]) for r in rows])
    neg = np.array([r["negativity"] == "1" for r in rows])
    t1 = np.array([r["t1_violated"] == "1" for r in rows])
    backflow = q > 1e-12
    assert np.all(q_tpm <= 1e-15)
    assert backflow.any()
    assert neg.any()
    # negativity covers the backflow interval up to the measure-zero sliver
    # where the two entry zero-crossings do not coincide
    assert neg[np.argmax(backflow)]
    coverage = np.mean(neg[backflow])
    assert coverage >= 0.95
    assert t1.any()
    assert not np.any(t1 & ~neg)
    print(
        f"\n[criterion 7a] PASS experiment-time structure: {backflow.sum()} backflow cells "
        f"({coverage:.1%} negativity-covered), {t1.sum()} witness cells inside the negativity set"
    )


def test_criterion_7b_qubit_grid_regions():
    rows = _sweep_rows("qubit_grid.cfg")
    neg = np.array([r["negativity"] == "1" for r in rows])
    t1 = np.array([r["t1_violated"] == "1" for r in rows])
    eta = np.array([float(r["eta"]) for r in rows])
    assert t1.any() and neg.any()
    assert not np.any(t1 & ~neg)
    assert t1.sum() < neg.sum()  # strictly inside
    line = np.isclose(eta, -0.19)
    assert line.any() and np.any(t1 & line)
    print(
        f"\n[criterion 7b] PASS theta-eta grid: witness region {t1.sum()} cells strictly inside "
        f"negativity region {neg.sum()} cells, intersecting the eta = -0.19 line"
    )


def test_criterion_7c_qutrit_regions():
    rows3 = _sweep_rows("qutrit_xft.cfg")
    neg3 = np.array([r["negativity"] == "1" for r in rows3])
    t3 = np.array([r["t3_violated"] == "1" for r in rows3])
    assert t3.any()
    assert not np.any(t3 & ~neg3)

    rows4 = _sweep_rows("qutrit_bounds.cfg")
    neg4 = np.array([r["negativity"] == "1" for r in rows4])
    lo = np.array([r["t4_lower_violated"] == "1" for r in rows4])
    hi = np.array([r["t4_upper_violated"] == "1" for r in rows4])
    assert lo.any() and hi.any()  # both directions realized at eta = 1
    assert not np.any((lo | hi) & ~neg4)
    print(
        f"\n[criterion 7c] PASS qutrit grids: {t3.sum()} exchange-fluctuation cells, "
        f"{lo.sum()} lower-band and {hi.sum()} upper-band cells, all inside negativity"
    )


def test_criterion_8_probe_exactness(qubit_ensemble, qutrit_ensemble):
    rng = np.random.default_rng(800)
    worst = 0.0
    ensemble = qubit_ensemble[:160] + qutrit_ensemble[:60]
    for sys, u, _ in ensemble:
        mh = mh_distribution(sys, u)
        i_c = int(rng.integers(0, sys.d_c))
        i_h = int(rng.integers(0, sys.d_h))
        for eps in (0.05, 0.2, np.pi / 4):
            stats = probe_statistics(sys, u, (i_c, i_h), eps)
            rec = reconstruct_quasiprobability(stats)
            dev = float(np.max(np.abs(rec - mh.values[i_c, i_h])))
            worst = max(worst, dev)
            assert dev < 1e-10
    sys, u, _ = qubit_ensemble[0]
    stats = probe_statistics(sys, u, (0, 1), 0.2)
    exact = reconstruct_quasiprobability(stats)
    sampled = sampled_reconstruction(stats, 10**6, seed=2026)
    dev = np.abs(sampled.values - exact)
    assert np.all(dev <= 5.0 * sampled.stderr + 1e-12)
    print(
        f"\n[criterion 8] PASS probe reconstruction exact to {worst:.2e} on "
        f"{3 * len(ensemble)} rows; 1e6-shot sampling within 5 standard errors"
    )


def test_criterion_9_nonideal_tolerance_map():
    rows = _sweep_rows("nonideal_tolerance.cfg")
    t2 = [r for r in rows if r["t2_violated"] == "1"]
    assert t2, "nonideal witness region is empty"
    ok_cells = [r for r in rows if r["status"] == "ok"]
    assert len(ok_cells) > len(t2)
    # reduction to the resonant witness at eps = Delta = 0
    sys = gamma_correlated_state(-0.19, 1.13, 0.9618)
    u = xy_exchange_unitary(220.0, 0.004)
    q = table_heat(mh_distribution(sys, u))
    q_tpm = table_heat(tpm_distribution(sys, u))
    v1 = two_qubit_flow_witness(q, q_tpm, 1.13, 0.9618)
    v2 = nonideal_flow_witness(q, q_tpm, 1.13, 0.9618, 1.0, 1.0, 0.0)
    assert abs(v1.bound - v2.bound) < 1e-12
    print(
        f"\n[criterion 9] PASS nonideal map: {len(t2)} violated cells of {len(ok_cells)} feasible; "
        f"bound reduction gap {abs(v1.bound - v2.bound):.2e} < 1e-12"
    )


def test_criterion_10_strong_backflow_never_fires():
    sys = gamma_correlated_state(-0.19, 1.13, 0.9618)
    assert min_partial_transpose_eigenvalue(sys) > -1e-10  # separable
    fired = 0
    for t in np.linspace(0.0, 2.0 / 215.1, 400):
        u = xy_exchange_unitary(215.1, t)
        q = average_heat(sys, u)
        fired += strong_backflow_witness(q, 1.13, 0.9618, 2).violated
    assert fired == 0
    print("\n[criterion 10] PASS strong-backflow witness silent on the separable pair at all times")
