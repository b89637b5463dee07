import time
from pathlib import Path

import numpy as np
import pytest

import reference
from qheatflow import probe, properties
from qheatflow.cli import main as cli_main
from qheatflow.dynamics import ManifoldRotation, energy_preserving_unitary, xy_exchange_unitary
from qheatflow.fluctuations import mh_distribution, tpm_distribution
from qheatflow.linalg import SIGMA_Z, kron
from qheatflow.probe import (
    ProbeOutcomeStats,
    probe_effects,
    probe_statistics,
    reconstruct_quasiprobability,
    sampled_reconstruction,
)
from qheatflow.properties import random_system_and_unitary
from qheatflow.states import BipartiteSystem, EnergySpectrum, QutritStateParams, gamma_correlated_state, two_qutrit_state

BC, BH = 1.13, 0.9618
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _negativity_pair():
    sys = gamma_correlated_state(-0.19, BC, BH)
    return sys, xy_exchange_unitary(215.1, 6e-4)


def test_povm_completeness_and_form():
    for eps in (0.05, 0.2, np.pi / 4):
        e_plus, e_minus = probe_effects(eps, 4, 1)
        assert np.max(np.abs(e_plus + e_minus - np.eye(4))) < 1e-12
        s = np.sin(2 * eps)
        pi_op = np.zeros((4, 4))
        pi_op[1, 1] = 1.0
        assert np.max(np.abs(e_plus - ((1 - s) * np.eye(4) / 2 + s * pi_op))) < 1e-12


def test_delta_q_identity_random(rng):
    for _ in range(15):
        dim = 2 if rng.random() < 0.5 else 3
        sys, u, _ = random_system_and_unitary(rng, dim)
        mh = mh_distribution(sys, u)
        i_c = int(rng.integers(0, sys.d_c))
        i_h = int(rng.integers(0, sys.d_h))
        eps = float(rng.uniform(0.02, np.pi / 2 - 0.02))
        stats = probe_statistics(sys, u, (i_c, i_h), eps)
        dq = stats.q_plus - stats.q_minus
        ident = np.sin(2 * eps) * (2 * mh.values[i_c, i_h] - stats.p_undisturbed)
        assert np.max(np.abs(dq - ident)) < 1e-12


def test_reconstruction_is_exact_at_finite_coupling(rng):
    sys, u, _ = random_system_and_unitary(rng, 2)
    mh = mh_distribution(sys, u)
    recs = []
    for eps in (0.05, 0.2, np.pi / 4):
        stats = probe_statistics(sys, u, (0, 1), eps)
        rec = reconstruct_quasiprobability(stats)
        recs.append(rec)
        assert np.max(np.abs(rec - mh.values[0, 1])) < 1e-10
    # coupling independence
    assert np.max(np.abs(recs[0] - recs[2])) < 1e-10


def test_reconstruction_recovers_negative_entry():
    sys, u = _negativity_pair()
    mh = mh_distribution(sys, u)
    stats = probe_statistics(sys, u, (0, 1), 0.2)
    rec = reconstruct_quasiprobability(stats)
    assert mh.values[0, 1].min() < -1e-3
    assert np.max(np.abs(rec - mh.values[0, 1])) < 1e-10


def test_diagonal_state_reconstructs_tpm_entries(rng):
    sys, u, _ = random_system_and_unitary(rng, 2)
    diag = sys.with_rho(np.diag(np.diag(sys.rho)))
    tpm = tpm_distribution(diag, u)
    stats = probe_statistics(diag, u, (1, 0), 0.3)
    rec = reconstruct_quasiprobability(stats)
    assert np.max(np.abs(rec - tpm.values[1, 0])) < 1e-12


def test_quarter_coupling_simplifies_coefficient():
    sys, u = _negativity_pair()
    stats = probe_statistics(sys, u, (0, 1), np.pi / 4)  # sin(2 eps) = 1
    rec = reconstruct_quasiprobability(stats)
    manual = (stats.q_plus - stats.q_minus) / 2.0 + stats.p_undisturbed / 2.0
    assert np.array_equal(rec, manual)


def test_eps_range_validation():
    sys, u = _negativity_pair()
    for bad in (0.0, -0.1, np.pi / 2, 2.0):
        with pytest.raises(ValueError):
            probe_statistics(sys, u, (0, 1), bad)


def _dense_coupling_statistics(sys, u, target, eps):
    """Reference: V = Pi_perp x I + Pi x sigma_z applied as dense matrices."""
    dim = sys.d_c * sys.d_h
    idx = target[0] * sys.d_h + target[1]
    pi_op = np.zeros((dim, dim), dtype=complex)
    pi_op[idx, idx] = 1.0
    v = kron(np.eye(dim, dtype=complex) - pi_op, np.eye(2)) + kron(pi_op, SIGMA_Z)
    ancilla = np.array([np.cos(eps), -np.sin(eps)], dtype=complex)
    joint = kron(sys.rho, np.outer(ancilla, ancilla.conj()))
    u_joint = kron(u, np.eye(2))
    blocks = (u_joint @ v @ joint @ v.conj().T @ u_joint.conj().T).reshape(dim, 2, dim, 2)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    q_plus = np.array([np.real(plus.conj() @ blocks[f, :, f, :] @ plus) for f in range(dim)])
    q_minus = np.array([np.real(minus.conj() @ blocks[f, :, f, :] @ minus) for f in range(dim)])
    p_free = np.real(np.diag(u @ sys.rho @ u.conj().T))
    return q_plus, q_minus, p_free


def _random_dense_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_sign_flip_coupling_equals_dense_products_bit_for_bit(rng, dim):
    for _ in range(4):
        sys, u, _ = random_system_and_unitary(rng, dim)
        eps = float(rng.uniform(0.02, np.pi / 2 - 0.02))
        for unitary in (u.matrix, _random_dense_unitary(rng, sys.d_c * sys.d_h)):
            for target in [(0, 0), (sys.d_c - 1, sys.d_h - 1), (int(rng.integers(sys.d_c)), 1)]:
                stats = probe_statistics(sys, unitary, target, eps)
                ref = _dense_coupling_statistics(sys, unitary, target, eps)
                got = (stats.q_plus.ravel(), stats.q_minus.ravel(), stats.p_undisturbed.ravel())
                for a, b in zip(got, ref):
                    assert a.tobytes() == b.tobytes()  # also compares the signs of zeros


def test_sign_flip_coupling_keeps_the_signs_of_zero_outcomes(rng):
    # rho_5 = 0 empties a level, so some outcome probabilities are exact zeros
    sys = two_qutrit_state(QutritStateParams(1.3, 0.3, 1.0, 1.15, 0.3, 0.0, 0.07, 0.06, eta_13=1.0))
    zeros = 0
    for angles in [(0.0, 0.0), tuple(rng.uniform(0.0, 3.0, 2))]:
        rots = [ManifoldRotation((0, 1), angles[0]), ManifoldRotation((0, 2), angles[1])]
        u = energy_preserving_unitary(sys.spectrum_c, rots)
        for target in np.ndindex(sys.dims):
            stats = probe_statistics(sys, u, target, 0.3)
            ref = _dense_coupling_statistics(sys, u.matrix, target, 0.3)
            for a, b in zip((stats.q_plus, stats.q_minus, stats.p_undisturbed), ref):
                assert a.ravel().tobytes() == b.tobytes()
                zeros += int(np.count_nonzero(a == 0.0))
    assert zeros > 0


def _random_state(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (2, 64), (3, 1), (3, 2), (3, 64), *((d, 1) for d in range(4, 17))])
def test_stacked_probe_rows_equal_the_dense_one_row_probe_bit_for_bit(d, n):
    """``probe_stack`` against the dense one-row reference: drawn states under
    their energy-preserving unitaries at d = 2, 3 (what probe-exactness runs),
    a dense state and unitary of each larger d (what a point runs)."""
    rng = np.random.default_rng(100 * d + n)
    if d <= 3:
        ((_, st, u),) = properties._groups(properties._draw(rng, [d] * n))
        rho, unitaries = st.rho, u.matrix
    else:
        rho, unitaries = _random_state(rng, d * d)[None], _random_dense_unitary(rng, d * d)[None]
    spec = EnergySpectrum(tuple(float(x) for x in range(d)))
    for eps in (0.05, float(rng.uniform(0.02, np.pi / 2 - 0.02))):
        idx = rng.integers(0, d * d, n)
        got = probe.probe_stack(rho, unitaries, idx, eps)
        for k in range(n):
            sys = BipartiteSystem(spec, spec, rho[k])
            want = reference.probe_statistics(sys, unitaries[k], divmod(int(idx[k]), d), eps)
            one = probe.probe_statistics(sys, unitaries[k], divmod(int(idx[k]), d), eps)
            for name, row in zip(probe.OUTCOMES, got):
                assert row[k].tobytes() == getattr(want, name).tobytes() == getattr(one, name).tobytes(), (d, k, name)


def test_a_stack_raises_the_first_failed_check_of_its_first_failing_row():
    q_plus, q_minus, p_free = (np.full((4, 2), 0.25), np.full((4, 2), 0.25), np.full((4, 2), 0.5))
    q_plus[3, 0] = 1.5  # q_plus outside [0, 1]: the first check, of a later row
    p_free[1, 1] = 0.6  # the probe-free sum: the last check, of the first failing row
    with pytest.raises(ValueError, match="^probe-free probabilities do not sum to 1$"):
        probe._check_outcomes(q_plus, q_minus, p_free)
    q_minus[1, 0] = -0.1  # row 1 now fails q_minus and both sums: the first of them is raised
    with pytest.raises(ValueError, match=r"^q_minus entries outside \[0, 1\]$"):
        probe._check_outcomes(q_plus, q_minus, p_free)
    with pytest.raises(ValueError, match=r"^q_plus entries outside \[0, 1\]$"):
        ProbeOutcomeStats((0, 0), 0.2, q_plus[3], q_minus[3], p_free[3], (0.0, 1.0), (0.0,))
    probe._check_outcomes(q_plus[[0, 2]], q_minus[[0, 2]], p_free[[0, 2]])  # the rows that pass


def test_probe_statistics_normalization():
    sys, u = _negativity_pair()
    stats = probe_statistics(sys, u, (0, 1), 0.1)
    assert stats.q_plus.sum() + stats.q_minus.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.p_undisturbed.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling layer
# ---------------------------------------------------------------------------

def test_sampling_deterministic_given_seed():
    sys, u = _negativity_pair()
    stats = probe_statistics(sys, u, (0, 1), 0.2)
    a = sampled_reconstruction(stats, 5000, seed=123)
    b = sampled_reconstruction(stats, 5000, seed=123)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.stderr, b.stderr)
    c = sampled_reconstruction(stats, 5000, seed=124)
    assert not np.array_equal(a.values, c.values)


def test_single_shot_frequencies_are_indicator_valued():
    sys, u = _negativity_pair()
    stats = probe_statistics(sys, u, (0, 1), 0.2)
    s = sampled_reconstruction(stats, 1, seed=5)
    for freq in (s.f_plus, s.f_minus, s.f_free):
        assert np.all(np.isin(freq, [0.0, 1.0]))
    assert s.f_plus.sum() + s.f_minus.sum() == 1.0
    assert s.f_free.sum() == 1.0


def test_sampling_converges_to_exact_at_large_shots():
    sys, u = _negativity_pair()
    stats = probe_statistics(sys, u, (0, 1), 0.2)
    exact = reconstruct_quasiprobability(stats)
    s = sampled_reconstruction(stats, 10**6, seed=99)
    dev = np.abs(s.values - exact)
    assert np.all(dev <= 5.0 * s.stderr + 1e-12)


def test_stderr_scales_as_inverse_sqrt_shots():
    sys, u = _negativity_pair()
    stats = probe_statistics(sys, u, (0, 1), 0.2)
    small = sampled_reconstruction(stats, 10**4, seed=7)
    large = sampled_reconstruction(stats, 10**6, seed=7)
    ratio = small.stderr / np.maximum(large.stderr, 1e-300)
    finite = ratio[np.isfinite(ratio) & (small.stderr > 0)]
    assert np.all((finite > 6.0) & (finite < 16.0))  # ~10 expected


def test_sampling_validates_shot_count():
    sys, u = _negativity_pair()
    stats = probe_statistics(sys, u, (0, 1), 0.2)
    with pytest.raises(ValueError):
        sampled_reconstruction(stats, 0, seed=1)


def _stats_with_empty_outcomes():
    """Outcome statistics whose probe and probe-free runs each hold an exact
    zero and a -1e-13 entry, the last outcome of each run among them."""
    q_plus = np.array([[0.3, 0.0], [0.1, 0.05]])
    q_minus = np.array([[0.2, 0.25], [0.1, -1e-13]])
    p_free = np.array([[0.5, -1e-13], [0.5, 0.0]])
    return ProbeOutcomeStats((0, 1), 0.2, q_plus, q_minus, p_free, (0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("n_shots", [1, 7, 10**5, 10**12, probe.MAX_SHOTS])
def test_counts_sum_to_the_shot_count_exactly(n_shots):
    stats = _stats_with_empty_outcomes()
    probs = np.concatenate([stats.q_plus.ravel(), stats.q_minus.ravel()])
    for seed in range(5):
        counts = probe._counts(probs, n_shots, np.random.Philox(seed))
        assert counts.dtype == np.int64 and counts.shape == probs.shape
        assert int(counts.sum()) == n_shots and (counts >= 0).all()


def test_an_outcome_of_zero_or_clipped_probability_is_never_drawn():
    stats = _stats_with_empty_outcomes()
    for seed in range(50):
        s = sampled_reconstruction(stats, 10**12, seed)
        assert s.f_plus[0, 1] == 0.0 and s.f_minus[1, 1] == 0.0
        assert s.f_free[0, 1] == 0.0 and s.f_free[1, 1] == 0.0
        assert (s.f_plus[[0, 1, 1], [0, 0, 1]] > 0).all() and (s.f_free[:, 0] > 0).all()


def test_sampling_runs_in_time_and_memory_independent_of_the_shot_count():
    sys, u = _negativity_pair()
    stats = probe_statistics(sys, u, (0, 1), 0.2)
    start = time.perf_counter()
    s = sampled_reconstruction(stats, 10**12, seed=3)
    assert time.perf_counter() - start < 0.5
    exact = reconstruct_quasiprobability(stats)
    assert np.all(np.abs(s.values - exact) <= 5.0 * s.stderr + 1e-12)


@pytest.mark.parametrize("n_shots", [probe.MAX_SHOTS + 1, 2**64, 10**30])
def test_a_shot_count_past_int64_fails_loudly(n_shots):
    stats = _stats_with_empty_outcomes()
    with pytest.raises(ValueError, match="n_shots must lie in"):
        sampled_reconstruction(stats, n_shots, seed=1)


def test_a_shot_count_past_int64_exits_1_from_the_point_cli(capsys):
    code = cli_main(["point", str(CONFIGS / "point_backflow.cfg"), "--set", f"probe.shots={2**63}"])
    captured = capsys.readouterr()
    assert code == 1 and "n_shots must lie in" in captured.err


def test_probe_statistics_checks_its_outcome_row_once(monkeypatch):
    calls, check = [], probe._check_outcomes
    monkeypatch.setattr(probe, "_check_outcomes", lambda *rows: calls.append(len(rows[0])) or check(*rows))
    sys, u = _negativity_pair()
    stats = probe_statistics(sys, u, (0, 1), 0.2)
    assert calls == [1]  # in probe_stack, not again when the result is built
    assert all(not getattr(stats, name).flags.writeable for name in probe.OUTCOMES)
    want = reference.probe_statistics(sys, u, (0, 1), 0.2)  # built directly: checked again
    assert calls == [1, 1]
    assert all(getattr(stats, name).tobytes() == getattr(want, name).tobytes() for name in probe.OUTCOMES)
    assert (stats.target, stats.eps, stats.energies_c, stats.energies_h) == (want.target, want.eps, want.energies_c, want.energies_h)
