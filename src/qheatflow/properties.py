"""Randomized invariant checks runnable from the command line.

Each property draws its own deterministic random stream from the suite
seed, evaluates ``n_trials`` instances (or a grid of comparable size)
and reports the failure count plus the worst deviation seen.  The same
generators back the pytest property tests, so `qheatflow check` is the
packaged, CI-friendly way to re-run them.

A property maps ``(rng, n)`` to ``(failures, max_dev, note)``.  Most are
one trial ``(rng, k) -> (deviation, failures)`` that ``_trials`` runs for
k = 0..n-1 in order: the failures summed, max_dev the largest deviation
floored at 0.0.  The others set their own trial count, start or note.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, fluctuations, linalg, probe, states, witnesses
from .dynamics import ManifoldRotation

MIN_POPULATION = 1e-3  # the least joint population of a drawn two-qubit or two-qutrit state
QUDIT_MIN_POPULATION = 5e-4  # ... and of a drawn d x d state
NONNEG_MAX_DRAWS = 200  # draws ``_nonneg_instance`` makes before it gives up


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------

def random_two_qubit_system(rng, coherent: bool = True):
    """Locally thermal two-qubit state with beta_C > beta_H."""
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


def random_two_qutrit_system(rng, coherent: bool = True):
    """Feasible two-qutrit instance; free populations jittered around product values."""
    while True:
        e1 = rng.uniform(0.7, 1.3)
        e2 = e1 + rng.uniform(0.2, 0.8)
        if abs(e2 - 2.0 * e1) < 5e-3:  # keep the Bohr spectrum nondegenerate
            continue
        beta_h = rng.uniform(0.1, 0.8)
        beta_c = beta_h + rng.uniform(0.2, 1.0)
        spec = states.EnergySpectrum((0.0, e1, e2))
        prod = np.outer(
            states.thermal_populations(spec, beta_c),
            states.thermal_populations(spec, beta_h),
        ).ravel()
        scale = lambda: rng.uniform(0.7, 1.3)  # noqa: E731
        eta = (lambda: rng.uniform(0.2, 0.95)) if coherent else (lambda: 0.0)
        xi = (lambda: rng.uniform(0.0, 2.0 * np.pi)) if coherent else (lambda: 0.0)
        params = states.QutritStateParams(
            beta_c, beta_h, e1, e2,
            rho_0=prod[0] * scale(), rho_5=prod[5] * scale(),
            rho_7=prod[7] * scale(), rho_8=prod[8] * scale(),
            eta_13=eta(), eta_26=eta(), eta_57=eta(),
            xi_13=xi(), xi_26=xi(), xi_57=xi(),
        )
        try:
            sys = states.two_qutrit_state(params)
        except states.InfeasibleStateError:
            continue
        if sys.populations().min() >= MIN_POPULATION:
            return sys, params


def random_qudit_system(rng, d: int = 4):
    """Locally thermal d x d instance via the general constructor."""
    while True:
        levels = [0.0]
        for _ in range(d - 1):
            levels.append(levels[-1] + rng.uniform(0.5, 1.7))
        spec = states.EnergySpectrum(tuple(levels))
        if not spec.bohr_nondegenerate(1e-3):
            continue
        beta_h = rng.uniform(0.1, 0.6)
        beta_c = beta_h + rng.uniform(0.2, 0.8)
        prod = np.outer(
            states.thermal_populations(spec, beta_c),
            states.thermal_populations(spec, beta_h),
        ).ravel()
        free = {0: prod[0] * rng.uniform(0.8, 1.2)}
        for n in range(1, d):
            for m in range(1, d):
                if (n, m) != (1, 1):
                    free[n * d + m] = prod[n * d + m] * rng.uniform(0.8, 1.2)
        eta_map = {
            (n, m): rng.uniform(0.2, 0.95) for n in range(d) for m in range(n + 1, d)
        }
        xi_map = {pair: rng.uniform(0.0, 2.0 * np.pi) for pair in eta_map}
        try:
            sys = states.qudit_locally_thermal(spec, beta_c, beta_h, free, eta_map, xi_map)
        except states.InfeasibleStateError:
            continue
        if sys.populations().min() >= QUDIT_MIN_POPULATION:
            return sys


def random_rotations(rng, spec: states.EnergySpectrum, with_phases: bool = True):
    rots = []
    for n in range(spec.dim):
        for m in range(n + 1, spec.dim):
            rots.append(
                ManifoldRotation(
                    (n, m),
                    theta=rng.uniform(0.0, np.pi),
                    phi=rng.uniform(0.0, 2.0 * np.pi) if with_phases else 0.0,
                    lam=rng.uniform(0.0, 2.0 * np.pi) if with_phases else 0.0,
                    kappa=rng.uniform(0.0, 2.0 * np.pi) if with_phases else 0.0,
                )
            )
    return rots


def random_system_and_unitary(rng, dim: int):
    if dim == 2:
        sys, _ = random_two_qubit_system(rng)
    elif dim == 3:
        sys, _ = random_two_qutrit_system(rng)
    else:
        sys = random_qudit_system(rng, dim)
    rots = random_rotations(rng, sys.spectrum_c)
    u = dynamics.energy_preserving_unitary(sys.spectrum_c, rots)
    return sys, u, rots


def _random_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@dataclass
class PropertyResult:
    name: str
    trials: int
    failures: int
    max_dev: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _trials(note: str):
    """The property ``(rng, n) -> (failures, max_dev, note)`` of a trial
    ``(rng, k) -> (deviation, failures)``: k = 0..n-1 in order, the failures
    summed, max_dev the largest deviation from 0.0 (a nan is never kept)."""
    def wrap(trial):
        def prop(rng, n):
            failures, worst = 0, 0.0
            for k in range(n):
                dev, bad = trial(rng, k)
                failures += bad
                worst = max(worst, dev)
            return failures, worst, note
        return prop
    return wrap


@_trials("associativity + bilinearity")
def _prop_kron_algebra(rng, k):
    a, b, c = (_random_complex(rng, side) for side in (2, 3, 2))
    dev = np.max(
        np.abs(linalg.kron(linalg.kron(a, b), c) - linalg.kron(a, linalg.kron(b, c)))
    )
    s, t = rng.standard_normal(2)
    dev = max(
        dev,
        np.max(np.abs(linalg.kron(s * a + t * c, b) - (s * linalg.kron(a, b) + t * linalg.kron(c, b)))),
    )
    return dev, dev >= 1e-12


@_trials("partial trace/transpose identities")
def _prop_partial_ops(rng, k):
    d_c, d_h = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    a, b = _random_complex(rng, d_c), _random_complex(rng, d_h)
    m = linalg.kron(a, b)
    dev = np.max(np.abs(linalg.partial_trace(m, (d_c, d_h), "H") - np.trace(b) * a))
    dev = max(dev, np.max(np.abs(linalg.partial_trace(m, (d_c, d_h), "C") - np.trace(a) * b)))
    pt = linalg.partial_transpose(m, (d_c, d_h), "H")
    dev = max(dev, np.max(np.abs(linalg.partial_transpose(pt, (d_c, d_h), "H") - m)))
    # spectrum of a product state is preserved under partial transposition
    rho = a @ a.conj().T
    sig = b @ b.conj().T
    rho /= np.trace(rho).real
    sig /= np.trace(sig).real
    prod = linalg.kron(rho, sig)
    ev1 = linalg.hermitian_eigenvalues(prod)
    ev2 = linalg.hermitian_eigenvalues(linalg.partial_transpose(prod, (d_c, d_h), "H"))
    dev = max(dev, np.max(np.abs(ev1 - ev2)))
    return dev, dev >= 1e-10


@_trials("unitarity, commutation, manifold confinement")
def _prop_unitarity(rng, k):
    dim = int(rng.integers(2, 5))
    sys, u, rots = random_system_and_unitary(rng, dim if dim <= 3 else 4)
    mat = u.matrix
    dev = linalg.spectral_norm(mat @ mat.conj().T - np.eye(mat.shape[0]))
    dev = max(dev, u.commutator_norm)
    dev = max(dev, abs(linalg.spectral_norm(mat) - 1.0))
    # identity outside the declared manifolds
    d = sys.d_c
    mask = np.eye(d * d, dtype=bool)
    for rot in rots:
        a, b = rot.level_pair[0] * d + rot.level_pair[1], rot.level_pair[1] * d + rot.level_pair[0]
        mask[a, a] = mask[b, b] = mask[a, b] = mask[b, a] = False
    off = np.abs(mat - np.eye(d * d))[mask].max()
    dev = max(dev, off)
    return dev, dev >= 1e-10


@_trials("constructed states stay thermal and positive")
def _prop_state_validity(rng, k):
    if k % 2 == 0:
        sys, _ = random_two_qubit_system(rng)
    else:
        sys, _ = random_two_qutrit_system(rng)
    target_c = states.thermal_populations(sys.spectrum_c, sys.beta_c)
    target_h = states.thermal_populations(sys.spectrum_h, sys.beta_h)
    dev = np.max(np.abs(np.diag(sys.marginal_c()).real - target_c))
    dev = max(dev, np.max(np.abs(np.diag(sys.marginal_h()).real - target_h)))
    dev = max(dev, abs(np.trace(sys.rho).real - 1.0))
    dev = max(dev, max(0.0, -float(np.linalg.eigvalsh(sys.rho)[0])))
    return dev, dev >= 1e-9


@_trials("dephasing idempotent, marginal-preserving")
def _prop_dephase(rng, k):
    sys, _ = random_two_qutrit_system(rng)
    deph = states.dephase(sys)
    twice = states.dephase(deph)
    dev = np.max(np.abs(twice.rho - deph.rho))
    dims = sys.dims
    for which in ("C", "H"):
        lhs = linalg.partial_trace(deph.rho, dims, which)
        rhs = linalg.partial_trace(sys.rho, dims, which)
        # local spectra are nondegenerate, so dephasing the joint state
        # cannot move the marginals
        dev = max(dev, np.max(np.abs(lhs - rhs)))
    return dev, dev >= 1e-12


@_trials("both marginal identities")
def _prop_mh_marginals(rng, k):
    sys, u, _ = random_system_and_unitary(rng, 2 if k % 2 == 0 else 3)
    mh = fluctuations.mh_distribution(sys, u)
    dev = fluctuations.marginal_check(mh, sys, u)
    tpm = fluctuations.tpm_distribution(sys, u)
    dev = max(dev, fluctuations.marginal_check(tpm, sys, u))
    return dev, dev >= 1e-10


def _prop_table_norm_range(rng, n):
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


@_trials("table heat = operator heat; Q = Qback - Qdirect")
def _prop_heat_identities(rng, k):
    sys, u, _ = random_system_and_unitary(rng, 2 if k % 2 == 0 else 3)
    mh = fluctuations.mh_distribution(sys, u)
    tpm = fluctuations.tpm_distribution(sys, u)
    q = fluctuations.average_heat(sys, u)
    dev = abs(fluctuations.table_heat(mh) - q)
    diag = sys.with_rho(np.diag(np.diag(sys.rho)))
    dev = max(dev, abs(fluctuations.table_heat(tpm) - fluctuations.average_heat(diag, u)))
    rep = fluctuations.flow_decomposition(mh)
    dev = max(dev, abs(rep.q_back - rep.q_direct - rep.q))
    return dev, dev >= 1e-10


@_trials("MH = TPM on dephased states")
def _prop_mh_tpm_dephased(rng, k):
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


@_trials("exchange entries, Q, Q_TPM vs matrix route")
def _prop_two_qubit_closed_forms(rng, k):
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
            - fluctuations.average_heat(sys, u)
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


@_trials("manifold closed forms, d = 3 and 4")
def _prop_qudit_closed_forms(rng, k):
    if k % 2 == 0:
        sys, _ = random_two_qutrit_system(rng)
    else:
        sys = random_qudit_system(rng, 4)
    rots = random_rotations(rng, sys.spectrum_c)
    u = dynamics.energy_preserving_unitary(sys.spectrum_c, rots)
    mh = fluctuations.mh_distribution(sys, u)
    tpm = fluctuations.tpm_distribution(sys, u)
    dev = 0.0
    for key, val in fluctuations.exchange_manifold_pw(sys, rots).items():
        dev = max(dev, abs(val - mh.entry(*key)))
    for key, val in fluctuations.exchange_manifold_tpm(sys, rots).items():
        dev = max(dev, abs(val - tpm.entry(*key)))
    return dev, dev >= 1e-12


@_trials("<e^{dI+dB dE}> = 1 + chi_bar")
def _prop_xft_identity(rng, k):
    sys, u, _ = random_system_and_unitary(rng, 2 if k % 2 == 0 else 3)
    mh = fluctuations.mh_distribution(sys, u)
    rep = fluctuations.xft_average(mh, sys).with_chi(
        fluctuations.xft_coherence_term(sys, u)
    )
    dev = rep.identity_gap() if rep.resonance_ok else np.inf
    return dev, dev >= 1e-8


@_trials("1 + J = <e^{dB dE}>; J <= ||c|| + ||q||")
def _prop_j_identity(rng, k):
    sys, u, _ = random_system_and_unitary(rng, 2 if k % 2 == 0 else 3)
    mh = fluctuations.mh_distribution(sys, u)
    corr = fluctuations.heat_exp_correction(sys, u)
    dbeta = sys.beta_c - sys.beta_h
    direct = float((mh.values * np.exp(dbeta * mh.delta_e_c())).sum())
    dev = abs(1.0 + corr.j - direct)
    return dev, dev >= 1e-10 or corr.j > corr.norm_bound + 1e-10


def _nonneg_instance(rng, dim: int):
    for _ in range(NONNEG_MAX_DRAWS):
        sys, u, rots = random_system_and_unitary(rng, dim)
        mh = fluctuations.mh_distribution(sys, u)
        if mh.min_entry() >= 0.0:
            return sys, u, rots, mh
    raise RuntimeError("could not draw a nonnegative MH instance")


def _prop_witness_soundness(rng, n):
    failures = 0
    worst = 0.0
    per_dim = max(1, n // 2)
    for dim in (2, 3):
        for _ in range(per_dim):
            sys, u, rots, mh = _nonneg_instance(rng, dim)
            tpm = fluctuations.tpm_distribution(sys, u)
            q = fluctuations.table_heat(mh)
            q_tpm = fluctuations.table_heat(tpm)
            bc, bh = sys.beta_c, sys.beta_h
            verdicts = []
            if dim == 2:
                verdicts.append(
                    witnesses.two_qubit_flow_witness(q, q_tpm, bc, bh, commutator_norm=u.commutator_norm)
                )
                verdicts.append(
                    witnesses.nonideal_flow_witness(q, q_tpm, bc, bh, 1.0, 1.0, 0.0)
                )
            rep = fluctuations.xft_average(mh, sys).with_chi(
                fluctuations.xft_coherence_term(sys, u)
            )
            verdicts.append(witnesses.xft_flow_witness(q, rep, bc, bh))
            verdicts.append(
                witnesses.correlation_flow_witness(
                    q, fluctuations.heat_exp_correction(sys, u).j, bc, bh
                )
            )
            verdicts.extend(witnesses.tpm_band_witness(q, tpm))
            verdicts.append(witnesses.strong_backflow_witness(q, bc, bh, dim))
            bad = sum(v.violated for v in verdicts)
            failures += bad
            worst = max(worst, float(bad))
    return failures, worst, "no violation on fully nonnegative MH tables"


def _prop_witness_soundness_nonideal(rng, n):
    failures = 0
    worst = 0.0
    kept = 0
    while kept < n:
        sys, _ = random_two_qubit_system(rng)
        j_hz = rng.uniform(100.0, 400.0)
        t = rng.uniform(0.0, 6e-3)
        jx = rng.uniform(0.0, 60.0)
        u = dynamics.perturbed_xy_unitary(j_hz, jx, t)
        mh = fluctuations.mh_distribution(sys, u)
        if mh.min_entry() < 0.0:
            continue
        kept += 1
        tpm = fluctuations.tpm_distribution(sys, u)
        q = fluctuations.table_heat(mh)
        q_tpm = fluctuations.table_heat(tpm)
        v2 = witnesses.nonideal_flow_witness(
            q, q_tpm, sys.beta_c, sys.beta_h, 1.0, 1.0, u.epsilon
        )
        failures += v2.violated
        try:
            rep = fluctuations.xft_average(mh, sys).with_chi(
                fluctuations.xft_coherence_term(sys, u)
            )
            v3 = witnesses.xft_flow_witness(
                q, rep, sys.beta_c, sys.beta_h,
                epsilon_work=rep.max_energy_mismatch,
            )
            failures += v3.violated
        except fluctuations.DivergenceError:
            pass
        worst = max(worst, float(failures))
    return failures, worst, "perturbed dynamics: T2 / nonideal T3 stay sound"


def _prop_t1_violation_implies_strong_flow(rng, n):
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


def _prop_tpm_no_backflow(rng, n):
    failures = 0
    worst = -np.inf
    for _ in range(n):
        sys, params = random_two_qubit_system(rng, coherent=False)
        theta = rng.uniform(0.0, np.pi)
        u = dynamics.two_qubit_exchange_unitary(theta)
        q_tpm = fluctuations.table_heat(fluctuations.tpm_distribution(sys, u))
        q = fluctuations.average_heat(sys, u)
        worst = max(worst, q_tpm)
        failures += q_tpm > 1e-12 or abs(q - q_tpm) > 1e-12
    return failures, worst, "Q_tpm <= 0 and Q(eta=0) = Q_tpm"


def _prop_all_negative_direction(rng, n):
    failures = 0
    checked = 0
    for _ in range(n):
        sys, _ = random_two_qutrit_system(rng)
        d = sys.d_c
        pops = sys.populations()
        # pick each angle so the coherence term defeats the population term
        rots = []
        ok = True
        for pair in ((0, 1), (0, 2), (1, 2)):
            a, b = pair[0] * d + pair[1], pair[1] * d + pair[0]
            coh = abs(sys.rho[a, b])
            if coh < 1e-6:
                ok = False
                break
            xi = float(np.angle(sys.rho[a, b]))
            limit = np.arctan(coh / max(pops[a], 1e-12))
            rots.append(
                ManifoldRotation(pair, theta=np.pi - 0.5 * limit, phi=0.0, lam=-xi)
            )
        if not ok:
            continue
        u = dynamics.energy_preserving_unitary(sys.spectrum_c, rots)
        mh = fluctuations.mh_distribution(sys, u)
        exch = [
            mh.entry(n_, m_, m_, n_)
            for (n_, m_) in ((0, 1), (0, 2), (1, 2))
        ]
        if not all(v < 0.0 for v in exch):
            continue
        checked += 1
        q = fluctuations.table_heat(mh)
        q_tpm = fluctuations.table_heat(fluctuations.tpm_distribution(sys, u))
        failures += not abs(q) > abs(q_tpm)
    note = f"all-negative direction => |Q| > |Q_tpm| ({checked} instances)"
    if checked == 0:
        failures += 1
        note += " [generator produced none]"
    return failures, float(checked), note


@_trials("max |Q - Q_tpm| attained at quarter rotations")
def _prop_delta_q_max(rng, k):
    sys, _ = random_two_qutrit_system(rng)
    target = fluctuations.max_heat_coherence_shift(sys)
    # phases tuned so cos(xi + phi + lam) = 1, theta = pi/4 on all manifolds
    rots = []
    for pair in ((0, 1), (0, 2), (1, 2)):
        a, b = pair[0] * 3 + pair[1], pair[1] * 3 + pair[0]
        xi = float(np.angle(sys.rho[a, b]))
        rots.append(ManifoldRotation(pair, theta=np.pi / 4.0, phi=0.0, lam=-xi))
    u = dynamics.energy_preserving_unitary(sys.spectrum_c, rots)
    q = fluctuations.average_heat(sys, u)
    q_tpm = fluctuations.table_heat(fluctuations.tpm_distribution(sys, u))
    dev = abs(abs(q - q_tpm) - target)
    return dev, dev >= 1e-12


@_trials("reconstruction exact for eps in {0.05, 0.2, pi/4}")
def _prop_probe_exactness(rng, k):
    dim = 2 if k % 2 == 0 else 3
    sys, u, _ = random_system_and_unitary(rng, dim)
    mh = fluctuations.mh_distribution(sys, u)
    i_c = int(rng.integers(0, sys.d_c))
    i_h = int(rng.integers(0, sys.d_h))
    failures, worst = 0, 0.0
    recs = []
    for eps in (0.05, 0.2, np.pi / 4.0):
        stats = probe.probe_statistics(sys, u, (i_c, i_h), eps)
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


@_trials("smaller coupling disturbs less")
def _prop_probe_disturbance(rng, k):
    sys, _ = random_two_qubit_system(rng)
    idx = int(rng.integers(0, 4))
    pi_op = np.zeros((4, 4), dtype=complex)
    pi_op[idx, idx] = 1.0
    flip = 2.0 * pi_op - np.eye(4)
    failures = 0
    prev = np.inf
    for eps in (0.6, 0.3, 0.1, 0.02):
        post = np.cos(eps) ** 2 * sys.rho + np.sin(eps) ** 2 * (flip @ sys.rho @ flip)
        tdist = 0.5 * float(np.abs(linalg.hermitian_eigenvalues(sys.rho - post)).sum())
        failures += tdist > prev + 1e-15
        prev = tdist
    return prev, failures


def _prop_probe_sampling(rng, n):
    failures = 0
    worst = 0.0
    trials = max(1, min(n, 20))
    for _ in range(trials):
        sys, u, _ = random_system_and_unitary(rng, 2)
        stats = probe.probe_statistics(sys, u, (0, 1), 0.2)
        seed = int(rng.integers(0, 2**31))
        s1 = probe.sampled_reconstruction(stats, 10**5, seed)
        s2 = probe.sampled_reconstruction(stats, 10**5, seed)
        failures += not (
            np.array_equal(s1.values, s2.values) and np.array_equal(s1.stderr, s2.stderr)
        )
        exact = probe.reconstruct_quasiprobability(stats)
        dev = np.abs(s1.values - exact)
        failures += not bool((dev <= 5.0 * s1.stderr + 1e-12).all())
        worst = max(worst, float(np.max(dev / np.maximum(s1.stderr, 1e-15))))
    return failures, worst, "deterministic seeding; 5-sigma agreement at 1e5 shots"


@_trials("PSD holds iff P00 bounds and eta cap hold")
def _prop_p00_bounds(rng, k):
    beta_h = rng.uniform(0.1, 1.2)
    beta_c = beta_h + rng.uniform(0.1, 1.5)
    base = states.TwoQubitParams(beta_c, beta_h, 0.0)
    lo, hi = base.p00_bounds()
    inside = lo + rng.uniform(0.0, 1.0) * (hi - lo)
    states.two_qubit_state(states.TwoQubitParams(beta_c, beta_h, inside))
    failures = 0
    outside_hi = hi + max(1e-6, 0.05 * (hi - lo))
    try:
        states.two_qubit_state(states.TwoQubitParams(beta_c, beta_h, outside_hi))
        failures += 1
    except states.InfeasibleStateError:
        pass
    params = states.TwoQubitParams(beta_c, beta_h, inside)
    cap = params.eta_cap()
    try:
        states.two_qubit_state(
            states.TwoQubitParams(beta_c, beta_h, inside, eta=cap * 1.05 + 1e-6)
        )
        failures += 1
    except states.InfeasibleStateError:
        pass
    # boundary eta is PSD up to tolerance
    sys = states.two_qubit_state(states.TwoQubitParams(beta_c, beta_h, inside, eta=cap))
    return max(0.0, -float(np.linalg.eigvalsh(sys.rho)[0])), failures


@_trials("threshold log(d)/dBeta behaves")
def _prop_strong_backflow(rng, k):
    beta_h = rng.uniform(0.1, 1.0)
    beta_c = beta_h + rng.uniform(0.1, 1.0)
    d = int(rng.integers(2, 5))
    threshold = np.log(d) / (beta_c - beta_h)
    above = witnesses.strong_backflow_witness(threshold * 1.001, beta_c, beta_h, d)
    below = witnesses.strong_backflow_witness(threshold * 0.999, beta_c, beta_h, d)
    zero = witnesses.strong_backflow_witness(0.0, beta_c, beta_h, d)
    return 0.0, (not above.violated) + below.violated + zero.violated


PROPERTIES = {
    "kron-algebra": _prop_kron_algebra,
    "partial-ops": _prop_partial_ops,
    "unitarity": _prop_unitarity,
    "state-validity": _prop_state_validity,
    "dephase": _prop_dephase,
    "mh-marginals": _prop_mh_marginals,
    "table-norm-range": _prop_table_norm_range,
    "heat-identities": _prop_heat_identities,
    "mh-tpm-dephased": _prop_mh_tpm_dephased,
    "two-qubit-closed-forms": _prop_two_qubit_closed_forms,
    "qudit-closed-forms": _prop_qudit_closed_forms,
    "xft-identity": _prop_xft_identity,
    "j-identity": _prop_j_identity,
    "witness-soundness": _prop_witness_soundness,
    "witness-soundness-nonideal": _prop_witness_soundness_nonideal,
    "t1-strong-flow": _prop_t1_violation_implies_strong_flow,
    "tpm-no-backflow": _prop_tpm_no_backflow,
    "all-negative-direction": _prop_all_negative_direction,
    "delta-q-max": _prop_delta_q_max,
    "probe-exactness": _prop_probe_exactness,
    "probe-disturbance": _prop_probe_disturbance,
    "probe-sampling": _prop_probe_sampling,
    "p00-bounds": _prop_p00_bounds,
    "strong-backflow-threshold": _prop_strong_backflow,
}

# heavier checks run a reduced number of trials relative to the suite setting
TRIAL_SCALE = {
    "witness-soundness": 0.5,
    "witness-soundness-nonideal": 0.2,
    "qudit-closed-forms": 0.3,
    "probe-exactness": 0.2,
    "probe-sampling": 0.04,
    "delta-q-max": 0.3,
    "all-negative-direction": 0.3,
    "xft-identity": 0.6,
}


def run_property_suite(
    seed: int = 7, n_trials: int = 500, names: list[str] | None = None
) -> list[PropertyResult]:
    """Run the registered properties with deterministic per-property streams."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    selected = names or list(PROPERTIES)
    unknown = [name for name in selected if name not in PROPERTIES]
    if unknown:
        raise ValueError(f"unknown properties: {unknown}")
    root = np.random.SeedSequence(seed)
    streams = root.spawn(len(PROPERTIES))
    order = {name: k for k, name in enumerate(PROPERTIES)}
    results = []
    for name in selected:
        rng = np.random.default_rng(streams[order[name]])
        trials = max(1, int(n_trials * TRIAL_SCALE.get(name, 1.0)))
        failures, max_dev, note = PROPERTIES[name](rng, trials)
        results.append(
            PropertyResult(name=name, trials=trials, failures=int(failures), max_dev=float(max_dev), note=note)
        )
    return results
