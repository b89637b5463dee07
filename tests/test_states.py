import numpy as np
import pytest

import reference
from qheatflow import states
from qheatflow.linalg import kron, partial_trace
from qheatflow.properties import random_two_qubit_system, random_two_qutrit_system
from qheatflow.states import (
    EIGVALSH_MAX_SIDE,
    PSD_TOL,
    BipartiteSystem,
    EnergySpectrum,
    InfeasibleStateError,
    QutritStateParams,
    TwoQubitParams,
    dephase,
    gamma_correlated_state,
    gamma_rows,
    min_partial_transpose_eigenvalue,
    qudit_locally_thermal,
    thermal_populations,
    thermal_state,
    two_qubit_rows,
    two_qubit_state,
    two_qutrit_rows,
    two_qutrit_state,
    _min_eigenvalue_bound,
)

BC, BH = 1.13, 0.9618  # the resonant-pair working point used throughout


# ---------------------------------------------------------------------------
# spectra and thermal states
# ---------------------------------------------------------------------------

def test_spectrum_validation():
    with pytest.raises(ValueError):
        EnergySpectrum((0.1, 1.0))  # ground level must be 0
    with pytest.raises(ValueError):
        EnergySpectrum((0.0, 1.0, 0.5))  # not ascending
    spec = EnergySpectrum((0.0, 1.0, 1.15))
    assert spec.bohr_nondegenerate()
    assert not EnergySpectrum((0.0, 1.0, 2.0)).bohr_nondegenerate()
    assert type(spec.bohr_nondegenerate()) is bool  # one spectrum: a Python bool, as before rows were taken


def test_one_states_partition_values_bounds_and_cap_are_python_floats():
    params = TwoQubitParams(BC, BH, 0.5)
    values = (*params.partition_values(), *params.p00_bounds(), params.eta_cap())
    assert [type(v) for v in values] == [float] * 5
    rows = TwoQubitParams(np.array([BC, 1.4]), np.array([BH, 0.5]), np.array([0.5, 0.4]))
    assert [v.shape for v in (*rows.partition_values(), *rows.p00_bounds(), rows.eta_cap())] == [(2,)] * 5


def test_thermal_state_infinite_temperature():
    spec = EnergySpectrum((0.0, 0.7, 1.9))
    assert np.allclose(thermal_state(spec, 0.0), np.eye(3) / 3)


def test_thermal_state_ground_state_limit():
    spec = EnergySpectrum.two_level()
    assert np.allclose(thermal_state(spec, 1e6), np.diag([1.0, 0.0]))


def test_thermal_state_gibbs_value():
    z = 1.0 + np.exp(-1.13)
    got = thermal_state(EnergySpectrum.two_level(), 1.13)
    assert np.allclose(got, np.diag([1.0 / z, np.exp(-1.13) / z]), atol=1e-15)


def test_gibbs_populations_past_the_overflow_of_exp():
    # -beta E_max = 800 and 1e6: e^x overflows, so the largest weight is divided out
    spec = EnergySpectrum((0.0, 0.5, 1.0))
    for beta in (-800.0, -1e6):
        p = thermal_populations(spec, beta)
        assert p.tolist() == [np.exp(beta), np.exp(0.5 * beta), 1.0]
    # below the shift every population is the plain e^(-beta E) / Z, bit for bit
    for beta in (-699.9, -1.0, 0.0, 1.13, 800.0):
        w = np.exp(-beta * np.array(spec.levels))
        assert thermal_populations(spec, beta).tobytes() == (w / np.add.reduce(w)).tobytes()


# ---------------------------------------------------------------------------
# two-qubit family
# ---------------------------------------------------------------------------

def test_two_qubit_product_case():
    z_c = 1.0 + np.exp(-BC)
    z_h = 1.0 + np.exp(-BH)
    sys = two_qubit_state(TwoQubitParams(BC, BH, p00=1.0 / (z_c * z_h)))
    spec = EnergySpectrum.two_level()
    product = kron(thermal_state(spec, BC), thermal_state(spec, BH))
    assert np.max(np.abs(sys.rho - product)) < 1e-14


def test_two_qubit_bound_violations_name_the_constraint():
    params = TwoQubitParams(BC, BH, p00=0.9)
    with pytest.raises(InfeasibleStateError) as err:
        two_qubit_state(params)
    assert err.value.constraint == "p00_upper"
    with pytest.raises(InfeasibleStateError) as err:
        two_qubit_state(TwoQubitParams(BC, BH, p00=0.05))
    assert err.value.constraint == "p00_lower"
    good = TwoQubitParams(BC, BH, p00=0.547)
    with pytest.raises(InfeasibleStateError) as err:
        two_qubit_state(TwoQubitParams(BC, BH, 0.547, eta=good.eta_cap() + 1e-3))
    assert err.value.constraint == "eta_cap"


def test_two_qubit_maximal_eta_hits_psd_boundary():
    params = TwoQubitParams(BC, BH, p00=0.547)
    sys = two_qubit_state(TwoQubitParams(BC, BH, 0.547, eta=params.eta_cap()))
    block = sys.rho[1:3, 1:3]
    evals = np.linalg.eigvalsh(block)
    assert abs(evals[0]) < 1e-12  # zero eigenvalue in the coherence block


def test_experiment_mapping_matches_gamma_state():
    z_c = 1.0 + np.exp(-BC)
    z_h = 1.0 + np.exp(-BH)
    via_params = two_qubit_state(
        TwoQubitParams(BC, BH, p00=1.0 / (z_c * z_h), eta=-0.19, xi=0.0)
    )
    via_gamma = gamma_correlated_state(-0.19, BC, BH)
    assert np.max(np.abs(via_params.rho - via_gamma.rho)) < 1e-14


def test_gamma_state_marginals_independent_of_gamma():
    base = gamma_correlated_state(0.0, BC, BH)
    corr = gamma_correlated_state(-0.19, BC, BH)
    assert np.max(np.abs(base.marginal_c() - corr.marginal_c())) == 0.0
    assert np.max(np.abs(base.marginal_h() - corr.marginal_h())) == 0.0


def test_gamma_state_complex_coherence_placement():
    gamma = 0.05 + 0.02j
    sys = gamma_correlated_state(gamma, BC, BH)
    assert sys.rho[2, 1] == pytest.approx(gamma)
    assert sys.rho[1, 2] == pytest.approx(np.conj(gamma))


def test_gamma_state_rejects_too_large_gamma():
    with pytest.raises(InfeasibleStateError) as err:
        gamma_correlated_state(-0.5, BC, BH)
    assert err.value.constraint == "psd"


QUTRIT = dict(beta_c=1.3, beta_h=0.3, e1=1.0, e2=1.15, rho_0=0.3, rho_5=0.03, rho_7=0.07, rho_8=0.06)
QUTRIT_FREE = {0: 0.3, 5: 0.03, 7: 0.07, 8: 0.06}
# each constraint through its public constructor, with the message it has always had
CONSTRAINT_MESSAGES = [
    (two_qubit_state, (TwoQubitParams(BC, BH, 0.75),), "p00_upper", "P00 = 0.75 exceeds upper bound 0.7234820503338535"),
    (two_qubit_state, (TwoQubitParams(BC, BH, 1, eta=0.3),), "p00_upper", "P00 = 1 exceeds upper bound 0.7234820503338535"),
    (two_qubit_state, (TwoQubitParams(BC, BH, 0.4),), "p00_lower", "P00 = 0.4 below lower bound 0.47932094942865056"),
    (two_qubit_state, (TwoQubitParams(BC, BH, 0.6, eta=-0.2),), "eta_cap", "|eta| = 0.2 exceeds cap 0.13872024647468031"),
    (two_qubit_state, (TwoQubitParams(BC, BH, 0.9, gap=-1),), "p00_upper", "P00 = 0.9 exceeds upper bound 0.24416110090520296"),
    (two_qutrit_state, (QutritStateParams(**{**QUTRIT, "rho_7": 0.14}),), "population_6", "implied population rho_6 = -5.018e-02 < 0"),
    (two_qutrit_state, (QutritStateParams(**{**QUTRIT, "eta_26": 1.2}),), "eta_02", "eta for manifold (0,2) must lie in [0, 1]"),
    (two_qutrit_state, (QutritStateParams(**{**QUTRIT, "eta_57": -0.1}),), "eta_12", "eta for manifold (1,2) must lie in [0, 1]"),
    (qudit_locally_thermal, (EnergySpectrum((0.0, 1.0, 2.0)), 1.0, 0.5, QUTRIT_FREE), "bohr_degenerate", "spectrum has degenerate gaps"),
    (qudit_locally_thermal, (EnergySpectrum((0.0, 1.0, 1.15)), 1.3, 0.3, QUTRIT_FREE, {(1, 0): 1.5}), "eta_01", "eta for manifold (0,1) must lie in [0, 1]"),
    (gamma_correlated_state, (-0.5, BC, BH), "psd", "min eigenvalue -3.074e-01"),
]


@pytest.mark.parametrize("build, args, constraint, message", CONSTRAINT_MESSAGES, ids=[c[2] for c in CONSTRAINT_MESSAGES])
def test_each_constraint_keeps_its_name_and_message(build, args, constraint, message):
    with pytest.raises(InfeasibleStateError) as err:
        build(*args)
    assert (err.value.constraint, str(err.value)) == (constraint, message)


@pytest.mark.parametrize("build, args, message", [
    (two_qubit_state, (TwoQubitParams(BC, BH, 0.2, gap=-1),), "levels must be strictly ascending, got (0.0, -1.0)"),
    (two_qutrit_state, (QutritStateParams(**{**QUTRIT, "e2": 0.5}),), "levels must be strictly ascending, got (0.0, 1.0, 0.5)"),
    (gamma_correlated_state, (-0.1, BC, BH, 0), "levels must be strictly ascending, got (0.0, 0.0)"),
    (gamma_correlated_state, (-0.1, BC, BH, 1.0, -0.5), "levels must be strictly ascending, got (0.0, -0.5)"),
])
def test_a_spectrum_that_does_not_ascend_is_a_value_error(build, args, message):
    with pytest.raises(ValueError) as err:
        build(*args)
    assert type(err.value) is ValueError and str(err.value) == message


def test_a_column_mixing_failures_gives_each_row_its_first_failure():
    cap = TwoQubitParams(BC, BH, 0.6).eta_cap()
    rows = [(0.6, 0.0, None), (0.75, 0.0, "p00_upper"), (0.4, 0.0, "p00_lower"), (0.6, 0.2, "eta_cap"),
            (0.75, 0.5, "p00_upper"), (0.4, 0.5, "p00_lower"), (0.6, cap, None), (0.6, -0.2, "eta_cap")]
    p00, eta, want = zip(*rows)
    n = len(rows)
    errors, stack = two_qubit_rows(TwoQubitParams(np.full(n, BC), np.full(n, BH), np.array(p00), np.array(eta), np.zeros(n), np.ones(n)))
    assert [error and error.constraint for error in errors] == list(want)
    for k, (p, e, constraint) in enumerate(rows):
        if constraint is None:
            assert stack.rho[k].tobytes() == two_qubit_state(TwoQubitParams(BC, BH, p, e)).rho.tobytes()
        else:
            with pytest.raises(InfeasibleStateError) as alone:
                two_qubit_state(TwoQubitParams(BC, BH, p, e))
            assert str(alone.value) == str(errors[k])
    # a population before an eta, an eta before the stack's own checks
    fields = {key: np.full(4, value) for key, value in vars(QutritStateParams(**QUTRIT)).items()}
    fields.update(rho_7=np.array([0.07, 0.14, 0.14, 0.07]), eta_26=np.array([0.5, 1.2, 0.5, 1.2]))
    errors, _ = two_qutrit_rows(QutritStateParams(**fields))
    assert [error and error.constraint for error in errors] == [None, "population_6", "population_6", "eta_02"]
    errors, _ = gamma_rows(np.array([-0.1, -0.5]), np.full(2, BC), np.full(2, BH), np.ones(2), np.ones(2))
    assert [error and error.constraint for error in errors] == [None, "psd"]


@pytest.mark.parametrize("build, args", [(build, args) for build, args, constraint, _ in CONSTRAINT_MESSAGES if constraint != "psd"])
def test_a_parameter_failure_raises_before_any_state_is_built(monkeypatch, build, args):
    checked = []
    monkeypatch.setattr(states, "validate_stack", lambda *a: checked.append(a))
    with pytest.raises(InfeasibleStateError):
        build(*args)
    assert checked == []


# ---------------------------------------------------------------------------
# qutrit and qudit families
# ---------------------------------------------------------------------------

FIG_QUTRIT = QutritStateParams(
    beta_c=1.3, beta_h=0.3, e1=1.0, e2=1.15,
    rho_0=0.3, rho_5=0.03, rho_7=0.07, rho_8=0.06,
    eta_13=1.0, eta_26=1.0, eta_57=1.0,
)


def test_qutrit_reference_point_is_valid():
    sys = two_qutrit_state(FIG_QUTRIT)
    assert np.linalg.eigvalsh(sys.rho)[0] > -1e-12
    assert abs(np.trace(sys.rho) - 1.0) < 1e-12


def test_qutrit_product_case():
    spec = EnergySpectrum((0.0, 1.0, 1.15))
    c = thermal_populations(spec, 1.3)
    h = thermal_populations(spec, 0.3)
    prod = np.outer(c, h).ravel()
    params = QutritStateParams(
        beta_c=1.3, beta_h=0.3, e1=1.0, e2=1.15,
        rho_0=prod[0], rho_5=prod[5], rho_7=prod[7], rho_8=prod[8],
    )
    sys = two_qutrit_state(params)
    assert np.max(np.abs(sys.rho - np.diag(prod.astype(complex)))) < 1e-14


def test_qutrit_population_solver_vs_linear_system_oracle():
    """Least-squares solve of all six marginal equations, independently."""
    sys = two_qutrit_state(FIG_QUTRIT)
    spec = FIG_QUTRIT.spectrum()
    c = thermal_populations(spec, 1.3)
    h = thermal_populations(spec, 0.3)
    free = {0: 0.3, 5: 0.03, 7: 0.07, 8: 0.06}
    solved_idx = [1, 2, 3, 4, 6]
    a = np.zeros((6, 5))
    b = np.zeros(6)
    for n in range(3):  # row sums
        b[n] = c[n] - sum(v for k, v in free.items() if k // 3 == n)
        for j, idx in enumerate(solved_idx):
            a[n, j] = 1.0 if idx // 3 == n else 0.0
    for m in range(3):  # column sums
        b[3 + m] = h[m] - sum(v for k, v in free.items() if k % 3 == m)
        for j, idx in enumerate(solved_idx):
            a[3 + m, j] = 1.0 if idx % 3 == m else 0.0
    x, residual, *_ = np.linalg.lstsq(a, b, rcond=None)
    pops = sys.populations()
    assert np.max(np.abs(pops[solved_idx] - x)) < 1e-12


def test_qutrit_infeasible_reports_population_index():
    params = QutritStateParams(
        beta_c=1.3, beta_h=0.3, e1=1.0, e2=1.15,
        rho_0=0.3, rho_5=0.03, rho_7=0.14, rho_8=0.06,
    )
    with pytest.raises(InfeasibleStateError) as err:
        two_qutrit_state(params)
    assert err.value.constraint.startswith("population_")


def test_qudit_reduces_to_two_qubit():
    params = TwoQubitParams(BC, BH, p00=0.56, eta=0.05, xi=0.4)
    direct = two_qubit_state(params)
    pops = direct.populations()
    rel_eta = 0.05 / np.sqrt(pops[1] * pops[2])
    via_general = qudit_locally_thermal(
        EnergySpectrum.two_level(), BC, BH,
        free_populations={0: 0.56},
        eta_map={(0, 1): rel_eta},
        xi_map={(0, 1): 0.4},
    )
    assert np.max(np.abs(via_general.rho - direct.rho)) < 1e-12


def test_qudit_reduces_to_two_qutrit():
    direct = two_qutrit_state(FIG_QUTRIT)
    via_general = qudit_locally_thermal(
        FIG_QUTRIT.spectrum(), 1.3, 0.3,
        free_populations={0: 0.3, 5: 0.03, 7: 0.07, 8: 0.06},
        eta_map={(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0},
    )
    assert np.max(np.abs(via_general.rho - direct.rho)) < 1e-12


def test_qudit_rejects_degenerate_bohr_spectrum():
    with pytest.raises(InfeasibleStateError) as err:
        qudit_locally_thermal(
            EnergySpectrum((0.0, 1.0, 2.0)), 1.0, 0.5,
            free_populations={0: 0.2, 5: 0.05, 7: 0.05, 8: 0.05},
        )
    assert err.value.constraint == "bohr_degenerate"


def test_qudit_dephased_state_is_diagonal():
    via_general = qudit_locally_thermal(
        FIG_QUTRIT.spectrum(), 1.3, 0.3,
        free_populations={0: 0.3, 5: 0.03, 7: 0.07, 8: 0.06},
    )
    assert np.max(np.abs(via_general.rho - np.diag(np.diag(via_general.rho)))) == 0.0
    deph = dephase(via_general)
    assert np.max(np.abs(deph.rho - via_general.rho)) == 0.0



def _outcome(build, *args):
    """The rho a constructor builds, or the constraint it raises."""
    try:
        return build(*args).rho
    except InfeasibleStateError as exc:
        return exc.constraint


def test_two_qutrit_state_equals_the_five_equation_reference_bit_for_bit():
    rng = np.random.default_rng(19)
    for _ in range(300):
        _, params = random_two_qutrit_system(rng)
        assert two_qutrit_state(params).rho.tobytes() == reference.two_qutrit_state(params).rho.tobytes()
    # wider draws, infeasible ones among them: the same rho or the same first failed check
    outcomes = set()
    for _ in range(300):
        e1 = rng.uniform(0.7, 1.3)
        spec = EnergySpectrum((0.0, e1, e1 + rng.uniform(0.2, 0.8)))
        beta_h = rng.uniform(0.1, 0.8)
        beta_c = beta_h + rng.uniform(0.2, 1.0)
        prod = np.outer(thermal_populations(spec, beta_c), thermal_populations(spec, beta_h)).ravel()
        free = prod[[0, 5, 7, 8]] * rng.uniform(0.3, 1.7, size=4)
        params = QutritStateParams(beta_c, beta_h, *spec.levels[1:], *free, *rng.uniform(0.0, 1.02, size=3), *rng.uniform(0.0, 6.3, size=3))
        got, want = _outcome(two_qutrit_state, params), _outcome(reference.two_qutrit_state, params)
        outcomes.add(got if isinstance(got, str) else "ok")
        assert got == want if isinstance(want, str) else got.tobytes() == want.tobytes()
    assert "ok" in outcomes and len(outcomes) >= 4


GOLOMB = {  # rulers whose marks have pairwise distinct differences: Bohr-nondegenerate levels
    4: (0, 1, 4, 6),
    8: (0, 1, 4, 9, 15, 22, 32, 34),
    12: (0, 2, 6, 24, 29, 40, 43, 55, 68, 75, 76, 85),
    16: (0, 1, 4, 11, 26, 32, 56, 68, 76, 115, 117, 134, 150, 163, 168, 177),
}


@pytest.mark.parametrize("d", sorted(GOLOMB))
def test_qudit_populations_match_the_linear_solve(d):
    """Populations within 1e-15 of ``np.linalg.solve`` on the assembled
    system, and the same draws feasible, at jitters that keep every draw
    feasible and ones that do not."""
    spec = EnergySpectrum(tuple(4.0 * m / GOLOMB[d][-1] for m in GOLOMB[d]))
    c, h = thermal_populations(spec, 1.2), thermal_populations(spec, 0.5)
    keys = [0] + [n * d + m for n in range(1, d) for m in range(1, d) if (n, m) != (1, 1)]
    pairs = [(n, m) for n in range(d) for m in range(n + 1, d)]
    rng = np.random.default_rng(d)
    feasible = []
    for draw in range(24):
        jitter = 0.05 if draw % 2 else 0.6
        free = {k: c[k // d] * h[k % d] * rng.uniform(1.0 - jitter, 1.0 + jitter) for k in keys}
        eta, xi = dict(zip(pairs, rng.uniform(0.2, 0.95, len(pairs)))), dict(zip(pairs, rng.uniform(0.0, 6.3, len(pairs))))
        got = _outcome(qudit_locally_thermal, spec, 1.2, 0.5, free, eta, xi)
        want = _outcome(reference.qudit_locally_thermal, spec, 1.2, 0.5, free, eta, xi)
        assert isinstance(got, str) == isinstance(want, str)
        if not isinstance(got, str):
            assert np.abs(got.diagonal() - want.diagonal()).max() <= 1e-15
            assert np.abs(got - want).max() <= 1e-15
        feasible.append(not isinstance(got, str))
    assert all(feasible[1::2]) and not all(feasible[::2])

# ---------------------------------------------------------------------------
# dephasing and the partial-transpose check
# ---------------------------------------------------------------------------

def test_dephase_keeps_resonant_coherence():
    sys = gamma_correlated_state(-0.19, BC, BH)
    deph = dephase(sys)
    assert deph.rho[1, 2] == pytest.approx(sys.rho[1, 2])
    assert np.max(np.abs(dephase(deph).rho - deph.rho)) == 0.0


def test_dephase_removes_nonresonant_coherence():
    sys = gamma_correlated_state(-0.05, BC, BH, gap=1.0, gap_h=1.3)
    assert abs(sys.rho[1, 2]) > 0
    deph = dephase(sys)
    assert abs(deph.rho[1, 2]) == 0.0


def test_dephase_commutes_with_partial_trace(rng):
    sys, _ = random_two_qutrit_system(rng)
    deph = dephase(sys)
    for which in ("C", "H"):
        a = partial_trace(deph.rho, sys.dims, which)
        b = partial_trace(sys.rho, sys.dims, which)
        assert np.max(np.abs(a - b)) < 1e-12


def test_min_pt_eigenvalue_experiment_value():
    sys = gamma_correlated_state(-0.19, BC, BH)
    val = min_partial_transpose_eigenvalue(sys)
    assert 0.0009 < val < 0.0019  # separable by the 2x2 criterion


def test_min_pt_eigenvalue_product_state_nonnegative():
    spec = EnergySpectrum.two_level()
    rho = kron(thermal_state(spec, BC), thermal_state(spec, BH))
    sys = BipartiteSystem(spec, spec, rho, BC, BH)
    assert min_partial_transpose_eigenvalue(sys) > -1e-12


def test_min_pt_eigenvalue_bell_state():
    spec = EnergySpectrum.two_level()
    vec = np.zeros(4, dtype=complex)
    vec[1] = vec[2] = 1.0 / np.sqrt(2.0)
    sys = BipartiteSystem(spec, spec, np.outer(vec, vec.conj()))
    assert min_partial_transpose_eigenvalue(sys) == pytest.approx(-0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# random-constructor invariants
# ---------------------------------------------------------------------------

def test_random_constructors_stay_locally_thermal(rng):
    for k in range(40):
        if k % 2 == 0:
            sys, _ = random_two_qubit_system(rng)
        else:
            sys, _ = random_two_qutrit_system(rng)
        c = thermal_populations(sys.spectrum_c, sys.beta_c)
        h = thermal_populations(sys.spectrum_h, sys.beta_h)
        assert np.max(np.abs(np.diag(sys.marginal_c()).real - c)) < 1e-9
        assert np.max(np.abs(np.diag(sys.marginal_h()).real - h)) < 1e-9
        assert np.linalg.eigvalsh(sys.rho)[0] > -1e-10


def test_system_rho_is_immutable():
    sys = gamma_correlated_state(-0.19, BC, BH)
    with pytest.raises(ValueError):
        sys.rho[0, 0] = 0.0


# ---------------------------------------------------------------------------
# the positivity check: a bound first, eigvalsh when it does not decide
# ---------------------------------------------------------------------------

def _state_with_min_eigenvalue(d: int, target: float) -> np.ndarray:
    """A d^2 x d^2 unit-trace matrix, diagonal apart from one exchange-pair
    block whose smaller eigenvalue is ``target``."""
    pops = np.linspace(1.0, 2.0, d * d)
    pops /= pops.sum()
    rho = np.diag(pops).astype(complex)
    a, b = 1, d  # the |0 1>, |1 0> pair
    mean, half = (pops[a] + pops[b]) / 2, (pops[b] - pops[a]) / 2
    c = np.sqrt((mean - target) ** 2 - half**2) * np.exp(0.3j)
    rho[a, b], rho[b, a] = c, np.conj(c)
    return rho


def _spectrum(d: int) -> EnergySpectrum:
    return EnergySpectrum(tuple(np.cumsum([0.0] + [1.0 + 0.1 * k * k for k in range(d - 1)])))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_psd_check_rejects_min_eigenvalue_below_tolerance_with_unchanged_message(d):
    rho = _state_with_min_eigenvalue(d, -2e-10)
    min_eig = np.linalg.eigvalsh(rho)[0]
    assert min_eig < -PSD_TOL
    with pytest.raises(InfeasibleStateError) as err:
        BipartiteSystem(_spectrum(d), _spectrum(d), rho)
    assert err.value.constraint == "psd"
    assert str(err.value) == f"min eigenvalue {min_eig:.3e}"


@pytest.mark.parametrize("d", [2, 3, 5])
def test_psd_check_accepts_min_eigenvalue_within_tolerance(d):
    rho = _state_with_min_eigenvalue(d, -5e-11)
    assert -PSD_TOL < np.linalg.eigvalsh(rho)[0] < 0.0
    assert BipartiteSystem(_spectrum(d), _spectrum(d), rho).rho.tobytes() == rho.tobytes()


def test_psd_bound_settles_states_at_the_eta_cap():
    # eta = 1 on pairs with very unequal populations: the plain Gershgorin
    # bound is far below zero, the scaled one is not, and the state is valid
    d = 5
    spec = _spectrum(d)
    product = np.outer(thermal_populations(spec, 2.0), thermal_populations(spec, 0.1)).ravel()
    free = {k: product[k] for k in [0] + [n * d + m for n in range(1, d) for m in range(1, d)] if k != d + 1}
    eta = {(n, m): 1.0 for n in range(d) for m in range(n + 1, d)}
    sys_ = qudit_locally_thermal(spec, 2.0, 0.1, free, eta, {(0, 1): 0.7})
    rho = sys_.rho
    off = np.abs(np.tril(rho, -1))
    plain = np.min(rho.diagonal().real - off.sum(axis=0) - off.sum(axis=1))
    assert plain < -PSD_TOL
    assert d * d > EIGVALSH_MAX_SIDE and _min_eigenvalue_bound(rho) >= -0.5 * PSD_TOL
    assert np.linalg.eigvalsh(rho)[0] >= -PSD_TOL


def test_psd_check_falls_back_to_eigvalsh_when_the_bound_does_not_decide():
    # a pure state: every row is coupled to all others, so the bound is
    # negative while the smallest eigenvalue is zero up to rounding
    d = 5
    v = np.sqrt(np.linspace(1.0, 3.0, d * d)) * np.exp(1j * np.arange(d * d))
    rho = np.outer(v, v.conj()) / np.vdot(v, v).real
    assert _min_eigenvalue_bound(rho) < -0.5 * PSD_TOL
    assert abs(np.linalg.eigvalsh(rho)[0]) <= PSD_TOL
    assert BipartiteSystem(_spectrum(d), _spectrum(d), rho).rho.tobytes() == rho.tobytes()


@pytest.mark.parametrize("entries, constraint", [([(0, 0)], "trace"), ([(1, 2)], "hermiticity"), ([(1, 2), (2, 1)], "hermiticity")])
def test_a_qubit_pair_with_a_nan_entry_is_rejected(entries, constraint):
    rho = np.eye(4, dtype=complex) / 4
    for entry in entries:
        rho[entry] = np.nan
    with pytest.raises(InfeasibleStateError) as err:
        BipartiteSystem(EnergySpectrum.two_level(), EnergySpectrum.two_level(), rho)
    assert err.value.constraint == constraint


@pytest.mark.parametrize("entry, constraint", [((3, 1), "hermiticity"), ((2, 2), "trace")], ids=["off-diagonal", "diagonal"])
def test_psd_check_of_a_nan_state_fails_as_eigvalsh_does(entry, constraint):
    # a nan fails the trace or hermiticity check before eigvalsh could see it
    rho = np.eye(25, dtype=complex) / 25
    rho[entry] = np.nan
    with pytest.raises(InfeasibleStateError) as err:
        BipartiteSystem(_spectrum(5), _spectrum(5), rho)
    assert err.value.constraint == constraint


def test_min_eigenvalue_bound_is_a_lower_bound():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(1, 30))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m *= rng.random((n, n)) < rng.uniform(0.0, 0.5)  # sparse couplings
        diag = rng.uniform(-0.2, 3.0, n) * (rng.random(n) < 0.9)  # zeros and negatives
        h = np.tril(m, -1)
        h = h + h.conj().T + np.diag(diag)
        if trial % 3 == 0:
            h = h @ h.conj().T  # positive semidefinite
        upper_noise = np.triu(rng.standard_normal((n, n)), 1)  # eigvalsh reads the lower triangle
        assert _min_eigenvalue_bound(h + upper_noise) <= np.linalg.eigvalsh(h)[0] + 1e-9
