"""Parameter sweeps, single-point analysis and CSV emission.

A sweep is a scenario name, fixed parameters, one or two axes and a list
of output columns.  ``run_sweep`` groups the grid cells by the state they
read, builds and validates each distinct state once, and evaluates each
group's unitaries as (n, D, D) stacks.  There is one unitary builder and
one evaluator: ``evaluate_cell`` and ``analyze_point`` run them at n = 1.
The scalar reference that every value is checked against, bit for bit,
lives in the tests.  No cell is dropped: cells whose state construction
fails carry a status code ``infeasible:<constraint>``; witness columns
use the encoding

    1  violated        0  not violated
   -1  witness not applicable or a precondition failed
   -2  evaluation error (divergence)

Scenarios (state kind + unitary kind):
  experiment-time    gamma + xy, resonant and driven by the XY coupling;
                     axis ``t`` (seconds).
  qubit-theta-eta    two-qubit + exchange at fixed P00; axes ``theta``, ``eta``.
  qutrit-theta-grid  two-qutrit + exchange; axes ``theta01``, ``theta02``
                     (theta12 follows theta02 unless set explicitly).
  nonideal-eps-delta gamma + perturbed-xy; axes ``eps`` (unitary distance,
                     sets unitary.Jx) and ``Delta`` (relative detuning).
  custom             state.kind / unitary.kind chosen by keys; axis names
                     are full config keys.
A named scenario accepts the keys of its defaults and axes, ``custom`` every
key its two kinds read; any other key, axis or output raises ConfigError.
"""

from __future__ import annotations

import datetime
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import ConfigError, format_config, integer
# perfbench/tracing.py wraps the scalar witnesses and unitary constructors here; keep them bound.
from .dynamics import (
    UnitaryReport,
    UnitaryStack,
    _xy_perturbation,
    energy_preserving_unitary,
    exchange_unitary_stack,
    perturbed_xy_unitary,
    perturbed_xy_unitary_stack,
    rotation_angles,
    two_qubit_exchange_unitary,
    xy_exchange_unitary,
    xy_unitary_stack,
)
from .fluctuations import (
    DivergenceError,
    TransitionTable,
    flow_decomposition_stack,
    heat_exp_j_stack,
    marginal_check,
    table_heat_stack,
    table_stack,
    transition_csv,
    xft_average_stack,
    xft_coherence_stack,
)
from .probe import probe_statistics, reconstruct_quasiprobability, sampled_reconstruction
from .states import (
    BipartiteSystem,
    EnergySpectrum,
    InfeasibleStateError,
    QutritStateParams,
    TwoQubitParams,
    gamma_correlated_state,
    min_partial_transpose_eigenvalue,
    two_qubit_state,
    two_qutrit_state,
)
from .witnesses import (
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

NEGATIVITY_THRESHOLD = -1e-12
STACK_CELLS = 128  # cells per stacked evaluation; bounds the stacks' memory on any grid

# Config keys each state kind reads (see _build_state for the defaults).
STATE_KEYS: dict[str, tuple[str, ...]] = {
    "gamma": ("state.gamma", "state.beta_C", "state.beta_H", "state.E", "state.E_H"),
    "two-qubit": ("state.beta_C", "state.beta_H", "state.P00", "state.eta", "state.xi", "state.E"),
    "two-qutrit": (
        "state.beta_C", "state.beta_H", "state.E1", "state.E2",
        "state.rho_0", "state.rho_5", "state.rho_7", "state.rho_8",
        "state.eta", "state.eta_13", "state.eta_26", "state.eta_57",
        "state.xi", "state.xi_13", "state.xi_26", "state.xi_57",
    ),
}

# unitary kind -> (config keys it reads, output columns it adds); exchange
# on a qutrit reads the manifold angles in QUTRIT_ANGLES and adds no column
UNITARY_KINDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "exchange": (("unitary.theta", "unitary.kappa", "unitary.lam", "unitary.phi"), ("theta",)),
    "xy": (("unitary.J", "unitary.t"), ("theta",)),
    "perturbed-xy": (("unitary.J", "unitary.Jx", "unitary.t"), ("eps_actual",)),
}
QUTRIT_ANGLES = {(0, 1): "unitary.theta01", (0, 2): "unitary.theta02", (1, 2): "unitary.theta12"}

WITNESS_NAMES = ("t1", "t2", "t3", "i4", "t4_lower", "t4_upper", "strong_backflow")
FLAG_COLUMNS = tuple(f"{w}_violated" for w in WITNESS_NAMES)
CELL_OUTPUTS = (
    "Q", "Q_tpm", "Q_back", "Q_direct", "min_pw", "negativity", "min_pt_eig",
    "chi_bar", "xft_lhs", "avg_delta_I", "j_term",
) + FLAG_COLUMNS + tuple(f"{w}_bound" for w in WITNESS_NAMES)

AXIS_KEYS = tuple(f"sweep.axis{k}.{f}" for k in (1, 2) for f in ("name", "min", "max", "points"))
SWEEP_KEYS = ("scenario", "outputs", *AXIS_KEYS)
PROBE_INT_KEYS = ("probe.i_C", "probe.i_H", "probe.shots", "probe.seed")
PROBE_KEYS = ("probe.eps", *PROBE_INT_KEYS)


@dataclass(frozen=True)
class Scenario:
    """One row of the scenario table; kinds of None are read from the config.

    ``derived`` keys are computed from the key they map to when unset (see
    ``_derive``).  ``columns`` are extra output columns copied from config keys.
    """

    state: str | None
    unitary: str | None
    defaults: dict
    axes: dict[str, str]  # short axis name -> config key
    outputs: tuple[str, ...]  # default output columns
    derived: dict[str, str] = field(default_factory=dict)
    columns: dict[str, str] = field(default_factory=dict)


SCENARIOS: dict[str, Scenario] = {
    "experiment-time": Scenario(
        "gamma", "xy",
        defaults={
            "state.beta_C": 1.13,
            "state.beta_H": 0.9618,
            "state.gamma": -0.19,
            "state.E": 1.0,
            "unitary.J": 215.1,
            "unitary.t": 0.0,
        },
        axes={"t": "unitary.t"},
        outputs=(
            "theta", "Q", "Q_tpm", "min_pw", "negativity",
            "t1_violated", "strong_backflow_violated", "min_pt_eig",
        ),
    ),
    "qubit-theta-eta": Scenario(
        "two-qubit", "exchange",
        defaults={
            "state.beta_C": 1.13,
            "state.beta_H": 0.962,
            "state.P00": 0.547,
            "state.eta": 0.0,
            "state.xi": 0.0,
            "state.E": 1.0,
            "unitary.theta": 0.0,
        },
        axes={"theta": "unitary.theta", "eta": "state.eta", "P00": "state.P00"},
        outputs=("Q", "Q_tpm", "min_pw", "negativity", "t1_violated"),
    ),
    "qutrit-theta-grid": Scenario(
        "two-qutrit", "exchange",
        defaults={
            "state.beta_C": 1.3,
            "state.beta_H": 0.3,
            "state.E1": 1.0,
            "state.E2": 1.15,
            "state.rho_0": 0.3,
            "state.rho_5": 0.03,
            "state.rho_7": 0.07,
            "state.rho_8": 0.06,
            "state.eta": 1.0,
            "state.xi": 0.0,
            "unitary.theta01": 0.0,
            "unitary.theta02": 0.0,
        },
        axes={
            "theta01": "unitary.theta01",
            "theta02": "unitary.theta02",
            "theta12": "unitary.theta12",
            "eta": "state.eta",
        },
        outputs=(
            "Q", "Q_tpm", "min_pw", "negativity",
            "t3_violated", "i4_violated", "t4_lower_violated", "t4_upper_violated",
        ),
        derived={"unitary.theta12": "unitary.theta02"},
    ),
    "nonideal-eps-delta": Scenario(
        "gamma", "perturbed-xy",
        defaults={
            "state.beta_C": 1.13,
            "state.beta_H": 0.9618,
            "state.gamma": -0.19,
            "unitary.J": 220.0,
            "unitary.t": 0.004,
            "eps": 0.0,
            "Delta": 0.0,
        },
        axes={"eps": "eps", "Delta": "Delta"},
        outputs=("Q", "Q_tpm", "eps_actual", "jx", "t2_violated", "negativity"),
        derived={"state.E_H": "Delta", "unitary.Jx": "eps"},
        columns={"jx": "unitary.Jx", "Delta": "Delta"},
    ),
    "custom": Scenario(None, None, {}, {}, ("Q", "Q_tpm", "min_pw", "negativity")),
}


def _require_known(scenario: str, what: str, names, valid, noun: str = "parameter") -> None:
    """Raise ConfigError for the first name not in ``valid``, listing the valid ones."""
    for name in names:
        if name not in valid:
            raise ConfigError(
                f"{what} {name!r} is not a known {noun} of {scenario}; "
                f"valid: {', '.join(sorted(valid))}"
            )


def _kinds(name: str, cfg: dict) -> tuple[str, str]:
    """(state kind, unitary kind) of a config; ``_check_keys`` validates them."""
    scenario = SCENARIOS[name]
    return (
        scenario.state or cfg.get("state.kind", "two-qubit"),
        scenario.unitary or cfg.get("unitary.kind", "exchange"),
    )


def _check_keys(name: str, cfg: dict) -> tuple[dict[str, str], set[str]]:
    """Reject unknown keys in ``cfg``; returns the axes (name -> key) and outputs it may name."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; valid: {', '.join(SCENARIOS)}")
    scenario = SCENARIOS[name]
    state, unitary = _kinds(name, cfg)
    _require_known(name, "state.kind", [state], STATE_KEYS, noun="kind")
    _require_known(name, "unitary.kind", [unitary], UNITARY_KINDS, noun="kind")
    unitary_keys, columns = UNITARY_KINDS[unitary]
    if unitary == "exchange" and state == "two-qutrit":
        unitary_keys, columns = QUTRIT_ANGLES.values(), ()
    valid = {*SWEEP_KEYS, *PROBE_KEYS}
    if scenario.state is None:
        params = {*STATE_KEYS[state], *unitary_keys}
        valid |= {"state.kind", "unitary.kind"}
    else:
        params = {*scenario.defaults, *scenario.axes.values()}
    _require_known(name, "key", cfg, params | valid)
    axes = {key: key for key in params} | scenario.axes
    return axes, {*CELL_OUTPUTS, *columns, *scenario.columns}


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if self.points < 2:
            raise ConfigError(f"axis {self.name!r} needs at least 2 points")
        if not self.hi > self.lo:
            raise ConfigError(f"axis {self.name!r} needs max > min")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepSpec:
    scenario: str
    fixed: dict
    axes: tuple[SweepAxis, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ConfigError("a sweep needs one or two axes")
        axes, outputs = _check_keys(self.scenario, self.fixed)
        _require_known(self.scenario, "axis", [a.name for a in self.axes], axes)
        _require_known(self.scenario, "output", self.outputs, outputs, noun="output column")

    @classmethod
    def from_config(cls, cfg: dict) -> "SweepSpec":
        cfg = dict(cfg)
        scenario = cfg.pop("scenario", None)
        if scenario is None:
            raise ConfigError("config must set 'scenario'")
        axes = []
        for k in ("sweep.axis1", "sweep.axis2"):
            if f"{k}.name" in cfg:
                try:
                    axes.append(
                        SweepAxis(
                            name=str(cfg.pop(f"{k}.name")),
                            lo=float(cfg.pop(f"{k}.min")),
                            hi=float(cfg.pop(f"{k}.max")),
                            points=integer(f"{k}.points", cfg.pop(f"{k}.points")),
                        )
                    )
                except KeyError as exc:
                    raise ConfigError(f"{k} is missing {exc}") from None
        outputs_raw = cfg.pop("outputs", None)
        if outputs_raw is None:
            outputs = SCENARIOS.get(str(scenario), SCENARIOS["custom"]).outputs
        else:
            outputs = tuple(s.strip() for s in str(outputs_raw).split(",") if s.strip())
        fixed = {k: v for k, v in cfg.items() if k not in AXIS_KEYS}
        return cls(scenario=str(scenario), fixed=fixed, axes=tuple(axes), outputs=outputs)


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list[dict]
    columns: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# qheatflow {__version__} sweep\n")
        buf.write(f"# timestamp: {self.metadata.get('timestamp', '')}\n")
        buf.write(f"# scenario: {self.spec.scenario}\n")
        buf.write(f"# config: {self.metadata.get('config', '')}\n")
        buf.write(
            f"# cells: {self.metadata.get('cells', len(self.rows))}"
            f" infeasible: {self.metadata.get('infeasible', 0)}\n"
        )
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_format_cell(row.get(c)) for c in self.columns) + "\n")
        return buf.getvalue()


def _format_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _solve_jx_for_eps(j_hz: float, t: float, eps_target: float, jx_hi: float = 4000.0) -> float:
    """Invert eps(J_x) for the perturbed XY family by bisection.

    eps(J_x) is the ``epsilon`` of ``perturbed_xy_unitary`` (one shared
    code path), evaluated without building a report per step.
    """
    if eps_target <= 0.0:
        return 0.0
    perturbed = _xy_perturbation(j_hz, t)
    if perturbed(jx_hi)[1] < eps_target:
        raise ConfigError(f"eps = {eps_target} not reachable below J_x = {jx_hi}")
    lo, hi = 0.0, jx_hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if perturbed(mid)[1] < eps_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _derive(scenario: Scenario, params: dict, prefix: str, solved_jx: dict) -> None:
    """Fill in the unset derived keys that start with ``prefix``.

    ``solved_jx`` memoises J_x by (J, t, eps); its owner decides how long
    a solve is reused (one sweep).
    """
    for key, source in scenario.derived.items():
        if not key.startswith(prefix) or key in params:
            continue
        value = params[source]
        if key == "state.E_H":  # relative detuning -> hot gap
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"Delta must lie in [0, 1), got {value}")
            value = (1.0 + value) / (1.0 - value)
        elif key == "unitary.Jx":  # unitary distance -> perturbation strength
            args = (params["unitary.J"], params["unitary.t"], value)
            if args not in solved_jx:
                solved_jx[args] = _solve_jx_for_eps(*args)
            value = solved_jx[args]
        params[key] = value


def _unset(key: str, kind: str) -> ConfigError:
    return ConfigError(f"{key} is not set; the {kind} needs it")


class _KindParams(dict):
    """The config values one state or unitary kind reads: looking up an unset
    key is a ConfigError naming the key and the kind, not a KeyError."""

    def __init__(self, kind: str, params: dict):
        super().__init__(params)
        self.kind = kind

    def __missing__(self, key):
        raise _unset(key, self.kind)


def _build_state(kind: str, params: dict) -> BipartiteSystem:
    """The state of one kind; unset optional keys take the defaults below."""
    params = _KindParams(f"{kind} state", params)
    if kind == "gamma":
        return gamma_correlated_state(
            params["state.gamma"], params["state.beta_C"], params["state.beta_H"],
            gap=params.get("state.E", 1.0), gap_h=params.get("state.E_H"),
        )
    eta = params.get("state.eta", 0.0)
    xi = params.get("state.xi", 0.0)
    if kind == "two-qubit":
        return two_qubit_state(
            TwoQubitParams(
                beta_c=params["state.beta_C"],
                beta_h=params["state.beta_H"],
                p00=params["state.P00"],
                eta=eta,
                xi=xi,
                gap=params.get("state.E", 1.0),
            )
        )
    return two_qutrit_state(
        QutritStateParams(
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


def _build_cell(scenario: str, kinds: tuple[str, str], params: dict, solved_jx: dict):
    """Construct (system, unitary_report, cell_extras) for one grid point.

    The unitary is the one-cell stack of ``_build_unitary_stack``.
    ``solved_jx`` is the J_x memo of ``_derive``.
    """
    row = SCENARIOS[scenario]
    state, unitary = kinds
    params = dict(params)
    _derive(row, params, "state.", solved_jx)
    sys = _build_state(state, params)
    # after the state: infeasible cells skip the J_x solve
    _derive(row, params, "unitary.", solved_jx)
    u, extras = _build_unitary_stack(unitary, [params], sys)
    extras = {column: values[0] for column, values in extras.items()}
    extras.update((column, params[key]) for column, key in row.columns.items())
    epsilon = None if u.epsilon is None else float(u.epsilon[0])
    return sys, UnitaryReport(u.matrix[0], float(u.commutator_norm[0]), epsilon), extras


def _build_unitary_stack(kind: str, cells: list[dict], sys: BipartiteSystem):
    """The unitaries of one kind for cells acting on one state, as one stack.

    Returns the stack and the extra output columns as per-cell lists.
    """
    def values(key, default=None):
        if default is None and key not in cells[0]:  # every cell sets the same keys
            raise _unset(key, f"{kind} unitary")
        return np.array([p[key] if default is None else p.get(key, default) for p in cells], float)

    gap = cells[0].get("state.E", 1.0)  # a state key: one value per group
    if kind == "xy":
        u = xy_unitary_stack(values("unitary.J"), values("unitary.t"), gap=gap)
        return u, {"theta": rotation_angles(u.matrix).tolist()}
    if kind == "perturbed-xy":
        u = perturbed_xy_unitary_stack(
            values("unitary.J"), values("unitary.Jx", 0.0), values("unitary.t"),
            gap=sys.spectrum_c.levels[1], gap_h=sys.spectrum_h.levels[1],
        )
        return u, {"eps_actual": u.epsilon.tolist()}
    if sys.d_c == 2:
        phases = [values(f"unitary.{k}", 0.0) for k in ("phi", "lam", "kappa")]
        angles = {(0, 1): (values("unitary.theta"), *phases)}
        u = exchange_unitary_stack(EnergySpectrum.two_level(gap), len(cells), angles)
        return u, {"theta": [p["unitary.theta"] for p in cells]}
    zero = np.zeros(len(cells))
    angles = {
        pair: (values(key), zero, zero, zero)
        for pair, key in QUTRIT_ANGLES.items()
        if key in cells[0]
    }
    return exchange_unitary_stack(sys.spectrum_c, len(cells), angles), {}


def _evaluate_stack(sys: BipartiteSystem, u: UnitaryStack, extras: dict):
    """All derived quantities and verdict flags for every unitary of a
    stack acting on one state.

    ``extras`` holds per-cell lists of extra output columns.  Returns one
    row per cell (its extras, then the outputs; a witness that does not
    apply to the cell is flagged -1 with no bound) and the MH and TPM
    value stacks.  T2 applies where the stack has an ``epsilon``.
    """
    n = len(u.matrix)
    beta_c, beta_h = sys.beta_c, sys.beta_h
    e_c, e_h = sys.spectrum_c.levels, sys.spectrum_h.levels
    mh = table_stack("MH", sys, u.matrix)
    tpm = table_stack("TPM", sys, u.matrix)
    q = table_heat_stack(mh, e_c)
    q_tpm = table_heat_stack(tpm, e_c)
    q_back, q_direct = flow_decomposition_stack(mh, e_c, e_h)
    min_pw = mh.reshape(n, -1).min(axis=-1)
    col = dict.fromkeys(FLAG_COLUMNS, np.full(n, -1))
    col.update(
        Q=q,
        Q_tpm=q_tpm,
        Q_back=q_back,
        Q_direct=q_direct,
        min_pw=min_pw,
        negativity=(min_pw < NEGATIVITY_THRESHOLD).astype(int),
        min_pt_eig=np.full(n, min_partial_transpose_eigenvalue(sys)),
    )
    present: dict = {}  # column -> mask of the cells that have it (other columns: every cell)

    def put(name, verdict, cells=None):
        col[f"{name}_violated"] = verdict.flags()
        col[f"{name}_bound"] = verdict.bound
        if cells is not None:  # the others are -2 and have no bound
            col[f"{name}_violated"] = np.where(cells, col[f"{name}_violated"], -2)
            present[f"{name}_bound"] = cells

    unequal_betas = beta_c is not None and beta_h is not None and beta_c != beta_h
    if unequal_betas and sys.dims == (2, 2) and sys.spectrum_c == sys.spectrum_h:
        put("t1", two_qubit_flow_stack(q, q_tpm, beta_c, beta_h, e_c[1], u.commutator_norm))

    if unequal_betas and u.epsilon is not None:
        put("t2", nonideal_flow_stack(q, q_tpm, beta_c, beta_h, e_c[1], e_h[1], u.epsilon))

    if unequal_betas:
        chi, starved = xft_coherence_stack(sys, u.matrix)
        lhs, avg_di, resonance_ok, divergent = xft_average_stack(mh, sys)
        has_xft = ~(starved | divergent)
        col.update(chi_bar=chi, xft_lhs=lhs, avg_delta_I=avg_di)
        present.update(chi_bar=has_xft, xft_lhs=has_xft, avg_delta_I=has_xft)
        finite = has_xft & (1.0 + chi > 0.0)  # else 1 + chi_bar <= 0: -2
        chi = np.where(finite, chi, 0.0)
        put("t3", xft_flow_stack(q, chi, lhs, avg_di, resonance_ok, beta_c, beta_h), finite)
        try:
            j = heat_exp_j_stack(sys, u.matrix)
        except DivergenceError:
            col["i4_violated"] = np.full(n, -2)
        else:
            col["j_term"] = j
            finite = 1.0 + j > 0.0  # else 1 + J <= 0: -2
            put("i4", correlation_flow_stack(q, np.where(finite, j, 0.0), beta_c, beta_h), finite)
        put("strong_backflow", strong_backflow_stack(q, beta_c, beta_h, sys.d_c))

    if sys.spectrum_c == sys.spectrum_h and sys.spectrum_c.bohr_nondegenerate():
        try:
            lower, upper = tpm_band_stack(q, q_tpm, tpm, e_c, e_h)
        except ValueError:
            col["t4_lower_violated"] = col["t4_upper_violated"] = np.full(n, -2)
        else:
            put("t4_lower", lower)
            put("t4_upper", upper)
    lists = extras | {name: values.tolist() for name, values in col.items() if name not in present}
    partial = {name: (col[name].tolist(), mask.tolist()) for name, mask in present.items()}
    rows = [
        {name: values[k] for name, values in lists.items()}
        | {name: values[k] for name, (values, has) in partial.items() if has[k]}
        for k in range(n)
    ]
    return rows, mh, tpm


def _evaluate_one(sys: BipartiteSystem, u: UnitaryReport, extras: dict | None):
    """``_evaluate_stack`` at n = 1: (row, MH values, TPM values) of one cell.

    T2 applies when ``extras`` carries ``eps_actual``.
    """
    extras = extras or {}
    epsilon = np.array([extras["eps_actual"]], float) if "eps_actual" in extras else None
    stack = UnitaryStack(u.matrix[None], np.array([u.commutator_norm], float), epsilon)
    rows, mh, tpm = _evaluate_stack(sys, stack, {name: [value] for name, value in extras.items()})
    return rows[0], mh[0], tpm[0]


def evaluate_cell(sys: BipartiteSystem, u: UnitaryReport, extras: dict | None = None) -> dict:
    """All derived quantities and verdict flags for one (state, protocol)
    cell, by the stacked evaluation at n = 1.

    A witness that does not apply to the cell is flagged -1 with no bound;
    T2 applies when ``extras`` carries ``eps_actual``.
    """
    return _evaluate_one(sys, u, extras)[0]


def _evaluate_group(unitary: str, scenario: Scenario, sys: BipartiteSystem, cells) -> None:
    """Fill in the rows of (row, params) cells that share the state ``sys``."""
    params = [p for _, p in cells]
    u, extras = _build_unitary_stack(unitary, params, sys)
    for column, key in scenario.columns.items():
        extras[column] = [p[key] for p in params]
    for (row, _), values in zip(cells, _evaluate_stack(sys, u, extras)[0]):
        row.update(values, status="ok")


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid cell; rows are ordered by grid index.

    Cells are grouped by the values of the state keys their state kind
    reads.  Each distinct state is built and validated once; an infeasible
    one marks its cells ``infeasible:<constraint>`` and skips their J_x
    solves, and a feasible one is evaluated with its cells' unitaries as
    stacks of at most STACK_CELLS.
    """
    scenario = SCENARIOS[spec.scenario]
    params_base = {**scenario.defaults, **spec.fixed}
    state, unitary = _kinds(spec.scenario, params_base)
    keys = [scenario.axes.get(axis.name, axis.name) for axis in spec.axes]
    solved_jx: dict = {}  # one J_x solve per distinct (J, t, eps) of this sweep
    # the state keys that can differ between cells: axes and derived keys
    varying = [key for key in STATE_KEYS[state] if key in keys or key in scenario.derived]
    groups: dict[tuple, tuple] = {}  # their values (repr) -> (state or status, cells)
    rows = []
    for cell in itertools.product(*(axis.values() for axis in spec.axes)):
        params = dict(params_base)
        row = {}
        for axis, key, value in zip(spec.axes, keys, cell):
            params[key] = row[axis.name] = float(value)
        _derive(scenario, params, "state.", solved_jx)
        group_key = tuple(repr(params.get(key)) for key in varying)
        if group_key not in groups:
            try:
                groups[group_key] = (_build_state(state, params), [])
            except InfeasibleStateError as exc:
                groups[group_key] = (f"infeasible:{exc.constraint}", None)
        sys, cells = groups[group_key]
        if cells is None:
            row["status"] = sys
        else:
            _derive(scenario, params, "unitary.", solved_jx)
            cells.append((row, params))
        rows.append(row)
    for sys, cells in groups.values():
        for start in range(0, len(cells or ()), STACK_CELLS):
            _evaluate_group(unitary, scenario, sys, cells[start : start + STACK_CELLS])

    infeasible = sum(1 for r in rows if r["status"].startswith("infeasible"))
    columns = tuple(a.name for a in spec.axes) + tuple(spec.outputs) + ("status",)
    meta = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": format_config({**{f"axis.{a.name}": f"[{a.lo},{a.hi}]x{a.points}" for a in spec.axes}, **params_base}),
        "cells": len(rows),
        "infeasible": infeasible,
    }
    return SweepResult(spec=spec, rows=rows, columns=columns, metadata=meta)


@dataclass
class PointReport:
    """Everything the single-point analysis produces."""

    system: BipartiteSystem
    row: dict
    mh_csv: str
    tpm_csv: str
    probe_target: tuple[int, int]
    probe_eps: float
    probe_values: np.ndarray
    probe_stderr: np.ndarray | None
    probe_csv: str
    marginal_deviation: float

    def render(self) -> str:
        lines = [f"qheatflow {__version__} point analysis"]
        lines.append(f"dims: {self.system.dims}")
        lines.append(
            "state: trace=1, hermitian, psd ok; "
            f"min_pt_eig={self.row['min_pt_eig']:.6g}"
        )
        if self.system.dims in ((2, 2), (2, 3), (3, 2)):
            sep = "separable" if self.row["min_pt_eig"] >= -1e-10 else "entangled"
            lines.append(f"partial-transpose criterion: {sep}")
        lines.append(f"marginal identity deviation: {self.marginal_deviation:.3g}")
        for key in (
            "Q", "Q_tpm", "Q_back", "Q_direct", "min_pw", "negativity",
            "chi_bar", "xft_lhs", "avg_delta_I", "j_term",
        ):
            if key in self.row:
                lines.append(f"{key}: {self.row[key]:.12g}")
        for key in sorted(FLAG_COLUMNS):
            flag = {
                1: "VIOLATED", 0: "satisfied",
                -1: "not applicable or precondition failed", -2: "not evaluable",
            }[self.row[key]]
            bound_key = key.replace("_violated", "_bound")
            extra = f" (bound {self.row[bound_key]:.6g})" if bound_key in self.row else ""
            lines.append(f"{key[:-9]}: {flag}{extra}")
        lines.append(
            f"probe reconstruction at target {self.probe_target}, eps={self.probe_eps:g}:"
        )
        lines.append("  " + np.array2string(self.probe_values, precision=10))
        if self.probe_stderr is not None:
            lines.append("  stderr " + np.array2string(self.probe_stderr, precision=3))
        return "\n".join(lines)


def analyze_point(cfg: dict) -> PointReport:
    """Evaluate a single fully-specified configuration.

    Sweep keys (axes, outputs) are accepted and ignored.  Raises
    InfeasibleStateError when the state cannot be constructed (the CLI
    maps that to exit code 2).
    """
    scenario = cfg.get("scenario", "custom")
    given = {k: v for k, v in cfg.items() if k not in SWEEP_KEYS}
    _check_keys(scenario, given)
    params = {**SCENARIOS[scenario].defaults, **given}
    probe = {key: integer(key, params[key]) for key in PROBE_INT_KEYS if key in params}
    if probe.get("probe.shots", 0) < 0:
        raise ConfigError(
            f"probe.shots must be >= 0 (0 is the exact reconstruction), got {probe['probe.shots']}"
        )
    sys, u, extras = _build_cell(scenario, _kinds(scenario, params), params, {})
    row, mh, tpm = _evaluate_one(sys, u, extras)
    levels = (sys.spectrum_c.levels, sys.spectrum_h.levels)
    mh, tpm = TransitionTable("MH", mh, *levels), TransitionTable("TPM", tpm, *levels)

    target = (probe.get("probe.i_C", 0), probe.get("probe.i_H", min(1, sys.d_h - 1)))
    eps = float(params.get("probe.eps", 0.2))
    stats = probe_statistics(sys, u, target, eps)
    shots = probe.get("probe.shots", 0)
    if shots > 0:
        sampled = sampled_reconstruction(stats, shots, probe.get("probe.seed", 7))
        probe_values, probe_stderr = sampled.values, sampled.stderr
    else:
        probe_values, probe_stderr = reconstruct_quasiprobability(stats), None
    return PointReport(
        system=sys,
        row=row,
        mh_csv=mh.to_csv(),
        tpm_csv=tpm.to_csv(),
        probe_target=target,
        probe_eps=eps,
        probe_values=probe_values,
        probe_stderr=probe_stderr,
        probe_csv=probe_row_csv(stats, probe_values, probe_stderr),
        marginal_deviation=marginal_check(mh, sys, u),
    )


def probe_row_csv(stats, values: np.ndarray, stderr: np.ndarray | None = None) -> str:
    """Targeted-row reconstruction from ``probe_statistics`` output, in the
    transition-table CSV schema; a shot-free reconstruction has no stderr (0)."""
    if stderr is None:
        stderr = np.zeros_like(values)
    return transition_csv(stats.energies_c, stats.energies_h, [stats.target], values, stderr)
