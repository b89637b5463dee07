"""Parameter sweeps, single-point analysis and CSV emission.

A sweep is a scenario name, fixed parameters, one or two axes and a list
of output columns.  ``run_sweep`` carries the params as columns (a scalar
per fixed key, a per-cell array per axis key), builds and validates each
distinct state once, solves each distinct J_x once, and evaluates all
feasible cells as (n, D, D) stacks in byte-bounded chunks, each cell with
its own state's data (``StateStack``).  There is one unitary builder and
one evaluator: ``evaluate_cell`` and ``analyze_point`` run them at n = 1
and ask for every column, while a sweep runs only the kernel groups
(``COLUMN_GROUPS``) that its requested outputs read; both tables, with
their checks, are built for every cell.  A ``SweepResult`` holds the CSV's
columns (the axes, the requested outputs, ``status``) as per-cell arrays,
formatted one column at a time; its ``rows`` are those columns, one dict
per cell.  The scalar reference that every value is checked against, bit
for bit, lives in the tests.  No cell is dropped: cells whose state
construction fails carry a status code ``infeasible:<constraint>``;
witness columns use the encoding

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
key its two kinds read; any other key, axis or output, an output listed
twice, a non-numeric value of a numeric key, or a non-finite
``state.*``/``unitary.*`` value or axis bound raises ConfigError.
"""

from __future__ import annotations

import datetime
import math
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
    TransitionTable,
    _formatted,
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
    InfeasibleStateError,
    QutritStateParams,
    StateStack,
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
# bytes of one (n, D, D) complex stack of a chunk: 128 cells of 9x9
# (two qutrits), 648 of 4x4, and always at least one cell
STACK_BYTES = 128 * 9**2 * 16

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

# witness -> the kernel groups that produce its flag and bound
WITNESS_GROUPS = {
    "t1": ("t1",),
    "t2": ("t2",),
    "t3": ("xft", "t3"),
    "i4": ("j", "i4"),
    "t4_lower": ("t4",),
    "t4_upper": ("t4",),
    "strong_backflow": ("strong_backflow",),
}
WITNESS_NAMES = tuple(WITNESS_GROUPS)
FLAG_COLUMNS = tuple(f"{w}_violated" for w in WITNESS_NAMES)
# output column -> the kernel groups that produce it.  ``_evaluate_stack``
# runs a group only when a requested column needs it; the MH and TPM
# tables, with their sum and range checks, are built for every cell.
COLUMN_GROUPS: dict[str, tuple[str, ...]] = {
    "Q": ("tables",),
    "Q_tpm": ("tables",),
    "Q_back": ("flow",),
    "Q_direct": ("flow",),
    "min_pw": ("tables",),
    "negativity": ("tables",),
    "min_pt_eig": ("min_pt_eig",),
    "chi_bar": ("xft",),
    "xft_lhs": ("xft",),
    "avg_delta_I": ("xft",),
    "j_term": ("j",),
    **{f"{w}_violated": groups for w, groups in WITNESS_GROUPS.items()},
    **{f"{w}_bound": groups for w, groups in WITNESS_GROUPS.items()},
}
CELL_OUTPUTS = tuple(COLUMN_GROUPS)

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


def _require_finite(cfg: dict) -> None:
    """Reject a value that is not a number in a numeric key (a ``state.*`` or
    ``unitary.*`` key other than the kinds, an axis bound, ``eps``, ``Delta``,
    ``probe.eps``), and a non-finite float in a ``state.*``/``unitary.*`` key
    or axis bound; ``eps`` and ``Delta`` have their own finite checks."""
    for key, value in cfg.items():
        bound = key in AXIS_KEYS and key.endswith(("min", "max"))
        finite = bound or key.startswith(("state.", "unitary.")) and not key.endswith(".kind")
        if (finite or key in ("eps", "Delta", "probe.eps")) and not isinstance(value, (int, float)):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        if finite and isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")


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
        for k, name in enumerate(self.outputs):
            if name in self.outputs[:k]:
                raise ConfigError(f"output column {name!r} is listed twice in outputs")

    @classmethod
    def from_config(cls, cfg: dict) -> "SweepSpec":
        cfg = dict(cfg)
        scenario = cfg.pop("scenario", None)
        if scenario is None:
            raise ConfigError("config must set 'scenario'")
        _require_finite(cfg)
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
    """A sweep's CSV columns, as per-cell arrays in grid order.

    ``values`` maps each distinct name in ``columns`` (the axes, the
    requested outputs, ``status``) to (values, has): ``has`` masks the
    cells that have a value, None meaning every cell.
    """

    spec: SweepSpec
    columns: tuple[str, ...]
    values: dict[str, tuple[np.ndarray, np.ndarray | None]]
    metadata: dict = field(default_factory=dict)

    @property
    def rows(self) -> list[dict]:
        """One dict per cell: its value in each column that it has one in."""
        lists = [
            (name, values.tolist(), None if has is None else has.tolist())
            for name, (values, has) in self.values.items()
        ]
        return [
            {name: values[k] for name, values, has in lists if has is None or has[k]}
            for k in range(len(self.values["status"][0]))
        ]

    def to_csv(self) -> str:
        text = {name: _format_column(values, has) for name, (values, has) in self.values.items()}
        lines = [
            f"# qheatflow {__version__} sweep",
            f"# timestamp: {self.metadata.get('timestamp', '')}",
            f"# scenario: {self.spec.scenario}",
            f"# config: {self.metadata.get('config', '')}",
            f"# cells: {self.metadata.get('cells', len(text['status']))}"
            f" infeasible: {self.metadata.get('infeasible', 0)}",
            ",".join(self.columns),
            *map(",".join, zip(*(text[name] for name in self.columns))),
        ]
        return "\n".join(lines) + "\n"


def _format_column(values: np.ndarray, has: np.ndarray | None) -> list[str]:
    """The CSV text of one column: floats with 17 significant digits (each
    distinct value formatted once), ints and bools as integers, strings as
    they are, and "nan" where ``has`` is False."""
    kind = values.dtype.kind
    if kind == "b":
        values = values.astype(int)
    if kind == "f":
        text = _formatted(values).tolist()
    else:  # integers, and the status strings
        text = list(map(str, values.tolist()))
    if has is not None:
        text = [t if h else "nan" for t, h in zip(text, has.tolist())]
    return text


def _solve_jx_for_eps(j_hz, t, eps_target, jx_hi: float = 4000.0):
    """Invert eps(J_x) for the perturbed XY family by bisection on
    [0, jx_hi], for one (J, t, eps) or for a 1-D array of targets with
    scalar or per-target J and t; returns the shape of ``eps_target``.

    eps(J_x) is the ``epsilon`` of ``perturbed_xy_unitary`` (one shared
    code path).  All targets take the same 60 halvings in lockstep, each
    one stacked exponential and norm over the targets, so every result
    equals the single-target bisection bit for bit.  eps(J_x) is not
    monotone on [0, 4000], so the result is the crossing the bisection
    finds, not necessarily the smallest root.  Targets <= 0 give 0.0.  The
    first target that has no solution raises: a nan target or one above
    eps(jx_hi) a ConfigError, a negative t a ValueError.
    """
    targets = np.asarray(eps_target, dtype=float)
    want = targets.reshape(-1)
    j_hz, t = (np.broadcast_to(np.asarray(x, dtype=float), targets.shape).reshape(-1) for x in (j_hz, t))
    shown = [eps_target] if targets.ndim == 0 else eps_target  # as given, for messages
    jx = np.zeros(want.shape)
    todo = np.flatnonzero(~(want <= 0.0))  # nan included, to be rejected
    if todo.size:
        bad = np.isnan(want[todo]) | (t[todo] < 0)
        todo, failed = todo[~bad], todo[bad]
        perturbed = _xy_perturbation(j_hz[todo], t[todo])
        failed = np.union1d(failed, todo[perturbed(np.full(todo.size, jx_hi))[1] < want[todo]])
        if failed.size:  # the first one in order
            i = failed[0]
            if np.isnan(want[i]):
                raise ConfigError(f"eps must be finite, got {shown[i]}")
            if t[i] < 0:
                raise ValueError("time must be nonnegative")
            raise ConfigError(f"eps = {shown[i]} not reachable below J_x = {jx_hi}")
        lo, hi = np.zeros(todo.size), np.full(todo.size, jx_hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = perturbed(mid)[1] < want[todo]
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        jx[todo] = 0.5 * (lo + hi)
    return float(jx[0]) if targets.ndim == 0 else jx


def _distinct(columns, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the rows of n cells' 1-D ``columns``, compared by
    float64 bits (-0.0 is not 0.0): each distinct row's first cell, in cell
    order, and each cell's index into ``first``; no columns make one row."""
    if not columns:
        return np.zeros(1, np.intp), np.zeros(n, np.intp)
    bits = np.stack([np.asarray(c, float) for c in columns], axis=1).view(np.int64)
    _, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]  # the inverse's shape varies across numpy versions


def _take(params: dict, index: np.ndarray) -> dict:
    """The params of the cells at ``index``: per-cell arrays indexed, scalars as they are."""
    return {key: value[index] if isinstance(value, np.ndarray) else value for key, value in params.items()}


def _derive(scenario: Scenario, params: dict, prefix: str) -> None:
    """Fill in the unset derived keys that start with ``prefix``.

    Each value is a scalar or a per-cell array, elementwise.  A Delta
    outside [0, 1) names the first bad cell's value as given.  J_x takes one
    ``_solve_jx_for_eps`` call, over each distinct (J, t, eps) in cell order
    (so an error names the first cell's target); nothing is memoised.
    """
    for key, source in scenario.derived.items():
        if not key.startswith(prefix) or key in params:
            continue
        value = params[source]
        if key == "state.E_H":  # relative detuning -> hot gap
            delta = np.ravel(value)
            bad = ~((0.0 <= delta) & (delta < 1.0))
            if bad.any():
                raise ConfigError(f"Delta must lie in [0, 1), got {delta[bad.argmax()].item()}")
            value = (1.0 + value) / (1.0 - value)
        elif key == "unitary.Jx":  # unitary distance -> perturbation strength
            args = (params["unitary.J"], params["unitary.t"], value)
            columns = np.broadcast_arrays(*args)
            if columns[0].ndim:
                first, inverse = _distinct(columns, columns[0].size)
                value = _solve_jx_for_eps(*(c[first] for c in columns))[inverse]
            else:
                value = _solve_jx_for_eps(*args)
        params[key] = value


class _KindParams(dict):
    """The config values one state or unitary kind reads: looking up an unset
    key is a ConfigError naming the key and the kind, not a KeyError."""

    def __init__(self, kind: str, params: dict):
        super().__init__(params)
        self.kind = kind

    def __missing__(self, key):
        raise ConfigError(f"{key} is not set; the {self.kind} needs it")


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


def _build_cell(scenario: str, kinds: tuple[str, str], params: dict):
    """Construct (system, unitary stack, cell_extras) for one grid point.

    The sweep's path on all-scalar params: the unitary is the one-cell
    stack of ``_build_unitary_stack``.
    """
    row = SCENARIOS[scenario]
    state, unitary = kinds
    params = dict(params)
    _derive(row, params, "state.")
    sys = _build_state(state, params)
    # after the state: infeasible cells skip the J_x solve
    _derive(row, params, "unitary.")
    u, extras = _build_unitary_stack(unitary, params, 1, [sys.spectrum_c.levels], [sys.spectrum_h.levels])
    extras = {column: values.tolist()[0] for column, values in extras.items()}
    extras.update((column, params[key]) for column, key in row.columns.items())
    return sys, u, extras


def _build_unitary_stack(kind: str, cells: dict, n: int, levels_c, levels_h):
    """The unitaries of one kind for n cells, as one stack.

    ``cells`` maps each key to a scalar or an n-array, and ``levels_c``,
    ``levels_h`` are the cells' local levels, (n, d) or one (1, d) row for
    all.  Each commutator norm is taken against its own cell's H_C + H_H:
    the XY and qubit exchange kinds use the two-level spectrum of the
    cell's cold gap on both sides, as their single-cell constructors do.
    Returns the stack and the extra output columns as n-arrays (a copied
    one keeps its dtype).
    """
    cells = _KindParams(f"{kind} unitary", cells)

    def values(key, default=None):
        return np.full(n, cells[key] if default is None else cells.get(key, default), float)

    levels_c, levels_h = np.asarray(levels_c, dtype=float), np.asarray(levels_h, dtype=float)
    gap = levels_c[:, 1]
    if kind == "xy":
        u = xy_unitary_stack(values("unitary.J"), values("unitary.t"), gap=gap)
        return u, {"theta": rotation_angles(u.matrix)}
    if kind == "perturbed-xy":
        u = perturbed_xy_unitary_stack(
            values("unitary.J"), values("unitary.Jx", 0.0), values("unitary.t"),
            gap=gap, gap_h=levels_h[:, 1],
        )
        return u, {"eps_actual": u.epsilon}
    if levels_c.shape[-1] == 2:
        phases = [values(f"unitary.{k}", 0.0) for k in ("phi", "lam", "kappa")]
        u = exchange_unitary_stack(levels_c, n, [((0, 1), (values("unitary.theta"), *phases))])
        return u, {"theta": np.full(n, cells["unitary.theta"])}
    zero = np.zeros(n)
    blocks = [(pair, (values(key), zero, zero, zero)) for pair, key in QUTRIT_ANGLES.items() if key in cells]
    return exchange_unitary_stack(levels_c, n, blocks), {}


def _chunk_cells(side: int) -> int:
    """Cells per chunk: as many (side, side) complex matrices as fit in
    STACK_BYTES, and at least one."""
    return max(1, STACK_BYTES // (16 * side * side))


def _evaluate_stack(states: StateStack, u: UnitaryStack, extras: dict, outputs):
    """The output columns of every unitary of a stack, each acting on its
    own cell's state: ``states`` has a row per cell, or one row for all.

    ``extras`` holds per-cell arrays of extra output columns, and of the
    per-state ``min_pt_eig`` when it is asked for.  Only the kernel groups
    (``COLUMN_GROUPS``) that the ``outputs`` columns need are run, each on
    the cells its preconditions hold for.  Returns {column: (values, has)} for each requested column
    the cells have, where ``has`` masks the cells that have a value (None:
    every cell; a witness that does not apply to a cell is flagged -1 with
    no bound), and the MH and TPM value stacks.  T2 applies where the
    stack has an ``epsilon``.
    """
    need = {group for name in outputs for group in COLUMN_GROUPS.get(name, ())}
    n = len(u.matrix)
    beta_c, beta_h = states.beta_c, states.beta_h
    e_c, e_h = states.levels_c, states.levels_h
    mh = table_stack("MH", states, u.matrix, u.adjoint)
    tpm = table_stack("TPM", states, u.matrix, u.adjoint)
    q = table_heat_stack(mh, e_c)
    q_tpm = table_heat_stack(tpm, e_c)
    min_pw = mh.reshape(n, -1).min(axis=-1)
    col = dict(extras)
    col.update((name, np.full(n, -1)) for name in FLAG_COLUMNS)
    col.update(Q=q, Q_tpm=q_tpm, min_pw=min_pw, negativity=(min_pw < NEGATIVITY_THRESHOLD).astype(int))
    if "flow" in need:
        col["Q_back"], col["Q_direct"] = flow_decomposition_stack(mh, e_c, e_h)
    present: dict = {}  # column -> mask of the cells that have it (other columns: every cell)

    def cells(mask):
        """The cells where ``mask`` holds: every cell (a full slice), some
        (an index array) or none (None)."""
        return slice(None) if mask.all() else np.flatnonzero(mask) if mask.any() else None

    def value(name, values, at, has=None):
        """``values`` of the cells ``at`` into column ``name``; ``has`` masks the ones that have a value."""
        if name not in present:
            col[name], present[name] = np.zeros(n, values.dtype), np.zeros(n, bool)
        col[name][at] = values
        present[name][at] = True if has is None else has

    def adjoint(at):
        """U^dag of the cells ``at``, laid out as the stack's (a transposed
        view of a conjugated copy), so each product makes the same BLAS call."""
        return u.adjoint.swapaxes(-1, -2)[at].swapaxes(-1, -2)

    def put(name, verdict, at, finite=None):
        """A witness's flags and bounds on the cells ``at``; where ``finite``
        is False the flag is -2 and there is no bound."""
        flags = verdict.flags()
        col[f"{name}_violated"][at] = flags if finite is None else np.where(finite, flags, -2)
        value(f"{name}_bound", verdict.bound, at, finite)

    unequal = states.unequal_betas
    if "t1" in need and states.dims == (2, 2) and (at := cells(unequal & states.equal_spectra)) is not None:
        put("t1", two_qubit_flow_stack(q[at], q_tpm[at], beta_c[at], beta_h[at], e_c[at, 1], u.commutator_norm[at]), at)

    if "t2" in need and u.epsilon is not None and (at := cells(unequal)) is not None:
        put("t2", nonideal_flow_stack(
            q[at], q_tpm[at], beta_c[at], beta_h[at], e_c[at, 1], e_h[at, 1], u.epsilon[at]
        ), at)

    if "xft" in need and (at := cells(unequal)) is not None:
        chi, starved = xft_coherence_stack(states.take(at), u.matrix[at], adjoint(at))
        lhs, avg_di, resonance_ok, _, vanishing = xft_average_stack(mh[at], states.take(at))
        has_xft = ~starved.any(axis=1)
        for bad in vanishing.values():
            has_xft &= ~bad.reshape(len(bad), -1).any(axis=1)
        for name, values in (("chi_bar", chi), ("xft_lhs", lhs), ("avg_delta_I", avg_di)):
            value(name, values, at, has_xft)
        if "t3" in need:
            finite = has_xft & (1.0 + chi > 0.0)  # else 1 + chi_bar <= 0: -2
            chi = np.where(finite, chi, 0.0)
            put("t3", xft_flow_stack(q[at], chi, lhs, avg_di, resonance_ok, beta_c[at], beta_h[at]), at, finite)

    if "j" in need and (at := cells(unequal)) is not None:
        j, divergent = heat_exp_j_stack(states.take(at), u.matrix[at], adjoint(at))
        value("j_term", j, at, ~divergent)
        if "i4" in need:
            finite = ~divergent & (1.0 + j > 0.0)  # else J diverges or 1 + J <= 0: -2
            put("i4", correlation_flow_stack(q[at], np.where(finite, j, 0.0), beta_c[at], beta_h[at]), at, finite)

    if "strong_backflow" in need and (at := cells(unequal)) is not None:
        put("strong_backflow", strong_backflow_stack(q[at], beta_c[at], beta_h[at], states.dims[0]), at)

    if "t4" in need and (at := cells(states.equal_spectra & states.bohr_nondegenerate)) is not None:
        lower, upper = tpm_band_stack(q[at], q_tpm[at], tpm[at], e_c[at], e_h[at])
        put("t4_lower", lower, at)
        put("t4_upper", upper, at)
    columns = {name: (col[name], present.get(name)) for name in outputs if name in col}
    return columns, mh, tpm


def _evaluate_one(sys: BipartiteSystem, u: UnitaryStack, extras: dict):
    """``_evaluate_stack`` on a one-cell stack, every column: (row, MH
    values, TPM values) of one cell."""
    cells = {name: np.array([value]) for name, value in extras.items()}
    cells["min_pt_eig"] = np.array([min_partial_transpose_eigenvalue(sys)])
    columns, mh, tpm = _evaluate_stack(sys.stack, u, cells, (*extras, *CELL_OUTPUTS))
    row = {name: values.tolist()[0] for name, (values, has) in columns.items() if has is None or has[0]}
    return row, mh[0], tpm[0]


def evaluate_cell(sys: BipartiteSystem, u: UnitaryReport, extras: dict | None = None) -> dict:
    """All derived quantities and verdict flags for one (state, protocol)
    cell, by the stacked evaluation at n = 1.

    A witness that does not apply to the cell is flagged -1 with no bound;
    T2 applies when ``extras`` carries ``eps_actual``.
    """
    extras = extras or {}
    epsilon = np.array([extras["eps_actual"]], float) if "eps_actual" in extras else None
    matrix = u.matrix[None]
    stack = UnitaryStack(matrix, np.array([u.commutator_norm], float), matrix.conj().swapaxes(-1, -2), epsilon)
    return _evaluate_one(sys, stack, extras)[0]


def _evaluate_chunk(
    spec: SweepSpec, unitary: str, cells: dict, states: StateStack, index: np.ndarray, per_state: dict
) -> dict:
    """The requested columns of one chunk of feasible cells, ``index``
    naming each cell's row of ``states``: their unitaries built and
    evaluated as one stack.  The cells' state rows are gathered after the
    unitaries are built, and every stack is freed on return, before the
    next chunk's is built."""
    n = len(index)
    u, extras = _build_unitary_stack(unitary, cells, n, states.levels_c[index], states.levels_h[index])
    extras.update((column, np.full(n, cells[key])) for column, key in SCENARIOS[spec.scenario].columns.items())
    extras.update((name, values[index]) for name, values in per_state.items())
    return _evaluate_stack(states.take(index), u, extras, spec.outputs)[0]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid cell; the result's columns are in grid order.

    The params are columns: a scalar per fixed key, a per-cell array per
    axis key (in ``itertools.product`` order).  Cells are grouped by the
    value bits of their varying state keys; each distinct state is built
    and validated once, and an infeasible one marks its cells
    ``infeasible:<constraint>`` and skips their J_x solves.  The feasible
    cells' unitary keys are then derived together (one J_x solve per
    sweep), and the feasible cells, whatever their state, are evaluated in
    grid order as chunks of at most STACK_BYTES per (n, D, D) stack.  A
    chunk gathers each cell's state data (``StateStack.take``) by the
    cell's state index, and per-state results (``min_pt_eig``) are
    computed once per distinct state.  Only the requested outputs are
    computed.
    """
    scenario = SCENARIOS[spec.scenario]
    params_base = {**scenario.defaults, **spec.fixed}
    state, unitary = _kinds(spec.scenario, params_base)
    grid = np.meshgrid(*(axis.values() for axis in spec.axes), indexing="ij")
    axes = {axis.name: column.reshape(-1) for axis, column in zip(spec.axes, grid)}
    n = grid[0].size
    params = {**params_base, **{scenario.axes.get(name, name): column for name, column in axes.items()}}
    _derive(scenario, params, "state.")
    varying = [key for key in STATE_KEYS[state] if isinstance(params.get(key), np.ndarray)]
    first, group = _distinct([params[key] for key in varying], n)
    group_status = np.full(len(first), "ok", dtype=object)
    systems = []  # the feasible distinct states, in group order
    for g, k in enumerate(first.tolist()):
        try:
            systems.append(_build_state(state, {**params, **{key: params[key][k].item() for key in varying}}))
        except InfeasibleStateError as exc:
            group_status[g] = f"infeasible:{exc.constraint}"
    feasible = group_status == "ok"
    status = group_status[group]
    ok = np.flatnonzero(feasible[group])
    outputs: dict[str, tuple] = {}  # column -> (values, has) over the grid
    if ok.size:
        cells = _take(params, ok)
        _derive(scenario, cells, "unitary.")
        state_of = (np.cumsum(feasible) - 1)[group[ok]]  # each feasible cell's index into ``systems``
        states = StateStack.of(systems)
        per_state = {}
        if "min_pt_eig" in spec.outputs:
            per_state["min_pt_eig"] = np.array([min_partial_transpose_eigenvalue(s) for s in systems])
        size = _chunk_cells(states.rho.shape[-1])
        for start in range(0, ok.size, size):
            at = slice(start, start + size)  # positions in ``cells``
            chunk = _evaluate_chunk(spec, unitary, _take(cells, at), states, state_of[at], per_state)
            for name, (chunk_values, has) in chunk.items():
                if name not in outputs:
                    outputs[name] = (np.zeros(n, chunk_values.dtype), np.zeros(n, bool))
                outputs[name][0][ok[at]] = chunk_values
                outputs[name][1][ok[at]] = True if has is None else has

    values = {name: (column, None) for name, column in axes.items()}
    for name in spec.outputs:  # an output named like an axis (theta, Delta) copies that axis's key
        if name not in values:
            column, has = outputs.get(name, (np.zeros(n), np.zeros(n, bool)))
            values[name] = (column, None if has.all() else has)
    values["status"] = (status, None)
    columns = tuple(a.name for a in spec.axes) + tuple(spec.outputs) + ("status",)
    meta = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": format_config({**{f"axis.{a.name}": f"[{a.lo},{a.hi}]x{a.points}" for a in spec.axes}, **params_base}),
        "cells": n,
        "infeasible": int((status != "ok").sum()),
    }
    return SweepResult(spec=spec, columns=columns, values=values, metadata=meta)


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
    _require_finite(given)
    _check_keys(scenario, given)
    params = {**SCENARIOS[scenario].defaults, **given}
    probe = {key: integer(key, params[key]) for key in PROBE_INT_KEYS if key in params}
    if probe.get("probe.shots", 0) < 0:
        raise ConfigError(
            f"probe.shots must be >= 0 (0 is the exact reconstruction), got {probe['probe.shots']}"
        )
    sys, u, extras = _build_cell(scenario, _kinds(scenario, params), params)
    row, mh, tpm = _evaluate_one(sys, u, extras)
    levels = (sys.spectrum_c.levels, sys.spectrum_h.levels)
    mh, tpm = TransitionTable._checked("MH", mh, *levels), TransitionTable._checked("TPM", tpm, *levels)

    target = (probe.get("probe.i_C", 0), probe.get("probe.i_H", min(1, sys.d_h - 1)))
    eps = float(params.get("probe.eps", 0.2))
    stats = probe_statistics(sys, u.matrix[0], target, eps)
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
        marginal_deviation=marginal_check(mh, sys, u.matrix[0]),
    )


def probe_row_csv(stats, values: np.ndarray, stderr: np.ndarray | None = None) -> str:
    """Targeted-row reconstruction from ``probe_statistics`` output, in the
    transition-table CSV schema; a shot-free reconstruction has no stderr (0)."""
    if stderr is None:
        stderr = np.zeros_like(values)
    return transition_csv(stats.energies_c, stats.energies_h, [stats.target], values, stderr)
