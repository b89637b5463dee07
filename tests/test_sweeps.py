import collections
import csv
import dataclasses
import hashlib
import io
import itertools
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

import qheatflow as qh
import qheatflow.fluctuations as fluct
import qheatflow.properties as properties
import qheatflow.sweeps as sweeps
from qheatflow.cli import main as cli_main
from qheatflow.config import ConfigError, apply_overrides, load_config, parse_config
from qheatflow.dynamics import (
    ManifoldRotation,
    UnitaryStack,
    energy_preserving_unitary,
    perturbed_xy_unitary,
)
from qheatflow.linalg import SIGMA_X, SIGMA_Y, matrix_exp, spectral_norm
from qheatflow.states import (
    EnergySpectrum,
    InfeasibleStateError,
    StateStack,
    min_partial_transpose_eigenvalue,
    qudit_locally_thermal,
    thermal_populations,
)
from qheatflow.sweeps import (
    SweepSpec,
    _build_cell,
    _evaluate_one,
    _solve_jx_for_eps,
    analyze_point,
    evaluate_cell,
    run_sweep,
)

import reference

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _spec(text: str) -> SweepSpec:
    return SweepSpec.from_config(parse_config(text))


EXPERIMENT_CFG = """
scenario = experiment-time
state.beta_C = 1.13
state.beta_H = 0.9618
state.gamma = -0.19
unitary.J = 215.1
sweep.axis1.name = t
sweep.axis1.min = 0.0
sweep.axis1.max = 0.004649
sweep.axis1.points = 31
outputs = theta,Q,Q_tpm,min_pw,negativity,t1_violated,strong_backflow_violated
"""

QUTRIT_CFG = """
scenario = qutrit-theta-grid
sweep.axis1.name = theta01
sweep.axis1.min = 0.0
sweep.axis1.max = 3.14159265
sweep.axis1.points = 13
sweep.axis2.name = theta02
sweep.axis2.min = 0.0
sweep.axis2.max = 3.14159265
sweep.axis2.points = 13
outputs = Q,Q_tpm,min_pw,negativity,t3_violated,t4_lower_violated,t4_upper_violated
"""


def _rows(result):
    body = result.to_csv()
    reader = csv.DictReader(line for line in body.splitlines() if not line.startswith("#"))
    return list(reader)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_types_and_comments():
    cfg = parse_config("a = 1\nb = 2.5 # trailing\n# full comment\nc = hello\nd = true\n")
    assert cfg == {"a": 1, "b": 2.5, "c": "hello", "d": "true"}


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config("just words\n")


def test_overrides_take_precedence():
    cfg = apply_overrides({"x": 1.0}, ["x=3.5", "y=new"])
    assert cfg == {"x": 3.5, "y": "new"}


def test_spec_requires_scenario_and_known_axes():
    with pytest.raises(ConfigError, match="scenario"):
        _spec("sweep.axis1.name = t\nsweep.axis1.min = 0\nsweep.axis1.max = 1\nsweep.axis1.points = 3\n")
    with pytest.raises(ConfigError, match="unknown scenario"):
        _spec("scenario = bogus\nsweep.axis1.name = t\nsweep.axis1.min = 0\nsweep.axis1.max = 1\nsweep.axis1.points = 3\n")
    with pytest.raises(ConfigError, match="not a known parameter"):
        _spec(
            "scenario = experiment-time\nsweep.axis1.name = zap\n"
            "sweep.axis1.min = 0\nsweep.axis1.max = 1\nsweep.axis1.points = 3\n"
        )
    with pytest.raises(ConfigError, match="at least 2"):
        _spec(
            "scenario = experiment-time\nsweep.axis1.name = t\n"
            "sweep.axis1.min = 0\nsweep.axis1.max = 1\nsweep.axis1.points = 1\n"
        )


def test_a_grid_past_a_million_cells_is_refused_before_anything_is_allocated(monkeypatch):
    monkeypatch.setattr(np, "linspace", lambda *a, **k: pytest.fail("an axis was allocated"))
    monkeypatch.setattr(np, "meshgrid", lambda *a, **k: pytest.fail("a grid was allocated"))
    cfg = load_config(str(CONFIG_DIR / "qubit_grid.cfg"))  # 61 x 41 cells
    for points, cells in ((24391, 1000031), (10**12, 41 * 10**12)):
        with pytest.raises(ConfigError) as err:
            SweepSpec.from_config({**cfg, "sweep.axis1.points": points})
        assert str(err.value) == f"a sweep of {cells} cells exceeds the limit of 1000000"
    SweepSpec.from_config({**cfg, "sweep.axis1.points": 1000, "sweep.axis2.points": 1000})  # 10**6 cells are taken
    with pytest.raises(ConfigError):
        SweepSpec.from_config({**cfg, "sweep.axis1.points": 1001, "sweep.axis2.points": 1000})
    assert cli_main(["sweep", str(CONFIG_DIR / "qubit_grid.cfg"), "--set", "sweep.axis1.points=1000000"]) == 1


@pytest.mark.parametrize("cfg, settings, message", [
    ("experiment_time.cfg", ["state.E=-1"], "levels must be strictly ascending, got (0.0, -1.0)"),
    # a two-qubit gap is checked after P00 and eta, which at E = -1 need a small P00
    ("qubit_grid.cfg", ["state.E=-1", "state.P00=0.2"], "levels must be strictly ascending, got (0.0, -1.0)"),
    ("qutrit_bounds.cfg", ["state.E2=0.5"], "levels must be strictly ascending, got (0.0, 1.0, 0.5)"),
])
@pytest.mark.parametrize("command", ["sweep", "point"])
def test_a_spectrum_that_does_not_ascend_exits_1(capsys, cfg, settings, message, command):
    assert cli_main([command, str(CONFIG_DIR / cfg), *(arg for setting in settings for arg in ("--set", setting))]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# ---------------------------------------------------------------------------
# sweep behaviour
# ---------------------------------------------------------------------------

def test_experiment_sweep_structure():
    result = run_sweep(_spec(EXPERIMENT_CFG))
    rows = _rows(result)
    assert len(rows) == 31
    assert all(r["status"] == "ok" for r in rows)
    q = np.array([float(r["Q"]) for r in rows])
    q_tpm = np.array([float(r["Q_tpm"]) for r in rows])
    neg = np.array([r["negativity"] == "1" for r in rows])
    t1 = np.array([r["t1_violated"] == "1" for r in rows])
    assert np.all(q_tpm <= 1e-15)
    assert (q > 1e-12).any()
    assert t1.any() and neg.any()
    assert not np.any(t1 & ~neg)  # violations live inside the negativity set
    assert all(r["strong_backflow_violated"] == "0" for r in rows)


def test_trivial_grid_without_coherence_has_no_negativity():
    spec = _spec(
        "scenario = qubit-theta-eta\nstate.eta = 0.0\n"
        "sweep.axis1.name = theta\nsweep.axis1.min = 0.1\n"
        "sweep.axis1.max = 3.0\nsweep.axis1.points = 2\n"
        "sweep.axis2.name = eta\nsweep.axis2.min = 0\nsweep.axis2.max = 1e-15\nsweep.axis2.points = 2\n"
        "outputs = Q,negativity,t1_violated\n"
    )
    rows = _rows(run_sweep(spec))
    assert len(rows) == 4
    assert all(r["negativity"] == "0" for r in rows)
    assert all(r["t1_violated"] == "0" for r in rows)


def test_qutrit_sweep_region_consistency():
    rows = _rows(run_sweep(_spec(QUTRIT_CFG.replace(
        "outputs = Q,Q_tpm,min_pw,negativity,t3_violated,t4_lower_violated,t4_upper_violated",
        "outputs = Q,negativity,t3_violated,i4_violated,t4_lower_violated,t4_upper_violated",
    ))))
    neg = [r["negativity"] == "1" for r in rows]
    for col in ("t3_violated", "i4_violated", "t4_lower_violated", "t4_upper_violated"):
        flags = [r[col] == "1" for r in rows]
        assert any(flags)
        assert not any(v and not n for v, n in zip(flags, neg))
    # the exchange-fluctuation witness dominates the correlation witness
    # on this grid: every i4 cell is also a t3 cell
    t3 = [r["t3_violated"] == "1" for r in rows]
    i4 = [r["i4_violated"] == "1" for r in rows]
    assert not any(b and not a for a, b in zip(t3, i4))


def test_infeasible_cells_are_status_coded_not_dropped():
    spec = _spec(
        "scenario = qubit-theta-eta\n"
        "sweep.axis1.name = theta\nsweep.axis1.min = 0.5\nsweep.axis1.max = 1.0\nsweep.axis1.points = 2\n"
        "sweep.axis2.name = eta\nsweep.axis2.min = 0.0\nsweep.axis2.max = 0.5\nsweep.axis2.points = 5\n"
        "outputs = Q,negativity\n"
    )
    result = run_sweep(spec)
    rows = _rows(result)
    assert len(rows) == 10
    bad = [r for r in rows if r["status"].startswith("infeasible:")]
    assert bad and all(r["Q"] == "nan" for r in bad)
    assert result.metadata["infeasible"] == len(bad)
    assert {r["status"] for r in bad} == {"infeasible:eta_cap"}


def test_sweep_determinism():
    spec = _spec(EXPERIMENT_CFG)
    a = run_sweep(spec).to_csv()
    b = run_sweep(spec).to_csv()

    def strip_timestamp(text):
        return [l for l in text.splitlines() if not l.startswith("# timestamp")]

    assert strip_timestamp(a) == strip_timestamp(b)


def test_inapplicable_witnesses_are_flagged_not_nan():
    # equal temperatures: no witness with a 1/dBeta bound applies
    equal_betas = _rows(run_sweep(_spec(
        EXPERIMENT_CFG + "state.beta_H = 1.13\nstate.gamma = -0.05\noutputs = t1_violated,t1_bound,"
        "strong_backflow_violated,strong_backflow_bound\n"
    )))
    # T1 needs a resonant qubit pair
    qutrit = _rows(run_sweep(_spec(QUTRIT_CFG + "outputs = t1_violated,t4_lower_violated\n")))
    assert all(r["status"] == "ok" for r in equal_betas + qutrit)
    for r in equal_betas:
        assert r["t1_violated"] == r["strong_backflow_violated"] == "-1"
        assert r["t1_bound"] == r["strong_backflow_bound"] == "nan"
    assert all(r["t1_violated"] == "-1" for r in qutrit)
    assert {r["t4_lower_violated"] for r in qutrit} <= {"0", "1"}


def test_csv_headers_and_metadata_block():
    result = run_sweep(_spec(EXPERIMENT_CFG))
    lines = result.to_csv().splitlines()
    assert lines[0].startswith("# qheatflow")
    assert lines[1].startswith("# timestamp:")
    assert lines[2] == "# scenario: experiment-time"
    assert lines[3].startswith("# config:")
    assert lines[4].startswith("# cells: 31 infeasible: 0")
    assert lines[5].split(",")[0] == "t"
    assert lines[5].split(",")[-1] == "status"


# ---------------------------------------------------------------------------
# stacked evaluation against the scalar reference
# ---------------------------------------------------------------------------

def _spec_cells(spec: SweepSpec):
    """(kinds, params, row with the axis values) of every cell of ``spec``, in grid order."""
    scenario = sweeps.SCENARIOS[spec.scenario]
    params_base = {**scenario.defaults, **spec.fixed}
    kinds = sweeps._kinds(spec.scenario, params_base)
    keys = [scenario.axes.get(axis.name, axis.name) for axis in spec.axes]
    for cell in itertools.product(*(axis.values() for axis in spec.axes)):
        params = dict(params_base)
        row = {}
        for axis, key, value in zip(spec.axes, keys, cell):
            params[key] = row[axis.name] = float(value)
        yield kinds, params, row


def _reference_rows(spec: SweepSpec) -> list[dict]:
    """Every cell of ``spec`` built and evaluated alone by the scalar reference."""
    rows = []
    for kinds, params, row in _spec_cells(spec):
        try:
            sys, u, extras = reference.build_cell(spec.scenario, kinds, params)
            row.update(reference.evaluate_cell(sys, u, extras))
            row["status"] = "ok"
        except InfeasibleStateError as exc:
            row["status"] = f"infeasible:{exc.constraint}"
        rows.append(row)
    return rows


def _reprs(row: dict) -> dict:
    return {key: repr(value) for key, value in row.items()}


def _body(csv_text: str) -> list[str]:
    return [line for line in csv_text.splitlines() if not line.startswith("#")]


def _cell_text(value) -> str:
    """The CSV text of one value: "nan" when absent, 17 significant digits
    for a float."""
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int)):
        return str(int(value))
    return f"{value:.17g}"


def _assert_rows_equal_reference(spec: SweepSpec) -> list[dict]:
    """``spec`` run with every output its scenario accepts: every key of
    every row, compared by repr (nan equals nan, and the sign of a zero,
    the last bit and the type all count), and each row's CSV line.
    ``spec``'s own rows and CSV body are that run cut down to its
    columns.  Returns the full rows."""
    full = run_sweep(dataclasses.replace(spec, outputs=tuple(sorted(
        sweeps._check_keys(spec.scenario, spec.fixed)[1]
    ))))
    header, *lines = _body(full.to_csv())
    assert header == ",".join(full.columns)
    assert lines == [",".join(_cell_text(row.get(name)) for name in full.columns) for row in full.rows]
    own = run_sweep(spec)
    assert [_reprs(row) for row in own.rows] == [
        _reprs({key: row[key] for key in own.columns if key in row}) for row in full.rows
    ]
    where = {name: header.split(",").index(name) for name in own.columns}
    assert _body(own.to_csv()) == [",".join(own.columns)] + [
        ",".join(line.split(",")[where[name]] for name in own.columns) for line in lines
    ]
    rows = full.rows
    reference = _reference_rows(spec)
    assert len(rows) == len(reference)
    for k, (row, ref) in enumerate(zip(rows, reference)):
        got = {key: repr(v) for key, v in row.items()}
        want = {key: repr(v) for key, v in ref.items()}
        assert got == want, f"cell {k}: " + ", ".join(
            f"{key}: {got.get(key)} != {want.get(key)}"
            for key in sorted(got.keys() | want.keys())
            if got.get(key) != want.get(key)
        )
    return rows


def _with_points(path: Path, points: int) -> SweepSpec:
    cfg = load_config(str(path))
    for k in (1, 2):
        if f"sweep.axis{k}.name" in cfg:
            cfg[f"sweep.axis{k}.points"] = points
    return SweepSpec.from_config(cfg)


SWEEP_CONFIGS = sorted(p for p in CONFIG_DIR.glob("*.cfg") if "sweep.axis1.name" in load_config(str(p)))


@pytest.mark.parametrize("path", SWEEP_CONFIGS, ids=lambda p: p.name)
def test_stacked_sweep_equals_scalar_reference_on_shipped_configs(path):
    rows = _assert_rows_equal_reference(_with_points(path, 13))
    assert any(r["status"] == "ok" for r in rows)


def test_qutrit_xft_population_axes_keep_their_bytes_and_statuses():
    """The shipped qutrit_xft config over two free populations: each cell's
    first failed check, in the order (6, 3, 4, 1, 2, 0, 5, 7, 8), and the
    CSV body are those of the five-equation construction."""
    cfg = load_config(str(CONFIG_DIR / "qutrit_xft.cfg"))
    for k, (name, hi, points) in enumerate((("state.rho_8", 0.4, 9), ("state.rho_5", 0.3, 7)), start=1):
        cfg.update({f"sweep.axis{k}.name": name, f"sweep.axis{k}.min": 0.0, f"sweep.axis{k}.max": hi, f"sweep.axis{k}.points": points})
    result = run_sweep(SweepSpec.from_config(cfg))
    assert collections.Counter(row["status"] for row in result.rows) == {
        "ok": 7, "infeasible:population_6": 49, "infeasible:population_4": 7,
    }
    body = "\n".join(_body(result.to_csv())).encode()
    assert hashlib.sha256(body).hexdigest() == "c5741b2a1405288c578ac2d718585ce02d7868c56efe4a785a30fb4060470fad"


I4_DETUNED = """
scenario = custom
state.kind = gamma
state.beta_C = 1.13
state.beta_H = 0.96
state.gamma = 0
state.E_H = 1.3
"""
I4_UNITARIES = ("unitary.kind = exchange\nunitary.theta = 0.4\n", "unitary.kind = xy\nunitary.J = 215.1\nunitary.t = 0.0006\n")


def test_i4_does_not_apply_to_dynamics_that_do_not_conserve_the_cells_energy(tmp_path, capsys):
    """The J identity behind I4 needs an energy-conserving U.  On a product
    Gibbs pair detuned from the exchange, the MH table is nonnegative and
    I4 reads -1 (it read 1), like T3, which gates on the same mask."""
    cfg = tmp_path / "i4.cfg"
    for unitary in I4_UNITARIES:
        cfg.write_text(I4_DETUNED + unitary)
        assert cli_main(["point", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "negativity: 0" in out and "i4: not applicable or precondition failed" in out
    flags = ["t1", "t2", "t3", "i4", "t4_lower", "t4_upper", "strong_backflow"]
    grid = (
        "sweep.axis1.name = unitary.theta\nsweep.axis1.min = 0\nsweep.axis1.max = 3.1\nsweep.axis1.points = {}\n"
        "sweep.axis2.name = state.gamma\nsweep.axis2.min = -0.15\nsweep.axis2.max = 0.15\nsweep.axis2.points = {}\n"
        "outputs = Q,negativity," + ",".join(f"{w}_violated" for w in flags) + "\n"
    )
    rows = _rows(run_sweep(_spec(I4_DETUNED + I4_UNITARIES[0] + grid.format(60, 31))))
    assert len(rows) == 1860 and all(row["status"] == "ok" for row in rows)
    assert not [row for row in rows if row["negativity"] == "0" and "1" in (row[f"{w}_violated"] for w in flags)]
    assert {row["i4_violated"] for row in rows} == {"-1", "0"}  # 0 at theta = 0, where U is the identity
    _assert_rows_equal_reference(_spec(I4_DETUNED + I4_UNITARIES[0] + grid.format(5, 3)))

CUSTOM_STATES = {
    # kind: (fixed keys, axis over a state key); the two-qubit eta range
    # passes the coherence cap, so some groups are infeasible
    "gamma": ({"state.beta_C": 1.13, "state.beta_H": 0.9618}, ("state.gamma", -0.15, 0.15)),
    "two-qubit": (
        {"state.beta_C": 1.13, "state.beta_H": 0.962, "state.P00": 0.547, "state.xi": 0.3},
        ("state.eta", -0.25, 0.25),
    ),
    "two-qutrit": (
        {**sweeps.SCENARIOS["qutrit-theta-grid"].defaults, "state.xi": 0.2},
        ("state.eta", 0.0, 1.0),
    ),
}
CUSTOM_UNITARIES = {
    "exchange": (
        {"unitary.phi": 0.3, "unitary.lam": -0.2, "unitary.kappa": 0.1},
        ("unitary.theta", 0.0, 3.14159265358979),
    ),
    "xy": ({"unitary.J": 215.1}, ("unitary.t", 0.0, 0.0093)),
    "perturbed-xy": ({"unitary.J": 220.0, "unitary.t": 0.004}, ("unitary.Jx", 0.0, 200.0)),
}
QUTRIT_EXCHANGE = (
    {"unitary.theta01": 0.4, "unitary.theta12": 1.1},
    ("unitary.theta02", 0.0, 3.14159265358979),
)


def _custom_spec(state: str, unitary: str) -> SweepSpec:
    state_keys, state_axis = CUSTOM_STATES[state]
    unitary_keys, unitary_axis = CUSTOM_UNITARIES[unitary]
    if (state, unitary) == ("two-qutrit", "exchange"):
        unitary_keys, unitary_axis = QUTRIT_EXCHANGE
    cfg = {"scenario": "custom", "state.kind": state, "unitary.kind": unitary}
    cfg.update({k: v for k, v in state_keys.items() if k not in ("unitary.theta01", "unitary.theta02")})
    cfg.update(unitary_keys)
    for k, (name, lo, hi) in enumerate((unitary_axis, state_axis), start=1):
        cfg.update({f"sweep.axis{k}.name": name, f"sweep.axis{k}.min": lo, f"sweep.axis{k}.max": hi})
        cfg[f"sweep.axis{k}.points"] = 7 if k == 1 else 5
    return SweepSpec.from_config(cfg)


@pytest.mark.parametrize("state", CUSTOM_STATES)
@pytest.mark.parametrize("unitary", CUSTOM_UNITARIES)
def test_stacked_sweep_equals_scalar_reference_on_custom_kinds(state, unitary):
    spec = _custom_spec(state, unitary)
    if state == "two-qutrit" and unitary != "exchange":  # a 4x4 unitary on a 9-dim state
        with pytest.raises(ValueError, match="unitary dimension"):
            run_sweep(spec)
        with pytest.raises(ValueError, match="unitary dimension"):
            _reference_rows(spec)
        return
    rows = _assert_rows_equal_reference(spec)
    assert any(r["status"] == "ok" for r in rows)
    if state == "two-qubit":
        assert {r["status"] for r in rows} == {"ok", "infeasible:eta_cap"}


def test_stacked_sweep_equals_scalar_reference_on_edge_cells():
    # equal temperatures: every witness with a 1/dBeta bound is -1
    equal = _assert_rows_equal_reference(_spec(
        EXPERIMENT_CFG + "state.beta_H = 1.13\nstate.gamma = -0.05\n"
    ))
    for flag in ("t1", "t2", "t3", "i4", "strong_backflow"):
        assert {r[f"{flag}_violated"] for r in equal} == {-1}
    # a vanishing population that the MH table needs: T3 diverges (-2) on
    # the cells that rotate it, and is evaluated on the others
    starved = _assert_rows_equal_reference(_spec(QUTRIT_CFG + "state.rho_5 = 0.0\n"))
    t3 = [r["t3_violated"] for r in starved]
    assert -2 in t3 and {0, 1} & set(t3)
    assert all(("chi_bar" in r) == (f != -2) for r, f in zip(starved, t3))
    # a sweep whose every state is infeasible
    infeasible = _assert_rows_equal_reference(_nonideal_spec(**{"sweep.axis2.min": 0.025}))
    assert {r["status"] for r in infeasible} == {"infeasible:psd"}


# a two-qubit eta sweep past the coherence cap: some of its states are infeasible
ETA_CFG = (
    "scenario = qubit-theta-eta\n"
    "sweep.axis1.name = theta\nsweep.axis1.min = 0.5\nsweep.axis1.max = 1.0\nsweep.axis1.points = 4\n"
    "sweep.axis2.name = eta\nsweep.axis2.min = 0.0\nsweep.axis2.max = 0.5\nsweep.axis2.points = 5\n"
)


def test_sweep_csv_is_independent_of_the_stack_size(monkeypatch):
    names = ("qutrit_xft.cfg", "qubit_grid.cfg", "nonideal_tolerance.cfg")
    specs = [_with_points(CONFIG_DIR / name, 9) for name in names]
    specs.append(_spec(QUTRIT_CFG + "state.rho_5 = 0.0\n"))
    specs.append(_spec(ETA_CFG + "outputs = Q,Q_tpm,min_pw,t1_violated,t1_bound,t4_lower_bound,min_pt_eig\n"))

    def bodies():
        return [
            [line for line in run_sweep(spec).to_csv().splitlines() if not line.startswith("#")]
            for spec in specs
        ]

    default = bodies()
    # one cell per chunk; 7 cells of 4x4 (chunks that split one state's
    # cells and chunks that span two states of the qubit grid and the
    # nonideal map, whose states differ in their hot spectrum); 40 qutrit
    # or 202 qubit-pair cells, which hold several states of each grid
    for budget in (1, 7 * 16 * 4**2, 40 * 16 * 9**2):
        monkeypatch.setattr(sweeps, "STACK_BYTES", budget)
        assert bodies() == default


def test_stack_chunks_stay_within_the_byte_budget():
    assert sweeps._chunk_cells(9) == 128 and sweeps._chunk_cells(4) == 648
    for side in (4, 9, 16, 64, 144, 256):  # up to two d = 16 qudits
        cells = sweeps._chunk_cells(side)
        assert cells >= 1
        assert cells == 1 or cells * 16 * side**2 <= sweeps.STACK_BYTES < (cells + 1) * 16 * side**2
    assert sweeps._chunk_cells(256) == 1


def _count_calls(monkeypatch, *names) -> dict[str, int]:
    """Count the calls of each ``sweeps`` function named."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _fn=getattr(sweeps, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(sweeps, name, counting)
    return counts


def _count_validations(monkeypatch) -> list[int]:
    """The rows that each ``states.validate_stack`` call checks, the one check
    of every state: those without a parameter failure."""
    rows, validate = [], qh.states.validate_stack

    def counting(rho, dims, gibbs, errors=None):
        rows.append(len(rho) if errors is None else errors.count(None))
        return validate(rho, dims, gibbs, errors)

    monkeypatch.setattr(qh.states, "validate_stack", counting)
    return rows


def test_a_sweep_evaluates_chunks_that_span_states(monkeypatch):
    counts = _count_calls(monkeypatch, "_build_unitary_stack", "_evaluate_stack", "_build_state")
    validations = _count_validations(monkeypatch)
    nonideal = run_sweep(SweepSpec.from_config(load_config(str(CONFIG_DIR / "nonideal_tolerance.cfg"))))
    assert sum(r["status"] == "ok" for r in nonideal.rows) == 160
    assert counts == {"_build_unitary_stack": 1, "_evaluate_stack": 1, "_build_state": 1}
    assert validations == [13]  # every state in one stack, the psd failures among them
    counts.update(dict.fromkeys(counts, 0))
    validations.clear()
    run_sweep(SweepSpec.from_config(load_config(str(CONFIG_DIR / "qubit_grid.cfg"))))  # 41 states of 61 cells
    assert counts == {"_build_unitary_stack": 4, "_evaluate_stack": 4, "_build_state": 1}
    assert validations == [41]


def test_per_state_kernels_run_once_per_distinct_feasible_state(monkeypatch):
    counts = _count_calls(monkeypatch, "_build_state")
    validations = _count_validations(monkeypatch)
    stacked, kernel = [], sweeps.min_partial_transpose_eigenvalue
    monkeypatch.setattr(sweeps, "min_partial_transpose_eigenvalue", lambda st: stacked.append(len(st.rho)) or kernel(st))
    rows = run_sweep(_spec(ETA_CFG + "outputs = Q,min_pt_eig,t1_violated\n")).rows
    feasible = {r["eta"] for r in rows if r["status"] == "ok"}
    assert 1 < len(feasible) < len({r["eta"] for r in rows})
    assert counts == {"_build_state": 1}
    assert stacked == validations == [len(feasible)]  # one call over the feasible states; eta_cap fails before the checks
    for r in rows:  # each cell carries its own state's value
        if r["status"] == "ok":
            params = {**sweeps.SCENARIOS["qubit-theta-eta"].defaults, "state.eta": r["eta"]}
            sys = reference.build_cell("qubit-theta-eta", ("two-qubit", "exchange"), params)[0]
            assert repr(r["min_pt_eig"]) == repr(min_partial_transpose_eigenvalue(sys))


def test_a_chunk_mixing_equal_and_unequal_betas_equals_the_scalar_reference():
    # beta_H reaches beta_C on the last row of the grid: the kernels with a
    # 1/dBeta bound run on the other cells of the same chunk only
    spec = _spec(
        "scenario = custom\nstate.kind = gamma\nunitary.kind = xy\n"
        "state.beta_C = 1.13\nstate.gamma = -0.05\nunitary.J = 215.1\n"
        "sweep.axis1.name = unitary.t\nsweep.axis1.min = 0.0\nsweep.axis1.max = 0.0093\nsweep.axis1.points = 6\n"
        "sweep.axis2.name = state.beta_H\nsweep.axis2.min = 0.9\nsweep.axis2.max = 1.13\nsweep.axis2.points = 5\n"
    )
    rows = _assert_rows_equal_reference(spec)
    equal = [r for r in rows if r["state.beta_H"] == 1.13]
    assert len(equal) == 6 and all(r["status"] == "ok" for r in rows)
    for r in rows:
        evaluated = r["state.beta_H"] != 1.13
        assert ("chi_bar" in r) == ("j_term" in r) == ("t3_bound" in r) == evaluated
        assert (r["strong_backflow_violated"] == -1) != evaluated


@pytest.mark.parametrize("state,unitary", [("two-qubit", "exchange"), ("gamma", "xy"), ("gamma", "perturbed-xy")])
def test_a_state_gap_axis_equals_the_scalar_reference(state, unitary):
    # state.E changes both gaps cell by cell (the gamma state's hot gap
    # follows it unless state.E_H is set): the unitaries' commutator
    # norms, the tables and the spectrum preconditions of T1 and T4 vary
    # inside each chunk
    state_keys, _ = CUSTOM_STATES[state]
    unitary_keys, unitary_axis = CUSTOM_UNITARIES[unitary]
    cfg = {"scenario": "custom", "state.kind": state, "unitary.kind": unitary, **state_keys, **unitary_keys}
    if state == "gamma":
        cfg["state.gamma"] = -0.1
    for k, (name, lo, hi, points) in enumerate((unitary_axis + (5,), ("state.E", 0.8, 1.2, 5)), start=1):
        cfg.update({f"sweep.axis{k}.name": name, f"sweep.axis{k}.min": lo, f"sweep.axis{k}.max": hi})
        cfg[f"sweep.axis{k}.points"] = points
    rows = _assert_rows_equal_reference(SweepSpec.from_config(cfg))
    assert len({r["Q"] for r in rows if r["status"] == "ok"}) > 10


# the kernels a sweep runs only for the columns that read them
DEMAND_KERNELS = (
    "resonance_stack",
    "xft_average_stack",
    "xft_coherence_stack",
    "heat_exp_j_stack",
    "tpm_band_stack",
    "flow_decomposition_stack",
    "min_partial_transpose_eigenvalue",
)


def _count_kernels(monkeypatch) -> list[str]:
    called = []
    for name in DEMAND_KERNELS:
        def counting(*args, _name=name, _kernel=getattr(sweeps, name), **kwargs):
            called.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(sweeps, name, counting)
    return called


def test_sweep_runs_only_the_kernels_its_outputs_read(monkeypatch):
    called = _count_kernels(monkeypatch)
    result = run_sweep(SweepSpec.from_config(load_config(str(CONFIG_DIR / "qubit_grid.cfg"))))
    assert result.metadata["cells"] == 2501
    assert called == []
    # each kernel runs once a column that reads it is asked for
    outputs = ("chi_bar", "j_term", "t4_lower_bound", "Q_back", "min_pt_eig", "t3_violated")
    spec = dataclasses.replace(_with_points(CONFIG_DIR / "qubit_grid.cfg", 3), outputs=outputs)
    run_sweep(spec)
    assert set(called) == set(DEMAND_KERNELS)
    # I4 reads J and the tables' resonance, not the XFT average
    called.clear()
    run_sweep(dataclasses.replace(spec, outputs=("i4_violated",)))
    assert set(called) == {"heat_exp_j_stack", "resonance_stack"}


def test_sweep_rows_hold_the_csv_columns():
    result = run_sweep(_spec(
        "scenario = qubit-theta-eta\n"
        "sweep.axis1.name = theta\nsweep.axis1.min = 0.5\nsweep.axis1.max = 1.0\nsweep.axis1.points = 2\n"
        "sweep.axis2.name = eta\nsweep.axis2.min = 0.0\nsweep.axis2.max = 0.5\nsweep.axis2.points = 5\n"
        "outputs = Q,t1_violated,t1_bound,theta\n"
    ))
    assert result.columns == ("theta", "eta", "Q", "t1_violated", "t1_bound", "theta", "status")
    statuses = set()
    for row, line in zip(result.rows, _body(result.to_csv())[1:]):
        statuses.add(row["status"])
        if row["status"] == "ok":
            assert list(row) == ["theta", "eta", "Q", "t1_violated", "t1_bound", "status"]
        else:  # an infeasible cell keeps its axis values, and an output named like an axis
            assert list(row) == ["theta", "eta", "status"]
            assert line.split(",")[2:5] == ["nan"] * 3
        assert line.split(",")[0] == line.split(",")[5] == f"{row['theta']:.17g}"
    assert statuses == {"ok", "infeasible:eta_cap"}


def test_sweep_builds_each_distinct_state_once(monkeypatch):
    built = []
    build_state = sweeps._build_state

    def counting(kind, columns, n):
        built.append(columns["state.eta"].tolist())
        return build_state(kind, columns, n)

    monkeypatch.setattr(sweeps, "_build_state", counting)
    validations = _count_validations(monkeypatch)
    spec = _spec(
        "scenario = qubit-theta-eta\n"
        "sweep.axis1.name = theta\nsweep.axis1.min = 0.5\nsweep.axis1.max = 1.0\nsweep.axis1.points = 4\n"
        "sweep.axis2.name = eta\nsweep.axis2.min = 0.0\nsweep.axis2.max = 0.5\nsweep.axis2.points = 5\n"
    )
    rows = run_sweep(spec).rows
    assert len(rows) == 20
    assert len(built) == 1 and sorted(built[0]) == sorted(set(r["eta"] for r in rows))  # one call, infeasible ones too
    assert validations == [len({r["eta"] for r in rows if r["status"] == "ok"})]  # one stack, no state checked alone


def _axes(*axes) -> dict:
    """The config keys of (name, min, max, points) axes."""
    keys = ("name", "min", "max", "points")
    return {f"sweep.axis{k}.{key}": value for k, axis in enumerate(axes, start=1) for key, value in zip(keys, axis)}


QUBIT_STATE = {"scenario": "custom", "state.kind": "two-qubit", "unitary.kind": "exchange", "unitary.theta": 0.7}
QUBIT_STATE.update(CUSTOM_STATES["two-qubit"][0])
QUTRIT_STATE = {"scenario": "custom", "state.kind": "two-qutrit", "unitary.kind": "exchange", "unitary.theta01": 0.4}
QUTRIT_STATE.update((k, v) for k, v in sweeps.SCENARIOS["qutrit-theta-grid"].defaults.items() if k.startswith("state."))
# grids whose cells cross every constraint of each state kind, with the statuses they reach
CONSTRAINT_GRIDS = {
    "two-qubit P00 x eta": (
        {**QUBIT_STATE, **_axes(("state.P00", 0.4, 0.8, 9), ("state.eta", -0.3, 0.3, 7))},
        {"ok", "infeasible:p00_upper", "infeasible:p00_lower", "infeasible:eta_cap"},
    ),
    "two-qutrit rho_8 x rho_5": (
        {**QUTRIT_STATE, **_axes(("state.rho_8", -0.05, 0.6, 14), ("state.rho_5", -0.05, 0.4, 10))},
        {"ok", *(f"infeasible:population_{k}" for k in (3, 4, 5, 6))},
    ),
    "two-qutrit rho_7 x eta_57": (
        {**QUTRIT_STATE, **_axes(("state.rho_7", -0.05, 0.5, 12), ("state.eta_57", 0.0, 1.5, 4))},
        {"ok", "infeasible:population_3", "infeasible:population_6", "infeasible:eta_12"},
    ),
    "two-qutrit eta_13 x eta_26": (
        {**QUTRIT_STATE, **_axes(("state.eta_13", 0.5, 1.5, 3), ("state.eta_26", 0.5, 1.5, 3))},
        {"ok", "infeasible:eta_01", "infeasible:eta_02"},
    ),
    "gamma = -0.5": ({**load_config(str(CONFIG_DIR / "experiment_time.cfg")), "state.gamma": -0.5}, {"infeasible:psd"}),
    "beta_C = -800": ({**load_config(str(CONFIG_DIR / "experiment_time.cfg")), "state.beta_C": -800.0}, {"infeasible:psd"}),
    "nonideal_tolerance.cfg": (load_config(str(CONFIG_DIR / "nonideal_tolerance.cfg")), {"ok", "infeasible:psd"}),
}


def _state_params(spec: SweepSpec, params: dict) -> dict:
    params = dict(params)
    sweeps._derive(sweeps.SCENARIOS[spec.scenario], params, "state.")
    return params


def _reference_status(spec: SweepSpec, kinds, params) -> str:
    """The status of one cell whose state the reference builds and checks alone."""
    try:
        reference.build_state(kinds[0], _state_params(spec, params))
    except InfeasibleStateError as exc:
        return f"infeasible:{exc.constraint}"
    return "ok"


@pytest.mark.parametrize("name", CONSTRAINT_GRIDS)
def test_stacked_statuses_equal_the_one_at_a_time_reference(name):
    cfg, reached = CONSTRAINT_GRIDS[name]
    spec = SweepSpec.from_config(cfg)
    got = run_sweep(spec).values["status"][0].tolist()
    want = [_reference_status(spec, kinds, params) for kinds, params, _ in _spec_cells(spec)]
    assert got == want
    assert set(got) == reached


@pytest.mark.parametrize("name", CONSTRAINT_GRIDS)
def test_stacked_state_rows_equal_the_one_at_a_time_build_bit_for_bit(name):
    # every cell's state in one columnar build, failing rows among them: each
    # row fails as the reference's state alone, with the same message, and
    # each passing row is the reference's system, column by column
    spec = SweepSpec.from_config(CONSTRAINT_GRIDS[name][0])
    cells = [(kind, _state_params(spec, params)) for (kind, _), params, _ in _spec_cells(spec)]
    columns = {key: np.array([params[key] for _, params in cells]) for key in cells[0][1]}
    errors, stack = sweeps._build_state(cells[0][0], columns, len(cells))
    for k, (kind, params) in enumerate(cells):
        try:
            row = reference.build_state(kind, params).stack
        except InfeasibleStateError as exc:
            assert (errors[k].constraint, str(errors[k])) == (exc.constraint, str(exc)), k
            continue
        assert errors[k] is None
        for field, got, alone in zip(StateStack._fields, stack.take(slice(k, k + 1)), row):
            assert got.tobytes() == alone.tobytes(), (k, field)


@pytest.mark.parametrize("gamma", [-0.19, 0.1, 0.0, -0.0, 0, 0.05 + 0.02j, 0.1 + 0j, -0.1 - 0j])
def test_a_gamma_states_rho_is_the_product_plus_gamma_bit_for_bit(gamma):
    # the entries' fill writes conj(gamma) where the product state added it:
    # the two differ only in the sign of an exact-zero imaginary part
    got = qh.states.gamma_correlated_state(gamma, 1.13, 0.9618, gap_h=1.02).rho
    want = reference.gamma_correlated_state(gamma, 1.13, 0.9618, gap_h=1.02).rho
    if isinstance(gamma, complex) and gamma.imag == 0.0:
        assert np.signbit(got[1, 2].imag) and not np.signbit(want[1, 2].imag)
        want = want.copy()
        want[1, 2] = np.conj(want[1, 2])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg, error", [
    ({**QUTRIT_STATE, **_axes(("state.E2", 0.9, 1.3, 5))}, ValueError),  # E2 crosses E1 = 1.0
    ({**QUTRIT_STATE, **_axes(("state.rho_8", -0.05, 0.6, 4), ("state.E1", 0.5, 1.3, 5))}, ValueError),  # E1 crosses E2
    ({k: v for k, v in QUBIT_STATE.items() if k != "state.P00"} | _axes(("state.eta", -0.1, 0.1, 3)), ConfigError),
])
def test_a_sweep_raises_the_first_state_error_in_group_order_as_the_reference(cfg, error):
    spec = SweepSpec.from_config(cfg)
    with pytest.raises(error) as got:
        run_sweep(spec)
    with pytest.raises(error) as want:
        for kinds, params, _ in _spec_cells(spec):
            _reference_status(spec, kinds, params)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


# a shipped config of each named scenario, then every custom kind pair
CELL_SPECS = ["experiment_time.cfg", "qubit_grid.cfg", "qutrit_xft.cfg", "nonideal_tolerance.cfg"] + [
    f"{state}+{unitary}" for state in CUSTOM_STATES for unitary in CUSTOM_UNITARIES
]


def _cell_spec(name: str) -> SweepSpec:
    if name.endswith(".cfg"):
        return _with_points(CONFIG_DIR / name, 7)
    return _custom_spec(*name.split("+"))


def _evaluated(evaluate, sys, u, extras):
    """The row's reprs, or the error that a unitary of the wrong size raises."""
    try:
        return _reprs(evaluate(sys, u, extras))
    except ValueError as exc:
        return repr(exc)


@pytest.mark.parametrize("name", CELL_SPECS)
def test_build_cell_and_evaluate_cell_equal_scalar_reference_bit_for_bit(name):
    # the one-cell stack against the single-matrix constructors and the
    # scalar evaluation, on every feasible cell of a named scenario's grid
    # or a custom kind pair: the point path evaluates the stack, and
    # evaluate_cell the reference's UnitaryReport
    spec = _cell_spec(name)
    built = 0
    for kinds, params, _ in _spec_cells(spec):
        try:
            sys, u, extras = _build_cell(spec.scenario, kinds, params)
        except InfeasibleStateError:
            continue
        _, ref, ref_extras = reference.build_cell(spec.scenario, kinds, params)
        assert isinstance(u, UnitaryStack) and len(u.matrix) == 1
        assert u.matrix[0].tobytes() == ref.matrix.tobytes()
        assert repr(u.commutator_norm[0].item()) == repr(ref.commutator_norm)
        assert repr(u.epsilon if u.epsilon is None else u.epsilon[0].item()) == repr(ref.epsilon)
        assert _reprs(extras) == _reprs(ref_extras)
        want = _evaluated(reference.evaluate_cell, sys, ref, ref_extras)
        assert _evaluated(lambda *args: _evaluate_one(*args)[0], sys, u, extras) == want
        assert _evaluated(evaluate_cell, sys, ref, extras) == want
        built += 1
    assert built


# the keys each unitary kind needs; an exchange on a qutrit needs none
REQUIRED_UNITARY_KEYS = {
    "exchange": ("unitary.theta",),
    "xy": ("unitary.J", "unitary.t"),
    "perturbed-xy": ("unitary.J", "unitary.t"),
}


@pytest.mark.parametrize(
    "state,unitary",
    [(s, u) for s in CUSTOM_STATES for u in CUSTOM_UNITARIES if (s, u) != ("two-qutrit", "exchange")],
)
def test_build_cell_names_a_missing_key_as_the_reference_does(state, unitary):
    state_keys, (state_key, lo, hi) = CUSTOM_STATES[state]
    unitary_keys, (unitary_key, _, end) = CUSTOM_UNITARIES[unitary]
    params = {**state_keys, state_key: 0.5 * (lo + hi), **unitary_keys, unitary_key: end}
    for key in REQUIRED_UNITARY_KEYS[unitary]:
        given = {k: v for k, v in params.items() if k != key}
        with pytest.raises(ConfigError) as got:
            _build_cell("custom", (state, unitary), given)
        with pytest.raises(ConfigError) as want:
            reference.build_cell("custom", (state, unitary), given)
        assert str(got.value) == str(want.value) == f"{key} is not set; the {unitary} unitary needs it"


# optimal Golomb rulers: every level difference is distinct, so the
# scaled spectra are Bohr-nondegenerate
GOLOMB = {
    4: (0, 1, 4, 6),
    8: (0, 1, 4, 9, 15, 22, 32, 34),
    12: (0, 2, 6, 24, 29, 40, 43, 55, 68, 75, 76, 85),
    16: (0, 1, 4, 11, 26, 32, 56, 68, 76, 115, 117, 134, 150, 163, 168, 177),
}


def _qudit_cell(d: int, rng):
    """A feasible coherent locally thermal qudit state and an exchange unitary."""
    spec = EnergySpectrum(tuple(4.0 * m / GOLOMB[d][-1] for m in GOLOMB[d]))
    product = np.outer(thermal_populations(spec, 1.2), thermal_populations(spec, 0.5)).ravel()
    pairs = [(n, m) for n in range(d) for m in range(n + 1, d)]
    free_keys = [0] + [n * d + m for n in range(1, d) for m in range(1, d) if (n, m) != (1, 1)]
    for _ in range(100):
        free = {k: product[k] * rng.uniform(0.95, 1.05) for k in free_keys}
        eta = dict(zip(pairs, rng.uniform(0.2, 0.95, len(pairs))))
        xi = dict(zip(pairs, rng.uniform(0.0, 2.0 * np.pi, len(pairs))))
        try:
            sys_ = qudit_locally_thermal(spec, 1.2, 0.5, free, eta, xi)
        except InfeasibleStateError:
            continue
        rots = [ManifoldRotation(pair, theta) for pair, theta in zip(pairs, rng.uniform(0, np.pi, len(pairs)))]
        return sys_, energy_preserving_unitary(spec, rots)
    raise AssertionError(f"no feasible d = {d} draw in 100 attempts")


@pytest.mark.parametrize("d", sorted(GOLOMB))
def test_evaluate_cell_equals_scalar_reference_on_qudits(d):
    rng = np.random.default_rng(1000 + d)
    for _ in range(2):
        sys_, u = _qudit_cell(d, rng)
        got = _reprs(evaluate_cell(sys_, u, {}))
        assert got == _reprs(reference.evaluate_cell(sys_, u, {}))
        assert {"chi_bar", "t4_lower_bound", "i4_bound"} <= got.keys()


def _public_verdicts(sys, u, extras):
    """{witness: (flag, bound repr or None)} of the public single-cell
    witnesses on one cell with unequal betas, for each witness that
    ``evaluate_cell`` evaluates there: T1 on equal qubit spectra, T2 with
    an ``eps_actual``, T4 on equal Bohr-nondegenerate spectra.  A
    DivergenceError reads -2 with no bound."""
    bc, bh = sys.beta_c, sys.beta_h
    mh, tpm = qh.mh_distribution(sys, u), qh.tpm_distribution(sys, u)
    q, q_tpm = qh.table_heat(mh), qh.table_heat(tpm)
    gap, gap_h = sys.spectrum_c.levels[1], sys.spectrum_h.levels[1]
    equal = sys.spectrum_c == sys.spectrum_h
    calls = [
        (("t3",), lambda: qh.xft_flow_witness(q, qh.xft_average(mh, sys).with_chi(qh.xft_coherence_term(sys, u)), bc, bh)),
        (("i4",), lambda: qh.correlation_flow_witness(q, qh.heat_exp_correction(sys, u).j, mh, bc, bh)),
        (("strong_backflow",), lambda: qh.strong_backflow_witness(q, bc, bh, sys.d_c)),
    ]
    if equal and sys.dims == (2, 2):
        calls.append((("t1",), lambda: qh.two_qubit_flow_witness(q, q_tpm, bc, bh, gap, u.commutator_norm)))
    if "eps_actual" in extras:
        calls.append((("t2",), lambda: qh.nonideal_flow_witness(q, q_tpm, bc, bh, gap, gap_h, extras["eps_actual"])))
    if equal and sys.spectrum_c.bohr_nondegenerate():
        calls.append((("t4_lower", "t4_upper"), lambda: qh.tpm_band_witness(q, tpm)))
    out = {}
    for names, call in calls:
        try:
            verdicts = call()
        except qh.DivergenceError:
            out.update((name, (-2, None)) for name in names)
            continue
        for name, v in zip(names, verdicts if isinstance(verdicts, tuple) else (verdicts,)):
            out[name] = (-1 if not v.preconditions_ok else int(v.violated), repr(v.bound))
    return out


def _differential_cells():
    """(system, unitary, extras) of cells with detuned spectra or vanishing populations."""
    cells = []
    # a detuned grid: the H gap on and off the exchange's
    for gamma, gap_h, theta in itertools.product((-0.15, 0.0, 0.1), (1.0, 1.3), (0.0, 0.4, 1.3)):
        sys_ = qh.gamma_correlated_state(gamma, 1.13, 0.9618, gap_h=gap_h)
        cells.append((sys_, qh.two_qubit_exchange_unitary(theta), {}))
    # gamma states with gap_h != gap under the XY coupling and its perturbed form
    for gamma, gap_h, t in itertools.product((-0.15, 0.05), (1.0, 1.2), (6e-4, 0.004)):
        sys_ = qh.gamma_correlated_state(gamma, 1.13, 0.9618, gap_h=gap_h)
        cells.append((sys_, qh.xy_exchange_unitary(215.1, t), {}))
        u = qh.perturbed_xy_unitary(220.0, 30.0, t, gap=1.0, gap_h=gap_h)
        cells.append((sys_, u, {"eps_actual": u.epsilon}))
    # two qubits at P00 = 1/z_H: the population of |1 0> vanishes, so the
    # XFT average diverges while J stays finite
    for beta_c, beta_h in ((1.13, 0.9618), (1.3, 0.3)):
        sys_ = qh.two_qubit_state(qh.TwoQubitParams(beta_c, beta_h, p00=1.0 / (1.0 + np.exp(-beta_h)), eta=0.0))
        cells += [(sys_, qh.two_qubit_exchange_unitary(theta), {}) for theta in (0.3, 0.7, 1.2, 2.0)]
    # a hot marginal population below 1e-12: J diverges too
    cells.append((qh.gamma_correlated_state(0.0, 40.0, 30.0), qh.two_qubit_exchange_unitary(0.4), {}))
    return cells


def test_public_witnesses_equal_evaluate_cell_flag_for_flag():
    seen = set()
    for sys_, u, extras in _differential_cells():
        row = evaluate_cell(sys_, u, extras)
        want = _public_verdicts(sys_, u, extras)
        for w in sweeps.WITNESS_NAMES:
            bound = row.get(f"{w}_bound")
            got = (row[f"{w}_violated"], None if bound is None else repr(bound))
            assert got == want.get(w, (-1, None)), (w, sys_.spectrum_h.levels, extras)
            seen.add((w, got[0]))
    assert seen >= {("t1", 1), ("t2", 0), ("t3", -2), ("i4", -2), ("i4", -1), ("i4", 0), ("t4_lower", 1)}
    # the case where the scalar I4 could not be reached: T3 diverges, I4 reads the table's resonance
    sys_ = qh.two_qubit_state(qh.TwoQubitParams(1.13, 0.9618, p00=1.0 / (1.0 + np.exp(-0.9618)), eta=0.0))
    u = qh.two_qubit_exchange_unitary(0.7)
    mh = qh.mh_distribution(sys_, u)
    with pytest.raises(qh.DivergenceError):
        qh.xft_average(mh, sys_)
    v = qh.correlation_flow_witness(qh.table_heat(mh), qh.heat_exp_correction(sys_, u).j, mh, 1.13, 0.9618)
    assert not v.violated and v.bound == -0.012372885648769243 == evaluate_cell(sys_, u)["i4_bound"]


# ---------------------------------------------------------------------------
# nonideal J_x solve
# ---------------------------------------------------------------------------

def _reference_jx(j_hz, t, eps, jx_hi=4000.0):
    """The bisection on full unitary reports that the solver must reproduce."""
    if eps <= 0.0:
        return 0.0
    if perturbed_xy_unitary(j_hz, jx_hi, t).epsilon < eps:
        raise ConfigError("not reachable")
    lo, hi = 0.0, jx_hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if perturbed_xy_unitary(j_hz, mid, t).epsilon < eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# the shipped config, the benchmark's ~1% jitter of J and t, and larger targets
JX_CASES = [
    (220.0, 0.004, 1e-4),
    (220.0, 0.004, 0.0015),
    (217.9, 0.00396, 7.3e-4),
    (222.1, 0.00404, 0.00149),
    (215.1, 0.003, 0.05),
    (220.0, 0.004, 0.9),
]


@pytest.mark.parametrize("j_hz,t,eps", JX_CASES)
def test_solve_jx_matches_report_bisection_bit_for_bit(j_hz, t, eps):
    jx = _solve_jx_for_eps(j_hz, t, eps)
    assert jx == _reference_jx(j_hz, t, eps)
    # eps of the returned J_x hits the target, and a billionth of J_x to
    # either side (far above rounding noise in eps) brackets it
    step = 1e-9 * jx
    assert perturbed_xy_unitary(j_hz, jx - step, t).epsilon < eps
    assert perturbed_xy_unitary(j_hz, jx + step, t).epsilon >= eps
    assert perturbed_xy_unitary(j_hz, jx, t).epsilon == pytest.approx(eps, rel=1e-9)


def test_solve_jx_zero_and_unreachable_targets():
    assert _solve_jx_for_eps(220.0, 0.004, 0.0) == 0.0
    assert _solve_jx_for_eps(220.0, 0.004, -1e-3) == 0.0
    with pytest.raises(ConfigError, match="not reachable"):
        _solve_jx_for_eps(220.0, 0.004, 2.5)  # eps <= 2 for any pair of unitaries


def _single_matrix_jx(j_hz, t, eps, jx_hi=4000.0):
    """The one-target bisection with a single-matrix exponential and norm
    per step, the kernels the batched solve must reproduce."""
    if eps <= 0.0:
        return 0.0
    h_xy = 0.5 * np.pi * j_hz * (np.kron(SIGMA_Y, SIGMA_X) - np.kron(SIGMA_X, SIGMA_Y))
    u_ref = matrix_exp(-1j * h_xy * t)

    def eps_of(j_x):
        return spectral_norm(matrix_exp(-1j * (h_xy + j_x * np.kron(SIGMA_X, SIGMA_X)) * t) - u_ref)

    assert eps_of(jx_hi) >= eps
    lo, hi = 0.0, jx_hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if eps_of(mid) < eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("j_hz,t", sorted({(j_hz, t) for j_hz, t, _ in JX_CASES}))
def test_batched_solve_jx_equals_one_target_solves_bit_for_bit(j_hz, t):
    eps_hi = perturbed_xy_unitary(j_hz, 4000.0, t).epsilon
    rng = np.random.default_rng(round(j_hz * t * 1e6))
    targets = np.concatenate([
        [e for j, tt, e in JX_CASES if (j, tt) == (j_hz, t)],
        rng.uniform(0.0, eps_hi, 50),
        [0.0, -1e-3, -np.inf, 0.0015, 0.0015, 0.9, 0.9],  # zero, negatives, duplicates
        [eps_hi, np.nextafter(eps_hi, 0.0), eps_hi * (1 - 1e-9)],  # at and just below eps(4000)
    ])
    batched = _solve_jx_for_eps(j_hz, t, targets)
    assert batched.shape == targets.shape
    for eps, jx in zip(targets.tolist(), batched.tolist()):
        one = _solve_jx_for_eps(j_hz, t, eps)
        assert type(one) is float
        assert jx.hex() == one.hex() == float(_single_matrix_jx(j_hz, t, eps)).hex()


def test_batched_solve_jx_names_the_first_unreachable_target():
    eps_hi = perturbed_xy_unitary(220.0, 4000.0, 0.004).epsilon
    above = np.nextafter(eps_hi, 3.0)
    for targets, first in (
        ([1e-3, 2.5, 0.5, 2.1], 2.5),
        ([0.0, eps_hi, above, 2.5], above),
        ([-1.0, np.inf, 2.5], np.inf),
    ):
        with pytest.raises(ConfigError) as exc:
            _solve_jx_for_eps(220.0, 0.004, np.array(targets))
        assert str(exc.value) == f"eps = {first} not reachable below J_x = 4000.0"
    with pytest.raises(ConfigError, match=r"^eps = inf not reachable below J_x = 4000.0$"):
        _solve_jx_for_eps(220.0, 0.004, np.inf)
    assert _solve_jx_for_eps(220.0, 0.004, -np.inf) == 0.0


def test_solve_jx_rejects_a_nan_target():
    for targets in (np.nan, np.array([1e-3, np.nan, 2.5]), [np.nan]):
        with pytest.raises(ConfigError, match=r"^eps must be finite, got nan$"):
            _solve_jx_for_eps(220.0, 0.004, targets)


def test_solve_jx_names_the_first_failing_target_across_j_and_t():
    # per-target t: a negative t and an unreachable eps fail in target order
    with pytest.raises(ValueError, match=r"^time must be nonnegative$"):
        _solve_jx_for_eps(220.0, [0.004, -1.0, 0.004], [1e-3, 0.2, 2.5])
    with pytest.raises(ConfigError, match=r"^eps = 2.5 not reachable below J_x = 4000.0$"):
        _solve_jx_for_eps(220.0, [0.004, 0.004, -1.0], [1e-3, 2.5, 0.2])
    with pytest.raises(ConfigError, match=r"^eps = 1.6 not reachable below J_x = 4000.0$"):
        _solve_jx_for_eps([220.0, 220.0, 215.1], [0.001, 0.002, 0.001], [1.6, 1.6, 1.9])
    assert _solve_jx_for_eps(220.0, -1.0, [0.0, -1.0]).tolist() == [0.0, 0.0]


def test_cli_point_rejects_a_nan_eps(tmp_path, capsys):
    cfg = tmp_path / "pt.cfg"
    cfg.write_text("scenario = nonideal-eps-delta\neps = nan\n")
    assert cli_main(["point", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: eps must be finite, got nan\n" and captured.out == ""


def _nonideal_spec(**overrides) -> SweepSpec:
    cfg = load_config(str(CONFIG_DIR / "nonideal_tolerance.cfg"))
    cfg.update({"sweep.axis1.points": 4, "sweep.axis2.points": 4, **overrides})
    return SweepSpec.from_config(cfg)


def _count_solves(monkeypatch, batches=None):
    """Record one (J, t, eps) triple per target of each solve call, and the
    triples of each call as one list in ``batches`` when given."""
    calls = []
    solve = sweeps._solve_jx_for_eps

    def counting(j_hz, t, eps):
        triples = list(zip(*(np.broadcast_to(x, np.shape(eps)).reshape(-1).tolist() for x in (j_hz, t, eps))))
        calls.extend(triples)
        if batches is not None:
            batches.append(triples)
        return solve(j_hz, t, eps)

    monkeypatch.setattr(sweeps, "_solve_jx_for_eps", counting)
    return calls


def test_nonideal_sweep_solves_each_eps_once(monkeypatch):
    calls = _count_solves(monkeypatch)
    result = run_sweep(_nonideal_spec())
    ok = [r for r in result.rows if r["status"] == "ok"]
    assert ok and len(ok) < len(result.rows)  # Delta = 0.03 lies past the positivity edge
    for r in ok:
        assert r["jx"] == _solve_jx_for_eps(220.0, 0.004, r["eps"])
    solved_eps = [eps for _, _, eps in calls]
    assert len(solved_eps) == len(set(solved_eps))
    assert {e for e in solved_eps if e > 0} == {r["eps"] for r in ok if r["eps"] > 0}
    assert len({r["eps"] for r in ok if r["eps"] > 0}) == 3

    calls.clear()
    infeasible = run_sweep(_nonideal_spec(**{"sweep.axis2.min": 0.025}))
    assert all(r["status"].startswith("infeasible") for r in infeasible.rows)
    assert calls == []  # infeasible cells skip the solve


def test_nonideal_sweep_solves_in_one_call(monkeypatch):
    batches = []
    _count_solves(monkeypatch, batches)
    run_sweep(_nonideal_spec())
    assert len(batches) == 1 and {(j, t) for j, t, _ in batches[0]} == {(220.0, 0.004)}

    batches.clear()
    by_t = run_sweep(_nonideal_spec(**{
        "sweep.axis2.name": "unitary.t", "sweep.axis2.min": 0.003, "sweep.axis2.max": 0.004,
    }))
    assert len(batches) == 1  # every (J, t, eps) of the sweep, in cell order
    assert batches[0] == [(220.0, r["unitary.t"], r["eps"]) for r in by_t.rows]
    for r in by_t.rows:
        assert r["status"] == "ok"
        assert r["jx"] == _solve_jx_for_eps(220.0, r["unitary.t"], r["eps"])


def test_shipped_nonideal_sweep_screens_most_comparisons_by_the_closed_form(monkeypatch):
    # the unscreened bisection makes 61 stacked evaluations: eps(4000) and 60 halvings
    evaluated = []
    perturbation = sweeps._xy_perturbation

    def counting(j_hz, t):
        perturbed = perturbation(j_hz, t)

        def counted(j_x, index=slice(None)):
            evaluated.append(j_x.size)
            return perturbed(j_x, index)

        return counted

    monkeypatch.setattr(sweeps, "_xy_perturbation", counting)
    result = run_sweep(SweepSpec.from_config(load_config(str(CONFIG_DIR / "nonideal_tolerance.cfg"))))
    assert any(r["status"] == "ok" and r["eps"] > 0 for r in result.rows)
    assert 0 < len(evaluated) <= 20


def test_nonideal_sweep_names_the_first_unreachable_cell():
    # eps(4000) is ~1.82 at t = 0.001 and ~1.51 at t = 0.002: eps = 1.6
    # fails in the second cell, eps = 1.9 in the third (at the first t)
    spec = _nonideal_spec(**{
        "sweep.axis1.min": 1.6, "sweep.axis1.max": 1.9, "sweep.axis1.points": 2,
        "sweep.axis2.name": "unitary.t", "sweep.axis2.min": 0.001, "sweep.axis2.max": 0.002,
        "sweep.axis2.points": 2,
    })
    with pytest.raises(ConfigError, match=r"^eps = 1.6 not reachable below J_x = 4000.0$"):
        run_sweep(spec)


def test_a_sweep_derives_once_per_column_not_per_cell(monkeypatch):
    prefixes = []
    derive = sweeps._derive

    def counting(*args):
        prefixes.append(args[2])
        return derive(*args)

    monkeypatch.setattr(sweeps, "_derive", counting)
    path = CONFIG_DIR / "qubit_grid.cfg"
    for spec, cells in ((_with_points(path, 3), 9), (SweepSpec.from_config(load_config(str(path))), 2501)):
        prefixes.clear()
        assert len(run_sweep(spec).rows) == cells
        assert prefixes == ["state.", "unitary."]

    batches = []
    _count_solves(monkeypatch, batches)
    prefixes.clear()
    result = run_sweep(_nonideal_spec())
    assert prefixes == ["state.", "unitary."]
    feasible = {(220.0, 0.004, r["eps"]) for r in result.rows if r["status"] == "ok"}
    assert len(batches) == 1 and sorted(batches[0]) == sorted(feasible)  # each distinct triple once

    prefixes.clear()
    run_sweep(_nonideal_spec(**{"sweep.axis2.min": 0.025}))  # every cell infeasible
    assert prefixes == ["state."] and len(batches) == 1


def test_cells_group_by_value_bits_in_first_appearance_order():
    columns = [np.array([1.0, 0.0, -0.0, 1.0, 0.0]), np.array([2.0, 3.0, 3.0, 2.0, 3.0])]
    first, inverse = sweeps._distinct(columns, 5)
    assert first.tolist() == [0, 1, 2] and inverse.tolist() == [0, 1, 2, 0, 1]  # -0.0 is not 0.0
    first, inverse = sweeps._distinct([], 4)
    assert first.tolist() == [0] and inverse.tolist() == [0, 0, 0, 0]


def test_nonideal_jx_memo_does_not_outlive_a_sweep(monkeypatch):
    calls = _count_solves(monkeypatch)
    first = run_sweep(_nonideal_spec())
    n_first = len(calls)
    second = run_sweep(_nonideal_spec(**{"unitary.t": 0.003}))
    assert len(calls) == 2 * n_first
    for a, b in zip(first.rows, second.rows):
        if a["status"] == "ok" and a["eps"] > 0:
            assert b["jx"] == _solve_jx_for_eps(220.0, 0.003, b["eps"]) != a["jx"]
    run_sweep(_nonideal_spec())  # a repeated sweep solves again
    assert len(calls) == 3 * n_first


def test_perturbed_cell_commutator_uses_the_state_gaps():
    params = {
        "state.gamma": -0.1, "state.beta_C": 1.13, "state.beta_H": 0.9618,
        "state.E": 1.0, "state.E_H": 1.05,
        "unitary.J": 220.0, "unitary.Jx": 30.0, "unitary.t": 0.004,
    }
    sys, u, _ = _build_cell("custom", ("gamma", "perturbed-xy"), params)
    h_c, h_h = reference.hamiltonian(sys.spectrum_c.levels), reference.hamiltonian(sys.spectrum_h.levels)
    h = np.kron(h_c, np.eye(2)) + np.kron(np.eye(2), h_h)
    explicit = np.linalg.norm(u.matrix[0] @ h - h @ u.matrix[0], 2)
    assert u.commutator_norm[0] == pytest.approx(explicit, rel=1e-12)


@pytest.mark.parametrize(
    "unitary,keys", [("exchange", {"unitary.theta": 0.4}), ("xy", {"unitary.J": 215.1, "unitary.t": 0.0006})]
)
def test_t1_does_not_read_a_detuned_cells_cold_gap_norm(unitary, keys):
    # these kinds take the norm against the cold gap on both sides, which
    # is not this cell's H_C + H_H; T1, the norm's only reader, does not apply
    params = {"state.gamma": 0.0, "state.beta_C": 1.13, "state.beta_H": 0.96, "state.E_H": 1.3, **keys}
    sys, u, extras = _build_cell("custom", ("gamma", unitary), params)
    h = np.kron(reference.hamiltonian(sys.spectrum_c.levels), np.eye(2)) + np.kron(np.eye(2), reference.hamiltonian(sys.spectrum_h.levels))
    assert u.commutator_norm[0] == 0.0
    assert spectral_norm(u.matrix[0] @ h - h @ u.matrix[0]) > 0.1
    row = _evaluate_one(sys, u, extras)[0]
    assert row["t1_violated"] == -1 and "t1_bound" not in row


# ---------------------------------------------------------------------------
# point analysis
# ---------------------------------------------------------------------------

def test_point_analysis_backflow_time():
    report = analyze_point(
        {
            "scenario": "experiment-time",
            "unitary.t": 0.0006,
            "probe.i_C": 0,
            "probe.i_H": 1,
        }
    )
    assert report.row["Q"] > 0
    assert report.row["min_pw"] < 0
    assert report.row["t1_violated"] == 1
    assert report.row["strong_backflow_violated"] == 0
    text = report.render()
    assert "t1: VIOLATED" in text
    assert "separable" in text


def test_point_analysis_without_coherence_mh_equals_tpm():
    report = analyze_point(
        {"scenario": "experiment-time", "state.gamma": 0.0, "unitary.t": 0.0006}
    )
    assert report.row["min_pw"] >= -1e-15
    assert report.row["Q"] == pytest.approx(report.row["Q_tpm"], abs=1e-12)
    mh_vals = [float(l.split(",")[4]) for l in report.mh_csv.splitlines()[1:]]
    tpm_vals = [float(l.split(",")[4]) for l in report.tpm_csv.splitlines()[1:]]
    assert np.max(np.abs(np.array(mh_vals) - np.array(tpm_vals))) < 1e-14


def test_point_analysis_qutrit_t3_cell():
    report = analyze_point(
        {
            "scenario": "qutrit-theta-grid",
            "unitary.theta01": 0.314159265358979,
            "unitary.theta02": 0.628318530717958,
        }
    )
    assert report.row["t3_violated"] == 1
    assert report.row["negativity"] == 1


def test_point_analysis_probe_row_matches_mh():
    report = analyze_point(
        {
            "scenario": "experiment-time",
            "unitary.t": 0.0006,
            "probe.i_C": 0,
            "probe.i_H": 1,
        }
    )
    reader = csv.DictReader(io.StringIO(report.mh_csv))
    mh_row = {
        (int(r["f_C"]), int(r["f_H"])): float(r["value"])
        for r in reader
        if int(r["i_C"]) == 0 and int(r["i_H"]) == 1
    }
    for (f_c, f_h), val in mh_row.items():
        assert report.probe_values[f_c, f_h] == pytest.approx(val, abs=1e-10)


def test_point_analysis_builds_each_table_once(monkeypatch):
    built = []

    def counting(ns, name, kind=None):
        original = getattr(ns, name)

        def wrapper(*args, **kwargs):
            built.append(kind or args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(ns, name, wrapper)

    for ns in (sweeps, fluct):
        for name, kind in (("mh_distribution", "MH"), ("tpm_distribution", "TPM"), ("table_stack", None)):
            if hasattr(ns, name):
                counting(ns, name, kind)
    report = analyze_point({"scenario": "qutrit-theta-grid", "unitary.theta01": 0.3, "unitary.theta02": 0.6})
    assert sorted(built) == ["MH", "TPM"]
    assert report.mh_csv.count("\n") == report.tpm_csv.count("\n") == 3**4 + 1


@pytest.mark.parametrize("gamma", [-0.19, -0.5])
def test_a_point_builds_its_cell_with_the_sweeps_steps(monkeypatch, gamma):
    steps = ("_distinct_states", "_build_state", "_build_unitary_stack")
    counts = _count_calls(monkeypatch, *steps)
    validations = _count_validations(monkeypatch)
    cfg = {**load_config(str(CONFIG_DIR / "nonideal_tolerance.cfg")), "state.gamma": gamma, "eps": 0.01}
    with pytest.raises(InfeasibleStateError) if gamma == -0.5 else suppress() as raised:
        report = analyze_point(cfg)
    # one state built and checked at n = 1, and the unitary built only for a feasible state
    assert counts == {"_distinct_states": 1, "_build_state": 1, "_build_unitary_stack": int(raised is None)}
    assert validations == [1]
    if raised is None:
        assert report.row["jx"] > 0 and report.row["Delta"] == 0.0
    else:  # the sweep's status of the same cell
        row = run_sweep(SweepSpec.from_config({**cfg, "sweep.axis1.max": 0.01, "sweep.axis2.max": 0.5})).rows[0]
        assert (row["eps"], row["Delta"], row["status"]) == (0.0, 0.0, f"infeasible:{raised.value.constraint}")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_sweep_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EXPERIMENT_CFG)
    out = tmp_path / "out.csv"
    assert cli_main(["sweep", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 31 + 6


def test_cli_set_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EXPERIMENT_CFG)
    assert cli_main(["sweep", str(cfg), "--set", "sweep.axis1.points=5"]) == 0
    body = capsys.readouterr().out
    assert body.count("\n") == 5 + 6


def test_cli_usage_error_exit_code():
    assert cli_main(["bogus-command"]) == 1


def test_cli_missing_file_exit_code():
    assert cli_main(["sweep", "/nonexistent.cfg"]) == 1


def test_cli_infeasible_point_exit_code(tmp_path):
    cfg = tmp_path / "pt.cfg"
    cfg.write_text("scenario = experiment-time\nstate.gamma = -0.9\nunitary.t = 0.001\n")
    assert cli_main(["point", str(cfg)]) == 2


def test_cli_point_writes_tables(tmp_path, capsys):
    cfg = tmp_path / "pt.cfg"
    cfg.write_text("scenario = experiment-time\nunitary.t = 0.0006\n")
    out = tmp_path / "pt"
    assert cli_main(["point", str(cfg), "--out", str(out)]) == 0
    for suffix in ("_mh.csv", "_tpm.csv", "_probe.csv"):
        assert (tmp_path / ("pt" + suffix)).exists()
    probe_lines = (tmp_path / "pt_probe.csv").read_text().splitlines()
    assert probe_lines[0] == "i_C,i_H,f_C,f_H,value,dE_C,dE_H,stderr"


CUSTOM_CFG = """
scenario = custom
state.kind = two-qubit
state.beta_C = 1.13
state.beta_H = 0.962
state.P00 = 0.547
unitary.theta = 0.5
sweep.axis1.name = state.eta
sweep.axis1.min = -0.1
sweep.axis1.max = 0.1
sweep.axis1.points = 3
"""


@pytest.mark.parametrize(
    "text, overrides, named, valid",
    [
        (EXPERIMENT_CFG, ["outputs=Q,Qtmp"], "Qtmp", "Q_tpm"),
        (EXPERIMENT_CFG, ["state.bogus=1"], "state.bogus", "state.gamma"),
        (EXPERIMENT_CFG, ["state.E_H=1.2"], "state.E_H", "state.E"),
        (QUTRIT_CFG, ["state.eta_13=0.5"], "state.eta_13", "state.eta"),
        (EXPERIMENT_CFG, ["sweep.axis3.name=state.gamma"], "sweep.axis3.name", "unitary.t"),
        (CUSTOM_CFG, ["sweep.axis1.name=unitary.thetaa"], "unitary.thetaa", "unitary.theta"),
        (CUSTOM_CFG, ["unitary.kind=swap"], "swap", "perturbed-xy"),
    ],
    ids=["output", "key", "gamma-key", "qutrit-key", "axis3", "custom-axis", "kind"],
)
def test_cli_rejects_unknown_names(tmp_path, capsys, text, overrides, named, valid):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    argv = ["sweep", str(cfg)]
    for item in overrides:
        argv += ["--set", item]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert repr(named) in err
    assert valid in [name.strip() for name in err.split("valid:")[1].split(",")]


POINT_CFG = "scenario = experiment-time\nunitary.t = 0.0006\n"


@pytest.mark.parametrize(
    "command, text, override",
    [
        ("sweep", EXPERIMENT_CFG, "sweep.axis1.points=2.9"),
        ("sweep", EXPERIMENT_CFG, "sweep.axis1.points=many"),
        ("point", POINT_CFG, "probe.i_C=0.5"),
        ("point", POINT_CFG, "probe.i_H=1.7"),
        ("point", POINT_CFG, "probe.shots=100.9"),
        ("point", POINT_CFG, "probe.seed=7.5"),
        ("point", POINT_CFG, "probe.shots=-5"),
    ],
    ids=["points", "points-text", "i_C", "i_H", "shots", "seed", "negative-shots"],
)
def test_cli_rejects_fractional_or_negative_counts(tmp_path, capsys, command, text, override):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli_main([command, str(cfg), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and override.split("=")[0] in err


CUSTOM_QUTRIT_CFG = """
scenario = custom
state.kind = two-qutrit
state.beta_C = 1.3
state.beta_H = 0.3
state.rho_0 = 0.3
state.rho_5 = 0.03
state.rho_7 = 0.07
state.rho_8 = 0.06
unitary.theta01 = 0.4
sweep.axis1.name = unitary.theta02
sweep.axis1.min = 0
sweep.axis1.max = 1
sweep.axis1.points = 3
"""


@pytest.mark.parametrize("command", ["point", "sweep"])
@pytest.mark.parametrize(
    "text, key, kind",
    [
        (CUSTOM_CFG, "state.P00", "two-qubit state"),
        (CUSTOM_QUTRIT_CFG, "state.rho_5", "two-qutrit state"),
        (CUSTOM_CFG, "unitary.theta", "exchange unitary"),
    ],
    ids=["two-qubit-P00", "qutrit-rho_5", "exchange-theta"],
)
def test_cli_names_a_missing_required_key(tmp_path, capsys, command, text, key, kind):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(line for line in text.splitlines(True) if not line.startswith(key + " ")))
    assert cli_main([command, str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {key} is not set; the {kind} needs it\n"
    assert "Traceback" not in captured.out


@pytest.mark.parametrize(
    "command, text, key, value",
    [("sweep", EXPERIMENT_CFG, "state.beta_C", "2.0"), ("point", POINT_CFG, "unitary.t", "0.001")],
    ids=["sweep", "point"],
)
def test_cli_rejects_a_key_set_twice_in_one_file(tmp_path, capsys, command, text, key, value):
    lines = text.splitlines()
    first = next(k for k, line in enumerate(lines, start=1) if line.startswith(key + " "))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines + ["# a second value", f"{key} = {value}", ""]))
    assert cli_main([command, str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: line {len(lines) + 2}: {key} is already set on line {first}\n"
    assert "Traceback" not in captured.out
    # set once in the file, the key can still be overridden on the command line
    cfg.write_text(text)
    assert cli_main([command, str(cfg), "--set", f"{key}={value}"]) == 0


def test_cli_rejects_a_repeated_output_column(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EXPERIMENT_CFG)
    for outputs, named in (("Q,Q", "Q"), ("theta,Q,negativity,Q_tpm,negativity", "negativity")):
        assert cli_main(["sweep", str(cfg), "--set", f"outputs={outputs}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: output column {named!r} is listed twice in outputs\n"
        assert captured.out == ""


CUSTOM_TWO_AXES_CFG = """
scenario = custom
state.kind = two-qubit
unitary.kind = exchange
state.beta_C = 1.13
state.beta_H = 0.962
state.P00 = 0.547
sweep.axis1.name = unitary.theta
sweep.axis1.min = 0.0
sweep.axis1.max = 3.0
sweep.axis1.points = 3
sweep.axis2.name = state.eta
sweep.axis2.min = -0.1
sweep.axis2.max = 0.1
sweep.axis2.points = 3
"""


@pytest.mark.parametrize(
    "config, override, first, second, key",
    [
        ("nonideal_tolerance.cfg", "sweep.axis1.name=Delta", "Delta", "Delta", "Delta"),  # one plain name twice
        ("qubit_grid.cfg", "sweep.axis2.name=unitary.theta", "theta", "unitary.theta", "unitary.theta"),  # alias and key
        (None, "sweep.axis2.name=unitary.theta", "unitary.theta", "unitary.theta", "unitary.theta"),  # custom
    ],
    ids=["plain-name", "alias-and-key", "custom-key"],
)
def test_cli_rejects_two_axes_on_one_key(tmp_path, capsys, config, override, first, second, key):
    """Two axes that set one config key would leave one of them ignored:
    the sweep exits 1 and writes nothing."""
    if config is None:
        path = tmp_path / "custom.cfg"
        path.write_text(CUSTOM_TWO_AXES_CFG)
        assert cli_main(["sweep", str(path), "--out", str(tmp_path / "ok.csv")]) == 0  # distinct keys run
        capsys.readouterr()
    else:
        path = CONFIG_DIR / config
    out = tmp_path / "out.csv"
    assert cli_main(["sweep", str(path), "--set", override, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: axes {first!r} and {second!r} both set {key}\n"
    assert captured.out == "" and not out.exists()


NON_FINITE = [
    (command, text, override)
    for command, text in (("sweep", EXPERIMENT_CFG), ("point", POINT_CFG))
    for override in ("unitary.J=nan", "unitary.t=inf", "state.E=nan", "state.gamma=-inf")
] + [
    ("sweep", EXPERIMENT_CFG, "sweep.axis1.max=inf"),
    ("sweep", EXPERIMENT_CFG, "sweep.axis1.min=nan"),
    ("sweep", CUSTOM_CFG, "unitary.theta=nan"),
    ("point", CUSTOM_CFG, "state.eta=inf"),
]


@pytest.mark.parametrize(
    "command, text, override", NON_FINITE, ids=[f"{c}-{o}" for c, _, o in NON_FINITE]
)
def test_cli_rejects_a_non_finite_value(tmp_path, capsys, command, text, override):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli_main([command, str(cfg), "--set", override]) == 1
    captured = capsys.readouterr()
    key, value = override.split("=")
    assert captured.err == f"error: {key} must be finite, got {value}\n"
    assert captured.out == ""


def test_non_finite_eps_and_delta_keep_their_messages(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = nonideal-eps-delta\n")
    for override, message in (
        ("eps=nan", "eps must be finite, got nan"),
        ("eps=inf", "eps = inf not reachable below J_x = 4000.0"),
        ("Delta=nan", "Delta must lie in [0, 1), got nan"),
    ):
        assert cli_main(["point", str(cfg), "--set", override]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


NON_NUMERIC = [
    ("sweep", "nonideal_tolerance.cfg", (
        "sweep.axis2.name=unitary.t", "sweep.axis2.min=0.003", "sweep.axis2.max=0.004", "Delta=abc",
    )),
    ("sweep", "nonideal_tolerance.cfg", ("eps=abc",)),
    ("point", "point_backflow.cfg", ("state.gamma=abc",)),
    ("sweep", "qubit_grid.cfg", ("state.P00=abc",)),
    ("sweep", "qubit_grid.cfg", ("sweep.axis1.min=abc",)),
    ("point", "point_backflow.cfg", ("probe.eps=abc",)),
]


@pytest.mark.parametrize(
    "command, config, overrides", NON_NUMERIC, ids=[f"{c}-{o[-1]}" for c, _, o in NON_NUMERIC]
)
def test_cli_rejects_a_non_numeric_value(capsys, command, config, overrides):
    argv = [command, str(CONFIG_DIR / config)]
    for override in overrides:
        argv += ["--set", override]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    key = overrides[-1].split("=")[0]
    assert captured.err == f"error: {key} must be a number, got 'abc'\n"
    assert captured.out == ""


@pytest.mark.parametrize("word", ["true", "yes", "on", "false", "no", "off", "True", "OFF"])
def test_boolean_words_stay_strings(word):
    assert parse_config(f"k = {word}\n") == {"k": word}
    assert apply_overrides({}, [f"k={word}"]) == {"k": word}


@pytest.mark.parametrize(
    "command, config, override",
    [("sweep", "experiment_time.cfg", "state.beta_C=true"), ("point", "point_backflow.cfg", "probe.eps=on")],
)
def test_a_boolean_word_in_a_numeric_key_exits_1(tmp_path, capsys, command, config, override):
    argv = [command, str(CONFIG_DIR / config), "--set", override, "--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    key, word = override.split("=")
    assert captured.err == f"error: {key} must be a number, got {word!r}\n" and captured.out == ""


def test_delta_no_in_a_config_file_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    axis = "sweep.axis1.name = eps\nsweep.axis1.min = 0.0\nsweep.axis1.max = 0.001\nsweep.axis1.points = 2\n"
    cfg.write_text("scenario = nonideal-eps-delta\nDelta = no\n" + axis)
    assert cli_main(["sweep", str(cfg), "--out", str(tmp_path / "out.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: Delta must be a number, got 'no'\n" and captured.out == ""


def test_a_large_negative_beta_is_infeasible_not_an_overflow(tmp_path, capsys):
    # e^(-beta_C E) overflows at beta_C = -800; the state then fails its psd check
    out = tmp_path / "inverted.csv"
    assert cli_main(["sweep", str(CONFIG_DIR / "experiment_time.cfg"), "--set", "state.beta_C=-800", "--out", str(out)]) == 0
    rows = list(csv.DictReader(line for line in out.read_text().splitlines() if not line.startswith("#")))
    assert len(rows) == 187 and {row["status"] for row in rows} == {"infeasible:psd"}
    capsys.readouterr()
    assert cli_main(["point", str(CONFIG_DIR / "point_backflow.cfg"), "--set", "state.beta_C=-800"]) == 2
    assert capsys.readouterr().err == "infeasible configuration: psd\n"


def test_an_empty_output_list_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EXPERIMENT_CFG)
    for outputs in (",", " , ,"):
        assert cli_main(["sweep", str(cfg), "--set", f"outputs={outputs}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no output columns selected\n" and captured.out == ""


def test_integral_counts_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(POINT_CFG)
    argv = ["point", str(cfg), "--set", "probe.shots=0", "--set", "probe.i_H=1.0"]
    assert cli_main(argv) == 0
    assert "stderr" not in capsys.readouterr().out  # 0 shots: the exact reconstruction
    cfg.write_text(EXPERIMENT_CFG)
    assert cli_main(["sweep", str(cfg), "--set", "sweep.axis1.points=3.0"]) == 0
    assert capsys.readouterr().out.count("\n") == 3 + 6


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_configs_run_with_honest_flags(tmp_path, path):
    cfg = load_config(str(path))
    if "sweep.axis1.name" not in cfg:
        assert cli_main(["point", str(path), "--out", str(tmp_path / "pt")]) == 0
        return
    out = tmp_path / "out.csv"
    argv = ["sweep", str(path), "--out", str(out)]
    for k in (1, 2):
        if f"sweep.axis{k}.name" in cfg:
            argv += ["--set", f"sweep.axis{k}.points=3"]
    assert cli_main(argv) == 0
    rows = list(csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#")))
    requested = [c for c in rows[0] if c != "status"]
    ok = [r for r in rows if r["status"] == "ok"]
    assert ok
    for r in ok:
        assert all(r[c] != "nan" for c in requested)
        assert all(r[c] in {"1", "0", "-1", "-2"} for c in requested if c.endswith("_violated"))


def test_cli_check_passes_and_is_seed_stable(capsys):
    assert cli_main(["check", "--trials", "8", "--properties", "mh-marginals,heat-identities"]) == 0
    out1 = capsys.readouterr().out
    assert "[PASS] mh-marginals" in out1
    assert cli_main(["check", "--trials", "8", "--seed", "99", "--properties", "mh-marginals"]) == 0


def test_property_suite_detects_sign_flip_mutant(monkeypatch):
    """A corrupted quasiprobability breaks the marginal identity."""
    true_tables = fluct.table_stack

    def mutant(kind, states, u, uh):
        values = true_tables(kind, states, u, uh)
        # flip the sign of the coherence correction: MH -> 2 TPM - MH
        return 2.0 * true_tables("TPM", states, u, uh) - values if kind == "MH" else values

    monkeypatch.setattr(fluct, "table_stack", mutant)
    failures, max_dev, _ = properties.PROPERTIES["mh-marginals"](
        np.random.default_rng(0), 10
    )
    assert failures > 0 and max_dev > 1e-6


def test_table_norm_range_counts_only_the_trial_that_fails(monkeypatch):
    """One MH table of ten that sums to 1 + 1e-9 is one failure, not one
    for it and each trial after it."""
    true_tables = fluct.table_stack
    seen = []  # the MH tables handed out, in order

    def mutant(kind, states, u, uh):
        values = true_tables(kind, states, u, uh)
        if kind != "MH":
            return values
        first = len(seen)
        seen.extend(range(first, first + len(values)))
        if first <= 3 < len(seen):
            values = values.copy()
            values[3 - first].flat[0] += 1e-9  # the 4th table, past the sum check
        return values

    monkeypatch.setattr(fluct, "table_stack", mutant)
    failures, max_dev, _ = properties.PROPERTIES["table-norm-range"](np.random.default_rng(0), 10)
    assert len(seen) == 10
    assert failures == 1 and max_dev > 5e-10


def test_trials_sums_failures_and_keeps_the_largest_deviation_in_trial_order():
    """``_stacked`` runs the trials as consecutive stacks of at most
    STACK_TRIALS, in order, sums their failures (counts or masks) and keeps
    the largest deviation from 0.0."""
    n, seen = properties.STACK_TRIALS + 5, []
    devs, fails = np.full(n, np.nan), np.zeros(n, int)
    devs[[1, 4, n - 3]] = -1.0, 2e-3, 3e-3  # the largest in the second stack
    fails[[1, 3, 4, n - 1]] = 1, 1, 2, 1

    @properties._stacked("a note")
    def prop(rng, m):
        start = sum(size for _, size in seen)
        seen.append((rng, m))
        bad = fails[start: start + m]
        return devs[start: start + m], bad if start == 0 else bad.astype(bool)  # counts, then a mask

    rng = object()
    assert prop(rng, n) == (5, 3e-3, "a note")
    assert seen == [(rng, properties.STACK_TRIALS), (rng, 5)]
    # max_dev starts at 0.0: negative and nan deviations never show
    seen.clear()
    assert prop(rng, 2) == (1, 0.0, "a note")


def test_cli_check_reports_failure_exit_code(monkeypatch, capsys):
    def broken(rng, n):
        return 3, 1.0, "synthetic failure"

    monkeypatch.setitem(properties.PROPERTIES, "mh-marginals", broken)
    assert cli_main(["check", "--trials", "4", "--properties", "mh-marginals"]) == 3
    assert "[FAIL]" in capsys.readouterr().out
