"""Spans around calls into each qheatflow module, recorded from outside.

No program code changes: ``instrument`` swaps each traced function for a
wrapper in the namespace its caller looks it up in (``sweeps`` binds its
helpers with ``from``-imports, ``properties`` calls them as module
attributes), and restores the originals on exit.  Spans are kept in
memory and written out when the benchmark ends.  A span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import re
import time
from collections import defaultdict

WITNESS_IDS = {
    "T1": "t1",
    "T2": "t2",
    "T3": "t3",
    "T3-nonideal": "t3",
    "I4": "i4",
    "T4-lower": "t4_lower",
    "T4-upper": "t4_upper",
    "strong-backflow": "strong_backflow",
}
# The suite's properties, listed so that every traced run reports each one.
PROPERTY_NAMES = (
    "kron-algebra", "partial-ops", "unitarity", "state-validity", "dephase",
    "mh-marginals", "table-norm-range", "heat-identities", "mh-tpm-dephased",
    "two-qubit-closed-forms", "qudit-closed-forms", "xft-identity", "j-identity",
    "witness-soundness", "witness-soundness-nonideal", "t1-strong-flow",
    "tpm-no-backflow", "all-negative-direction", "delta-q-max", "probe-exactness",
    "probe-disturbance", "probe-sampling", "p00-bounds", "strong-backflow-threshold",
)
INFEASIBLE_KINDS = ("psd", "eta_cap", "p00_upper", "p00_lower", "population", "eta", "other")


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries.

    A span is [name, start, end, parent index, request id]; a request is
    one timed call of the workload, and spans of one request share its id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.requests: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._last_error = None

    def begin(self, label: str) -> None:
        """Start a new request; later spans carry its id."""
        self.requests.append(label)

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.requests) - 1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                if on_error is not None and exc is not self._last_error:
                    self._last_error = exc
                    on_error(self, exc)
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if on_result is not None:
                on_result(self, result, args)
            return result

        return traced

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: [top-level calls, calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0, 0.0, 0.0])
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += parent < 0 or self.spans[parent][0] != name
            agg[1] += 1
            agg[2] += end - start
            agg[3] += end - start - child[k]
        return out

    def write(self, path: str) -> None:
        """Spans as gzipped tab-separated text, one line per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\trequest\tlabel\n")
            for k, (name, start, end, parent, request) in enumerate(self.spans):
                label = self.requests[request] if request >= 0 else ""
                fh.write(f"{k}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\t{label}\n")


# --- counters -------------------------------------------------------------

def _count_infeasible(tracer, exc):
    constraint = getattr(exc, "constraint", None)
    if constraint is None:
        return
    kind = re.sub(r"_\d+$", "", constraint)
    tracer.counts[f"states.infeasible.{kind if kind in INFEASIBLE_KINDS else 'other'}"] += 1


def _count_divergence(tracer, exc):
    if type(exc).__name__ == "DivergenceError":
        tracer.counts["fluctuations.divergence"] += 1


def _count_verdicts(tracer, result, _args):
    verdicts = result if isinstance(result, tuple) else (result,)
    for v in verdicts:
        tracer.counts["witnesses.verdicts"] += 1
        tracer.counts["witnesses.evaluable"] += v.preconditions_ok
        if v.violated:
            tracer.counts[f"witnesses.violated.{WITNESS_IDS[v.inequality_id]}"] += 1


def _count_witness_error(tracer, _exc):
    tracer.counts["witnesses.verdicts"] += 1


def _count_probe(tracer, _result, args):
    sys_ = args[0]
    joint = 16 * (2 * sys_.d_c * sys_.d_h) ** 2  # complex128 system+ancilla state
    tracer.counts["probe.joint_bytes"] = max(tracer.counts["probe.joint_bytes"], joint)


def _count_sweep(tracer, result, _args):
    tracer.counts["sweeps.cells"] += len(result.rows)
    tracer.counts["sweeps.ok"] += sum(r.get("status") == "ok" for r in result.rows)


def _count_sweep_csv(tracer, text, _args):
    tracer.counts["sweeps.csv_bytes"] += len(text)


def _count_table_csv(tracer, text, _args):
    tracer.counts["fluctuations.table_csv.rows"] += text.count("\n") - 1


# --- instrumentation sites ------------------------------------------------

STATE_BUILDERS = ("two_qubit_state", "gamma_correlated_state", "two_qutrit_state", "qudit_locally_thermal")
UNITARIES = ("energy_preserving_unitary", "two_qubit_exchange_unitary", "xy_exchange_unitary")
FLUCTUATIONS = {
    "mh_distribution": "fluctuations.tables",
    "tpm_distribution": "fluctuations.tables",
    "table_heat": "fluctuations.heat",
    "flow_decomposition": "fluctuations.heat",
    "average_heat": "fluctuations.heat",
    "xft_coherence_term": "fluctuations.xft",
    "xft_average": "fluctuations.xft",
    "heat_exp_correction": "fluctuations.j",
}
WITNESSES = (
    "two_qubit_flow_witness",
    "nonideal_flow_witness",
    "xft_flow_witness",
    "correlation_flow_witness",
    "tpm_band_witness",
    "strong_backflow_witness",
)
PROBE = ("probe_statistics", "reconstruct_quasiprobability", "sampled_reconstruction")
GENERATORS = (
    "random_two_qubit_system",
    "random_two_qutrit_system",
    "random_qudit_system",
    "random_rotations",
    "random_system_and_unitary",
    "_nonneg_instance",
)


def _sites(qh):
    """(namespace, attribute, span name, on_result, on_error) for every traced call."""
    cli, sweeps, states, dynamics, linalg = qh.cli, qh.sweeps, qh.states, qh.dynamics, qh.linalg
    fluctuations, witnesses, probe, properties = qh.fluctuations, qh.witnesses, qh.probe, qh.properties
    sites = [
        (cli, "main", "cli", None, None),
        (cli, "load_config", "config", None, None),
        (cli, "apply_overrides", "config", None, None),
        (cli, "run_sweep", "sweeps.loop", _count_sweep, None),
        (cli, "analyze_point", "sweeps.analyze_point", None, None),
        (cli, "run_property_suite", "properties.suite", None, None),
        (sweeps, "_build_cell", "sweeps.build_cell", None, None),
        (sweeps, "evaluate_cell", "sweeps.evaluate_cell", None, None),
        (sweeps, "_solve_jx_for_eps", "sweeps.jx_solve", None, None),
        (sweeps, "probe_row_csv", "sweeps.probe_row_csv", None, None),
        (sweeps.SweepResult, "to_csv", "sweeps.to_csv", _count_sweep_csv, None),
        (fluctuations.TransitionTable, "to_csv", "fluctuations.table_csv", _count_table_csv, None),
        (sweeps, "min_partial_transpose_eigenvalue", "states.min_pt_eig", None, None),
        (states, "min_partial_transpose_eigenvalue", "states.min_pt_eig", None, None),
        (sweeps, "perturbed_xy_unitary", "dynamics.perturbed_xy", None, None),
        (dynamics, "perturbed_xy_unitary", "dynamics.perturbed_xy", None, None),
    ]
    for ns in (sweeps, states):
        sites += [(ns, f, "states.build", None, _count_infeasible) for f in STATE_BUILDERS if hasattr(ns, f)]
    for ns in (sweeps, dynamics):
        sites += [(ns, f, "dynamics.unitary", None, None) for f in UNITARIES]
    for ns in (dynamics, linalg):
        sites += [(ns, "matrix_exp", "linalg.matrix_exp", None, None)]
        sites += [(ns, "spectral_norm", "linalg.spectral_norm", None, None)]
    for ns in (sweeps, fluctuations):
        sites += [
            (ns, f, span, None, _count_divergence)
            for f, span in FLUCTUATIONS.items()
            if hasattr(ns, f)
        ]
    for ns in (sweeps, witnesses):
        sites += [(ns, f, "witnesses", _count_verdicts, _count_witness_error) for f in WITNESSES]
    for ns in (sweeps, probe):
        sites += [(ns, "probe_statistics", "probe", _count_probe, None)]
        sites += [(ns, f, "probe.reconstruct", None, None) for f in PROBE[1:]]
    sites += [(properties, f, "properties.generator", None, None) for f in GENERATORS]
    return sites


@contextlib.contextmanager
def instrument(qh, tracer: Tracer):
    """Trace every site while the block runs; restore the originals after."""
    saved = []
    props = qh.properties.PROPERTIES
    saved_props = dict(props)
    try:
        for ns, attr, span, on_result, on_error in _sites(qh):
            original = ns.__dict__[attr]
            saved.append((ns, attr, original))
            setattr(ns, attr, tracer.wrap(span, original, on_result, on_error))
        for name, fn in saved_props.items():
            props[name] = tracer.wrap(f"properties.{name}", fn)
        yield tracer
    finally:
        for ns, attr, original in reversed(saved):
            setattr(ns, attr, original)
        props.update(saved_props)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, by name, from the recorded spans and counters."""
    agg = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return agg[name][0] if name in agg else 0

    def incl(name):
        return agg[name][2] if name in agg else 0.0

    def self_s(name):
        return agg[name][3] if name in agg else 0.0

    # unitaries built inside each J_x solve
    solve_ids = {k for k, s in enumerate(tracer.spans) if s[0] == "sweeps.jx_solve"}
    in_solve = sum(1 for s in tracer.spans if s[0] == "dynamics.perturbed_xy" and s[3] in solve_ids)
    cells = counts["sweeps.cells"]
    verdicts = counts["witnesses.verdicts"]
    m = {
        "sweeps.cells": (cells, "count"),
        "sweeps.ok_ratio": (counts["sweeps.ok"] / cells if cells else 0.0, "ratio"),
        "sweeps.evaluate_cell.self_s": (self_s("sweeps.evaluate_cell"), "s"),
        "sweeps.build_cell.self_s": (self_s("sweeps.build_cell"), "s"),
        "sweeps.loop.self_s": (self_s("sweeps.loop"), "s"),
        "sweeps.to_csv.s": (incl("sweeps.to_csv"), "s"),
        "sweeps.csv_bytes": (counts["sweeps.csv_bytes"], "bytes"),
        "sweeps.jx_solve.calls": (calls("sweeps.jx_solve"), "count"),
        "sweeps.jx_solve.self_s": (self_s("sweeps.jx_solve"), "s"),
        "sweeps.jx_solve.unitaries_per_solve": (
            in_solve / calls("sweeps.jx_solve") if calls("sweeps.jx_solve") else 0.0, "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "config.s": (incl("config"), "s"),
        "states.build.calls": (calls("states.build"), "count"),
        "states.build.self_s": (self_s("states.build"), "s"),
        "states.min_pt_eig.self_s": (self_s("states.min_pt_eig"), "s"),
    }
    for kind in INFEASIBLE_KINDS:
        m[f"states.infeasible.{kind}"] = (counts[f"states.infeasible.{kind}"], "count")
    m.update({
        "dynamics.unitary.calls": (calls("dynamics.unitary"), "count"),
        "dynamics.unitary.self_s": (self_s("dynamics.unitary"), "s"),
        "dynamics.perturbed_xy.calls": (calls("dynamics.perturbed_xy"), "count"),
        "dynamics.perturbed_xy.self_s": (self_s("dynamics.perturbed_xy"), "s"),
        "dynamics.perturbed_xy.s": (incl("dynamics.perturbed_xy"), "s"),
        "linalg.matrix_exp.calls": (calls("linalg.matrix_exp"), "count"),
        "linalg.matrix_exp.self_s": (self_s("linalg.matrix_exp"), "s"),
        "linalg.spectral_norm.calls": (calls("linalg.spectral_norm"), "count"),
        "linalg.spectral_norm.self_s": (self_s("linalg.spectral_norm"), "s"),
        "fluctuations.tables.self_s": (self_s("fluctuations.tables"), "s"),
        "fluctuations.heat.self_s": (self_s("fluctuations.heat"), "s"),
        "fluctuations.xft.self_s": (self_s("fluctuations.xft"), "s"),
        "fluctuations.j.self_s": (self_s("fluctuations.j"), "s"),
        "fluctuations.divergence": (counts["fluctuations.divergence"], "count"),
        "fluctuations.table_csv.self_s": (self_s("fluctuations.table_csv"), "s"),
        "fluctuations.table_csv.rows": (counts["fluctuations.table_csv.rows"], "count"),
        "witnesses.calls": (calls("witnesses"), "count"),
        "witnesses.self_s": (self_s("witnesses"), "s"),
        "witnesses.evaluable_ratio": (counts["witnesses.evaluable"] / verdicts if verdicts else 0.0, "ratio"),
    })
    for wid in dict.fromkeys(WITNESS_IDS.values()):
        m[f"witnesses.violated.{wid}"] = (counts[f"witnesses.violated.{wid}"], "count")
    m.update({
        "probe.calls": (calls("probe"), "count"),
        "probe.self_s": (self_s("probe") + self_s("probe.reconstruct"), "s"),
        "probe.joint_bytes": (counts["probe.joint_bytes"], "bytes"),
        "properties.generator.self_s": (self_s("properties.generator"), "s"),
    })
    for name in PROPERTY_NAMES:
        m[f"properties.{name}.s"] = (incl(f"properties.{name}"), "s")
    return m
