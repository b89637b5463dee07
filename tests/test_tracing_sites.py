"""The benchmark tracer (``perfbench/tracing.py``) swaps each traced name in
the namespace it is looked up in, with no fallback for a missing one, so a
rename in the package must fail here and not only in a traced run."""

import importlib.util
import sys
from pathlib import Path

import qheatflow
from qheatflow import cli, dynamics, fluctuations, linalg, probe, properties, states, sweeps, witnesses  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_bound_in_its_namespace(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load it without writing beside it
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = tracing._sites(qheatflow)
    missing = [(getattr(ns, "__name__", ns), attr) for ns, attr, *_ in sites if attr not in vars(ns)]
    assert len(sites) > 50 and missing == []
