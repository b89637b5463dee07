"""The four workloads: inputs on disk, one pass of operations, output checks.

Each workload is a closed loop with one client: the next call starts when
the previous one has returned.  A pass is one complete job of the
workload; every call in it is timed on its own and checked afterwards,
outside the timed region.  An operation is a grid cell (``grids``,
``nonideal``), a point (``points``) or a property trial (``check``); an
operation fails when any check on its output fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import time
import traceback
from typing import NamedTuple

import inputs

NEGATIVITY_THRESHOLD = -1e-12
FLAGS = {"1", "0", "-1", "-2"}
PROBE_TOL = 1e-10
MARGINAL_TOL = 1e-10
CHECK_TRIALS = 500


def body_digest(text: str) -> str:
    """sha256 of the CSV lines that do not start with '#'."""
    body = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


def _cli(qh, argv: list[str], tracer=None) -> tuple[float, int, str]:
    """Time one CLI call; returns (seconds, exit code, stdout)."""
    if tracer is not None:
        tracer.begin(f"{argv[0]} {os.path.basename(argv[1])}" if len(argv) > 1 else argv[0])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        try:
            code = qh.cli.main(argv)
        except Exception:  # a crash fails the call's operations; the run goes on
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue()


class Call(NamedTuple):
    """Outcome of one timed call: its label, time, operations and failures."""

    label: str
    seconds: float
    ops: int
    failed: int


class Workload:
    name = ""

    def __init__(self, qh, seed: int, workdir: str):
        self.qh, self.seed, self.workdir = qh, seed, workdir
        self.digests: dict[str, str] = {}
        self.probe_dev = 0.0
        self.tracer = None  # set while a traced pass runs

    def _write_config(self, label: str, cfg: dict) -> str:
        path = os.path.join(self.workdir, f"{label}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inputs.config_text(cfg))
        if self.qh.config.load_config(path) != cfg:
            raise RuntimeError(f"generated config {label} does not parse back to its inputs")
        return path

    def warmup(self) -> None:
        """Run each code path once, untimed, so lazy set-up is done."""

    def run_pass(self) -> list[Call]:
        raise NotImplementedError


class SweepWorkload(Workload):
    """CLI sweeps over generated configs; every cell's CSV row is checked."""

    configs: tuple[str, ...] = ()

    def __init__(self, qh, seed, workdir):
        super().__init__(qh, seed, workdir)
        self.paths = {c: self._write_config(c, inputs.sweep_config(c, seed)) for c in self.configs}

    def warmup(self):
        for c in self.configs:
            argv = ["sweep", self.paths[c], "--out", os.path.join(self.workdir, "warmup.csv")]
            for k in (1, 2):
                argv += ["--set", f"sweep.axis{k}.points=2"]
            _cli(self.qh, argv)

    def run_pass(self):
        calls = []
        for c in self.configs:
            out = os.path.join(self.workdir, f"{c}.csv")
            seconds, code, _ = _cli(self.qh, ["sweep", self.paths[c], "--out", out], self.tracer)
            cells = inputs.sweep_cells(c)
            failed = cells if code != 0 else self._check_csv(c, out)
            calls.append(Call(c, seconds, cells, failed))
        return calls

    def _check_csv(self, name: str, path: str) -> int:
        spec = inputs.SWEEPS[name]
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        self.digests[f"sweep:{name}"] = body_digest(text)
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        requested = [a[0] for a in spec["axes"]] + spec["outputs"].split(",")
        expected = inputs.sweep_cells(name)
        failed = abs(len(lines) - 1 - expected)
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            failed += not _sweep_row_ok(row, requested, spec["energy_preserving"])
        return min(failed, expected)


def _sweep_row_ok(row: dict, requested: list[str], energy_preserving: bool) -> bool:
    status = row.get("status", "")
    if status.startswith("infeasible:"):
        return True
    if status != "ok" or any(row.get(c, "nan") == "nan" for c in requested):
        return False
    flags = {k: v for k, v in row.items() if k.endswith("_violated")}
    if any(v not in FLAGS for v in flags.values()):
        return False
    negativity = row.get("negativity")
    if "min_pw" in row and negativity != str(int(float(row["min_pw"]) < NEGATIVITY_THRESHOLD)):
        return False
    if any(v == "1" for v in flags.values()) and negativity != "1":
        return False
    return not (energy_preserving and float(row["Q_tpm"]) > 1e-12)


class GridsWorkload(SweepWorkload):
    name = "grids"
    configs = inputs.GRIDS


class NonidealWorkload(SweepWorkload):
    name = "nonideal"
    configs = inputs.NONIDEAL


class PointsWorkload(Workload):
    """d = 2, 3 through ``qheatflow point --out``; d = 4..16 through the library."""

    name = "points"

    def __init__(self, qh, seed, workdir):
        super().__init__(qh, seed, workdir)
        self.paths = {d: self._write_config(f"point_d{d}", inputs.point_config(d, seed)) for d in (2, 3)}
        self.qudits = {d: self._feasible_draw(d) for d in inputs.QUDIT_DIMS}

    def _feasible_draw(self, d: int) -> dict:
        states = self.qh.states
        for attempt in range(100):
            p = inputs.qudit_draw(d, self.seed, attempt)
            try:
                states.qudit_locally_thermal(
                    states.EnergySpectrum(p["levels"]), p["beta_c"], p["beta_h"],
                    p["free"], p["eta"], p["xi"],
                )
            except states.InfeasibleStateError:
                continue
            return p
        raise RuntimeError(f"no feasible d={d} draw for seed {self.seed}")

    def warmup(self):
        self._cli_point(2)
        self._qudit_point(inputs.QUDIT_DIMS[0])

    def run_pass(self):
        calls = [self._cli_point(d) for d in (2, 3)]
        calls += [self._qudit_point(d) for d in inputs.QUDIT_DIMS]
        return calls

    def _cli_point(self, d: int) -> Call:
        prefix = os.path.join(self.workdir, f"point_d{d}")
        seconds, code, stdout = _cli(self.qh, ["point", self.paths[d], "--out", prefix], self.tracer)
        ok = code == 0 and self._check_cli_point(d, prefix, stdout)
        return Call(f"d{d}", seconds, 1, int(not ok))

    def _check_cli_point(self, d: int, prefix: str, stdout: str) -> bool:
        tables = {}
        for kind in ("mh", "tpm", "probe"):
            with open(f"{prefix}_{kind}.csv", encoding="utf-8") as fh:
                text = fh.read()
            self.digests[f"point_d{d}:{kind}"] = body_digest(text)
            rows = [line.split(",") for line in text.splitlines()[1:]]
            tables[kind] = {tuple(int(x) for x in r[:4]): float(r[4]) for r in rows}
        mh = tables["mh"]
        ok = len(mh) == d**4 and len(tables["tpm"]) == d**4 and len(tables["probe"]) == d**2
        dev = max((abs(v - mh[key]) for key, v in tables["probe"].items()), default=math.inf)
        self.probe_dev = max(self.probe_dev, dev)
        marginal = re.search(r"^marginal identity deviation: (\S+)$", stdout, re.M)
        negativity = re.search(r"^negativity: (\S+)$", stdout, re.M)
        ok = ok and dev <= PROBE_TOL and marginal and float(marginal.group(1)) <= MARGINAL_TOL
        ok = ok and negativity and negativity.group(1) == str(int(min(mh.values()) < NEGATIVITY_THRESHOLD))
        if ok and re.search(r": VIOLATED", stdout):
            ok = negativity.group(1) == "1"
        return bool(ok)

    def _qudit_point(self, d: int) -> Call:
        if self.tracer is not None:
            self.tracer.begin(f"qudit point d={d}")
        p = self.qudits[d]
        t0 = time.perf_counter()
        try:
            products = self._qudit_steps(p)
            seconds = time.perf_counter() - t0
            ok = self._qudit_ok(p, *products)
        except Exception:  # a crash fails this point; the run goes on
            traceback.print_exc()
            return Call(f"d{d}", time.perf_counter() - t0, 1, 1)
        return Call(f"d{d}", seconds, 1, int(not ok))

    def _qudit_steps(self, p: dict):
        """The library path of one point; this is what is timed."""
        qh = self.qh
        spec = qh.states.EnergySpectrum(p["levels"])
        sys_ = qh.states.qudit_locally_thermal(
            spec, p["beta_c"], p["beta_h"], p["free"], p["eta"], p["xi"]
        )
        rots = [qh.dynamics.ManifoldRotation(pair, theta) for pair, theta in p["theta"].items()]
        u = qh.dynamics.energy_preserving_unitary(spec, rots)
        row = qh.sweeps.evaluate_cell(sys_, u, {})
        mh = qh.fluctuations.mh_distribution(sys_, u)
        tpm = qh.fluctuations.tpm_distribution(sys_, u)
        mh_csv, tpm_csv = mh.to_csv(), tpm.to_csv()
        stats = qh.probe.probe_statistics(sys_, u, p["target"], p["eps"])
        rec = qh.probe.reconstruct_quasiprobability(stats)
        return sys_, u, row, mh, mh_csv, tpm_csv, rec

    def _qudit_ok(self, p, sys_, u, row, mh, mh_csv, tpm_csv, rec) -> bool:
        d = p["d"]
        dev = float(abs(rec - mh.values[p["target"]]).max())
        self.probe_dev = max(self.probe_dev, dev)
        flags = [v for k, v in row.items() if k.endswith("_violated")]
        return (
            dev <= PROBE_TOL
            and self.qh.fluctuations.marginal_check(mh, sys_, u) <= MARGINAL_TOL
            and mh_csv.count("\n") == d**4 + 1
            and tpm_csv.count("\n") == d**4 + 1
            and all(str(f) in FLAGS for f in flags)
            and row["negativity"] == int(row["min_pw"] < NEGATIVITY_THRESHOLD)
            and (row["negativity"] == 1 or 1 not in flags)
        )


class CheckWorkload(Workload):
    """``qheatflow check`` at 500 trials: the property suite as a CI run."""

    name = "check"
    LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+): trials=(\d+) failures=(\d+) max_dev=(\S+)", re.M)

    def __init__(self, qh, seed, workdir):
        super().__init__(qh, seed, workdir)
        self.argv = ["check", "--seed", str(seed), "--trials", str(CHECK_TRIALS)]

    def warmup(self):
        _cli(self.qh, ["check", "--seed", str(self.seed), "--trials", "2"])

    def run_pass(self):
        seconds, code, stdout = _cli(self.qh, self.argv, self.tracer)
        results = self.LINE.findall(stdout)
        trials = sum(int(r[2]) for r in results) or 1
        failures = sum(int(r[3]) for r in results)
        for _, name, _, _, max_dev in results:
            if name == "probe-exactness":
                self.probe_dev = max(self.probe_dev, float(max_dev))
        if code != 0 or not results or any(r[0] != "PASS" for r in results):
            failures = max(failures, 1) if results else trials
        return [Call("check", seconds, trials, min(failures, trials))]


WORKLOADS = {w.name: w for w in (GridsWorkload, NonidealWorkload, PointsWorkload, CheckWorkload)}
