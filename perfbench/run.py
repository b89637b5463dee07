"""qheatflow benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload grids --seed 1 --seconds 27 --trace 0

Workloads (see workloads.py and inputs.py):
  grids     the four energy-preserving sweeps, 6,050 cells of 4x4 and 9x9
  nonideal  the nonideal tolerance sweep, 208 cells, 48 infeasible
  points    single-point analyses at d = 2, 3 (CLI) and 4, 8, 12, 16 (library)
  check     ``qheatflow check`` at 500 trials, the property suite

With ``--trace 0`` the benchmark runs passes of the workload for about
``--seconds`` seconds and reports end-to-end metrics.  With ``--trace 1``
it runs one untraced and one traced pass and reports per-layer metrics;
the difference of the two pass times is the tracing overhead.  Either way
the last line of stdout is one JSON object, every output is checked, and
the numbers (plus the spans of a traced run) are written under
``.perfbench_run/`` in the working directory.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(os.getcwd(), ".perfbench_run")
SETUP_SAMPLES = 3
MIN_PASSES = 2
REFERENCE = os.path.join(HERE, "reference.json")

GENERATOR_DIMS = (8, 10)


def _import_program():
    """The qheatflow package of this checkout (never an installed copy)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import qheatflow
    from qheatflow import cli, config, dynamics, fluctuations, linalg, probe, properties, states, sweeps, witnesses  # noqa: F401

    if not os.path.abspath(qheatflow.__file__).startswith(src + os.sep):
        raise ImportError(f"qheatflow imported from {qheatflow.__file__}, not from {src}")
    return qheatflow


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("grids", "nonideal", "points", "check"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _make_workload(qh, args, workdir):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](qh, args.seed, workdir)


def _setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that import the program and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)
        samples.append(time.perf_counter() - t0)
    return samples


def _machine() -> dict:
    """What the numbers were measured on; no CPU pinning or system tuning is applied."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "cpu_pinning": "none",
        "system_tuning": "none",
    }


def _digest_check(workload) -> tuple[int, int]:
    """(bodies compared, bodies differing) against the seed-0 reference."""
    if workload.seed != 0:
        return 0, 0
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh).get(workload.name, {})
    mismatched = sum(workload.digests.get(k) != v for k, v in ref.items())
    return len(ref), mismatched


def _end_to_end(workload, passes, setup) -> tuple[dict, list[str]]:
    by_label: dict[str, list[float]] = {}
    ops_per_pass = sum(call.ops for call in passes[0])
    for calls in passes:
        for call in calls:
            by_label.setdefault(call.label, []).append(call.seconds)
    medians = {label: statistics.median(v) for label, v in by_label.items()}
    # Throughput is all work over all time.  On a shared host the machine's
    # speed drifts over tens of seconds; over the same runs this varied less
    # from run to run than a sum of per-call medians.
    ops = ops_per_pass * len(passes)
    ops_per_s = ops / sum(c.seconds for calls in passes for c in calls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    n = len(passes)
    lines = [f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setup)} fresh processes)"]
    if workload.name in ("grids", "nonideal"):
        lines.append(f"cells_per_s {ops_per_s:.2f} 1/s ({ops_per_pass} cells per pass, {n} passes)")
        for label, m in medians.items():
            lines.append(f"sweep_s.{label} {m:.4f} s (median of {len(by_label[label])})")
    elif workload.name == "points":
        for label, m in medians.items():
            lines.append(f"point_s.{label} {m:.5f} s (median of {len(by_label[label])})")
    else:
        lines.append(f"check_s {medians['check']:.4f} s (median of {n}, {ops_per_pass} trials each)")
    lines.append(f"ops_per_s {ops_per_s:.4f} 1/s ({ops} operations in {n} passes)")
    lines.append(f"peak_rss_mb {rss_mb:.1f} MiB")
    return metrics, lines


def _generator_attempts(qh, seed) -> float:
    """Attempts per instance of properties.random_qudit_system at d = 8 and 10."""
    import numpy as np
    from inputs import generator_seed

    cls = qh.states.EnergySpectrum
    original = cls.__post_init__
    drawn = [0]

    def counting(self):
        drawn[0] += 1
        original(self)

    cls.__post_init__ = counting
    try:
        for d in GENERATOR_DIMS:
            qh.properties.random_qudit_system(np.random.default_rng(generator_seed(seed, d)), d)
    finally:
        cls.__post_init__ = original
    return drawn[0] / len(GENERATOR_DIMS)


def _traced(qh, workload, stem) -> tuple[dict, list]:
    from tracing import Tracer, instrument, layer_metrics

    t0 = time.perf_counter()
    untraced = workload.run_pass()
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    workload.tracer = tracer
    with instrument(qh, tracer):
        t0 = time.perf_counter()
        traced = workload.run_pass()
        traced_s = time.perf_counter() - t0
    workload.tracer = None
    metrics = layer_metrics(tracer)
    attempts = 0.0
    if workload.name == "points":
        # Outside the timed passes; its spans stay out of the layer metrics.
        draws = Tracer()
        with instrument(qh, draws):
            draws.begin("random_qudit_system")
            attempts = _generator_attempts(qh, workload.seed)
        metrics["properties.generator.self_s"] = layer_metrics(draws)["properties.generator.self_s"]
    metrics.update({
        "probe.max_dev": (workload.probe_dev, "1"),
        "properties.qudit_attempts_per_instance": (attempts, "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    tracer.write(os.path.join(OUT_DIR, f"spans-{stem}.tsv.gz"))
    return metrics, [untraced, traced]


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        qh = _import_program()
    except ImportError as exc:
        print(f"cannot import qheatflow from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_only:
            _make_workload(qh, args, workdir)
            return 0
        setup = [] if args.trace else _setup_seconds(args)
        workload = _make_workload(qh, args, workdir)
        workload.warmup()
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, passes = _traced(qh, workload, stem)
            lines = []
        else:
            passes = []
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                passes.append(workload.run_pass())
                now = time.perf_counter()
                if len(passes) >= MIN_PASSES and now + (now - t0) > start + args.seconds:
                    break
            metrics, lines = _end_to_end(workload, passes, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c.ops for calls in passes for c in calls)
    failed = sum(c.failed for calls in passes for c in calls)
    checked, mismatched = _digest_check(workload)
    if args.trace:
        metrics["sweeps.csv_body_checked"] = (checked, "count")
        metrics["sweeps.csv_body_mismatch"] = (mismatched, "count")
    lines.append(f"error_rate {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    if checked:
        lines.append(f"sweeps.csv_body_mismatch {mismatched} of {checked} seed-0 CSV bodies")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "notes": lines, "digests": workload.digests, "machine": _machine()}, fh, indent=1)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
