"""Command-line front-end.

Subcommands:
  sweep <config>   evaluate a parameter grid, emit CSV (stdout or --out)
  point <config>   full single-point analysis report
  check            run the randomized property suite

Exit codes: 0 success, 1 usage error, 2 infeasible single-point config,
3 property-suite failure.
"""

from __future__ import annotations

import argparse
import sys as _sys

from .config import ConfigError, apply_overrides, load_config
from .states import InfeasibleStateError
from .sweeps import SweepSpec, analyze_point, run_sweep


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qheatflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p_sweep.add_argument("configfile")
    p_sweep.add_argument("--out", help="CSV destination (default: stdout)")
    p_sweep.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )

    p_point = sub.add_parser("point", help="analyze a single configuration")
    p_point.add_argument("configfile")
    p_point.add_argument("--out", help="write MH/TPM/probe CSV files with this prefix")
    p_point.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p_check = sub.add_parser("check", help="run the randomized property suite")
    p_check.add_argument("--seed", type=int, default=7)
    p_check.add_argument("--trials", type=int, default=500)
    p_check.add_argument("--properties", default=None, help="comma-separated subset of the property names")
    return parser


def _cmd_sweep(args) -> int:
    cfg = apply_overrides(load_config(args.configfile), args.set)
    spec = SweepSpec.from_config(cfg)
    result = run_sweep(spec)
    csv_text = result.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(
            f"wrote {result.metadata['cells']} cells "
            f"({result.metadata['infeasible']} infeasible) to {args.out}"
        )
    else:
        _sys.stdout.write(csv_text)
    return 0


def _cmd_point(args) -> int:
    cfg = apply_overrides(load_config(args.configfile), args.set)
    try:
        report = analyze_point(cfg)
    except InfeasibleStateError as exc:
        print(f"infeasible configuration: {exc.constraint}", file=_sys.stderr)
        return 2
    print(report.render())
    if args.out:
        for suffix, text in (
            ("_mh.csv", report.mh_csv),
            ("_tpm.csv", report.tpm_csv),
            ("_probe.csv", report.probe_csv),
        ):
            path = args.out + suffix
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {path}")
    return 0


def run_property_suite(seed: int, n_trials: int, names):
    """``properties.run_property_suite``, imported by ``check`` alone; ``perfbench/tracing.py`` wraps this name."""
    from .properties import run_property_suite
    return run_property_suite(seed=seed, n_trials=n_trials, names=names)


def _cmd_check(args) -> int:
    names = None if args.properties is None else [s.strip() for s in args.properties.split(",") if s.strip()]
    results = run_property_suite(seed=args.seed, n_trials=args.trials, names=names)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: trials={res.trials} failures={res.failures} max_dev={res.max_dev:.3g}  {res.note}")
    total_fail = sum(res.failures for res in results)  # a property fails on any failure
    print(f"{'FAILED' if total_fail else 'OK'}: {len(results)} properties, {total_fail} failures")
    return 3 if total_fail else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "point":
            return _cmd_point(args)
        return _cmd_check(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=_sys.stderr)
        return 1
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
