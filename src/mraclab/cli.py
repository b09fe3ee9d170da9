"""Command-line front end.

Three subcommands:

  run        execute a configured experiment and write its artifacts
  verify     re-derive and check every claimed property, either by re-running
             a configuration or by auditing a previously written trace file
  reproduce  run the packaged showcase experiment, audit it and write its artifacts

Exit codes: 0 success, 1 a verification check failed, 2 configuration or
file problem, 3 the simulation diverged numerically.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    CheckResult,
    ConfigError,
    NumericAbort,
    VerificationReport,
    audit,
    config_from_dict,
    reproduce_example,
    run_closed_loop,
    trace_from_csv,
    write_outputs,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_json(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))  # a missing file is an OSError
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config", f"{path} must hold a JSON object")
    return doc


def _apply_overrides(doc: dict, args: argparse.Namespace) -> dict:
    sim = doc.setdefault("sim", {})
    if not isinstance(sim, dict):
        return doc  # config_from_dict reports the malformed section
    if getattr(args, "steps", None) is not None:
        sim["steps"] = args.steps
    if getattr(args, "seed", None) is not None:
        sim["seed"] = args.seed
    if getattr(args, "label", None):
        doc["label"] = args.label
    return doc


def _print_report(rep: VerificationReport) -> None:
    for line in rep.lines():
        print(line)
    print("VERIFY PASS" if rep.passed else "VERIFY FAIL")


def cmd_run(args: argparse.Namespace) -> int:
    doc = _apply_overrides(_load_json(args.config), args)
    cfg = config_from_dict(doc)
    trace = run_closed_loop(cfg)
    rep = audit(trace, args.decay) if args.verify else None
    paths = write_outputs(trace, args.out, rep)
    for name in ("trace", "summary", "plot"):
        print(f"wrote {paths[name]}")
    if rep is not None:
        _print_report(rep)
        if not rep.passed:
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trace:
        csv_path = Path(args.trace)
        if not csv_path.is_file():
            raise ConfigError("trace", f"no such file: {args.trace}")
        if args.config:
            cfg = config_from_dict(_load_json(args.config))
        else:
            sidecar = csv_path.parent / "summary.json"
            if not sidecar.is_file():
                raise ConfigError(
                    "config",
                    f"no --config given and no summary.json beside {csv_path}",
                )
            summary = _load_json(str(sidecar))
            if summary.get("config") is None:
                raise ConfigError("config", f"{sidecar} carries no config document")
            cfg = config_from_dict(summary["config"])
            recorded = summary.get("config_hash")
            if recorded != cfg.config_hash():
                raise ConfigError(
                    "config_hash",
                    f"{sidecar} records {recorded!r}, but its config hashes to "
                    f"{cfg.config_hash()!r}",
                )
        trace = trace_from_csv(csv_path, cfg)
    else:
        if not args.config:
            raise ConfigError("config", "verify needs --config or --trace")
        cfg = config_from_dict(_load_json(args.config))
        trace = run_closed_loop(cfg)
    rep = audit(trace, args.decay)
    _print_report(rep)
    if args.out:
        paths = write_outputs(trace, args.out, rep)
        for name in ("trace", "summary", "plot"):
            print(f"wrote {paths[name]}")
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def cmd_reproduce(args: argparse.Namespace) -> int:
    trace, summary = reproduce_example(args.out)
    print(f"rows: {summary['rows']}  config: {summary['config_hash']}")
    for key, val in summary["tracking"].items():
        if key.startswith("rms"):
            print(f"{key} = {val:.6f}")
    print(f"estimates within box: {summary['estimates']['within_box']}")
    out = Path(args.out)
    for name in ("trace.csv", "summary.json", "plot.gp"):
        print(f"wrote {out / name}")
    audited = summary["checks"]  # the report, as run --verify prints it
    rep = VerificationReport([CheckResult(**c) for c in audited["checks"]], audited["fitted"])
    _print_report(rep)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mraclab",
        description="Discrete-time adaptive tracking lab: run, audit, reproduce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("--config", required=True, help="experiment JSON file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--steps", type=int, help="override sim.steps")
    run_p.add_argument("--seed", type=int, help="override sim.seed")
    run_p.add_argument("--label", help="override the run label")
    run_p.add_argument("--verify", action="store_true", help="also run every check")
    run_p.add_argument(
        "--lambda", dest="decay", type=float, help="decay rate for the envelope fit"
    )
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify", help="check the recorded properties")
    ver_p.add_argument("--config", help="experiment JSON file (re-runs the loop)")
    ver_p.add_argument("--trace", help="audit an existing trace.csv instead")
    ver_p.add_argument("--out", help="also write artifacts here")
    ver_p.add_argument(
        "--lambda", dest="decay", type=float, help="decay rate for the envelope fit"
    )
    ver_p.set_defaults(func=cmd_verify)

    rep_p = sub.add_parser("reproduce", help="run the packaged showcase experiment")
    rep_p.add_argument("--out", required=True, help="output directory")
    rep_p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    sys.exit(main())
