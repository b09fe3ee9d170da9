"""Command-line front end.

Three subcommands:

  run        execute a configured experiment and write its artifacts
  verify     re-derive and check every claimed property, either as run --verify
             of a configuration or by auditing a previously written trace file
             against the config its summary.json records
  reproduce  run --verify of the packaged showcase experiment (demo_config)

Exit codes: 0 success, 1 a verification check failed, 2 configuration or
file problem, 3 the simulation diverged numerically.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    NumericAbort,
    VerificationReport,
    audit,
    config_from_dict,
    demo_config,
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


def _finish(trace, out, rep: VerificationReport | None) -> int:
    """Write the artifacts when out is given, then print the report if any; the exit code."""
    if out:
        paths = write_outputs(trace, out, rep)
        for name in ("trace", "summary", "plot"):
            print(f"wrote {paths[name]}")
    if rep is None:
        return EXIT_OK
    for line in rep.lines():
        print(line)
    print("VERIFY PASS" if rep.passed else "VERIFY FAIL")
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def cmd_run(args: argparse.Namespace) -> int:
    trace = run_closed_loop(config_from_dict(_load_json(args.config)))
    return _finish(trace, args.out, audit(trace) if args.verify else None)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trace is None:  # --config: run --verify
        return cmd_run(args)
    csv_path = Path(args.trace)
    if not csv_path.is_file():
        raise ConfigError("trace", f"no such file: {args.trace}")
    sidecar = csv_path.parent / "summary.json"
    if not sidecar.is_file():
        raise ConfigError("config", f"no summary.json beside {csv_path}")
    summary = _load_json(str(sidecar))
    if summary.get("config") is None:
        raise ConfigError("config", f"{sidecar} carries no config document")
    cfg = config_from_dict(summary["config"])
    recorded = summary.get("config_hash")
    if recorded != cfg.config_hash():
        raise ConfigError(
            "config_hash",
            f"{sidecar} records {recorded!r}, but its config hashes to {cfg.config_hash()!r}",
        )
    trace = trace_from_csv(csv_path, cfg)
    return _finish(trace, args.out, audit(trace))


def cmd_reproduce(args: argparse.Namespace) -> int:
    trace = run_closed_loop(demo_config())
    return _finish(trace, args.out, audit(trace))


def _path(value: str) -> str:
    """A path option's value; an empty one names no file, so argparse refuses it (exit 2)."""
    if not value:
        raise argparse.ArgumentTypeError("empty path")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mraclab",
        description="Discrete-time adaptive tracking lab: run, audit, reproduce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("--config", type=_path, required=True, help="experiment JSON file")
    run_p.add_argument("--out", type=_path, required=True, help="output directory")
    run_p.add_argument("--verify", action="store_true", help="also run every check")
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify", help="check the recorded properties")
    source = ver_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=_path, help="experiment JSON file (re-runs the loop)")
    source.add_argument("--trace", type=_path, help="audit a trace.csv against the summary.json beside it")
    ver_p.add_argument("--out", type=_path, help="also write artifacts here")
    ver_p.set_defaults(func=cmd_verify, verify=True)

    rep_p = sub.add_parser("reproduce", help="run the packaged showcase experiment")
    rep_p.add_argument("--out", type=_path, required=True, help="output directory")
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
