"""mraclab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload long_constant --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; mraclab is imported from ./src.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (spans are saved under bench/out/). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; metric names and units come from BENCHMARK.json.

Times are process CPU seconds rescaled by a calibration job (calibrate.py),
reported as medians over the run's rounds. Set-up time is measured in
SETUP_PROBES fresh processes plus the measuring process itself, and
reported as their median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 6
DEADLINE_S = 170.0


def worker(args: argparse.Namespace, env: dict, timeout: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    if not (ROOT / "src" / "mraclab" / "__init__.py").is_file():
        print(f"error: no mraclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # One interpreter thread of numpy work: keep BLAS from adding idle
    # threads whose spinning would show up as process CPU time.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        setups = [
            worker(args, env, DEADLINE_S, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)
        ]
        result = worker(args, env, DEADLINE_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    measured = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    print(
        f"# {args.workload} seed {args.seed}: {result['attempted']} operations, "
        f"{result['failed']} failed; times are medians of {result['rounds']} rounds "
        f"(setup_s: of {len(setups)} processes) in calibrated CPU seconds"
    )
    for what in result["unexpected"]:
        print(f"# unexpected failure: {what}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
