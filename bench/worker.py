"""One benchmark process: set up a workload, run whole rounds, print one JSON line.

Started by run.py in a fresh interpreter, so set-up time includes importing
mraclab and peak RSS belongs to this workload alone. With --setup-only it
stops after building the inputs.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 3


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, rounds, speed: float) -> dict:
    """Per-layer metrics from the spans and counts of a traced run.

    Span times are rescaled by speed, the run's median calibration factor,
    into the same units as the end-to-end times.
    """
    s = tracer.summary()
    for entry in s.values():
        for key in ("total_s", "self_s"):
            if key in entry:
                entry[key] *= speed
    op_rows = sum(r.rows for r in rounds)
    steps = s["harness.run_closed_loop"]["rows"]

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def us_per_row(name):
        return per(s[name]["total_s"], s[name]["rows"], 1e6)

    def us_per_call(name):
        return per(s[name]["total_s"], s[name]["calls"], 1e6)

    def calls_per_row(name):
        return per(s[name]["calls"], op_rows)

    out = {
        "harness.run_closed_loop.us_per_step": us_per_row("harness.run_closed_loop"),
        "harness.run_closed_loop.self_us_per_step": per(
            s["harness.run_closed_loop"]["self_s"], steps, 1e6
        ),
        "controller.self_us_per_step": per(
            sum(s[f"controller.{f}"]["self_s"] for f in ("reference_outputs", "control_input", "ybar")),
            steps,
            1e6,
        ),
        "estimator.gate_open_ratio": per(tracer.gates_opened, s["estimator.estimator_update"]["calls"]),
        "harness.write_outputs.bytes_per_row": per(
            sum(r.bytes_written for r in rounds), s["harness.write_outputs"]["rows"]
        ),
        "cli.main.self_s": per(s["cli.main"]["self_s"], s["cli.main"]["calls"]),
        "system.PlantParams.constructions_per_row": calls_per_row("system.PlantParams"),
    }
    for name in (
        "check_trace_consistency", "check_prop1", "check_identities", "fit_decay_bound",
        "ground_truth", "config_spectral_floor", "write_outputs", "trace_from_csv",
        "config_from_dict",
    ):
        out[f"harness.{name}.us_per_row"] = us_per_row(f"harness.{name}")
    for name in ("plant_sim.validate_horizon", "plant_sim.wbar_sequence"):
        out[f"{name}.us_per_row"] = us_per_row(name)
    for name in (
        "controller.reference_outputs", "controller.control_input", "controller.ybar",
        "estimator.estimator_update", "plant_sim.plant_step", "system.to_predictor_params",
        "poly.schur_stable", "poly.max_root_modulus",
    ):
        out[f"{name}.us_per_call"] = us_per_call(name)
    for name in (
        "estimator.deadzone_flag", "plant_sim.signal_eval", "plant_sim.coef_eval",
        "system.to_predictor_params", "poly.schur_stable", "poly.max_root_modulus",
        "poly.predictor_split",
    ):
        out[f"{name}.calls_per_row"] = calls_per_row(name)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import mraclab

    if ROOT / "src" not in Path(mraclab.__file__).resolve().parents:
        print(f"error: mraclab imported from {mraclab.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from calibrate import Meter, rescale
    from workloads import WORKLOADS

    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = rescale(time.process_time())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        scope = contextlib.nullcontext
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            scope = lambda: tracer  # noqa: E731 - install/uninstall around each operation
        meter = Meter()
        rounds = []
        deadline = time.perf_counter() + args.seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds.append(wl.run_round(scope, meter))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = [what for r in rounds for what in r.unexpected]
    run_verify_s = median([r.run_verify_s for r in rounds])
    timed = {
        "run_verify_s": run_verify_s,
        "verify_trace_s": median([r.verify_trace_s for r in rounds]),
        "ensemble_run_steps_per_s": rounds[0].steps / run_verify_s if run_verify_s else 0.0,
    }
    if tracer is None:
        metrics = dict(timed, peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        metrics = layer_metrics(tracer, rounds, median(meter.factors))
        metrics.update({f"traced.{k}": v for k, v in timed.items()})
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.npz")
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": sum(r.attempted for r in rounds),
                "failed": sum(r.failed for r in rounds),
                "rounds": len(rounds),
                "unexpected": unexpected[:5],
                "setup_s": setup_s,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
