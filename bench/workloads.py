"""The benchmark's three workloads: inputs from a seed, operations, checks.

A workload builds its inputs in __init__ (this is the set-up that setup_s
times) and then runs whole rounds of the same operations. Each round
returns its operations' outcomes and timings; the checks run outside the
timed regions and turn a wrong output into a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from mraclab import cli, harness
from mraclab.plant_sim import CoefficientSchedule, signal_eval, square_wave, white_noise, zero_signal
from mraclab.poly import PolyZ
from mraclab.system import ParamBox, PlantParams, ReferenceModel

import reference as ref

RESIDUAL_TOL = 1e-9
FLOOR_TOL = 1e-9
MONOTONE_TOL = 1e-9
BOX_TOL = 1e-12


def clock() -> float:
    """Process CPU time: the program is single-threaded, so this is its busy time."""
    return time.process_time()


@dataclass
class Round:
    """Outcome of one round: per-operation results and the timed samples."""

    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)  # failures outside the known fault
    run_verify_s: float = 0.0
    verify_trace_s: float = 0.0
    steps: int = 0
    rows: int = 0  # trace rows processed by all operations of the round
    bytes_written: int = 0

    def op(self, ok: bool, rows: int, what: str, known_fault: bool = False) -> None:
        self.attempted += 1
        self.rows += rows
        if not ok:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(what)


def cli_call(argv: list[str], scope, meter) -> tuple[int, str, float]:
    """Run mraclab.cli.main in-process; return (exit code, stdout, seconds).

    scope() wraps the call (tracing on or off) outside the timed region; the
    seconds are CPU seconds rescaled by meter. An exception escaping the CLI
    is reported and counts as exit code -1.
    """
    buf = io.StringIO()
    with scope():
        start = clock()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        elapsed = clock() - start
    return rc, buf.getvalue(), elapsed * meter.factor()


def verdict_pass(rc: int, out: str) -> bool:
    lines = out.strip().splitlines()
    return rc == 0 and bool(lines) and lines[-1] == "VERIFY PASS"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_trace(path: Path) -> dict:
    """trace.csv as named float columns, parsed with numpy (no mraclab code)."""
    header = path.read_text().split("\n", 1)[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    p = sum(1 for h in header if h.startswith("theta_hat_"))
    cols["theta_hat"] = np.column_stack([cols[f"theta_hat_{i}"] for i in range(p)])
    return cols


def signal_fn(spec):
    def w_of(times):
        return np.array([signal_eval(spec, int(t)) for t in times])

    return w_of


def in_box(theta_hat: np.ndarray, box: dict) -> bool:
    lo = np.asarray(box["lo"]) - BOX_TOL
    hi = np.asarray(box["hi"]) + BOX_TOL
    return bool(np.all(theta_hat >= lo) and np.all(theta_hat <= hi))


def write_doc(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc))


class CliWorkload:
    """Shared round structure of the two CLI workloads.

    Each round runs `run --verify` on the seeded config and `verify --trace`
    on the file it wrote, then checks the artifacts. Every round must write
    byte-identical trace.csv and summary.json.
    """

    steps: int

    def __init__(self, workdir: Path):
        self.config_path = workdir / "config.json"
        self.out = workdir / "out"
        self.hashes: dict[str, str] | None = None

    def run_round(self, scope, meter) -> Round:
        rnd = Round()
        rows = self.steps + 1
        rc, out, secs = cli_call(
            ["run", "--config", str(self.config_path), "--out", str(self.out), "--verify"],
            scope,
            meter,
        )
        rnd.run_verify_s = secs
        rnd.steps = self.steps
        run_ok = verdict_pass(rc, out)
        rc, out, secs = cli_call(["verify", "--trace", str(self.out / "trace.csv")], scope, meter)
        rnd.verify_trace_s = secs
        verify_ok = verdict_pass(rc, out)
        if run_ok:
            rnd.bytes_written = sum(f.stat().st_size for f in self.out.iterdir())
            failures = self.check_outputs() + self.check_determinism()
        else:
            failures = ["run --verify did not PASS"]
        rnd.op(run_ok and not failures, rows, "; ".join(failures))
        rnd.op(verify_ok, rows, "verify --trace did not PASS")
        self.extra_ops(rnd, scope, meter)
        return rnd

    def check_determinism(self) -> list[str]:
        hashes = {name: sha256(self.out / name) for name in ("trace.csv", "summary.json")}
        if self.hashes is None:
            self.hashes = hashes
            return []
        return [f"{name} differs between repeats" for name in hashes if hashes[name] != self.hashes[name]]

    def check_outputs(self) -> list[str]:
        raise NotImplementedError

    def extra_ops(self, rnd: Round, scope, meter) -> None:
        pass


class LongConstant(CliWorkload):
    """The README's constant plant (n=2, m=1, d=2) over a 5000-step horizon."""

    name = "long_constant"
    steps = 5_000

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        rng = np.random.default_rng([seed, 1])
        self.doc = {
            "plant": {"a": [-0.6, 0.08], "b": [2.0, 0.5], "d": 2},
            "reference": {"L": [1.0, -0.4], "H": [0.6]},
            "estimator": {
                "box": {"lo": [-2.0, -1.0, 1.0, -1.0, -1.0], "hi": [2.0, 1.0, 3.0, 1.0, 1.0]},
                "delta": "inf",
            },
            "sim": {
                "t0": 0,
                "steps": self.steps,
                "x0": [float(v) for v in rng.uniform(-0.5, 0.5, 6)],
                "theta0": "midpoint",
            },
            "signals": {
                "r": {"kind": "square_wave", "period": 60, "amplitude": 1.0},
                "w": {"kind": "white_noise", "amplitude": 0.05, "seed": int(rng.integers(1 << 30))},
            },
        }
        write_doc(self.config_path, self.doc)
        self.memory_trace = None

    def check_outputs(self) -> list[str]:
        doc = self.doc
        plant = doc["plant"]
        a, b, d = plant["a"], plant["b"], plant["d"]
        n, m = len(a), len(b) - 1
        L = doc["reference"]["L"]
        cols = load_trace(self.out / "trace.csv")
        T = len(cols["t"]) - 1
        hist = ref.History(cols["y"], cols["u"], doc["sim"]["x0"], n, m, d)
        w_doc = doc["signals"]["w"]
        w_of = signal_fn(white_noise(w_doc["amplitude"], w_doc["seed"]))
        theta, F = ref.predictor_params(a, b, L, d)
        failures = []
        worst = float(np.max(np.abs(ref.predictor_residual(hist, theta, F, w_of, L, n, m, d, T))))
        if not worst <= RESIDUAL_TOL:
            failures.append(f"predictor residual {worst:.3e}")
        worst = float(np.max(np.abs(ref.plant_residual(hist, a, b, w_of, d, T))))
        if not worst <= RESIDUAL_TOL:
            failures.append(f"plant residual {worst:.3e}")
        if not in_box(cols["theta_hat"], doc["estimator"]["box"]):
            failures.append("estimate outside the box")
        failures += self.check_read_back(cols)
        return failures

    def check_read_back(self, cols: dict) -> list[str]:
        """The file reloads bitwise, by numpy and by mraclab's reader."""
        cfg = harness.config_from_dict(self.doc)
        if self.memory_trace is None:
            self.memory_trace = harness.run_closed_loop(cfg)
        mem = self.memory_trace
        back = harness.trace_from_csv(self.out / "trace.csv", cfg)
        failures = []
        for name in ("y", "y_star", "u", "eps", "eps_bar", "e", "norm_phi", "theta_hat", "r", "w"):
            want = np.asarray(getattr(mem, name), dtype=float).tobytes()
            if cols[name].tobytes() != want or np.asarray(getattr(back, name)).tobytes() != want:
                failures.append(f"column {name} does not reload bitwise")
        if not np.array_equal(cols["rho"].astype(int), mem.rho) or not np.array_equal(back.rho, mem.rho):
            failures.append("column rho does not reload exactly")
        return failures


SCALE = 1e6
BURST = (200, 500)  # demo_config's disturbance window t in (200, 500]
RECOVERED = (600, 1000)  # the showcase's recovered window [600, 1000]


class DriftingShowcase(CliWorkload):
    """The packaged showcase plant, stretched from 1000 to 3000 steps."""

    name = "drifting_showcase"
    steps = 3_000

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        rng = np.random.default_rng([seed, 2])
        base = harness.demo_config(self.steps)
        self.doc = replace(base, x0=tuple(rng.uniform(-1.0, 1.0, 3))).to_config_dict()
        write_doc(self.config_path, self.doc)
        # The same showcase in other units: r, w and x0 times 1e6. The system
        # is linear, so every verdict should match the unscaled run's PASS.
        # Independent of the seed, so it fails on every repeat or on none.
        scaled = base.to_config_dict()
        scaled["sim"]["x0"] = [v * SCALE for v in scaled["sim"]["x0"]]
        for key in ("r", "w"):
            scaled["signals"][key]["amplitude"] *= SCALE
        self.scaled_path = workdir / "scaled.json"
        write_doc(self.scaled_path, scaled)

    def check_outputs(self) -> list[str]:
        failures = []
        summary = json.loads((self.out / "summary.json").read_text())
        got = summary["checks"]["fitted"]["spectral_floor"]
        want = ref.spectral_floor(self.doc)
        if not abs(got - want) <= FLOOR_TOL:
            failures.append(f"spectral floor {got!r} vs eigenvalues {want!r}")
        cols = load_trace(self.out / "trace.csv")
        t, eps = cols["t"], cols["eps"]
        burst = ref.rms(eps[(t > BURST[0]) & (t <= BURST[1])])
        recovered = ref.rms(eps[(t >= RECOVERED[0]) & (t <= RECOVERED[1])])
        if not burst > recovered:
            failures.append(f"burst rms {burst:.4f} <= recovered rms {recovered:.4f}")
        if not in_box(cols["theta_hat"], self.doc["estimator"]["box"]):
            failures.append("estimate outside the box")
        return failures

    def extra_ops(self, rnd: Round, scope, meter) -> None:
        rc, out, _ = cli_call(["verify", "--config", str(self.scaled_path)], scope, meter)
        rnd.op(verdict_pass(rc, out), self.steps + 1, "scaled showcase", known_fault=True)


# Ensemble member recipe, after the acceptance suite's contraction fixture:
# random plants of mixed shape, a box around theta*, white noise or none,
# deadzone on or off. Shape, noise level and deadzone cycle with the member
# index so that every seed covers all 24 combinations twice.
SHAPES = ((2, 1, 1), (1, 0, 2), (2, 0, 1), (2, 1, 2))
NOISE = (0.0, 0.05, 0.3)
DELTA = (math.inf, 0.5)


@dataclass
class Member:
    cfg: harness.ExperimentConfig
    L: tuple
    theta: np.ndarray  # reference theta*, independent of mraclab
    F: np.ndarray


class EnsembleSweep:
    """Many short library runs, each audited in memory; no files."""

    name = "ensemble_sweep"
    members = 48
    steps = 500
    chunk = 8  # members timed between two timings of the calibration job

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.ensemble = [self._member(rng, i) for i in range(self.members)]

    def _member(self, rng, i: int) -> Member:
        n, m, d = SHAPES[i % len(SHAPES)]
        amp = NOISE[(i // len(SHAPES)) % len(NOISE)]
        delta = DELTA[(i // (len(SHAPES) * len(NOISE))) % len(DELTA)]
        a = rng.uniform(-1.2, 1.2, n)
        b0 = (-1.0 if i % 3 == 2 else 1.0) * rng.uniform(1.0, 3.0)
        b = np.concatenate(([b0], rng.uniform(-0.4, 0.4, m) * abs(b0)))
        L = (1.0, -0.3) if n == 1 else (1.0, 0.0, -0.5)
        model = ReferenceModel(L=PolyZ(L), H=PolyZ((0.6,)), d=d)
        theta, F = ref.predictor_params(a, b, L, d)
        lo = theta - rng.uniform(0.4, 1.2, theta.shape)
        hi = theta + rng.uniform(0.4, 1.2, theta.shape)
        if b0 > 0:
            lo[n] = max(lo[n], 0.05)
        else:
            hi[n] = min(hi[n], -0.05)
        cfg = harness.ExperimentConfig(
            schedule=CoefficientSchedule.constant(PlantParams(a=tuple(a), b=tuple(b), d=d)),
            ref=model,
            box=ParamBox(lo=tuple(lo), hi=tuple(hi)),
            delta=delta,
            t0=0,
            steps=self.steps,
            x0=tuple(rng.uniform(-1.0, 1.0, (n + d - 1) + (m + 2 * d - 2))),
            theta0=tuple(rng.uniform(lo, hi)),
            r=square_wave(80, 1.0),
            w=zero_signal() if amp == 0.0 else white_noise(amp, seed=int(rng.integers(1 << 30))),
        )
        return Member(cfg, L, theta, F)

    def run_round(self, scope, meter) -> Round:
        rnd = Round()
        raw_run_verify = raw_audit = 0.0
        for i, mb in enumerate(self.ensemble):
            cfg = mb.cfg
            with scope():
                start = clock()
                try:
                    trace = harness.run_closed_loop(cfg)
                    mid = clock()
                    gt = harness.ground_truth(cfg)
                    prop1 = harness.check_prop1(trace, gt.theta_star, gt.wbar, gt.wbar_t0)
                    ident = harness.check_identities(trace, gt.theta_star, gt.wbar, gt.wbar_t0)
                except Exception:
                    traceback.print_exc()
                    trace = None
                end = clock()
            rnd.steps += cfg.steps
            if trace is None:
                rnd.op(False, cfg.steps + 1, "member raised")
            else:
                raw_run_verify += end - start
                raw_audit += end - mid
                failures = [] if prop1.passed and ident.passed else ["audit did not PASS"]
                failures += self.check_member(mb, trace)
                rnd.op(not failures, trace.rows, "; ".join(failures))
            if (i + 1) % self.chunk == 0 or i + 1 == len(self.ensemble):
                speed = meter.factor()
                rnd.run_verify_s += raw_run_verify * speed
                rnd.verify_trace_s += raw_audit * speed
                raw_run_verify = raw_audit = 0.0
        return rnd

    @staticmethod
    def check_member(mb: Member, trace) -> list[str]:
        theta, F = mb.theta, mb.F
        cfg = mb.cfg
        n, m, d = cfg.n, cfg.m, cfg.d
        T = trace.rows - 1
        hist = ref.History(trace.y, trace.u, cfg.x0, n, m, d)
        res = ref.predictor_residual(hist, theta, F, signal_fn(cfg.w), mb.L, n, m, d, T)
        failures = []
        worst = float(np.max(np.abs(res)))
        if not worst <= RESIDUAL_TOL:
            failures.append(f"predictor residual {worst:.3e}")
        if cfg.w.kind == "zero":
            err = ref.parameter_error(trace.theta_hat, theta)[d - 1 :]
            rise = float(np.max(np.diff(err)))
            if not rise <= MONOTONE_TOL:
                failures.append(f"parameter error rose by {rise:.3e}")
        return failures


WORKLOADS = {w.name: w for w in (LongConstant, DriftingShowcase, EnsembleSweep)}
