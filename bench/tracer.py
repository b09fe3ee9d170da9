"""Span tracing around the names through which each mraclab layer is called.

install() replaces every module attribute in the package that refers to a
traced function (and two class attributes) with a wrapper, and uninstall()
puts the originals back. The package itself is not edited.

A span wrapper records (name, start, end, parent span) into flat arrays kept
in memory, and write() saves them once when the run ends. A layer's self
time is its span time minus the time of its direct child spans. Functions
whose metric is a pure call count (signal_eval, coef_eval, deadzone_flag,
predictor_split, PlantParams construction) get a counting wrapper with no
span: they run several times per step, a span would cost more than the
call itself, and their time stays in the caller's self time.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import mraclab
from mraclab import cli, controller, estimator, harness, plant_sim, poly, system

MODULES = (poly, system, plant_sim, estimator, controller, harness, cli, mraclab)


def _steps_of_result(args, result):
    return result.rows - 1


def _rows_of_trace_arg(args, result):
    return args[0].rows


def _rows_of_cfg_arg(args, result):
    return args[0].steps + 1


def _rows_of_result(args, result):
    return result.rows


def _rows_of_config(args, result):
    return result.steps + 1


# name -> (function, rows processed per call or None)
SPANS = {
    "cli.main": (cli.main, None),
    "harness.config_from_dict": (harness.config_from_dict, _rows_of_config),
    "harness.run_closed_loop": (harness.run_closed_loop, _steps_of_result),
    "harness.ground_truth": (harness.ground_truth, _rows_of_cfg_arg),
    "harness.check_trace_consistency": (harness.check_trace_consistency, _rows_of_trace_arg),
    "harness.check_prop1": (harness.check_prop1, _rows_of_trace_arg),
    "harness.check_identities": (harness.check_identities, _rows_of_trace_arg),
    "harness.fit_decay_bound": (harness.fit_decay_bound, _rows_of_trace_arg),
    "harness.config_spectral_floor": (harness.config_spectral_floor, _rows_of_cfg_arg),
    "harness.write_outputs": (harness.write_outputs, _rows_of_trace_arg),
    "harness.trace_from_csv": (harness.trace_from_csv, _rows_of_result),
    "controller.reference_outputs": (controller.reference_outputs, None),
    "controller.control_input": (controller.control_input, None),
    "controller.ybar": (controller.ybar, None),
    "estimator.estimator_update": (estimator.estimator_update, None),
    "plant_sim.plant_step": (plant_sim.plant_step, None),
    "plant_sim.validate_horizon": (
        plant_sim.CoefficientSchedule.validate_horizon,
        lambda args, result: args[2],
    ),
    "plant_sim.wbar_sequence": (plant_sim.wbar_sequence, lambda args, result: args[3] + 1),
    "system.to_predictor_params": (system.to_predictor_params, None),
    "poly.schur_stable": (poly.schur_stable, None),
    "poly.max_root_modulus": (poly.max_root_modulus, None),
}

COUNTS = {
    "plant_sim.signal_eval": plant_sim.signal_eval,
    "plant_sim.coef_eval": plant_sim.coef_eval,
    "estimator.deadzone_flag": estimator.deadzone_flag,
    "poly.predictor_split": poly.predictor_split,
    "system.PlantParams": system.PlantParams.__post_init__,
}

CLASS_ATTRS = {
    "plant_sim.validate_horizon": (plant_sim.CoefficientSchedule, "validate_horizon"),
    "system.PlantParams": (system.PlantParams, "__post_init__"),
}


class Tracer:
    def __init__(self):
        self.names = list(SPANS) + list(COUNTS)
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.rows = dict.fromkeys(SPANS, 0)
        self.gates_opened = 0
        self._patched = []

    def _span_wrapper(self, name, fn, rows_of):
        nid = self.names.index(name)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack, clock, rows = self._stack, time.perf_counter_ns, self.rows
        gate = name == "estimator.estimator_update"

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t
                stack.pop()
            if rows_of is not None:
                rows[name] += rows_of(args, result)
            if gate:
                self.gates_opened += result.rho
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        wrappers = {}
        for name, (fn, rows_of) in SPANS.items():
            wrappers[id(fn)] = (fn, name, self._span_wrapper(name, fn, rows_of))
        for name, fn in COUNTS.items():
            wrappers[id(fn)] = (fn, name, self._count_wrapper(name, fn))
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[2])
        for name, (cls, attr) in CLASS_ATTRS.items():
            fn = vars(cls)[attr]
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, wrappers[id(fn)][2])

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per name: calls, total and self seconds, and rows processed."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            if name in COUNTS:
                out[name] = {"calls": self.counts[name]}
            else:
                out[name] = {
                    "calls": int(calls[i]),
                    "total_s": float(total[i]),
                    "self_s": float(own[i]),
                    "rows": self.rows[name],
                }
        return out

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
