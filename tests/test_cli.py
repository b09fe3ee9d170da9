"""End-to-end tests for the command-line interface and its exit codes."""

from __future__ import annotations

import json

import pytest

from mraclab import harness, plant_sim
from mraclab.cli import main
from mraclab.harness import demo_config
from test_golden import README_CONFIG


@pytest.fixture()
def config_path(tmp_path):
    doc = {
        "plant": {"a": [-0.6, 0.08], "b": [2.0, 0.5], "d": 2},
        "reference": {"L": [1.0, -0.4], "H": [0.6]},
        "estimator": {
            "delta": "inf",
            "box": {"lo": [-1.0, -1.0, 1.0, -0.5, -1.0], "hi": [1.0, 1.0, 3.0, 1.5, 1.0]},
        },
        "sim": {
            "t0": 0,
            "steps": 300,
            "x0": [0.5, -0.5, 0.25, 1.0, -1.0, 0.0],
            "theta0": "midpoint",
            "seed": 1,
        },
        "signals": {
            "r": {"kind": "square_wave", "period": 60},
            "w": {"kind": "white_noise", "amplitude": 0.05, "seed": 3},
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_writes_artifacts(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        for name in ("trace.csv", "summary.json", "plot.gp"):
            assert (out / name).is_file()
        assert "wrote" in capsys.readouterr().out

    def test_run_with_verify(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config_path), "--out", str(out), "--verify"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "VERIFY PASS" in text
        assert "envelope_gain_c" in text
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["passed"] is True

    def test_steps_override(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["run", "--config", str(config_path), "--out", str(out), "--steps", "120"]
        ) == 0
        rows = (out / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 121

    def test_seed_override_changes_hash(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_path), "--out", str(out_a)])
        main(["run", "--config", str(config_path), "--out", str(out_b), "--seed", "9"])
        h = lambda p: json.loads((p / "summary.json").read_text())["config_hash"]
        assert h(out_a) != h(out_b)

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_field(self, config_path, tmp_path, capsys):
        doc = json.loads(config_path.read_text())
        doc["estimator"]["box"]["lo"][2] = -1.0  # gain interval straddles zero
        config_path.write_text(json.dumps(doc))
        rc = main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "estimator.box" in capsys.readouterr().err

    def test_divergent_run_aborts(self, tmp_path, capsys):
        doc = {
            "plant": {"a": [-1.5], "b": [1.0], "d": 1},
            "reference": {"L": [1.0], "H": [1.0]},
            "estimator": {"delta": "inf", "box": {"lo": [-1.0, 2.0], "hi": [-1.0, 2.0]}},
            "sim": {"steps": 2000, "x0": [1.0], "theta0": [-1.0, 2.0]},
            "signals": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err

    def test_misspelled_field_is_a_config_error(self, tmp_path, capsys):
        # Read as absent, "dleta" would leave delta = inf: the deadzone off.
        doc = json.loads(json.dumps(README_CONFIG))
        doc["estimator"]["dleta"] = 0.5
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: estimator.dleta: unknown field\n"

    def test_unallocatable_horizon_is_a_config_error(self, tmp_path, capsys):
        # numpy can address 10^15 rows of a constant plant, but no memory holds them.
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(README_CONFIG))
        steps = str(10**15)
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--steps", steps])
        assert rc == 2
        assert capsys.readouterr().err == f"error: sim.steps: {steps} steps cannot be allocated\n"

    @pytest.mark.parametrize(
        "t0, steps, fieldpath",
        [(2**60, 400, "sim.t0"), (10**30, 400, "sim.t0"), (2**53 - 399, 400, "sim.steps")],
        ids=["2^60", "10^30", "past_2^53"],
    )
    def test_time_past_the_bound_is_a_config_error(self, tmp_path, capsys, t0, steps, fieldpath):
        # A trace's t column is float64, exact only up to 2^53.
        doc = json.loads(json.dumps(README_CONFIG))
        doc["sim"].update(t0=t0, steps=steps)
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {fieldpath}:")

    @pytest.mark.parametrize("t0", [2**53 - 400, -(2**53)], ids=["last", "first"])
    def test_trace_at_the_time_bound_is_audited(self, tmp_path, capsys, t0):
        doc = json.loads(json.dumps(README_CONFIG))
        doc["sim"].update(t0=t0, steps=400)
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--verify"]) == 0
        capsys.readouterr()
        assert main(["verify", "--trace", str(tmp_path / "o" / "trace.csv")]) == 0
        assert "VERIFY PASS" in capsys.readouterr().out

    def test_config_that_is_not_utf8_is_a_config_error(self, config_path, tmp_path, capsys):
        config_path.write_bytes(b"\xff\xfe" + config_path.read_text().encode("utf-16-le"))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("where", ["signals.r", "plant.schedule.a[0]"])
    def test_overflowing_sinusoid_angle_is_a_config_error(self, tmp_path, capsys, where):
        # rate * t passes the largest double within the horizon: math.cos would raise.
        if where == "signals.r":
            doc = json.loads(json.dumps(README_CONFIG))
            doc["signals"]["r"] = {"kind": "sinusoid", "amplitude": 1.0, "rate": 1e308}
        else:
            doc = demo_config().to_config_dict()
            doc["plant"]["schedule"]["a"][0]["rate"] = 1e308
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: field 'rate':") and len(err.splitlines()) == 1


class TestVerify:
    def test_from_config(self, config_path, capsys):
        assert main(["verify", "--config", str(config_path)]) == 0
        assert "VERIFY PASS" in capsys.readouterr().out

    def test_from_trace_with_sidecar(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv")]) == 0
        assert "VERIFY PASS" in capsys.readouterr().out

    def test_from_trace_with_explicit_config(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        (out / "summary.json").unlink()
        assert main(
            ["verify", "--trace", str(out / "trace.csv"), "--config", str(config_path)]
        ) == 0

    def test_missing_sidecar(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        (out / "summary.json").unlink()
        rc = main(["verify", "--trace", str(out / "trace.csv")])
        assert rc == 2
        assert "summary.json" in capsys.readouterr().err

    def test_sidecar_that_is_not_an_object(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        (out / "summary.json").write_text("[1, 2]")
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_tampered_trace_fails(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        trace = out / "trace.csv"
        lines = trace.read_text().splitlines()
        cells = lines[50].split(",")
        cells[1] = "%.17g" % (float(cells[1]) + 1e-4)
        lines[50] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--trace", str(trace)]) == 1
        assert "VERIFY FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cells: cells[:-3],  # truncated row
            lambda cells: cells[:4] + ["abc"] + cells[5:],
            lambda cells: cells[:2] + ["nan"] + cells[3:],
        ],
        ids=["truncated_row", "abc", "nan"],
    )
    def test_malformed_trace_is_a_file_error(self, tmp_path, capsys, edit):
        out = tmp_path / "show"
        main(["reproduce", "--out", str(out)])
        trace = out / "trace.csv"
        lines = trace.read_text().splitlines()
        lines[300] = ",".join(edit(lines[300].split(",")))
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace:") and "Traceback" not in err

    @pytest.mark.parametrize("extra", [50, -50], ids=["appended", "dropped"])
    @pytest.mark.parametrize("plant", ["readme", "showcase"])
    def test_trace_must_span_the_horizon(self, tmp_path, capsys, plant, extra):
        out = tmp_path / "out"
        if plant == "readme":
            (tmp_path / "cfg.json").write_text(json.dumps(README_CONFIG))
            main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        else:
            main(["reproduce", "--out", str(out)])
        trace = out / "trace.csv"
        lines = trace.read_text().splitlines()
        lines = lines + lines[-1:] * extra if extra > 0 else lines[:extra]
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace:") and len(err.splitlines()) == 1

    def test_sidecar_that_is_not_utf8_is_a_config_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        summary = out / "summary.json"
        summary.write_bytes(b"\xff\xfe" + summary.read_text().encode("utf-16-le"))
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("key, row", [("a", [123.0, 456.0]), ("b", [0.0, 99.0])], ids=["a", "b"])
    def test_sidecar_plant_row_must_match_the_schedule(self, tmp_path, capsys, key, row):
        # The hash is taken from the schedule's rows, so an edited plant.a/b keeps it.
        out = tmp_path / "show"
        main(["reproduce", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        summary["config"]["plant"][key] = row
        (out / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: plant.{key}:")

    def test_sidecar_hash_is_recomputed(self, tmp_path, capsys):
        out = tmp_path / "show"
        main(["reproduce", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        summary["config_hash"] = "0000000000000000"
        (out / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: config_hash:")

    def test_header_only_trace_is_a_file_error(self, tmp_path, capsys, recwarn):
        out = tmp_path / "show"
        main(["reproduce", "--out", str(out)])
        trace = out / "trace.csv"
        trace.write_text(trace.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert main(["verify", "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace:") and len(err.splitlines()) == 1
        assert not recwarn.list  # outside pytest a warning would print on stderr

    @pytest.mark.parametrize(
        "column, cell, owner",
        [("t", "10.9", "consistency_time_index"), ("rho", "1.99", "consistency_deadzone_gate")],
        ids=["t", "rho"],
    )
    def test_fractional_integer_cell_fails_its_check(self, tmp_path, capsys, column, cell, owner):
        # t and rho hold integers and read as float64, so no cast hides a fraction.
        out = tmp_path / "show"
        main(["reproduce", "--out", str(out)])
        trace = out / "trace.csv"
        lines = trace.read_text().splitlines()
        j, cells = lines[0].split(",").index(column), lines[11].split(",")  # the row of t = 10
        assert cells[j] == cell.split(".")[0]
        cells[j] = cell
        lines[11] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--trace", str(trace)]) == 1
        text = capsys.readouterr().out
        assert f"FAIL {owner} " in text and "VERIFY FAIL" in text

    def test_lambda_below_floor(self, config_path, capsys):
        rc = main(["verify", "--config", str(config_path), "--lambda", "0.2"])
        assert rc == 2
        assert "decay rate" in capsys.readouterr().err

    def test_lambda_accepted_above_floor(self, config_path):
        assert main(["verify", "--config", str(config_path), "--lambda", "0.95"]) == 0

    def test_needs_config_or_trace(self, capsys):
        assert main(["verify"]) == 2
        assert "config" in capsys.readouterr().err


class TestReproduce:
    def test_writes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "show"
        assert main(["reproduce", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rows: 1001" in text
        assert "within box: True" in text
        for name in ("trace.csv", "summary.json", "plot.gp"):
            assert (out / name).is_file()

    def test_prints_its_audit(self, tmp_path, capsys):
        out = tmp_path / "show"
        assert main(["reproduce", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert main(["verify", "--trace", str(out / "trace.csv")]) == 0
        report = capsys.readouterr().out
        assert report.splitlines()[-1] == "VERIFY PASS" and text.endswith(report)

    def test_failed_audit_exits_1(self, tmp_path, capsys, monkeypatch):
        check_prop1 = harness.check_prop1

        def failing(*args, **kwargs):
            rep = check_prop1(*args, **kwargs)
            rep.add("injected_failure", -1.0)
            return rep

        monkeypatch.setattr(harness, "check_prop1", failing)
        out = tmp_path / "show"
        assert main(["reproduce", "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL injected_failure (worst margin -1.000e+00)" in lines
        assert lines[-1] == "VERIFY FAIL"
        assert json.loads((out / "summary.json").read_text())["checks"]["passed"] is False

    def test_reproduce_then_audit(self, tmp_path, capsys):
        out = tmp_path / "show"
        main(["reproduce", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv")]) == 0
        assert "VERIFY PASS" in capsys.readouterr().out

    def test_summary_is_the_audit_of_verify(self, tmp_path):
        # reproduce audits its run as verify --trace audits the written trace.
        out, again = tmp_path / "show", tmp_path / "again"
        assert main(["reproduce", "--out", str(out)]) == 0
        assert main(["verify", "--trace", str(out / "trace.csv"), "--out", str(again)]) == 0
        summary = (out / "summary.json").read_bytes()
        assert (again / "summary.json").read_bytes() == summary
        assert json.loads(summary)["checks"]["passed"] is True


@pytest.mark.parametrize("command", ["run", "verify", "reproduce"])
def test_output_path_that_is_a_file_is_a_file_error(config_path, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("")
    config = [] if command == "reproduce" else ["--config", str(config_path)]
    assert main([command, *config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_schedule_is_evaluated_once_per_command(tmp_path, monkeypatch):
    # A time-varying run evaluates its schedule once, over every emission time,
    # when the config is validated: one coeff_rows call, one coef_column per
    # coefficient and no coef_eval. The loop and every audit read those rows.
    cfg = demo_config(3000)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_config_dict()))
    calls = {"coeff_rows": [], "coef_column": [], "coef_eval": []}

    def counted(name, func):
        def wrapper(*args):
            calls[name].append(args[-2:])
            return func(*args)
        return wrapper

    sched = plant_sim.CoefficientSchedule
    monkeypatch.setattr(sched, "coeff_rows", counted("coeff_rows", sched.coeff_rows))
    for name in ("coef_column", "coef_eval"):
        monkeypatch.setattr(plant_sim, name, counted(name, getattr(plant_sim, name)))
    horizon = (cfg.t0, cfg.steps)
    columns = cfg.n + cfg.m + 1  # one per coefficient, 4 on the showcase
    want = {"coeff_rows": [horizon], "coef_column": [horizon] * columns, "coef_eval": []}
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out), "--verify"]) == 0
    assert calls == want
    for name in calls:
        calls[name].clear()
    assert main(["verify", "--trace", str(out / "trace.csv")]) == 0
    assert calls == want
