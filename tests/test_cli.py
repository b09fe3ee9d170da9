"""End-to-end tests for the command-line interface and its exit codes."""

from __future__ import annotations

import json

import pytest

from mraclab import plant_sim
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

    def test_reproduce_then_audit(self, tmp_path, capsys):
        out = tmp_path / "show"
        main(["reproduce", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv")]) == 0
        assert "VERIFY PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "verify", "reproduce"])
def test_output_path_that_is_a_file_is_a_file_error(config_path, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("")
    config = [] if command == "reproduce" else ["--config", str(config_path)]
    assert main([command, *config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_schedule_is_evaluated_once_per_command(tmp_path, monkeypatch):
    # A time-varying run evaluates each coefficient once per emission time,
    # when the config is validated; the loop and every audit read those rows.
    cfg = demo_config(3000)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_config_dict()))
    calls, coef_eval = [0], plant_sim.coef_eval

    def counted(spec, t):
        calls[0] += 1
        return coef_eval(spec, t)

    monkeypatch.setattr(plant_sim, "coef_eval", counted)
    want = (cfg.n + cfg.m + 1) * cfg.steps
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out), "--verify"]) == 0
    assert calls[0] == want == 12_000
    calls[0] = 0
    assert main(["verify", "--trace", str(out / "trace.csv")]) == 0
    assert calls[0] == want
