"""End-to-end tests for the command-line interface and its exit codes."""

from __future__ import annotations

import json

import pytest

from mraclab import harness, plant_sim
from mraclab.cli import main
from mraclab.harness import demo_config
from test_golden import README_CONFIG
from test_harness import README_S_AB, STRADDLING_S_AB


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

    @pytest.mark.parametrize(
        "flag, value", [("--seed", "9"), ("--steps", "120"), ("--label", "x"), ("--lambda", "0.92")]
    )
    def test_setting_flag_is_a_usage_error(self, config_path, tmp_path, flag, value):
        # Every setting comes from the document: run has no flag that overrides one, and the
        # audit's decay rate is its own rule.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", str(config_path), "--out", str(out), flag, value])
        assert info.value.code == 2
        assert not out.exists()

    def test_empty_document_label_is_left_out(self, config_path, tmp_path):
        # An empty label is no label: summary.json records none, at its top or in its config.
        doc = json.loads(config_path.read_text())
        doc["label"] = ""
        config_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "label" not in summary and "label" not in summary["config"]

    def test_box_and_s_ab_box_is_a_config_error(self, tmp_path, capsys):
        # The literal box ran, while summary.json recorded the s_ab_box as its source.
        doc = json.loads(json.dumps(README_CONFIG))
        doc["estimator"].update(s_ab_box=README_S_AB, samples=64, margin=0.05)
        path = tmp_path / "both.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: estimator: takes a 'box' or an 's_ab_box', not both\n"
        assert not (tmp_path / "o").exists()

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
        # A beta0_hat of 0 a hair below the box is refused up front, not by the control law.
        doc["estimator"]["box"]["lo"][2] = 1e-13
        doc["sim"]["theta0"] = [0.0, 0.0, 0.0, 0.0, 0.0]
        config_path.write_text(json.dumps(doc))
        rc = main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: sim.theta0: initial estimate must lie inside the box\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["estimator"]["box"]["lo"].__setitem__(2, -1.0),
             "error: estimator.box: beta0 interval [-1.0, 3.0] contains 0; the control law divides by beta0\n"),
            (lambda d: d.__setitem__("estimator", {"s_ab_box": STRADDLING_S_AB}),
             "error: estimator.s_ab_box: beta0 interval [-1.5, 2.5] contains 0; the control law divides by beta0\n"),
            (lambda d: d["sim"].__setitem__("x0", d["sim"]["x0"][:5]),
             "error: sim.x0: needs 6 entries for (n=2, m=1, d=2), got 5\n"),
        ],
        ids=["beta0_interval", "s_ab_beta0_interval", "x0_length"],
    )
    def test_config_is_the_one_gate(self, edit, message, tmp_path, capsys):
        # The README config made invalid is refused at the entry point with its field error
        # and nothing written; the loop does not check these facts again.
        doc = json.loads(json.dumps(README_CONFIG))
        edit(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o").exists()

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
        doc = json.loads(json.dumps(README_CONFIG))
        doc["sim"]["steps"] = 10**15
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: sim.steps: 1000000000000000 steps cannot be allocated\n"

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

    @pytest.mark.parametrize(
        "box, fieldpath", [("box", "estimator.box"), ("s_ab_box", "plant.d")], ids=["box", "s_ab_box"]
    )
    @pytest.mark.parametrize("d", [2**40, 2**62], ids=["2^40", "2^62"])
    def test_astronomical_delay_is_a_config_error(self, tmp_path, capsys, d, box, fieldpath):
        # x0's default has about 3d entries, and an s_ab_box's image a d-term long division.
        doc = json.loads(json.dumps(README_CONFIG))
        doc["plant"]["d"] = d
        del doc["sim"]["x0"]
        if box == "s_ab_box":
            doc["estimator"] = {"s_ab_box": README_S_AB}
        with pytest.raises(harness.ConfigError, match=f"^{fieldpath}: "):
            harness.config_from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fieldpath}: ") and len(err.splitlines()) == 1


def edit_cell(trace, column: str, row: int, cell: str) -> None:
    """Set one cell of a trace.csv; row counts data rows from 0, and -1 is the last."""
    lines = trace.read_text().splitlines()
    k = row + 1 if row >= 0 else row  # line 0 is the header
    cells = lines[k].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[k] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")


class TestVerify:
    def test_from_config(self, config_path, capsys):
        assert main(["verify", "--config", str(config_path)]) == 0
        assert "VERIFY PASS" in capsys.readouterr().out

    def test_out_writes_then_reports_as_run_verify(self, config_path, tmp_path, capsys):
        # verify --config is run --verify: the same lines and the same files, the out
        # directory aside. verify --out once printed its report before its wrote lines.
        out, again = tmp_path / "v", tmp_path / "r"
        assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert main(["run", "--config", str(config_path), "--out", str(again), "--verify"]) == 0
        assert capsys.readouterr().out.replace(str(again), str(out)) == text
        assert text.startswith(f"wrote {out}") and text.endswith("VERIFY PASS\n")
        for name in ("trace.csv", "summary.json", "plot.gp"):
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

    def test_from_trace_with_sidecar(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv")]) == 0
        assert "VERIFY PASS" in capsys.readouterr().out

    def test_missing_sidecar(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        (out / "summary.json").unlink()
        capsys.readouterr()
        rc = main(["verify", "--trace", str(out / "trace.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "summary.json" in err and len(err.splitlines()) == 1

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
    def test_sidecar_plant_row_beside_the_schedule_is_refused(self, tmp_path, capsys, key, row):
        # The showcase's summary records its schedule alone and one label, in its config.
        out = tmp_path / "show"
        main(["reproduce", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary["config"]["plant"]) == ["d", "schedule"] and "label" not in summary
        assert summary["config"]["label"] == "showcase"
        summary["config"]["plant"][key] = row
        (out / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv")]) == 2
        assert capsys.readouterr().err == f"error: plant.{key}: unknown field\n"

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

    @pytest.mark.parametrize("row, cell", [(0, "-100"), (0, "5000"), (-1, "401")],
                             ids=["t0_-100", "t0_5000", "t_end_+1"])
    @pytest.mark.parametrize("plant", ["readme", "showcase"])
    def test_edited_time_cell_fails_only_its_owner(self, tmp_path, capsys, plant, row, cell):
        # The audit's horizon is the config's: an edited t cell fails consistency_time_index
        # alone, and no check reads its rows from the t column.
        out = tmp_path / "out"
        if plant == "readme":
            (tmp_path / "cfg.json").write_text(json.dumps(README_CONFIG))
            main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        else:
            main(["reproduce", "--out", str(out)])
        if plant == "showcase" and row == -1:
            cell = "1001"
        edit_cell(out / "trace.csv", "t", row, cell)
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv")]) == 1
        text = capsys.readouterr()
        fails = [line.split()[1] for line in text.out.splitlines() if line.startswith("FAIL")]
        assert fails == ["consistency_time_index"] and text.err == ""

    def test_degenerate_envelope_fit_is_recorded_as_null(self, tmp_path, capsys):
        # x0 = 0 and r = w = 0: every column is zero. A nonzero y cell gives phi a nonzero norm
        # under the zero envelope, which leaves the fit undefined; the audit reports the edit
        # and records no gain.
        doc = json.loads(json.dumps(README_CONFIG))
        doc["sim"]["x0"] = [0.0] * 6
        del doc["signals"]
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        edit_cell(out / "trace.csv", "y", 10, "1e-100")
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv"), "--out", str(tmp_path / "v")]) == 1
        text = capsys.readouterr()
        fails = [line.split()[1] for line in text.out.splitlines() if line.startswith("FAIL")]
        assert fails == [
            "consistency_plant_recursion", "consistency_tracking_error", "consistency_weighted_error",
            "consistency_prediction_error", "consistency_regressor_norm", "consistency_deadzone_gate",
        ] and text.err == ""
        summary = json.loads((tmp_path / "v" / "summary.json").read_text())
        assert summary["checks"]["fitted"]["envelope_gain_c"] is None

    @pytest.mark.parametrize("source", ["--config", "--trace"])
    def test_lambda_is_a_usage_error(self, config_path, tmp_path, source):
        # The audit fits at its own rate: verify takes no --lambda, from a config or a trace.
        ran = tmp_path / "ran"
        main(["run", "--config", str(config_path), "--out", str(ran)])
        path = config_path if source == "--config" else ran / "trace.csv"
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["verify", source, str(path), "--out", str(out), "--lambda", "0.92"])
        assert info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
    def test_needs_config_or_trace(self, config_path, tmp_path, both):
        # A trace is audited against the config its summary.json records, never one handed in.
        ran = tmp_path / "ran"
        main(["run", "--config", str(config_path), "--out", str(ran)])
        sources = ["--trace", str(ran / "trace.csv"), "--config", str(config_path)] if both else []
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["verify", *sources, "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()


class TestReproduce:
    def test_writes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "show"
        assert main(["reproduce", "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith("VERIFY PASS\n")
        for name in ("trace.csv", "summary.json", "plot.gp"):
            assert (out / name).is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rows"] == 1001
        assert summary["estimates"]["within_box"] is True

    def test_is_run_verify_of_its_config(self, tmp_path, capsys):
        # reproduce prints and writes what run --verify does for reproduce's own config
        # document, the out directory aside.
        out, again = tmp_path / "show", tmp_path / "again"
        assert main(["reproduce", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        config = tmp_path / "showcase.json"
        config.write_text(json.dumps(json.loads((out / "summary.json").read_text())["config"]))
        assert main(["run", "--config", str(config), "--out", str(again), "--verify"]) == 0
        assert capsys.readouterr().out.replace(str(again), str(out)) == text
        for name in ("trace.csv", "summary.json", "plot.gp"):
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

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


def sim_that_is_an_array(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({**README_CONFIG, "sim": [400]}))
    run = ["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]
    return run, "sim: expected an object"


def trace_that_is_missing(tmp_path):
    missing = str(tmp_path / "o" / "trace.csv")
    return ["verify", "--trace", missing], f"trace: no such file: {missing}"


def sidecar_without_config(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(README_CONFIG))
    assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 0
    sidecar = tmp_path / "o" / "summary.json"
    summary = json.loads(sidecar.read_text())
    del summary["config"]
    sidecar.write_text(json.dumps(summary))
    verify = ["verify", "--trace", str(tmp_path / "o" / "trace.csv")]
    return verify, f"config: {sidecar} carries no config document"


@pytest.mark.parametrize("case", [sim_that_is_an_array, trace_that_is_missing, sidecar_without_config])
def test_refusal_is_its_one_line(tmp_path, capsys, case):
    argv, message = case(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("doc", [demo_config().to_config_dict(), README_CONFIG], ids=["showcase", "readme"])
def test_inputs_are_sampled_once_per_command(tmp_path, monkeypatch, doc):
    # r and w are sampled once, on t0 .. t0 + steps, into the config's inputs, which the
    # loop and every audit read, a constant plant's wbar (its ground truth) too.
    cfg = harness.config_from_dict(doc)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    calls = []

    def counted(spec, t0, count, _signal_rows=plant_sim.signal_rows):
        calls.append((spec, t0, count))
        return _signal_rows(spec, t0, count)

    for module in (harness, plant_sim):
        monkeypatch.setattr(module, "signal_rows", counted)
    horizon = (cfg.t0, cfg.steps + 1)
    want = [(cfg.r, *horizon), (cfg.w, *horizon)]
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out), "--verify"]) == 0
    assert calls == want
    calls.clear()
    assert main(["verify", "--trace", str(out / "trace.csv")]) == 0
    assert calls == want


RUN_USAGE = "usage: mraclab run [-h] --config CONFIG --out OUT [--verify]\n"
VERIFY_USAGE = "usage: mraclab verify [-h] (--config CONFIG | --trace TRACE) [--out OUT]\n"
REPRODUCE_USAGE = "usage: mraclab reproduce [-h] --out OUT\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["run", "--config", "cfg.json", "--out", ""], RUN_USAGE + "mraclab run: error: argument --out: empty path\n"),
        (["run", "--config", "", "--out", "out"], RUN_USAGE + "mraclab run: error: argument --config: empty path\n"),
        (["verify", "--config", ""], VERIFY_USAGE + "mraclab verify: error: argument --config: empty path\n"),
        (["verify", "--trace", ""], VERIFY_USAGE + "mraclab verify: error: argument --trace: empty path\n"),
        (["verify", "--config", "cfg.json", "--out", ""],
         VERIFY_USAGE + "mraclab verify: error: argument --out: empty path\n"),
        (["reproduce", "--out", ""], REPRODUCE_USAGE + "mraclab reproduce: error: argument --out: empty path\n"),
    ],
    ids=["run-out", "run-config", "verify-config", "verify-trace", "verify-out", "reproduce-out"],
)
def test_empty_path_is_a_usage_error(argv, err, config_path, monkeypatch, capsys):
    # An empty path names no file: argparse refuses it, names the option and nothing runs.
    monkeypatch.chdir(config_path.parent)
    monkeypatch.setenv("COLUMNS", "120")  # the usage line unwrapped
    before = sorted(config_path.parent.iterdir())
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr() == ("", err)
    assert sorted(config_path.parent.iterdir()) == before
