"""Golden pins: the showcase artifacts, five more traces, six verified summaries and the
config hashes must not drift.

Any change to arithmetic order in the closed loop, the summary, or the
config serialization moves one of these digests. Updating a pin is a
deliberate act, recorded with the old and new value in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from mraclab.cli import main
from mraclab.harness import config_from_dict, demo_config, run_closed_loop, write_trace_csv

SHOWCASE_SHA256 = {
    "trace.csv": "d3186d34fb19995a22413fc7d243dc20a990eb97553078c13d5aa37cc27dbd3d",
    "summary.json": "b497070fa9917773c59486186263b14f0ba3e159d1e62daa1d50692036820b51",
}

# The config from the README's "Config format" section.
README_CONFIG = {
    "plant": {"a": [-0.6, 0.08], "b": [2.0, 0.5], "d": 2},
    "reference": {"L": [1.0, -0.4], "H": [0.6]},
    "estimator": {
        "box": {"lo": [-2.0, -1.0, 1.0, -1.0, -1.0], "hi": [2.0, 1.0, 3.0, 1.0, 1.0]},
        "delta": "inf",
    },
    "sim": {"t0": 0, "steps": 400, "x0": [0.1, -0.2, 0.0, 0.3, 0.05, -0.1], "theta0": "midpoint"},
    "signals": {
        "r": {"kind": "square_wave", "period": 60, "amplitude": 1.0},
        "w": {"kind": "white_noise", "amplitude": 0.05, "seed": 3},
    },
}

# The README config without a disturbance: the one summary pin of parameter_error_monotone.
README_W0_CONFIG = {**README_CONFIG, "signals": {"r": README_CONFIG["signals"]["r"]}}

# A one-step-delay constant plant with a finite deadzone and a negative start time.
D1_CONFIG = {
    "plant": {"a": [-0.5], "b": [1.0, 0.3], "d": 1},
    "reference": {"L": [1.0, -0.4], "H": [0.6]},
    "estimator": {"box": {"lo": [-1.0, 0.5, -1.0], "hi": [1.0, 2.0, 1.0]}, "delta": 0.5},
    "sim": {"t0": -3, "steps": 200, "x0": [0.5, -0.25], "theta0": "midpoint"},
    "signals": {
        "r": {"kind": "sinusoid", "amplitude": 1.0, "rate": 0.05},
        "w": {"kind": "constant", "level": 0.01},
    },
}

# D1_CONFIG under a disturbance large enough to close the deadzone gate (on 5 of 200 steps).
D1_GATED_CONFIG = {
    **D1_CONFIG,
    "signals": {**D1_CONFIG["signals"], "w": {"kind": "white_noise", "amplitude": 3.0, "seed": 3}},
}

# A static plant (n = 0) with a three-step delay and a negative leading gain.
STATIC_D3_CONFIG = {
    "plant": {"a": [], "b": [-1.5, 0.4], "d": 3},
    "reference": {"L": [1.0], "H": [0.9]},
    "estimator": {"box": {"lo": [-2.0, -1.0, -1.0, -1.0], "hi": [-1.0, 1.0, 1.0, 1.0]}, "delta": 0.2},
    "sim": {"t0": 5, "steps": 300, "x0": [0.4, -0.3, 0.2, 0.1, -0.5, 0.25, 0.6], "theta0": "midpoint"},
    "signals": {
        "r": {"kind": "square_wave", "period": 40, "amplitude": 2.0},
        "w": {"kind": "white_noise", "amplitude": 0.02, "seed": 9},
    },
}

# One input lag fewer than any other pin: m = 0 (b = b0 alone), two-step delay, finite deadzone.
M0_D2_CONFIG = {
    "plant": {"a": [-0.7], "b": [1.5], "d": 2},
    "reference": {"L": [1.0, -0.3], "H": [0.7]},
    "estimator": {"box": {"lo": [-0.3, 0.9, 0.0], "hi": [0.9, 2.1, 1.2]}, "delta": 0.3},
    "sim": {"t0": 0, "steps": 300, "x0": [0.2, -0.1, 0.3, -0.4], "theta0": "midpoint"},
    "signals": {
        "r": {"kind": "square_wave", "period": 50, "amplitude": 1.0},
        "w": {"kind": "white_noise", "amplitude": 0.1, "seed": 7},
    },
}

# p = n + m + d = 8 parameters: the squared parameter error is _weighted's left-to-right row
# sum, so its contraction margins pin that order at p = 8, where numpy's pairwise sum differs.
P8_CONFIG = {
    "plant": {"a": [-0.5, 0.2, -0.1], "b": [1.0, 0.3, 0.1], "d": 3},
    "reference": {"L": [1.0, -0.4], "H": [0.6]},
    "estimator": {
        "box": {
            "lo": [-0.6, -0.6, -0.6, 0.4, -0.2, -0.6, -0.6, -0.6],
            "hi": [0.6, 0.6, 0.6, 1.6, 1.0, 0.6, 0.6, 0.6],
        },
        "delta": 0.5,
    },
    "sim": {
        "t0": 0,
        "steps": 400,
        "x0": [0.1, -0.2, 0.3, -0.1, 0.2, -0.3, 0.1, -0.2, 0.3, -0.1, 0.2],
        "theta0": "midpoint",
    },
    "signals": {
        "r": {"kind": "square_wave", "period": 60, "amplitude": 1.0},
        "w": {"kind": "white_noise", "amplitude": 0.05, "seed": 1},
    },
}


def test_showcase_artifacts_pinned(tmp_path):
    assert main(["reproduce", "--out", str(tmp_path)]) == 0
    for name, digest in SHOWCASE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize(
    "make, digest",
    [
        (demo_config, "49b87c7b22062127"),
        (lambda: config_from_dict(README_CONFIG), "f4261414f3c49702"),
        (lambda: config_from_dict(D1_CONFIG), "4edfffaa30e63f76"),
    ],
    ids=["showcase", "readme", "d1"],
)
def test_config_hash_pinned(make, digest):
    assert make().config_hash() == digest


@pytest.mark.parametrize(
    "doc, digest",
    [
        (README_CONFIG, "7c4ae3a08f57bbfee2a1aed8d28a79a0fe23e3fc551b05e193ad296c033d75eb"),
        (D1_CONFIG, "a5bdd9615367d31a94bc21e6fc99e34ba63a9d03b0ac2988af00dc314ccad86a"),
        (STATIC_D3_CONFIG, "bca448a6a2fac8491d3c0d16780d79086d2c4745cbf854ea3d054f2cf86995fa"),
        (D1_GATED_CONFIG, "26f514d24301067925224cd3834faa6d3806f6add3f2dfc3a2a893e298883bdc"),
        (M0_D2_CONFIG, "96711e6bdfb007a95850ef2c6b9c4a7e3882a0915bbcbeaa109ced8d5674a725"),
    ],
    ids=["readme", "d1", "static_d3", "d1_gated", "m0_d2"],
)
def test_trace_pinned(tmp_path, doc, digest):
    trace = run_closed_loop(config_from_dict(doc))
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == digest
    if doc is D1_GATED_CONFIG:  # the pin must keep covering a closed gate
        assert not trace.rho[:-1].all()


@pytest.mark.parametrize(
    "doc, digest",
    [
        (README_CONFIG, "c619d602b02d999c1d2aa8253fa966318c224cd18d9db5b880f65847f4363553"),
        (D1_CONFIG, "f0d2d0dbbd8ba988b0362f6f472bb1b5ce9cc26ef98bea96055db7a12c1b4eb5"),
        (STATIC_D3_CONFIG, "d9bc9ab1a5f818748fd70376afd28fe4cbb8d65abee5a96ea1148ec3ffbc9e8c"),
        (D1_GATED_CONFIG, "68cc554a45e05aa89365ddb3a5708abc140d10293cdcddf0a53f30cb4a59c682"),
        (P8_CONFIG, "a913109afb89797ffeecf76adb7327e179a6efd3e405f140f79209431e7c3181"),
        (README_W0_CONFIG, "67aed6ce07aed786588912b81d6cc6f3fccedcb540ed6a81c77f57fbe0efd4f3"),
    ],
    ids=["readme", "d1", "static_d3", "d1_gated", "p8", "readme_w0"],
)
def test_summary_pinned(tmp_path, capsys, doc, digest):
    # summary.json of run --verify holds every check margin: the contraction and identity
    # margins of a constant plant move here when an audit's arithmetic order changes.
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out), "--verify"]) == 0
    assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == digest
    if doc is README_W0_CONFIG:  # the pin must keep covering the monotone check
        checks = json.loads((out / "summary.json").read_text())["checks"]["checks"]
        assert "parameter_error_monotone" in [c["name"] for c in checks]


def readme_block(section: str, lang: str) -> str:
    """The first ```lang block under README.md's "## section" heading."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"## {section}", 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_is_pinned():
    # The README's example config is the one whose hash and trace are pinned here.
    assert json.loads(readme_block("Config format", "json")) == README_CONFIG
