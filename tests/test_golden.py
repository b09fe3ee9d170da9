"""Golden pins: the showcase artifacts and config hashes must not drift.

Any change to arithmetic order in the closed loop, the summary, or the
config serialization moves one of these digests. Updating a pin is a
deliberate act, recorded with the old and new value in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from mraclab.cli import main
from mraclab.harness import config_from_dict, demo_config

SHOWCASE_SHA256 = {
    "trace.csv": "61246dcf3cc61a0520c7b06e37081a54108306856d6834b246a13ea67d57c682",
    "summary.json": "6c929cec615ee593d0d5451c99e3e4b542203dc8ac8c29efdb4c4c3ebd48422e",
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

# A one-step-delay constant plant with a finite deadzone and a negative start time.
D1_CONFIG = {
    "plant": {"a": [-0.5], "b": [1.0, 0.3], "d": 1},
    "reference": {"L": [1.0, -0.4], "H": [0.6]},
    "estimator": {"box": {"lo": [-1.0, 0.5, -1.0], "hi": [1.0, 2.0, 1.0]}, "delta": 0.5},
    "sim": {"t0": -3, "steps": 200, "x0": [0.5, -0.25], "theta0": "midpoint", "seed": 4},
    "signals": {
        "r": {"kind": "sinusoid", "amplitude": 1.0, "rate": 0.05},
        "w": {"kind": "constant", "level": 0.01},
    },
}


def test_showcase_artifacts_pinned(tmp_path):
    assert main(["reproduce", "--out", str(tmp_path)]) == 0
    for name, digest in SHOWCASE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize(
    "make, digest",
    [
        (demo_config, "86c80136186788a7"),
        (lambda: config_from_dict(README_CONFIG), "fcdf19a1c16cdc8d"),
        (lambda: config_from_dict(D1_CONFIG), "ac4ebc08222b6409"),
    ],
    ids=["showcase", "readme", "d1"],
)
def test_config_hash_pinned(make, digest):
    assert make().config_hash() == digest
