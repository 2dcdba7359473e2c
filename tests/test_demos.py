"""The demos README documents run to the end and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jopeq
from jopeq.flsim import BASELINES

SRC = Path(jopeq.__file__).resolve().parents[1]
DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo, header", [
    ("snr_vs_rate.py", ["rate", "joint(e=3)", "separate(e=3)",
                        "joint(e=4)", "separate(e=4)"]),
    ("learning_curves.py", ["round", *BASELINES]),
])
def test_demo_runs(demo, header):
    env = {k: v for k, v in os.environ.items() if not k.startswith("JOPEQ_")}
    env["PYTHONPATH"] = str(SRC)
    run = subprocess.run([sys.executable, str(DEMOS / demo)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0].split() == header
