"""The scripts under ``examples/`` run to their closing line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
EXAMPLES = SRC.parent / "examples"


@pytest.mark.parametrize(
    "script, closing_line",
    [
        ("quickstart.py", "All four policies computed bit-identical results."),
        ("elastic_phases.py", "successful <VL> reconfigurations."),
        ("custom_policy.py", "plugs straight into the co-processor as a lane manager."),
    ],
)
def test_example_runs(script, closing_line, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC), "REPRO_CACHE_DIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert closing_line in done.stdout
