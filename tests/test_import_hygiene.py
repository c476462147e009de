"""What a fresh process imports: no runtime path may load SciPy, and the
``repro-serve`` client loads neither NumPy nor asyncio.

Each case runs in a fresh interpreter, so modules that other tests
imported into this process cannot mask a regression.  The checks are
on ``sys.modules`` only — deterministic, no timing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

FIG8_POINT = """
import repro.experiments.runner
from repro.experiments import fig8_speedup_vs_n as fig8
from repro.experiments.common import (
    MEASUREMENT_NOISE, default_alpha_grid, sweep_best_operating_points,
)
from repro.hpu import HPU1
sweep_best_operating_points(
    [(HPU1, 1 << 16)], default_alpha_grid(True),
    noise=MEASUREMENT_NOISE, adaptive=True,
)
fig8.predicted_speedup(HPU1, 1 << 16)
"""

DAEMON_VALIDATE = """
from repro.serve.protocol import canonical_request, validate_request
canonical_request(validate_request(
    {"kind": "sweep", "platform": "HPU1", "n": [1 << 17]}
))
"""

CLIENT_IMPORT = "import repro.serve.cli"


def loaded_after(script, modules):
    """The subset of ``modules`` in ``sys.modules`` after ``script``."""
    probe = (
        script
        + "\nimport json, sys\n"
        + f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
        timeout=120,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "script",
    [FIG8_POINT, DAEMON_VALIDATE],
    ids=["runner-fig8-point", "daemon-validate-canonicalise"],
)
def test_runtime_paths_do_not_import_scipy(script):
    assert loaded_after(script, ["scipy"]) == []


def test_serve_client_is_stdlib_only():
    assert loaded_after(CLIENT_IMPORT, ["numpy", "asyncio"]) == []
