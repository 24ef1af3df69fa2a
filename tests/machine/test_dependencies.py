"""The simulator runs on the standard library alone.

A fresh interpreter imports the public facade and runs one capped,
fully sanitized cell; numpy must never be imported along the way.
"""

import os
import subprocess
import sys

import repro

SCRIPT = """
import sys

from repro.api import ExperimentRunner, RunOptions, Workload1, scaled_config

result = ExperimentRunner().run(
    scaled_config(memory_ratio=40), Workload1(length_scale=0.01),
    max_references=5000, options=RunOptions(sanitize="full"),
)
assert result.references == 5000, result.references
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_sanitized_run_imports_no_numpy():
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
