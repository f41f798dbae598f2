"""The runtime imports nothing from the ``test`` extra.

``hypothesis`` is a test-only dependency (``pyproject.toml``), so the
library, the CLI and the serving daemon must load without it.  Checked
in a fresh interpreter: this process has long since imported it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = (
    "import sys\n"
    "import repro, repro.cli, repro.serve\n"
    "assert 'hypothesis' not in sys.modules, 'hypothesis was imported'\n"
)


def test_runtime_is_hypothesis_free():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
