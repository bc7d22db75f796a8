"""The example scripts run end to end."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_blind_protocol():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_blind_protocol.py"), "--rounds", "500"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert any(line.startswith("audit: pass") for line in result.stdout.splitlines())
    assert "empirical weights at y = 1" in result.stdout
