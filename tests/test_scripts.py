"""The example scripts and the README examples run end to end."""

import re
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


def test_readme_examples(capsys):
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    capsys.readouterr()
    bx, state = namespace["bx"], namespace["state"]
    # the remote-preparation claims written next to the example
    pr = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 0): 1})
    assert state.box == bx.mix_nonlocal(pr)
    assert bx.verify_steering_state(state).passed
