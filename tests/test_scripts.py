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
    audit = re.search(r"^audit: pass \(0 mismatched rounds, log e-value (-?[\d.]+) "
                      r"against log\(1/0\.001\) = 6\.91\)$", result.stdout, re.M)
    assert audit and float(audit[1]) < 6.91
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


def test_fuzz_cli_smoke():
    # the seeded fuzz run at a tiny size: it keeps the contract and
    # tallies every run by subcommand and exit code
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "fuzz_cli.py"), "--seed", "3", "--examples", "20"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    first, *rows = result.stdout.splitlines()
    runs = re.fullmatch(r"seed 3: (\d+) runs kept the CLI contract", first)
    assert runs and int(runs[1]) >= 20
    tally = [re.fullmatch(r"  (\w+) +exit ([0235]): (\d+)", row) for row in rows]
    assert all(tally) and sum(int(m[3]) for m in tally) == int(runs[1])
