"""Byte-exact blind-steering documents, verification witnesses, and
simulator output.

The files under ``golden/`` hold the full stdout of ``boxsteer blind``
for three targets (canonical, mirrored across the anti-diagonal, and on
the degenerate boundary), the SHA-256 digests of the NDJSON log and the
report document of ten seeded simulations, and the audit verdict of one
tampered log.  Any change to them changes a CLI document or a log byte,
so it must be deliberate and recorded.  ``PYTHONPATH=src python3
tests/test_golden.py`` rewrites the simulation files from the current
library.
"""

import dataclasses
import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import boxsteer as bx
from boxsteer import cli

GOLDEN = Path(__file__).parent / "golden"

DEGENERATE_WARNING = (
    "warning: target (s=1/4, t=1/4) sits on the triangle boundary: "
    "construction degenerates and blindness may fail\n"
)


@pytest.mark.parametrize(
    "s,t,stem,stderr",
    [
        ("1/4", "1/2", "blind_canonical", ""),
        ("3/4", "1/2", "blind_mirrored", ""),
        ("1/4", "1/4", "blind_degenerate", DEGENERATE_WARNING),
    ],
)
def test_blind_documents(capsys, s, t, stem, stderr):
    code = cli.main(["blind", s, t])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == (GOLDEN / f"{stem}.stdout").read_text(encoding="utf-8")
    assert err == stderr


# every reduction of this ensemble is wrong for both targets
WRONG = bx.NonlocalEnsemble.from_weights(
    products={((1, 0), (0, 0)): F(1, 4)}, prs={(0, 1, 0): F(3, 4)}
)


@pytest.mark.parametrize(
    "s,t,upper,lower",
    [
        (
            F(1, 4),
            F(1, 2),
            "1/4*S00 + 1/2*S01 + 1/4*S11",
            "1/4*S01 + 1/4*S10 + 1/2*S11",
        ),
        (
            F(3, 4),
            F(1, 2),
            "1/4*S01 + 1/2*S00 + 1/4*S10",
            "1/4*S00 + 1/4*S11 + 1/2*S10",
        ),
    ],
)
def test_reduction_witnesses(s, t, upper, lower):
    report = bx.verify_blind_steering(WRONG, bx.TargetState(s, t))
    assert report.check("reduction_y0") == bx.CheckResult(
        "reduction_y0",
        False,
        f"Bob input 0 prepares 5/8*S10 + 3/8*S11, expected {upper}",
    )
    assert report.check("reduction_y1") == bx.CheckResult(
        "reduction_y1",
        False,
        f"Bob input 1 prepares 1/4*S10 + 3/8*S00 + 3/8*S01, expected {lower}",
    )
    assert report.posterior_supports == (
        ((0, 0), ("S10",)),
        ((0, 1), ("S10", "S11")),
        ((1, 0), ("S00", "S10")),
        ((1, 1), ("S01", "S10")),
    )


# ---------------------------------------------------------------------------
# simulator bytes
# ---------------------------------------------------------------------------

SIMULATE_DIGESTS = GOLDEN / "simulate_digests.json"
AUDIT_TAMPERED = GOLDEN / "audit_tampered.json"

SPLIT = {
    "products": {((0, 1), (1, 0)): F(1, 4), ((1, 1), (0, 1)): F(1, 4)},
    "prs": {(0, 0, 0): F(1, 4), (1, 0, 1): F(1, 4)},
}


def ensembles():
    canonical = bx.TargetState(F(1, 4), F(1, 2))
    split = bx.NonlocalEnsemble.from_weights(**SPLIT)
    return {
        "canonical": bx.plan_blind_steering(canonical).ensemble,
        "mirrored": bx.plan_blind_steering(bx.TargetState(F(3, 4), F(1, 2))).ensemble,
        "split": bx.plan_blind_steering(canonical, split).ensemble,
    }


POLICIES = {
    "uniform": ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4))),
    "skewed": ((F(1, 8), F(3, 8)), (F(1, 3), F(1, 6))),
    # (x, y) = (1, 1) is never drawn, so its joint cells are NaN
    "no11": ((F(1, 2), F(1, 4)), (F(1, 4), F(0))),
}

# (ensemble, policy, seed, rounds); seeds at and above 2**32 change the
# number of entropy words numpy's SeedSequence hashes
CASES = [
    ("canonical", "uniform", 0, 300),
    ("mirrored", "uniform", 2**32 - 1, 257),
    ("canonical", "skewed", 2**32, 200),
    ("mirrored", "no11", 2**64 + 5, 150),
    ("split", "skewed", 1, 1),
    ("mirrored", "skewed", 12345, 64),
    ("canonical", "no11", 2**64 + 5, 333),
    ("split", "uniform", 7, 500),
    ("split", "no11", 2**32, 120),
    ("canonical", "uniform", 2**32 - 1, 1000),
]


def case_id(case):
    return "-".join(map(str, case))


def simulate_digests(case):
    name, policy, seed, rounds = case
    report, logs = bx.run_protocol(
        ensembles()[name], rounds=rounds, seed=seed,
        policy=bx.InputPolicy(POLICIES[policy]),
    )
    return {
        "logs": hashlib.sha256(bx.logs_to_ndjson(logs).encode()).hexdigest(),
        "report": hashlib.sha256(
            bx.dumps(bx.simulation_report_to_json(report)).encode()
        ).hexdigest(),
    }


def tampered_verdict():
    """The verdict document of a 500-round canonical log, read backwards,
    with the constituent of every third line swapped: 167 offending
    rounds, listed in log order (descending round ids) and cut at 20."""
    ensemble = ensembles()["canonical"]
    _, logs = bx.run_protocol(ensemble, rounds=500, seed=4)
    tampered = []
    for position, log in enumerate(reversed(logs)):
        if position % 3 == 0:
            old = log.alice_actual
            log = dataclasses.replace(log, alice_actual=bx.SBox(old.alpha ^ 1, old.beta))
        tampered.append(log)
    return bx.dumps(bx.audit_verdict_to_json(bx.referee_audit(tampered, ensemble)))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_simulation_bytes(case):
    golden = json.loads(SIMULATE_DIGESTS.read_text(encoding="utf-8"))
    assert simulate_digests(case) == golden[case_id(case)]


def test_tampered_audit_document():
    assert tampered_verdict() == AUDIT_TAMPERED.read_text(encoding="utf-8")


if __name__ == "__main__":
    # rewrite the simulation files; only when log bytes are meant to change
    SIMULATE_DIGESTS.write_text(
        json.dumps({case_id(c): simulate_digests(c) for c in CASES}, indent=2) + "\n",
        encoding="utf-8",
    )
    AUDIT_TAMPERED.write_text(tampered_verdict(), encoding="utf-8")
