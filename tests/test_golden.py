"""Byte-exact blind-steering documents and verification witnesses.

The files under ``golden/`` hold the full stdout of ``boxsteer blind``
for three targets: canonical, mirrored across the anti-diagonal, and on
the degenerate boundary.  Any change to them changes a CLI document, so
it must be deliberate and recorded.
"""

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
