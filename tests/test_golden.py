"""Byte-exact blind-steering documents, verification witnesses, and
simulator output.

The files under ``golden/`` hold the full stdout of ``boxsteer blind``
for three targets (canonical, mirrored across the anti-diagonal, and on
the degenerate boundary), the stdout, stderr and exit code of
``boxsteer steer`` and ``boxsteer verify`` on passing, padded, failing
and wrong-alphabet cases, the stdout of ``boxsteer decompose`` on a PR
box in white noise (its witness depends on the split rule), the SHA-256
digests of the NDJSON log and the report document of ten seeded
simulations, the audit verdict of one tampered log, and the
no-signalling-scan and normalization messages of the library's
validators (``messages.json``).  Inline SHA-256 digests pin the stdout of ``boxsteer
blind`` for two relabeled targets with a ``--split`` and for a mirrored
boundary target; the stderr of rejected splits, the ``alice_marginal``
witness of two wrong ensembles and Bob's unseen-outcome message are
pinned inline too.
Any change to them changes a CLI document, a log byte or an error
message, so it must be deliberate and recorded.  ``PYTHONPATH=src python3
tests/test_golden.py`` rewrites the simulation, steer/verify, decompose
and message files from the current library.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest

import boxsteer as bx
from boxsteer import cli, serialize
from strategies import pr_bipartite_box
from test_polytope import flat_box, noisy_pr

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


def blind_run(tmp_path, s, t, split):
    """(exit code, stdout, stderr) of ``boxsteer blind S T --split FILE``."""
    path = tmp_path / "split.json"
    doc = serialize.nonlocal_ensemble_to_json(split)
    path.write_text(serialize.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["blind", s, t, "--split", str(path)])
    return code, out.getvalue(), err.getvalue()


# Splits valid in the target's own coordinates; the relabeled targets take
# different Alice factors than the canonical one (S00 and S10 for the
# mirror, S01 and S10 for the input flip).  The stdout digests pin the
# whole document.
SPLIT_CASES = {
    "mirrored": (
        "3/4",
        "1/2",
        bx.NonlocalEnsemble.from_weights(
            products={
                ((0, 0), (0, 1)): F(1, 8),
                ((1, 0), (1, 1)): F(1, 4),
                ((0, 0), (1, 0)): F(1, 8),
            },
            prs={(1, 0, 0): F(3, 8), (0, 0, 1): F(1, 8)},
        ),
        "87af46d442bdbab6013f473b8f37ecb96c86b22d63b81e8e0782c6118d00a203",
    ),
    "input_flipped": (
        "1/2",
        "1/4",
        bx.NonlocalEnsemble.from_weights(
            products={
                ((1, 0), (0, 0)): F(1, 8),
                ((0, 1), (1, 1)): F(1, 4),
                ((1, 0), (0, 1)): F(1, 8),
            },
            prs={(0, 0, 1): F(1, 4), (1, 0, 0): F(1, 4)},
        ),
        "8fae51a391d33f62e8d700d5d49e18cef60a4f8fd5669acfff4f6900277269b2",
    ),
}


# stdout of ``boxsteer blind 3/4 3/4``, the mirror of blind_degenerate
BLIND_3_4_3_4_DIGEST = "cf02c30afcfd1924a3b3d18841d0aa3237e03c931099c9cda8dfc4b0b5e37f60"


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_blind_split_documents(tmp_path, name):
    s, t, split, digest = SPLIT_CASES[name]
    code, out, err = blind_run(tmp_path, s, t, split)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # the split comes back member for member, in the target's coordinates
    assert json.loads(out)["ensemble"] == serialize.nonlocal_ensemble_to_json(split)


# (1/2, 1/4) flips the canonical target's inputs: its product members
# carry Alice's S01 and S10, and its PR members beta = 0
@pytest.mark.parametrize(
    "split,stderr",
    [
        (
            bx.NonlocalEnsemble.from_weights(
                products={((0, 1), (0, 0)): F(1, 2)}, prs={(0, 0, 0): F(1, 2)}
            ),
            "error: split rejected (reduction_y0, reduction_y1, alice_marginal): "
            "Bob input 0 prepares 3/4*S01 + 1/4*S00, expected 1/4*S00 + 1/2*S01 + 1/4*S10; "
            "Bob input 1 prepares 1/2*S01 + .../2, t=1/4)\n",
        ),
        (
            bx.NonlocalEnsemble.from_weights(
                products={((0, 1), (0, 0)): F(1, 4), ((1, 0), (1, 1)): F(1, 4)},
                prs={(0, 1, 0): F(1, 2)},
            ),
            "error: split rejected (reduction_y0, reduction_y1): Bob input 0 prepares "
            "1/4*S01 + 1/2*S10 + 1/4*S11, expected 1/4*S00 + 1/2*S01 + 1/4*S10; "
            "Bob input 1 prepares 1/2*S01 + 1/4*S1... + 1/2*S10\n",
        ),
    ],
    ids=["products", "beta1_prs"],
)
def test_blind_wrong_split_message(tmp_path, split, stderr):
    assert blind_run(tmp_path, "1/2", "1/4", split) == (2, "", stderr)


def test_blind_degenerate_warning_names_given_target(capsys):
    # (3/4, 3/4) canonicalizes to the boundary point (1/4, 1/4)
    code = cli.main(["blind", "3/4", "3/4"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == (
        "warning: target (s=3/4, t=3/4) sits on the triangle boundary: "
        "construction degenerates and blindness may fail\n"
    )
    assert json.loads(out)["report"]["degenerate"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == BLIND_3_4_3_4_DIGEST


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


def test_reduction_witness_lists_b_zero_first():
    # PR001 has parity 1 at (0, 0), so its cells list b = 1 first; the
    # reduction names the b = 0 constituent (S01) first all the same
    pr001 = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 1): F(1)})
    report = bx.verify_blind_steering(pr001, bx.TargetState(F(1, 4), F(1, 2)))
    assert report.check("reduction_y0") == bx.CheckResult(
        "reduction_y0",
        False,
        "Bob input 0 prepares 1/2*S01 + 1/2*S00, "
        "expected 1/4*S00 + 1/2*S01 + 1/4*S11",
    )


# Bob always sees b = 1 here: his factor is S01 and no PR member is present
CONSTANT = bx.NonlocalEnsemble.from_weights(products={((0, 0), (0, 1)): F(1)})


@pytest.mark.parametrize(
    "ensemble,table",
    [
        (WRONG, "((5/8, 3/8), (3/8, 5/8))"),
        (CONSTANT, "((1, 0), (1, 0))"),
    ],
    ids=["wrong", "constant"],
)
def test_alice_marginal_witness(ensemble, table):
    report = bx.verify_blind_steering(ensemble, bx.TargetState(F(1, 4), F(1, 2)))
    assert report.check("alice_marginal") == bx.CheckResult(
        "alice_marginal",
        False,
        f"mixture marginal is {table}, expected (s=1/4, t=1/2)",
    )


def test_unseen_outcome_message():
    assert bx.verify_blind_steering(
        CONSTANT, bx.TargetState(F(1, 4), F(1, 2))
    ).posterior_supports == (((0, 1), ("S00",)), ((1, 1), ("S00",)))
    for y in (0, 1):
        with pytest.raises(bx.ZeroProbabilityError) as raised:
            bx.bob_posterior(CONSTANT, y, 0)
        assert str(raised.value) == (
            f"Bob never sees b=0 on input y={y} under this ensemble"
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
    # (x, y) = (1, 1) is never drawn, so its joint cells are null
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
        "logs": hashlib.sha256(serialize.logs_to_ndjson(logs).encode()).hexdigest(),
        "report": hashlib.sha256(
            serialize.dumps(serialize.simulation_report_to_json(report)).encode()
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
    verdict = bx.referee_audit(tampered, ensemble)
    return serialize.dumps(serialize.audit_verdict_to_json(verdict))


# ---------------------------------------------------------------------------
# remote preparation: steer and verify runs
# ---------------------------------------------------------------------------

REMOTE_EXITS = GOLDEN / "remote_exits.json"


def ensemble_doc(num_inputs, num_outputs, *members):
    return {
        "X": num_inputs,
        "A": num_outputs,
        "members": [{"w": w, "f": list(f)} for w, f in members],
    }


def box_doc(table):
    return serialize.bipartite_box_to_json(bx.BipartiteBox(table))


PR_TABLE = pr_bipartite_box(bx.PRBox(0, 0, 0)).table
# the README pair: mixing either gives the uniform state
PR_PAIR = [
    ensemble_doc(2, 2, ("1/2", (0, 0)), ("1/2", (1, 1))),
    ensemble_doc(2, 2, ("1/2", (0, 1)), ("1/2", (1, 0))),
]
QUARTERS = ensemble_doc(
    2, 2, ("1/4", (0, 0)), ("1/4", (0, 1)), ("1/4", (1, 0)), ("1/4", (1, 1))
)
SWAPPED_TABLE = tuple(
    tuple(tuple(tuple(row[::-1]) for row in block_a) for block_a in block_y)
    for block_y in PR_TABLE
)

# stem -> (command, box table or None, ensemble list)
REMOTE_CASES = {
    "steer_pr_emergence": ("steer", None, PR_PAIR),
    "steer_padded": ("steer", None, [PR_PAIR[0], QUARTERS]),
    "steer_incompatible": (
        "steer", None, [PR_PAIR[0], ensemble_doc(2, 2, ("1", (0, 0)))]
    ),
    "verify_pr": ("verify", PR_TABLE, PR_PAIR),
    "verify_outcomes_swapped": ("verify", SWAPPED_TABLE, PR_PAIR),
    "verify_three_inputs": (
        "verify", PR_TABLE, [ensemble_doc(3, 2, ("1", (0, 0, 0)))] * 2
    ),
    "verify_three_outputs": (
        "verify", PR_TABLE, [ensemble_doc(2, 3, ("1", (0, 0)))] * 2
    ),
    # Bob's weights match, the constituents are on another alphabet
    "verify_three_inputs_halves": (
        "verify",
        PR_TABLE,
        [ensemble_doc(3, 2, ("1/2", (0, 0, 0)), ("1/2", (1, 1, 1)))] * 2,
    ),
}


def remote_run(stem, directory):
    """(exit code, stdout, stderr) of the case's CLI run in this process."""
    command, table, ensembles = REMOTE_CASES[stem]
    argv = [command]
    if table is not None:
        box_path = directory / f"{stem}_box.json"
        box_path.write_text(serialize.dumps(box_doc(table)), encoding="utf-8")
        argv.append(str(box_path))
    ensembles_path = directory / f"{stem}_ensembles.json"
    ensembles_path.write_text(serialize.dumps(ensembles), encoding="utf-8")
    argv.append(str(ensembles_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("stem", sorted(REMOTE_CASES))
def test_remote_runs(tmp_path, stem):
    code, out, err = remote_run(stem, tmp_path)
    golden = json.loads(REMOTE_EXITS.read_text(encoding="utf-8"))[stem]
    assert (code, err) == (golden["exit"], golden["stderr"])
    assert out == (GOLDEN / f"{stem}.stdout").read_text(encoding="utf-8")


def write_remote_goldens():
    exits = {}
    with tempfile.TemporaryDirectory() as scratch:
        for stem in sorted(REMOTE_CASES):
            code, out, err = remote_run(stem, Path(scratch))
            (GOLDEN / f"{stem}.stdout").write_text(out, encoding="utf-8")
            exits[stem] = {"exit": code, "stderr": err}
    REMOTE_EXITS.write_text(json.dumps(exits, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# decomposition witness
# ---------------------------------------------------------------------------

DECOMPOSE_NOISY_PR = GOLDEN / "decompose_noisy_pr.stdout"


def decompose_stdout(directory):
    """stdout of ``boxsteer decompose`` on PR000 at visibility 1/4."""
    path = directory / "noisy_pr.json"
    doc = serialize.bipartite_box_to_json(noisy_pr(F(1, 4)))
    path.write_text(serialize.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["decompose", str(path)]) == 0
    return out.getvalue()


def test_decompose_document(tmp_path):
    golden = DECOMPOSE_NOISY_PR.read_text(encoding="utf-8")
    assert decompose_stdout(tmp_path) == golden


# ---------------------------------------------------------------------------
# signalling-scan and bad-sum messages
# ---------------------------------------------------------------------------

MESSAGES = GOLDEN / "messages.json"
# pairwise coprime: primes just below 2**64
P1, P2 = 2**64 - 59, 2**64 - 83


def signalling_cases():
    """Boxes that signal: Alice's output is Bob's input; Bob's output is
    Alice's input; a noisy PR box with mass moved across one block over
    denominators near 2**64; and a three-input box where only y=1 moves
    Alice's marginal."""
    follows_y = [F(int(a == y and b == 0)) for x, y, a, b in itertools.product((0, 1), repeat=4)]
    follows_x = [F(int(b == x and a == 0)) for x, y, a, b in itertools.product((0, 1), repeat=4)]
    moved = [noisy_pr(F(1, 2) + F(1, P1)).prob(*key) for key in itertools.product((0, 1), repeat=4)]
    moved[4], moved[7] = moved[4] - F(1, P2), moved[7] + F(1, P2)
    quarter = [F(1, 4)] * 2
    three = [[quarter, quarter], [[F(1, 2), F(1, 4)], [F(1, 4), F(0)]], [quarter, quarter]]
    return {
        "follows_y": flat_box(follows_y),
        "follows_x": flat_box(follows_x),
        "moved_near_2_64": flat_box(moved),
        "three_inputs": bx.BipartiteBox([three, three]),
    }


def bad_sum_cases():
    """Calls that fail normalization, in every validator that checks it."""
    quarter = [F(1, 4)] * 2
    return {
        "local_box": lambda: bx.LocalBox(((F(1, 2), F(1, 4)), (F(1), F(0)))),
        "local_box_near_2_64": lambda: bx.LocalBox(((F(1, P1), F(1, P2)),)),
        "bipartite_box": lambda: bx.BipartiteBox(
            [[[quarter, quarter], [quarter, [F(1, 2), F(1, 4)]]]] * 2
        ),
        "ensemble": lambda: bx.Ensemble.from_strategies(
            [(F(1, 2), (0, 1)), (F(1, 3), (1, 1))], 2
        ),
        "ensemble_zero": lambda: bx.Ensemble.from_strategies([(F(0), (0,))], 1),
        "nonlocal_ensemble": lambda: bx.NonlocalEnsemble.from_weights(
            {((0, 0), (0, 1)): F(1, 3)}, {(0, 0, 1): F(1, P1)}
        ),
        "nonlocal_ensemble_empty": lambda: bx.NonlocalEnsemble((), ()),
        "input_policy": lambda: bx.InputPolicy(((F(1, 4), F(1, 4)), (F(1, 4), F(0)))),
    }


def error_text(call):
    try:
        call()
    except bx.BoxWorldError as exc:
        return f"{type(exc).__name__}: {exc}"
    raise AssertionError("the call did not fail")


def messages():
    doc = {}
    for name, box in signalling_cases().items():
        doc[f"scan/{name}"] = bx.no_signalling_violations(box)
        doc[f"alice_marginal/{name}"] = error_text(lambda: bx.alice_marginal(box))
    for name, call in bad_sum_cases().items():
        doc[f"sum/{name}"] = error_text(call)
    return doc


def test_messages():
    assert messages() == json.loads(MESSAGES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_simulation_bytes(case):
    golden = json.loads(SIMULATE_DIGESTS.read_text(encoding="utf-8"))
    assert simulate_digests(case) == golden[case_id(case)]


def test_tampered_audit_document():
    assert tampered_verdict() == AUDIT_TAMPERED.read_text(encoding="utf-8")


if __name__ == "__main__":
    # rewrite the simulation, remote-preparation, decompose and message
    # files; only when log bytes, steer/verify/decompose output or the
    # scan and normalization messages are meant to change
    SIMULATE_DIGESTS.write_text(
        json.dumps({case_id(c): simulate_digests(c) for c in CASES}, indent=2) + "\n",
        encoding="utf-8",
    )
    AUDIT_TAMPERED.write_text(tampered_verdict(), encoding="utf-8")
    write_remote_goldens()
    with tempfile.TemporaryDirectory() as scratch:
        DECOMPOSE_NOISY_PR.write_text(
            decompose_stdout(Path(scratch)), encoding="utf-8"
        )
    MESSAGES.write_text(json.dumps(messages(), indent=2) + "\n", encoding="utf-8")
