"""End-to-end CLI checks through real subprocesses."""

import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

import boxsteer as bx
from boxsteer import cli, serialize
from strategies import long_split, mutated, pr_bipartite_box, product_box

CANONICAL_ENSEMBLE_DOC = {
    "products": [
        {"w": "1/4", "ij": [0, 1], "kl": [0, 0]},
        {"w": "1/4", "ij": [1, 1], "kl": [0, 0]},
    ],
    "prs": [{"w": "1/2", "abd": [0, 0, 0]}],
}

# one ensemble per Bob input; mixing either gives the uniform state, and
# steering with them builds the PR box with zero offsets
PR_EMERGENCE_DOC = [
    {
        "X": 2,
        "A": 2,
        "members": [{"w": "1/2", "f": [0, 0]}, {"w": "1/2", "f": [1, 1]}],
    },
    {
        "X": 2,
        "A": 2,
        "members": [{"w": "1/2", "f": [0, 1]}, {"w": "1/2", "f": [1, 0]}],
    },
]


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "boxsteer", *argv],
        capture_output=True,
        text=True,
    )


def write(path, doc):
    path.write_text(serialize.dumps(doc))
    return str(path)


def pr_box_path(tmp_path, alpha=0, beta=0, delta=0):
    doc = serialize.bipartite_box_to_json(pr_bipartite_box(bx.PRBox(alpha, beta, delta)))
    return write(tmp_path / f"pr{alpha}{beta}{delta}.json", doc)


class TestVersion:
    def test_reports_version_and_catalog(self):
        result = run_cli("--version")
        assert result.returncode == 0
        assert result.stdout.strip() == (
            "boxsteer 0.8.2 (vertex catalog 843f5f0aaa8bd927)"
        )


class TestUsageErrors:
    # argparse's own errors take main's path for bad input: one error:
    # line and exit 2, in-process too, with no usage text
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "e.json", "--policy", "-Infinity"],
         "argument --policy: expected one argument"),
        (["simulate", "e.json", "--rounds", "ten"], "argument --rounds: invalid int value"),
        (["bogus"], "argument command: invalid choice"),
        ([], "the following arguments are required: command"),
    ])
    def test_one_error_line(self, argv, message, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["check", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["simulate", "e.json", "--significance", "é" * 300],
        ["check", "box.json", "9" * 300],  # unrecognized: bare, not quoted
        ["simulate", "e.json", "--s=" + "9" * 300],  # ambiguous, with its value
        ["bogus'" + "9" * 300],  # quoted with double quotes
        ["check", "box.json", *["x"] * 300],
        ["check", "box.json", *["😀" * 30] * 10],  # bytes, not characters
        ["check", "box.json", *["é"] * 300],
    ])
    def test_long_argv_values_clipped(self, argv, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) <= 200, err

    def test_quoted_value_clipped(self, capsys):
        assert cli.main(["simulate", "e.json", "--rounds", "9" * 300 + "x"]) == 2
        assert capsys.readouterr().err == (
            "error: argument --rounds: invalid int value: '9999999999999999999...99999999x'\n"
        )

    def test_console_script(self):
        result = run_cli("simulate", "e.json", "--policy", "-Infinity")
        assert result.returncode == 2
        assert result.stderr == "error: argument --policy: expected one argument\n"

    def test_undecodable_argv_clipped(self):
        # an argv byte that is not UTF-8 reaches stderr as a 6-byte escape
        result = subprocess.run(
            [sys.executable, "-m", "boxsteer", "check", "box.json", b"\xff" * 300],
            capture_output=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith(b"error: ") and result.stderr.count(b"\n") == 1
        assert len(result.stderr) <= 200, result.stderr


class TestBlind:
    def test_canonical_files(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("blind", "1/4", "1/2", "--out", str(out))
        assert result.returncode == 0
        assert "wrote" in result.stdout
        ensemble = json.loads((out / "ensemble.json").read_text())
        assert ensemble == CANONICAL_ENSEMBLE_DOC
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["degenerate"] is False

    def test_stdout_document(self):
        result = run_cli("blind", "1/4", "1/2")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert set(doc) == {"ensemble", "report"}
        assert doc["ensemble"] == CANONICAL_ENSEMBLE_DOC

    @pytest.mark.parametrize("s,t", [("1/2", "1/2"), ("1/4", "3/4"), ("1", "0")])
    def test_diagonal_exit_code(self, s, t):
        result = run_cli("blind", s, t)
        assert result.returncode == 3
        assert "error:" in result.stderr

    @pytest.mark.parametrize("literal", ["1e5000", "1e-5000"])
    def test_exponent_past_int_string_limit(self, literal):
        result = run_cli("blind", literal, "1/2")
        assert result.returncode == 2
        assert result.stderr == (
            f"error: bad rational string '{literal}': its numerator or "
            "denominator has more than 4300 digits\n"
        )

    def test_degenerate_warns_but_solves(self):
        result = run_cli("blind", "1/4", "1/4")
        assert result.returncode == 0
        assert "warning:" in result.stderr
        doc = json.loads(result.stdout)
        assert doc["report"]["degenerate"] is True
        assert doc["report"]["passed"] is True

    def test_split_file(self, tmp_path):
        split = {
            "products": [
                {"w": "1/4", "ij": [0, 1], "kl": [1, 0]},
                {"w": "1/4", "ij": [1, 1], "kl": [0, 1]},
            ],
            "prs": [{"w": "1/4", "abd": [0, 0, 0]}, {"w": "1/4", "abd": [1, 0, 1]}],
        }
        path = write(tmp_path / "split.json", split)
        result = run_cli("blind", "1/4", "1/2", "--split", path)
        assert result.returncode == 0
        assert json.loads(result.stdout)["ensemble"] == split

    def test_wrong_split_rejected(self, tmp_path):
        split = {"products": [], "prs": [{"w": "1", "abd": [0, 0, 0]}]}
        path = write(tmp_path / "split.json", split)
        result = run_cli("blind", "1/4", "1/2", "--split", path)
        assert result.returncode == 2

    def test_split_past_int_string_limit(self, tmp_path):
        # the wrong aggregates' witnesses name the sums too long to print,
        # and the message, its failed checks first, is clipped to one line
        split = serialize.nonlocal_ensemble_to_json(long_split())
        result = run_cli("blind", "1/4", "1/2", "--split", write(tmp_path / "split.json", split))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            "error: split rejected (reduction_y0, reduction_y1, alice_marginal): Bob input 0 "
            f"prepares (too long to print)*S01 + {'9' * 40}...0000000002*S11 + 10.../4, t=1/2)\n"
        )
        assert len(result.stderr.encode()) <= 200

    def test_bad_rational_argument(self):
        result = run_cli("blind", "abc", "1/2")
        assert result.returncode == 2

    def test_weights_past_int_string_limit(self):
        # the two denominators are coprime, so the third weight of the
        # target, 1 - s - t, has about 8,600 digits: the input reads, but
        # the document cannot be written
        s, t = "1/" + str(10**4299 + 1), "2/" + str(10**4299 + 3)
        result = run_cli("blind", s, t)
        assert result.returncode == 2
        assert result.stderr.startswith("error: cannot write a rational")
        assert "Traceback" not in result.stderr

    def test_out_on_existing_file(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        result = run_cli("blind", "1/4", "1/2", "--out", str(taken))
        assert result.returncode == 2
        assert result.stderr.startswith("error: cannot write")
        assert "Traceback" not in result.stderr
        assert taken.read_text() == "keep"


class TestSteer:
    def test_pr_emergence(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path / "ensembles.json", PR_EMERGENCE_DOC)
        result = run_cli("steer", path, "--out", str(out))
        assert result.returncode == 0
        box_doc = json.loads((out / "box.json").read_text())
        expected = serialize.bipartite_box_to_json(pr_bipartite_box(bx.PRBox(0, 0, 0)))
        assert box_doc == json.loads(json.dumps(expected))
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} == {
            "mixture_consistency",
            "no_signalling",
            "conditioning",
        }

    def test_incompatible_ensembles(self, tmp_path):
        doc = [
            PR_EMERGENCE_DOC[0],
            {
                "X": 2,
                "A": 2,
                "members": [{"w": "1", "f": [0, 0]}],
            },
        ]
        path = write(tmp_path / "bad.json", doc)
        result = run_cli("steer", path)
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_single_ensemble_rejected(self, tmp_path):
        path = write(tmp_path / "one.json", [PR_EMERGENCE_DOC[0]])
        assert run_cli("steer", path).returncode == 2

    def test_output_out_of_range_named_by_field(self, tmp_path):
        doc = json.loads(json.dumps(PR_EMERGENCE_DOC))
        doc[1]["members"][0]["f"] = [0, 2]
        result = run_cli("steer", write(tmp_path / "bad.json", doc))
        assert result.returncode == 2
        assert result.stderr == "error: f[1]=2 outside range(0, 2)\n"


class TestVerify:
    def test_valid_pair(self, tmp_path):
        ensembles = write(tmp_path / "ensembles.json", PR_EMERGENCE_DOC)
        box = pr_box_path(tmp_path)
        result = run_cli("verify", box, ensembles)
        assert result.returncode == 0
        assert json.loads(result.stdout)["report"]["passed"] is True

    def test_wrong_box_fails_checks(self, tmp_path):
        ensembles = write(tmp_path / "ensembles.json", PR_EMERGENCE_DOC)
        wrong = pr_box_path(tmp_path, delta=1)
        result = run_cli("verify", wrong, ensembles)
        assert result.returncode == 5
        doc = json.loads(result.stdout)
        assert doc["report"]["passed"] is False

    def test_missing_file(self, tmp_path):
        ensembles = write(tmp_path / "ensembles.json", PR_EMERGENCE_DOC)
        assert run_cli("verify", str(tmp_path / "nope.json"), ensembles).returncode == 2

    def test_signalling_box_fails_checks(self, tmp_path):
        # a = y, b = 0: Alice's marginal follows Bob's input
        table = [["0"] * 4 for _ in range(4)]
        for x in (0, 1):
            for y in (0, 1):
                table[x * 2 + y][y * 2] = "1"
        box = write(
            tmp_path / "sig.json", {"X": 2, "Y": 2, "A": 2, "B": 2, "table": table}
        )
        ensembles = write(tmp_path / "ensembles.json", PR_EMERGENCE_DOC)
        result = run_cli("verify", box, ensembles)
        assert result.returncode == 5, result.stderr
        assert result.stderr == ""
        checks = {c["name"]: c for c in json.loads(result.stdout)["report"]["checks"]}
        assert checks["no_signalling"]["passed"] is False
        assert checks["no_signalling"]["witness"].startswith(
            "Alice marginal p(a=0|x=0) depends on Bob's input"
        )
        assert checks["conditioning"] == {
            "name": "conditioning",
            "passed": False,
            "witness": "p(b=0|y=0) = 1, expected weight 1/2",
        }


class TestDecompose:
    def test_pr_vertex(self, tmp_path):
        result = run_cli("decompose", pr_box_path(tmp_path))
        assert result.returncode == 0
        doc = json.loads(result.stdout)["ensemble"]
        assert doc == {"products": [], "prs": [{"w": "1", "abd": [0, 0, 0]}]}

    def test_signalling_rejected(self, tmp_path):
        table = [["0"] * 4 for _ in range(4)]
        for x in (0, 1):
            for y in (0, 1):
                table[x * 2 + y][y * 2] = "1"  # a = y, b = 0
        path = write(
            tmp_path / "sig.json", {"X": 2, "Y": 2, "A": 2, "B": 2, "table": table}
        )
        assert run_cli("decompose", path).returncode == 2

    def test_weights_past_int_string_limit(self, tmp_path):
        # every entry has 2,501 digits; twice as many would be more than a
        # rational string may hold, but the gluing never divides, so each
        # weight's denominator divides 4 * 10**2500
        den = 10**2500
        cuts = [0] + [den * k // 16 + k for k in range(1, 16)] + [den]
        ensemble = bx.NonlocalEnsemble(
            tuple(
                bx.ProductMember(F(cuts[i + 1] - cuts[i], den), alice, bob)
                for i, (alice, bob) in enumerate(bx.catalog_products())
            ),
            (),
        )
        box = bx.mix_nonlocal(ensemble)
        doc = serialize.bipartite_box_to_json(box)
        result = run_cli("decompose", write(tmp_path / "box.json", doc))
        assert (result.returncode, result.stderr) == (0, "")
        doc = json.loads(result.stdout)["ensemble"]
        written = serialize.nonlocal_ensemble_from_json(doc)
        assert bx.mix_nonlocal(written) == box
        assert all((4 * den) % m.weight.denominator == 0 for m in written.members)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"X": 2, "\xe9": 1}')
        result = run_cli("decompose", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith("error: cannot read")
        assert "Traceback" not in result.stderr


def long_box_path(tmp_path, signalling):
    """A box whose (0, 0) row sums, or whose Alice marginals at y=0 add
    up, to a value too long to print: 1/3**6000 + 1/5**4000 + ...;
    every other row is uniform."""
    a, b = 3**6000, 5**4000
    if signalling:
        row = [f"1/{a}", f"1/{b}", f"{a - 2}/{2 * a}", f"{b - 2}/{2 * b}"]
    else:
        row = [f"1/{a}", f"1/{b}", f"1/{7**3000}", "1/2"]
    table = [row] + [["1/4"] * 4 for _ in range(3)]
    return write(tmp_path / "long.json", {"X": 2, "Y": 2, "A": 2, "B": 2, "table": table})


@pytest.mark.parametrize("command", ["check", "decompose"])
def test_unprintable_sum_is_bad_input(tmp_path, command):
    result = run_cli(command, long_box_path(tmp_path, signalling=False))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: entries for (x=0, y=0) sum to (too long to print), expected 1\n"
    )


LONG = "1/" + "3" * 300  # readable, but a total with it has about 600 digits


@pytest.mark.parametrize(
    "argv,doc,stderr",
    [
        (
            ["check"],
            {"X": 2, "Y": 2, "A": 2, "B": 2,
             "table": [[LONG, "1/4", "1/4", "1/4"]] + [["1/4"] * 4] * 3},
            "error: entries for (x=0, y=0) sum to "
            "1000000000000000000000000000000000000000...3333333332, expected 1\n",
        ),
        (
            ["blind", "1/4", "1/2", "--split"],
            {"products": [{"w": "1/4", "ij": [0, 1], "kl": [0, 0]}],
             "prs": [{"w": LONG, "abd": [0, 0, 0]}]},
            "error: member weights sum to "
            "3333333333333333333333333333333333333333...3333333332, expected 1\n",
        ),
    ],
    ids=["box", "split"],
)
def test_long_total_clipped(tmp_path, argv, doc, stderr):
    # the total is clipped to 60 bytes, so the error line is short
    result = run_cli(*argv, write(tmp_path / "doc.json", doc))
    assert (result.returncode, result.stdout, result.stderr) == (2, "", stderr)
    assert len(result.stderr.encode()) <= 200


def test_unprintable_marginals_named_by_side(tmp_path):
    path = long_box_path(tmp_path, signalling=True)
    result = run_cli("check", path)
    assert (result.returncode, result.stderr) == (5, "")
    assert json.loads(result.stdout) == {"ns": False, "local": None}
    result = run_cli("decompose", path)
    assert result.returncode == 2
    # both violations, clipped to one error line
    assert result.stderr == (
        "error: decompose needs a no-signalling box: Alice marginal "
        "p(a=0|x=0) depends on Bob's input: y=0: (too long to print), y=1: 1/2; "
        "Alice marginal p(a=1|x=0) depends on Bob's input:..., y=1: 1/2\n"
    )


def test_verify_weight_past_int_string_limit(tmp_path):
    # Bob's outcome weight at (x=0, y=0) is 1/d1 + 1/d2, of 6,001 digits:
    # the witnesses name it, where printing it raised ValueError
    d1, d2 = 10**3000 + 1, 10**3000 + 3
    row = [F(1, d1), F(1, 2) - F(1, d1), F(1, d2), F(1, 2) - F(1, d2)]
    table = [[str(p) for p in row]] + [["1/2", "0", "0", "1/2"]] * 3
    box = write(tmp_path / "box.json", {"X": 2, "Y": 2, "A": 2, "B": 2, "table": table})
    halves = {"X": 2, "A": 2, "members": [{"w": "1/2", "f": [0, 0]}, {"w": "1/2", "f": [1, 1]}]}
    result = run_cli("verify", box, write(tmp_path / "ensembles.json", [halves, halves]))
    assert (result.returncode, result.stderr) == (5, "")
    long = "(too long to print)"
    assert json.loads(result.stdout)["report"]["checks"] == [
        {"name": "mixture_consistency", "passed": True, "witness": None},
        {"name": "no_signalling", "passed": False, "witness":
            f"Bob marginal p(b=0|y=0) depends on Alice's input: x=0: {long}, x=1: 1/2; "
            f"Bob marginal p(b=1|y=0) depends on Alice's input: x=0: {long}, x=1: 1/2"},
        {"name": "conditioning", "passed": False,
         "witness": f"p(b=0|y=0) = {long}, expected weight 1/2"},
    ]


ANTI_D = 10**300 + 1  # s = 10**299 / ANTI_D and t = 1 - s sum to 1
ANTI_S, ANTI_T = f"{10**299}/{ANTI_D}", f"{ANTI_D - 10**299}/{ANTI_D}"
CLIPPED_S = "1" + "0" * 39 + "...0000000001"  # s and t by their ends
CLIPPED_T = "9" + "0" * 39 + "...0000000001"


@pytest.mark.parametrize(
    "argv,doc,code,stderr",
    [
        (
            # Bob's p(b=0|y=0) moves with x by 1/(10**47 + 7)
            ["decompose"],
            {"X": 2, "Y": 2, "A": 2, "B": 2, "table": [
                [str(F(1, 2) - F(1, 10**47 + 7)), str(F(1, 10**47 + 7)), "1/4", "1/4"],
            ] + [["1/4"] * 4] * 3},
            2,
            "error: decompose needs a no-signalling box: Bob marginal p(b=0|y=0) depends "
            "on Alice's input: x=0: 3000000000000000000000000000000000000000...0000000028, "
            "x=1: 1/2; Bob marginal p(..., x=1: 1/2\n",
        ),
        (
            ["blind", ANTI_S, ANTI_T],
            None,
            3,
            f"error: target (s={CLIPPED_S}, t={CLIPPED_T}) lies on a diagonal of the local "
            "square; no pair of...ists there\n",
        ),
        (
            ["blind", "0", ANTI_T],
            None,
            0,
            f"warning: target (s=0, t={CLIPPED_T}) sits on the triangle boundary: "
            "construction degenerates and blindness may fail\n",
        ),
    ],
    ids=["signalling-box", "anti-diagonal", "boundary-warning"],
)
def test_long_value_on_one_short_line(tmp_path, argv, doc, code, stderr):
    # every stderr line is at most 200 bytes, and a value in it at most 60
    if doc is not None:
        argv = [*argv, write(tmp_path / "doc.json", doc)]
    result = run_cli(*argv)
    assert (result.returncode, result.stderr) == (code, stderr)
    assert "Traceback" not in result.stderr and len(result.stderr.encode()) <= 200


class TestCheck:
    def test_pr_box(self, tmp_path):
        result = run_cli("check", pr_box_path(tmp_path))
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"ns": True, "local": False}

    def test_product_box(self, tmp_path):
        box = product_box(
            bx.SBox(0, 0).as_local_box(), bx.SBox(1, 1).as_local_box()
        )
        path = write(tmp_path / "prod.json", serialize.bipartite_box_to_json(box))
        result = run_cli("check", path)
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"ns": True, "local": True}

    def test_signalling_box(self, tmp_path):
        table = [["0"] * 4 for _ in range(4)]
        for x in (0, 1):
            for y in (0, 1):
                table[x * 2 + y][y * 2] = "1"
        path = write(
            tmp_path / "sig.json", {"X": 2, "Y": 2, "A": 2, "B": 2, "table": table}
        )
        result = run_cli("check", path)
        assert result.returncode == 5
        assert json.loads(result.stdout) == {"ns": False, "local": None}


    @pytest.mark.parametrize("shape", [(10**12, 0, 2, 2), (0, 10**12, 2, 2), (1, 1, 10**12, 0)])
    def test_empty_dimension_exits_at_once(self, tmp_path, shape):
        # no empty block is built per x, y or a: the child neither hangs
        # nor runs out of its 1 GiB
        doc = dict(zip("XYAB", shape), table=[] if 0 in shape[:2] else [[]])
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from boxsteer import cli\n"
            f"sys.exit(cli.main(['check', {write(tmp_path / 'box.json', doc)!r}]))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 2
        assert result.stderr == ("error: bipartite table must be non-empty\n" if 0 in shape[:2]
                                 else "error: entries for (x=0, y=0) sum to 0, expected 1\n")


class TestSimulate:
    @pytest.mark.parametrize("policy", [
        bx.InputPolicy.uniform(), bx.InputPolicy(((F(1, 3), F(0)), (F(1, 2), F(1, 6))))])
    def test_log_file_is_logs_to_ndjson(self, tmp_path, policy, capsys):
        # the writer's per-cell text is ndjson_line's, across a block edge
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        ensemble = serialize.nonlocal_ensemble_from_json(CANONICAL_ENSEMBLE_DOC)
        doc = json.dumps(serialize.input_policy_to_json(policy))
        out = tmp_path / "out"
        assert cli.main(["simulate", path, "--rounds", "2049", "--seed", "5",
                         "--policy", doc, "--out", str(out)]) == 0
        _, logs = bx.run_protocol(ensemble, 2049, 5, policy)
        assert (out / "logs.ndjson").read_text() == serialize.logs_to_ndjson(logs)

    def test_deterministic_logs(self, tmp_path):
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            result = run_cli(
                "simulate", path, "--rounds", "400", "--seed", "9",
                "--out", str(out),
            )
            assert result.returncode == 0
        assert (first / "logs.ndjson").read_bytes() == (
            second / "logs.ndjson"
        ).read_bytes()
        report = json.loads((first / "report.json").read_text())
        assert report["rounds"] == 400
        assert report["rng_seed"] == 9
        assert report["verdict"]["passed"] is True

    def test_seed_changes_logs(self, tmp_path):
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", path, "--rounds", "200", "--seed", "1", "--out", str(a))
        run_cli("simulate", path, "--rounds", "200", "--seed", "2", "--out", str(b))
        assert (a / "logs.ndjson").read_text() != (b / "logs.ndjson").read_text()

    def test_stdout_omits_logs(self, tmp_path):
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        result = run_cli("simulate", path, "--rounds", "50")
        assert result.returncode == 0
        assert set(json.loads(result.stdout)) == {"report"}

    def test_inline_policy(self, tmp_path):
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        policy = '{"table": [["1/2", "0"], ["1/2", "0"]]}'
        result = run_cli(
            "simulate", path, "--rounds", "100", "--policy", policy
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)["report"]
        assert set(doc["alice_frequencies"]) == {"0"}

    @pytest.mark.parametrize("where", ["ensemble", "policy"])
    def test_integer_past_int_string_limit(self, tmp_path, where):
        huge = "1" * 5000
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        policy = '{"table": [["1/4", "1/4"], ["1/4", %s]]}' % huge
        if where == "ensemble":
            (tmp_path / "ensemble.json").write_text(
                '{"products": [], "prs": [{"w": "1", "abd": [%s, 0, 0]}]}' % huge
            )
            policy = "uniform"
        result = run_cli("simulate", path, "--rounds", "10", "--policy", policy)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "not valid JSON: Exceeds the limit" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("field", ["ij", "abd"])
    @pytest.mark.parametrize("value", [True, 1.0, 2])
    def test_non_bit_field_rejected(self, tmp_path, field, value):
        doc = json.loads(json.dumps(CANONICAL_ENSEMBLE_DOC))
        member = doc["products"][0] if field == "ij" else doc["prs"][0]
        member[field][1] = value
        path = write(tmp_path / "ensemble.json", doc)
        result = run_cli("simulate", path, "--rounds", "10")
        assert result.returncode == 2
        assert result.stderr == f"error: {field}[1]={value!r} outside range(0, 2)\n"
        assert result.stdout == ""

    def test_zero_rounds_rejected(self, tmp_path):
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        assert run_cli("simulate", path, "--rounds", "0").returncode == 2

    @pytest.mark.parametrize(
        "flags", [["--rounds", "0"], ["--seed", "-1"], ["--significance", "0"]]
    )
    def test_rejected_run_writes_nothing(self, tmp_path, flags):
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        out = tmp_path / "out"
        result = run_cli("simulate", path, "--rounds", "5", *flags, "--out", str(out))
        assert result.returncode == 2
        assert not out.exists()

    def test_out_lines_and_stdout_document(self, tmp_path):
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        out = tmp_path / "out"
        result = run_cli(
            "simulate", path, "--rounds", "300", "--seed", "3", "--out", str(out)
        )
        assert result.returncode == 0
        assert result.stdout == (
            f"wrote {out / 'report.json'}\nwrote {out / 'logs.ndjson'}\n"
        )
        ensemble = serialize.nonlocal_ensemble_from_json(CANONICAL_ENSEMBLE_DOC)
        report, logs = bx.run_protocol(ensemble, rounds=300, seed=3)
        assert (out / "logs.ndjson").read_text() == serialize.logs_to_ndjson(logs)
        assert (out / "report.json").read_text() == serialize.dumps(
            serialize.simulation_report_to_json(report)
        )
        plain = run_cli("simulate", path, "--rounds", "300", "--seed", "3")
        report_doc = serialize.simulation_report_to_json(report)
        assert plain.stdout == serialize.dumps({"report": report_doc})

    @pytest.mark.parametrize("flag", ["--policy", "--out"])
    def test_long_path_named_once_and_clipped(self, tmp_path, flag):
        # an OSError's own text names the path too; the message holds only its ends
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        result = run_cli("simulate", path, "--rounds", "10", flag, "p" * 3000)
        assert result.returncode == 2
        verb = "read" if flag == "--policy" else "write"
        assert result.stderr.startswith(f"error: cannot {verb} 'ppp")
        assert result.stderr.count("...") == 1 and "p" * 30 not in result.stderr
        assert len(result.stderr.encode()) <= 200

    def test_out_on_existing_file(self, tmp_path):
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        result = run_cli("simulate", path, "--rounds", "20", "--out", str(taken))
        assert result.returncode == 2
        assert result.stderr.startswith("error: cannot write")
        assert "Traceback" not in result.stderr
        assert taken.read_text() == "keep"


class TestAudit:
    def run_simulation(self, tmp_path):
        ensemble = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        out = tmp_path / "run"
        result = run_cli(
            "simulate", ensemble, "--rounds", "400", "--seed", "5",
            "--out", str(out),
        )
        assert result.returncode == 0
        return out / "logs.ndjson", ensemble

    def test_honest_log_passes(self, tmp_path):
        logs, ensemble = self.run_simulation(tmp_path)
        result = run_cli("audit", str(logs), ensemble)
        assert result.returncode == 0
        assert json.loads(result.stdout)["verdict"]["passed"] is True

    def test_corrupted_log_detected(self, tmp_path):
        logs, ensemble = self.run_simulation(tmp_path)
        lines = logs.read_text().splitlines()
        record = json.loads(lines[10])
        record["alice_actual"] = (
            "S10" if record["alice_actual"] != "S10" else "S00"
        )
        record["referee_inference"] = record["alice_actual"]
        lines[10] = json.dumps(record, sort_keys=True)
        logs.write_text("\n".join(lines) + "\n")
        result = run_cli("audit", str(logs), ensemble)
        assert result.returncode == 5
        doc = json.loads(result.stdout)["verdict"]
        assert doc["passed"] is False
        assert 10 in doc["mismatch_rounds"]

    def test_missing_log_file(self, tmp_path):
        ensemble = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        assert run_cli("audit", str(tmp_path / "none.ndjson"), ensemble).returncode == 2

    def test_empty_log_fails(self, tmp_path):
        ensemble = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        logs = tmp_path / "empty.ndjson"
        logs.write_text("")
        result = run_cli("audit", str(logs), ensemble)
        assert result.returncode == 5
        doc = json.loads(result.stdout)["verdict"]
        assert doc["passed"] is False
        assert doc["mismatch_count"] == 0 and doc["log_e_value"] == 0.0

    def test_non_utf8_byte_on_line_300(self, tmp_path):
        logs, ensemble = self.run_simulation(tmp_path)
        lines = logs.read_bytes().split(b"\n")
        lines[299] = lines[299].replace(b'"S', b'"\xffS', 1)
        logs.write_bytes(b"\n".join(lines))
        result = run_cli("audit", str(logs), ensemble)
        assert result.returncode == 2
        assert result.stderr.startswith("error: cannot read")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("spacing", [": ", ":  "])  # canonical line, json.loads
    def test_integer_past_int_string_limit(self, tmp_path, spacing):
        logs, ensemble = self.run_simulation(tmp_path)
        lines = logs.read_text().splitlines()
        lines[6] = lines[6].replace('"round_id": 6', f'"round_id": {"7" * 5000}')
        lines[6] = lines[6].replace(": ", spacing)
        logs.write_text("\n".join(lines) + "\n")
        result = run_cli("audit", str(logs), ensemble)
        assert result.returncode == 2
        assert result.stderr.startswith("error: log line 7: Exceeds the limit")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_non_bit_input_rejected(self, tmp_path):
        logs, ensemble = self.run_simulation(tmp_path)
        lines = logs.read_text().splitlines()
        record = json.loads(lines[3])
        record["x"] = True
        lines[3] = json.dumps(record, sort_keys=True)
        logs.write_text("\n".join(lines) + "\n")
        result = run_cli("audit", str(logs), ensemble)
        assert result.returncode == 2
        assert result.stderr == "error: x=True outside range(0, 2)\n"
        assert result.stdout == ""

    def test_rounds_joined_by_a_non_newline_break(self, tmp_path):
        # str.splitlines would break at \x1c and \x0c; a log line does not
        logs, ensemble = self.run_simulation(tmp_path)
        lines = logs.read_text().splitlines()
        text = f"{lines[0]}\x1c{lines[1]}\n\x0c\n{lines[2]}\n{lines[3]}\n"
        logs.write_bytes(text.encode())
        result = run_cli("audit", str(logs), ensemble)
        assert result.returncode == 2
        assert result.stderr.startswith("error: bad JSON on log line 1: ")
        assert result.stdout == ""

    def test_non_utf8_log_file(self, tmp_path):
        ensemble = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        logs = tmp_path / "latin1.ndjson"
        logs.write_bytes(b'{"round_id": 0, "\xff": 1}\n')
        result = run_cli("audit", str(logs), ensemble)
        assert result.returncode == 2
        assert result.stderr.startswith("error: cannot read")
        assert "Traceback" not in result.stderr


DEPTH = 100_000  # far past the recursion limit of json.loads


def deeply_nested(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * DEPTH + "]" * DEPTH)
    return str(path)


def assert_bad_input(result):
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "recursion" in result.stderr
    assert "Traceback" not in result.stderr


class TestDeepNesting:
    @pytest.mark.parametrize("command", ["check", "decompose"])
    def test_box_file(self, tmp_path, command):
        assert_bad_input(run_cli(command, deeply_nested(tmp_path)))

    def test_ensemble_file(self, tmp_path):
        assert_bad_input(run_cli("simulate", deeply_nested(tmp_path), "--rounds", "10"))

    def test_inline_policy(self, tmp_path):
        path = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        # unclosed, so that the argument stays under Linux's 128 KiB limit
        policy = '{"table": ' + "[" * DEPTH
        assert_bad_input(run_cli("simulate", path, "--rounds", "10", "--policy", policy))

    def test_log_line(self, tmp_path):
        ensemble = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
        logs = tmp_path / "logs.ndjson"
        logs.write_text("[" * DEPTH + "]" * DEPTH + "\n")
        result = run_cli("audit", str(logs), ensemble)
        assert_bad_input(result)
        assert result.stderr.startswith("error: log line 1: ")


HONEST_LINE = {
    "a": 0, "alice_actual": "S00", "b": 0, "member_id": 2,
    "referee_inference": "S00", "round_id": 0, "x": 0, "y": 0,
}
NESTED = "[" * 900 + "]" * 900  # parses: under the recursion limit


@pytest.mark.parametrize(
    "command,path,raw",
    [
        ("check", ("X",), NESTED),
        ("check", ("table", 0, 0), NESTED),
        ("simulate", ("prs", 0, "w"), NESTED),
        ("simulate", ("products", 0, "ij", 0), NESTED),
        ("policy", ("table", 0, 0), NESTED),
        ("audit", (0, "x"), NESTED),
        ("audit", (0, "member_id"), NESTED),
        ("audit", (0, "alice_actual"), NESTED),
        ("audit", (0, "alice_actual"), json.dumps("S" * 5000)),
        ("check", ("table", 0, 0), json.dumps("😀" * 300)),
    ],
    ids=["box-X", "box-entry", "w", "ij", "policy", "x", "member_id",
         "alice_actual", "long-label", "emoji-entry"],
)
def test_quoted_value_clipped(tmp_path, command, path, raw):
    # an ill-typed value is quoted by its ends only, however long its repr
    docs = {
        "check": serialize.bipartite_box_to_json(pr_bipartite_box(bx.PRBox(0, 0, 0))),
        "simulate": CANONICAL_ENSEMBLE_DOC,
        "policy": {"table": [["1/4", "1/4"], ["1/4", "1/4"]]},
        "audit": [HONEST_LINE],
    }
    text = mutated(docs[command], "replace", path, None, raw, lines=command == "audit")
    ensemble = write(tmp_path / "ensemble.json", CANONICAL_ENSEMBLE_DOC)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if command == "check":
        result = run_cli("check", str(bad))
    elif command == "simulate":
        result = run_cli("simulate", str(bad), "--rounds", "10")
    elif command == "policy":
        result = run_cli("simulate", ensemble, "--rounds", "10", "--policy", text)
    else:
        result = run_cli("audit", str(bad), ensemble)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "..." in result.stderr
    assert len(result.stderr.encode()) <= 200


def test_count_past_int_string_limit(tmp_path):
    # X*Y has more digits than str() writes: it is named by its size
    path = tmp_path / "box.json"
    path.write_text('{"X": ' + "9" * 4300 + ', "Y": 2, "A": 2, "B": 2, "table": []}')
    result = run_cli("check", str(path))
    assert result.returncode == 2
    assert result.stderr == "error: table must have <14286-bit int> rows (x*Y + y order)\n"
