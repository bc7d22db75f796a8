"""The CLI's contract under mutated input, run in-process.

Valid documents for ``steer``, ``verify``, ``check``, ``decompose``,
``blind --split``, ``simulate`` and ``audit`` are mutated one way each:
a key dropped, duplicated with a retyped value, or a value (or the
whole document) replaced by another JSON type, a number or bool where a
rational or a bit belongs, a huge literal, a long readable rational or
deep nesting; or the file
is emptied, given a byte-order mark or a non-UTF-8 byte, or replaced by
a directory.  Whatever the input, ``cli.main`` returns 0, 2, 3 or 5
without raising; bad input (2) is an ``error:`` line; whatever the exit
code, stderr holds only ``error:`` lines, at most 200 bytes in all; and
every document on stdout is strict JSON.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import boxsteer as bx
from boxsteer import cli, serialize
from strategies import json_text, mutated, resolve, round_log_to_json
from test_cli import CANONICAL_ENSEMBLE_DOC as ENSEMBLE_DOC
from test_cli import PR_EMERGENCE_DOC as STEER_DOC

ENSEMBLE = serialize.nonlocal_ensemble_from_json(ENSEMBLE_DOC)
BOX_DOC = serialize.bipartite_box_to_json(bx.mix_nonlocal(ENSEMBLE))
POLICY_DOC = {"table": [["1/2", "1/4"], ["1/4", "0"]]}
LOG_DOC = [round_log_to_json(log) for log in bx.run_protocol(ENSEMBLE, 30, 0)[1]]
STEERED_BOX_DOC = serialize.bipartite_box_to_json(
    bx.construct_steering_state([serialize.ensemble_from_json(e) for e in STEER_DOC]).box
)

REPLACEMENTS = [
    "0", "1", "2", "-1", "1.0", "0.5", "1e400", "NaN", "-Infinity",
    "true", "false", "null", "[]", "{}", "[0, 1]", '{"w": "1"}',
    '"1/2"', '"0"', '"-1/4"', '"1/0"', '" 1/2"', '"S01"', '"PR000"', '""',
    "1" * 5000, "9" * 4300, str(10**2999), '"1e5000"', '"1/' + "3" * 5000 + '"',
    '"1/' + "3" * 300 + '"',
    '"' + "S" * 5000 + '"', "[" * 600 + "]" * 600, "[" * 900 + "]" * 900,
    "[" * 5000 + "]" * 5000, '"' + "😀" * 300 + '"', '"' + "é" * 300 + '"',
]


def nodes(doc, path=()):
    """The path of every value in ``doc``, the document's own first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from nodes(value, path + (key,))


@st.composite
def mutations(draw, doc):
    """(kind, path, key, raw) for one mutation of ``doc``."""
    objects = [p for p in nodes(doc) if isinstance(resolve(doc, p), dict)]
    kind = draw(st.sampled_from(["replace", "drop", "duplicate"]))
    raw = draw(st.sampled_from(REPLACEMENTS))
    if kind == "replace":
        return kind, draw(st.sampled_from(list(nodes(doc)))), None, raw
    path = draw(st.sampled_from(objects))
    key = draw(st.sampled_from(sorted(resolve(doc, path))))
    return kind, path, key, raw


def write_file(name, text, damage):
    """Write ``text`` to ``name``, damaged as ``damage`` says."""
    if damage == "directory":
        os.mkdir(name)
        return
    data = text.encode()
    if damage == "empty":
        data = b""
    elif damage == "bom":
        data = b"\xef\xbb\xbf" + data
    elif damage == "latin1":
        data = data[:1] + b"\xff" + data[1:]
    with open(name, "wb") as handle:
        handle.write(data)


CASES = {
    # command: (argv, {file name or "--policy": its valid document})
    "steer": (["steer", "ensembles.json"], {"ensembles.json": STEER_DOC}),
    "verify": (
        ["verify", "box.json", "ensembles.json"],
        {"box.json": STEERED_BOX_DOC, "ensembles.json": STEER_DOC},
    ),
    "check": (["check", "box.json"], {"box.json": BOX_DOC}),
    "decompose": (["decompose", "box.json"], {"box.json": BOX_DOC}),
    "blind": (
        ["blind", "1/4", "1/2", "--split", "split.json"], {"split.json": ENSEMBLE_DOC}
    ),
    "simulate": (
        ["simulate", "ensemble.json", "--rounds", "30"],
        {"ensemble.json": ENSEMBLE_DOC, "--policy": POLICY_DOC},
    ),
    "audit": (
        ["audit", "logs.ndjson", "ensemble.json"],
        {"logs.ndjson": LOG_DOC, "ensemble.json": ENSEMBLE_DOC},
    ),
}


def refuse(name):
    raise AssertionError(f"stdout holds {name}")


@settings(
    derandomize=True,
    database=None,
    max_examples=800,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data())
def test_cli_contract_under_mutation(data):
    command = data.draw(st.sampled_from(sorted(CASES)))
    argv, docs = CASES[command]
    target = data.draw(st.sampled_from(sorted(docs)))
    # the inline policy is no file, so only a file may be damaged; a
    # policy whose root is replaced by other than an object names a file
    damages = [None, "empty", "bom", "latin1", "directory"]
    damage = data.draw(st.sampled_from(damages[:1] if target == "--policy" else damages))
    mutation = None
    if damage is None:
        mutation = data.draw(mutations(docs[target]))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            # a log is NDJSON, one line per round; any other file one document
            texts = {
                name: mutated(doc, *mutation, lines=name.endswith(".ndjson"))
                if name == target and mutation
                else json_text(doc, lines=name.endswith(".ndjson"))
                for name, doc in docs.items()
            }
            for name, text in texts.items():
                if name != "--policy":
                    write_file(name, text, damage if name == target else None)
            # attached or detached: a detached text such as -Infinity reads
            # as an option, which argparse reports as bad input
            policy = []
            if "--policy" in texts:
                policy = (
                    [f"--policy={texts['--policy']}"] if data.draw(st.booleans())
                    else ["--policy", texts["--policy"]]
                )
            args = argv + policy
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args)
        finally:
            os.chdir(cwd)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 5), (code, stderr[:300])
    if code == 2:
        assert stderr.startswith("error: "), stderr[:300]
    assert all(line.startswith("error: ") for line in stderr.splitlines()), stderr[:300]
    assert len(stderr.encode()) <= 200, stderr[:300]
    if stdout:
        json.loads(stdout, parse_constant=refuse)
