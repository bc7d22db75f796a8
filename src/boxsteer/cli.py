"""Command-line interface.

    boxsteer steer ENSEMBLES.json      remote-preparation box + proof report
    boxsteer verify BOX.json ENSEMBLES.json
                                       recheck a claimed box/ensembles pair
    boxsteer blind S T [--split FILE]  hidden-constituent ensemble for (s, t)
    boxsteer decompose BOX.json        exact vertex weights for an NS box
    boxsteer check BOX.json            {"ns": bool, "local": bool|null}
    boxsteer simulate ENSEMBLE.json    seeded protocol run + audit
    boxsteer audit LOGS.ndjson ENSEMBLE.json

Results go to stdout as one JSON document, or to individual files under
`--out DIR` (`simulate` streams `logs.ndjson` there, and `audit` reads it
line by line).  Rationals are "num/den" strings, on the command line too.

Exit codes: 0 success; 2 invalid input (bad file, bad table, bad
weights, incompatible ensembles); 3 target on the anti-diagonal
s + t = 1; 5 the requested checks ran and failed (verification report,
no-signalling check, or audit).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
import warnings
from itertools import count
from pathlib import Path
from typing import Any, NoReturn

from . import __version__
from .blind import TargetState, plan_blind_steering
from .errors import (
    BoxWorldError,
    DegenerateRegionWarning,
    RegionError,
    ValidationError,
)
from .polytope import catalog_hash, decompose, is_local
from .boxes import _clipped, _quoted, is_no_signalling
from .serialize import (
    audit_verdict_to_json,
    bipartite_box_from_json,
    bipartite_box_to_json,
    blind_report_to_json,
    dumps,
    ensemble_from_json,
    fraction_from_json,
    input_policy_from_json,
    ndjson_line,
    ndjson_logs,
    nonlocal_ensemble_from_json,
    nonlocal_ensemble_to_json,
    simulation_report_to_json,
    verification_report_to_json,
)
from .simulate import (
    DEFAULT_SIGNIFICANCE,
    InputPolicy,
    LogTally,
    _cell_blocks,
    _stamp,
    referee_audit,
)
from .steering import SteeringState, construct_steering_state, verify_steering_state

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_REGION = 3
EXIT_CHECKS_FAILED = 5


def _say(kind: str, message: object) -> None:
    """One ``kind: message`` line on stderr, of at most 200 bytes with its
    newline: a longer one keeps its ends."""
    print(_clipped(f"{kind}: {message}", 199), file=sys.stderr)


def _named(path: str | Path, exc: Exception) -> str:
    """``path`` once, clipped, and what went wrong with it: an OSError's
    text names the path in full, so its ``strerror`` stands in for it."""
    return f"{_quoted(str(path))}: {getattr(exc, 'strerror', None) or exc}"


@contextlib.contextmanager
def _reading(path: str):
    """An input file as UTF-8 text; failing to open or decode it is bad input."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {_named(path, exc)}") from exc


@contextlib.contextmanager
def _writing(path: Path):
    """A file under --out, opened after making its directory; OSError is bad input."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise ValidationError(f"cannot write {_named(path, exc)}") from exc


def _json(text: str, what: str) -> Any:
    """``text`` as a JSON value; ``what`` names it if it is not one."""
    try:
        return json.loads(text)
    # bad JSON, an int past the int-string limit, nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def _load_json(path: str) -> Any:
    with _reading(path) as handle:
        return _json(handle.read(), _quoted(path))


def _emit(out: str | None, documents: dict[str, Any]) -> None:
    """Write one file per document under --out, or a combined JSON
    document (keyed by basename) to stdout."""
    if out is None:
        combined = {name.rsplit(".", 1)[0]: doc for name, doc in documents.items()}
        sys.stdout.write(dumps(combined))
        return
    for name, doc in documents.items():
        path = Path(out) / name
        with _writing(path) as handle:
            handle.write(dumps(doc))
        print(f"wrote {path}")


def _ensemble_list(path: str) -> list:
    data = _load_json(path)
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{_quoted(path)} must hold a nonempty JSON list of ensembles")
    return [ensemble_from_json(item) for item in data]


def cmd_steer(args: argparse.Namespace) -> int:
    state = construct_steering_state(_ensemble_list(args.ensembles))
    report = verify_steering_state(state)
    _emit(
        args.out,
        {
            "box.json": bipartite_box_to_json(state.box),
            "report.json": verification_report_to_json(report),
        },
    )
    return EXIT_OK if report.passed else EXIT_CHECKS_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    box = bipartite_box_from_json(_load_json(args.box))
    ensembles = _ensemble_list(args.ensembles)
    state = SteeringState(box=box, source_ensembles=ensembles)
    report = verify_steering_state(state)
    _emit(args.out, {"report.json": verification_report_to_json(report)})
    return EXIT_OK if report.passed else EXIT_CHECKS_FAILED


def cmd_blind(args: argparse.Namespace) -> int:
    target = TargetState(fraction_from_json(args.s), fraction_from_json(args.t))
    split = (
        nonlocal_ensemble_from_json(_load_json(args.split)) if args.split else None
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateRegionWarning)
        plan = plan_blind_steering(target, split)
    for item in caught:
        _say("warning", item.message)
    report_doc = blind_report_to_json(plan.report)
    report_doc["degenerate"] = bool(caught)
    _emit(
        args.out,
        {
            "ensemble.json": nonlocal_ensemble_to_json(plan.ensemble),
            "report.json": report_doc,
        },
    )
    return EXIT_OK  # a plan passed verification, or plan_blind_steering raised


def cmd_decompose(args: argparse.Namespace) -> int:
    box = bipartite_box_from_json(_load_json(args.box))
    ensemble = decompose(box)
    _emit(args.out, {"ensemble.json": nonlocal_ensemble_to_json(ensemble)})
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    box = bipartite_box_from_json(_load_json(args.box))
    ns = is_no_signalling(box)
    local = is_local(box) if ns and box.shape == (2, 2, 2, 2) else None
    sys.stdout.write(dumps({"ns": ns, "local": local}))
    return EXIT_OK if ns else EXIT_CHECKS_FAILED


def _parse_policy(value: str) -> InputPolicy:
    if value == "uniform":
        return InputPolicy.uniform()
    if value.lstrip().startswith("{"):
        return input_policy_from_json(_json(value, "inline policy"))
    return input_policy_from_json(_load_json(value))


def cmd_simulate(args: argparse.Namespace) -> int:
    ensemble = nonlocal_ensemble_from_json(_load_json(args.ensemble))
    policy = _parse_policy(args.policy)
    blocks = _cell_blocks(ensemble, args.rounds, args.seed, policy)
    tally = LogTally(ensemble, args.significance)
    # under --out the log goes to disk a block at a time and is never held
    logs_path = None if args.out is None else Path(args.out) / "logs.ndjson"
    # each cell's ndjson_line, cut at a round id no round has, joined with the ids
    cut = [ndjson_line(_stamp(-1, cell)).split("-1", 1) for cell in tally.honest_cells]
    with contextlib.nullcontext() if logs_path is None else _writing(logs_path) as handle:
        for start, ids in blocks:
            tally.add_block(ids)
            if handle is not None:
                handle.write("".join([f"{cut[c][0]}{r}{cut[c][1]}"
                                      for r, c in zip(count(start), ids.tolist())]))
    report = tally.report(args.seed, policy)
    _emit(args.out, {"report.json": simulation_report_to_json(report)})
    if logs_path is not None:
        print(f"wrote {logs_path}")
    return EXIT_OK if report.verdict.passed else EXIT_CHECKS_FAILED


def cmd_audit(args: argparse.Namespace) -> int:
    # the log file is opened first, so that a missing one is reported first
    with _reading(args.logs) as lines:
        ensemble = nonlocal_ensemble_from_json(_load_json(args.ensemble))
        verdict = referee_audit(ndjson_logs(lines), ensemble, args.significance)
    _emit(args.out, {"verdict.json": audit_verdict_to_json(verdict)})
    return EXIT_OK if verdict.passed else EXIT_CHECKS_FAILED


# an argv value in argparse's message: quoted whole, or bare and long
_ARGV_VALUE = re.compile(r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S{41,}""")


class _Parser(argparse.ArgumentParser):
    """Usage errors, its subcommands' too, are bad input; --help still exits 0."""

    def error(self, message: str) -> NoReturn:
        # argparse puts an argv value in whole: clip each as other messages do
        raise ValidationError(_ARGV_VALUE.sub(lambda m: _clipped(m[0]), message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boxsteer",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"boxsteer {__version__} (vertex catalog {catalog_hash()})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steer", help="build the remote-preparation box")
    p.add_argument("ensembles", help="JSON list of ensembles, one per Bob input")
    p.add_argument("--out", help="directory for box.json and report.json")
    p.set_defaults(handler=cmd_steer)

    p = sub.add_parser("verify", help="recheck a claimed box/ensembles pair")
    p.add_argument("box")
    p.add_argument("ensembles")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("blind", help="solve a target for hidden-constituent steering")
    p.add_argument("s", help='p(a=0|x=0) as "num/den"')
    p.add_argument("t", help='p(a=0|x=1) as "num/den"')
    p.add_argument("--split", help="JSON ensemble fixing the free weight split")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_blind)

    p = sub.add_parser("decompose", help="exact vertex decomposition of an NS box")
    p.add_argument("box")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("check", help="no-signalling and locality status of a box")
    p.add_argument("box")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("simulate", help="run the refereed protocol")
    p.add_argument("ensemble")
    p.add_argument("--rounds", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--policy",
        default="uniform",
        help='"uniform", a JSON file path, or an inline JSON object',
    )
    p.add_argument("--significance", type=float, default=DEFAULT_SIGNIFICANCE)
    p.add_argument("--out", help="directory for logs.ndjson and report.json")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("audit", help="audit a log file against an ensemble")
    p.add_argument("logs")
    p.add_argument("ensemble")
    p.add_argument("--significance", type=float, default=DEFAULT_SIGNIFICANCE)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except BoxWorldError as exc:
        _say("error", exc)
        return EXIT_REGION if isinstance(exc, RegionError) else EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
