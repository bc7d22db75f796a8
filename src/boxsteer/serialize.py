"""JSON formats for boxes, ensembles, logs, and reports.

Probabilities travel as exact-rational strings ("3/4", "1"); JSON
numbers are rejected on parse so floats can never leak into exact
values.  Bits and indices are plain integers.  Layouts:

  BipartiteBox    {"X","Y","A","B","table"}; row r = x*Y + y,
                  column c = a*B + b
  Ensemble        {"X","A","members": [{"w": "1/4", "f": [a0, a1, ...]}]}
                  where f is the member's strategy, its output per input;
                  a blind report's S-box weights too, f = [S(0), S(1)]
  NonlocalEnsemble{"products": [{"w","ij": [i,j],"kl": [k,l]}],
                   "prs": [{"w","abd": [alpha,beta,delta]}]}
  RoundLog        one JSON object per line (NDJSON), S boxes as "Sij"
  InputPolicy     {"table": [[p00, p01], [p10, p11]]}; InputPolicy checks the 2x2 shape

Reports (verification, simulation, audit) serialize one-way to JSON
documents for the CLI; they are outputs, not inputs.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from typing import Any

from .blind import BlindReport, TargetState
from .boxes import (
    SBOXES,
    BipartiteBox,
    PRBox,
    SBox,
    _clipped,
    _quoted,
    _require_index,
    _require_natural,
)
from .ensembles import (
    Ensemble,
    NonlocalEnsemble,
    PRMember,
    ProductMember,
)
from .errors import ValidationError
from .reports import VerificationReport
from .simulate import AuditVerdict, InputPolicy, RoundLog, SimulationReport, _cell, _stamp


def fraction_to_json(value: Fraction) -> str:
    value = Fraction(value)
    try:
        return str(value)
    except ValueError as exc:  # more digits than Python's int-string limit
        raise ValidationError(f"cannot write a rational: {exc}") from exc


@functools.cache
def _int_string_bound(digits: int) -> int:
    return 10**digits


def fraction_from_json(value: Any) -> Fraction:
    if not isinstance(value, str):
        raise ValidationError(
            f"expected a rational string like \"3/4\", got {_quoted(value)}; "
            "JSON numbers are not accepted for probabilities"
        )
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:  # its reason may quote the literal
        raise ValidationError(f"bad rational string {_clipped(value)!r}: "
                              f"{_clipped(str(exc), 80)}") from exc
    # exponent notation ("1e5000") gets past the int-string limit that a
    # long literal hits, and would leave a value that cannot be printed
    # (0, or a Python without the limit, means no limit)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    largest = max(abs(frac.numerator), frac.denominator)
    if digits and largest >= _int_string_bound(digits):
        raise ValidationError(
            f"bad rational string {_clipped(value)!r}: its numerator or "
            f"denominator has more than {digits} digits"
        )
    return frac


def _field(obj: Any, key: str) -> Any:
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"missing field {key!r}")
    return obj[key]


def _bits_from_json(obj: Any, key: str, length: int) -> list[int]:
    """The ``length`` bits listed in field ``key``, each named by its position."""
    bits = _field(obj, key)
    if not isinstance(bits, list) or len(bits) != length:
        raise ValidationError(f"{key} must be a {length}-bit list")
    return [_require_index(f"{key}[{i}]", bit, 2) for i, bit in enumerate(bits)]


def bipartite_box_to_json(box: BipartiteBox) -> dict:
    nx, ny, na, nb = box.shape
    # one row per (x, y), in x*Y + y order, of its entries in a*B + b order
    table = [[fraction_to_json(p) for row in block for p in row]
             for by in box.table for block in by]
    return {"X": nx, "Y": ny, "A": na, "B": nb, "table": table}


def bipartite_box_from_json(obj: Any) -> BipartiteBox:
    nx, ny, na, nb = [_require_natural(key, _field(obj, key)) for key in "XYAB"]
    flat = _field(obj, "table")
    rows, entries = nx * ny, na * nb
    if not isinstance(flat, list) or len(flat) != rows:
        raise ValidationError(f"table must have {_quoted(rows)} rows (x*Y + y order)")
    for row in flat:
        if not isinstance(row, list) or len(row) != entries:
            raise ValidationError(
                f"each row must have {_quoted(entries)} entries (a*B + b order)"
            )
    if not rows:  # before X or Y empty blocks are built
        raise ValidationError("bipartite table must be non-empty")
    blocks = [[fraction_from_json(p) for p in row] for row in flat]
    a_blocks = range(na if nb else 0)  # with B = 0, none: every (x, y) sums to 0
    return BipartiteBox([[[blocks[x * ny + y][a * nb:(a + 1) * nb] for a in a_blocks]
                          for y in range(ny)] for x in range(nx)])


def ensemble_to_json(ensemble: Ensemble) -> dict:
    return _members_to_json(ensemble.num_inputs, ensemble.num_outputs, ensemble.strategies)


def _members_to_json(num_inputs: int, num_outputs: int, pairs: Iterable[tuple]) -> dict:
    """The Ensemble layout of (weight, strategy) pairs, in their order."""
    return {
        "X": num_inputs,
        "A": num_outputs,
        "members": [
            {"w": fraction_to_json(weight), "f": list(strategy)}
            for weight, strategy in pairs
        ],
    }


def ensemble_from_json(obj: Any) -> Ensemble:
    num_inputs = _require_natural("X", _field(obj, "X"))
    num_outputs = _require_natural("A", _field(obj, "A"))
    raw = _field(obj, "members")
    if not isinstance(raw, list):
        raise ValidationError("members must be a list")
    pairs = []
    for item in raw:
        weight = fraction_from_json(_field(item, "w"))
        strategy = _field(item, "f")
        if not isinstance(strategy, list) or len(strategy) != num_inputs:
            raise ValidationError(
                f"f must list one output per input ({_quoted(num_inputs)})"
            )
        pairs.append((weight, strategy))
    return Ensemble.from_strategies(pairs, num_outputs)


def nonlocal_ensemble_to_json(ensemble: NonlocalEnsemble) -> dict:
    return {
        "products": [
            {
                "w": fraction_to_json(m.weight),
                "ij": [m.alice.alpha, m.alice.beta],
                "kl": [m.bob.alpha, m.bob.beta],
            }
            for m in ensemble.products
        ],
        "prs": [
            {
                "w": fraction_to_json(m.weight),
                "abd": [m.box.alpha, m.box.beta, m.box.delta],
            }
            for m in ensemble.prs
        ],
    }


def nonlocal_ensemble_from_json(obj: Any) -> NonlocalEnsemble:
    raw_products = _field(obj, "products")
    raw_prs = _field(obj, "prs")
    if not isinstance(raw_products, list) or not isinstance(raw_prs, list):
        raise ValidationError("products and prs must be lists")
    products = tuple(
        ProductMember(
            fraction_from_json(_field(item, "w")),
            SBox(*_bits_from_json(item, "ij", 2)),
            SBox(*_bits_from_json(item, "kl", 2)),
        )
        for item in raw_products
    )
    prs = tuple(
        PRMember(
            fraction_from_json(_field(item, "w")),
            PRBox(*_bits_from_json(item, "abd", 3)),
        )
        for item in raw_prs
    )
    return NonlocalEnsemble(products, prs)


_SBOXES = {sbox.label: sbox for sbox in SBOXES}


def sbox_from_json(value: Any) -> SBox:
    if isinstance(value, str) and value in _SBOXES:
        return _SBOXES[value]
    raise ValidationError(f"expected an S-box label like \"S01\", got {_quoted(value)}")


def round_log_from_json(obj: Any) -> RoundLog:
    """The round an object names, its fields read in order; the round checks them."""
    ints = [_field(obj, key) for key in ("round_id", "member_id", "x", "y", "a", "b")]
    inference = sbox_from_json(_field(obj, "referee_inference"))
    return RoundLog(*ints, inference, sbox_from_json(_field(obj, "alice_actual")))


def ndjson_line(log: RoundLog) -> str:
    """One round as the log's canonical NDJSON line: its eight fields as a
    JSON object with sorted keys and S boxes by label, then a newline.
    Its oracle is ``json.dumps(round_log_to_json(log), sort_keys=True)``
    and a newline, with ``round_log_to_json`` in ``tests/strategies.py``."""
    return (
        f'{{"a": {log.a}, "alice_actual": "{log.alice_actual.label}", '
        f'"b": {log.b}, "member_id": {log.member_id}, '
        f'"referee_inference": "{log.referee_inference.label}", '
        f'"round_id": {log.round_id}, "x": {log.x}, "y": {log.y}}}\n'
    )


def logs_to_ndjson(logs: Iterable[RoundLog]) -> str:
    return "".join(map(ndjson_line, logs))


_ID, _ROUND_ID = '"round_id": ', re.compile("0|[1-9][0-9]*")


def ndjson_logs(lines: Iterable[str]) -> Iterator[RoundLog]:
    """Round logs parsed from lines split at universal newlines (``\\n``,
    ``\\r\\n``, ``\\r``) alone, as a text-mode file yields them, each
    with or without its ``\\n``: a line that is an earlier canonical line
    (:func:`ndjson_line`) but for its round id is read by that line's cell,
    a line of spaces and tabs is skipped, and any other line is read as JSON."""
    seen: dict[str, tuple] = {}  # a canonical line with its round id cut out -> its cell
    for lineno, line in enumerate(lines, start=1):
        start = line.find(_ID) + len(_ID)
        end = line.find(",", start)
        key = line[:start] + line[end:] if len(_ID) <= start < end else None
        cell = seen.get(key)
        if cell is not None and _ROUND_ID.fullmatch(line, start, end):
            try:
                round_id = int(line[start:end])
            except ValueError as exc:  # more digits than Python's int-string limit
                raise ValidationError(f"log line {lineno}: {exc}") from exc
            yield _stamp(round_id, cell)
            continue
        line = line.rstrip("\n")
        if not line.strip(" \t"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad JSON on log line {lineno}: {exc}") from exc
        # an int past the int-string limit, or nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"log line {lineno}: {exc}") from exc
        log = round_log_from_json(obj)
        if key is not None and ndjson_line(log) == line + "\n":
            seen[key] = _cell(log)
        yield log


def logs_from_ndjson(text: str) -> list[RoundLog]:
    if "\r" in text:  # split as a text-mode file splits, and at no other break
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return list(ndjson_logs(text.split("\n")))


def verification_report_to_json(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "checks": [
            {
                "name": check.name,
                "passed": check.passed,
                "witness": check.witness,
            }
            for check in report.checks
        ],
    }


def target_to_json(target: TargetState) -> dict:
    return {"s": fraction_to_json(target.s), "t": fraction_to_json(target.t)}


def blind_report_to_json(report: BlindReport) -> dict:
    doc = verification_report_to_json(report)
    doc.update(
        {
            "target": target_to_json(report.target),
            "canonical_target": target_to_json(report.canonical_target),
            "relabeling": {
                "flip_outputs": report.relabeling.flip_outputs,
                "flip_inputs": report.relabeling.flip_inputs,
            },
            "upper_ensemble": _sbox_weights_to_json(report.expected_upper),
            "lower_ensemble": _sbox_weights_to_json(report.expected_lower),
            "bob_posterior_supports": {
                f"{y},{b}": list(labels)
                for (y, b), labels in report.posterior_supports
            },
        }
    )
    return doc


def _sbox_weights_to_json(weights: dict[SBox, Fraction]) -> dict:
    """S-box weights in the Ensemble layout, each S box as its strategy."""
    pairs = ((w, (sbox.output(0), sbox.output(1))) for sbox, w in weights.items())
    return _members_to_json(2, 2, pairs)


def input_policy_to_json(policy: InputPolicy) -> dict:
    return {
        "table": [[fraction_to_json(p) for p in row] for row in policy.table]
    }


def input_policy_from_json(obj: Any) -> InputPolicy:
    table = _field(obj, "table")
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise ValidationError("input policy must be a 2x2 table")
    return InputPolicy(tuple(tuple(fraction_from_json(p) for p in row) for row in table))


def audit_verdict_to_json(verdict: AuditVerdict) -> dict:
    return {
        "passed": verdict.passed,
        "mismatch_count": verdict.mismatch_count,
        "mismatch_rounds": list(verdict.mismatch_rounds),
        "significance": verdict.significance,
        # to 6 decimals, so that a last bit of a platform's lgamma moves no
        # document; + 0.0 writes -0.0 as 0.0
        "log_e_value": round(verdict.log_e_value, 6) + 0.0,
    }


def simulation_report_to_json(report: SimulationReport) -> dict:
    return {
        "rounds": report.rounds,
        "rng_seed": report.rng_seed,
        "policy": input_policy_to_json(report.policy),
        # nested tuples; cells of input pairs never drawn are null
        "empirical_joint": report.empirical_joint,
        "alice_frequencies": {
            str(y): {sbox.label: freq for sbox, freq in cells.items()}
            for y, cells in report.alice_frequencies.items()
        },
        "alice_frequencies_by_outcome": {
            f"{y},{b}": {sbox.label: freq for sbox, freq in cells.items()}
            for (y, b), cells in report.alice_frequencies_by_outcome.items()
        },
        "verdict": audit_verdict_to_json(report.verdict),
    }


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
