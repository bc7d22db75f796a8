"""JSON formats for boxes, ensembles, logs, and reports.

Probabilities travel as exact-rational strings ("3/4", "1"); JSON
numbers are rejected on parse so floats can never leak into exact
values.  Bits and indices are plain integers.  Layouts:

  BipartiteBox    {"X","Y","A","B","table"}; row r = x*Y + y,
                  column c = a*B + b
  Ensemble        {"X","A","members": [{"w": "1/4", "f": [a0, a1, ...]}]}
                  where f is the member's strategy, its output per input
  NonlocalEnsemble{"products": [{"w","ij": [i,j],"kl": [k,l]}],
                   "prs": [{"w","abd": [alpha,beta,delta]}]}
  RoundLog        one JSON object per line (NDJSON), S boxes as "Sij"

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
from .boxes import BipartiteBox, PRBox, SBox, _is_index, _require_index
from .ensembles import (
    Ensemble,
    NonlocalEnsemble,
    PRMember,
    ProductMember,
)
from .errors import ValidationError
from .reports import VerificationReport
from .simulate import AuditVerdict, InputPolicy, RoundLog, SimulationReport


def fraction_to_json(value: Fraction) -> str:
    value = Fraction(value)
    try:
        return str(value)
    except ValueError as exc:  # more digits than Python's int-string limit
        raise ValidationError(f"cannot write a rational: {exc}") from exc


@functools.cache
def _int_string_bound(digits: int) -> int:
    return 10**digits


def _clipped(literal: str) -> str:
    return literal if len(literal) <= 40 else literal[:20] + "..." + literal[-10:]


def fraction_from_json(value: Any) -> Fraction:
    if not isinstance(value, str):
        raise ValidationError(
            f"expected a rational string like \"3/4\", got {value!r}; "
            "JSON numbers are not accepted for probabilities"
        )
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational string {_clipped(value)!r}: {exc}") from exc
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


def _index_from_json(value: Any, what: str) -> int:
    if not _is_index(value) or value < 0:
        raise ValidationError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


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
    table = [
        [
            fraction_to_json(box.prob(x, y, a, b))
            for a in range(na)
            for b in range(nb)
        ]
        for x in range(nx)
        for y in range(ny)
    ]
    return {"X": nx, "Y": ny, "A": na, "B": nb, "table": table}


def bipartite_box_from_json(obj: Any) -> BipartiteBox:
    nx = _index_from_json(_field(obj, "X"), "X")
    ny = _index_from_json(_field(obj, "Y"), "Y")
    na = _index_from_json(_field(obj, "A"), "A")
    nb = _index_from_json(_field(obj, "B"), "B")
    flat = _field(obj, "table")
    if not isinstance(flat, list) or len(flat) != nx * ny:
        raise ValidationError(f"table must have {nx * ny} rows (x*Y + y order)")
    for row in flat:
        if not isinstance(row, list) or len(row) != na * nb:
            raise ValidationError(f"each row must have {na * nb} entries (a*B + b order)")
    table = tuple(
        tuple(
            tuple(
                tuple(
                    fraction_from_json(flat[x * ny + y][a * nb + b])
                    for b in range(nb)
                )
                for a in range(na)
            )
            for y in range(ny)
        )
        for x in range(nx)
    )
    return BipartiteBox(table)


def ensemble_to_json(ensemble: Ensemble) -> dict:
    return {
        "X": ensemble.num_inputs,
        "A": ensemble.num_outputs,
        "members": [
            {"w": fraction_to_json(weight), "f": list(strategy)}
            for weight, strategy in ensemble.strategies
        ],
    }


def ensemble_from_json(obj: Any) -> Ensemble:
    num_inputs = _index_from_json(_field(obj, "X"), "X")
    num_outputs = _index_from_json(_field(obj, "A"), "A")
    raw = _field(obj, "members")
    if not isinstance(raw, list):
        raise ValidationError("members must be a list")
    pairs = []
    for item in raw:
        weight = fraction_from_json(_field(item, "w"))
        strategy = _field(item, "f")
        if not isinstance(strategy, list) or len(strategy) != num_inputs:
            raise ValidationError(f"f must list one output per input ({num_inputs})")
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


def sbox_to_json(sbox: SBox) -> str:
    return sbox.label


_SBOXES = {sbox.label: sbox for sbox in (SBox(i >> 1, i & 1) for i in range(4))}


def sbox_from_json(value: Any) -> SBox:
    if isinstance(value, str) and value in _SBOXES:
        return _SBOXES[value]
    raise ValidationError(f"expected an S-box label like \"S01\", got {value!r}")


def round_log_from_json(obj: Any) -> RoundLog:
    return RoundLog(
        round_id=_index_from_json(_field(obj, "round_id"), "round_id"),
        member_id=_index_from_json(_field(obj, "member_id"), "member_id"),
        x=_require_index("x", _field(obj, "x"), 2),
        y=_require_index("y", _field(obj, "y"), 2),
        a=_require_index("a", _field(obj, "a"), 2),
        b=_require_index("b", _field(obj, "b"), 2),
        referee_inference=sbox_from_json(_field(obj, "referee_inference")),
        alice_actual=sbox_from_json(_field(obj, "alice_actual")),
    )


def ndjson_line(log: RoundLog) -> str:
    """One round as an NDJSON line: its eight fields as a JSON object with
    sorted keys and S boxes by label, then a newline.  Its oracle is
    ``json.dumps(round_log_to_json(log), sort_keys=True)`` and a newline,
    with ``round_log_to_json`` in ``tests/strategies.py``."""
    return (
        f'{{"a": {log.a}, "alice_actual": "{log.alice_actual.label}", '
        f'"b": {log.b}, "member_id": {log.member_id}, '
        f'"referee_inference": "{log.referee_inference.label}", '
        f'"round_id": {log.round_id}, "x": {log.x}, "y": {log.y}}}\n'
    )


def logs_to_ndjson(logs: Iterable[RoundLog]) -> str:
    return "".join(map(ndjson_line, logs))


# the line ndjson_line writes; any other line is read as general JSON
_CANONICAL_LINE = re.compile(
    r'\{"a": ([01]), "alice_actual": "(S[01][01])", "b": ([01]), '
    r'"member_id": (0|[1-9][0-9]*), "referee_inference": "(S[01][01])", '
    r'"round_id": (0|[1-9][0-9]*), "x": ([01]), "y": ([01])\}'
)


def ndjson_logs(chunks: Iterable[str]) -> Iterator[RoundLog]:
    """Round logs parsed line by line from a text's or an open file's lines."""
    lines = (line for chunk in chunks for line in chunk.splitlines())
    for lineno, line in enumerate(lines, start=1):
        canonical = _CANONICAL_LINE.fullmatch(line)
        if canonical:
            a, actual, b, member_id, inference, round_id, x, y = canonical.groups()
            try:
                ids = int(round_id), int(member_id)
            except ValueError as exc:  # more digits than Python's int-string limit
                raise ValidationError(f"log line {lineno}: {exc}") from exc
            yield RoundLog(
                *ids, int(x), int(y), int(a), int(b),
                _SBOXES[inference], _SBOXES[actual],
            )
            continue
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad JSON on log line {lineno}: {exc}") from exc
        except ValueError as exc:  # an integer past Python's int-string limit
            raise ValidationError(f"log line {lineno}: {exc}") from exc
        yield round_log_from_json(obj)


def logs_from_ndjson(text: str) -> list[RoundLog]:
    return list(ndjson_logs([text]))


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
            "upper_ensemble": ensemble_to_json(report.expected_upper),
            "lower_ensemble": ensemble_to_json(report.expected_lower),
            "bob_posterior_supports": {
                f"{y},{b}": list(labels)
                for (y, b), labels in report.posterior_supports
            },
        }
    )
    return doc


def input_policy_to_json(policy: InputPolicy) -> dict:
    return {
        "table": [[fraction_to_json(p) for p in row] for row in policy.table]
    }


def input_policy_from_json(obj: Any) -> InputPolicy:
    table = _field(obj, "table")
    if not isinstance(table, list) or len(table) != 2:
        raise ValidationError("policy table must have 2 rows (x = 0, 1)")
    rows = []
    for row in table:
        if not isinstance(row, list) or len(row) != 2:
            raise ValidationError("each policy row must have 2 entries (y = 0, 1)")
        rows.append(tuple(fraction_from_json(p) for p in row))
    return InputPolicy(tuple(rows))


def audit_verdict_to_json(verdict: AuditVerdict) -> dict:
    return {
        "passed": verdict.passed,
        "mismatch_count": verdict.mismatch_count,
        "mismatch_rounds": list(verdict.mismatch_rounds),
        "significance": verdict.significance,
        "frequency_cells": [
            {
                "y": cell.input_choice,
                "constituent": sbox_to_json(cell.constituent),
                "expected": fraction_to_json(cell.expected),
                "observed": cell.observed,
                "total": cell.total,
                "pvalue": cell.pvalue,
                "ok": cell.ok,
            }
            for cell in verdict.frequency_cells
        ],
    }


def simulation_report_to_json(report: SimulationReport) -> dict:
    return {
        "rounds": report.rounds,
        "rng_seed": report.rng_seed,
        "policy": input_policy_to_json(report.policy),
        # nested tuples; cells of input pairs never drawn are NaN
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
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
