import dataclasses
import itertools
import json
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxsteer as bx
from boxsteer import serialize
from strategies import (
    ensembles_equal,
    nonlocal_ensembles,
    pr_bipartite_box,
    product_box,
    rationals,
    round_log_to_json,
)

BITS = (0, 1)

CANONICAL = bx.TargetState(F(1, 4), F(1, 2))


def reload(doc):
    # serialized form must be honest JSON, not just dict-shaped
    return json.loads(json.dumps(doc))


def reject_constant(name):
    # json.loads hook for NaN, Infinity and -Infinity, which are not JSON
    raise ValueError(f"{name} is not JSON")


class TestFractions:
    @pytest.mark.parametrize(
        "value,text", [(F(3, 4), "3/4"), (F(1), "1"), (F(0), "0"), (F(7, 100), "7/100")]
    )
    def test_frozen_forms(self, value, text):
        assert serialize.fraction_to_json(value) == text
        assert serialize.fraction_from_json(text) == value

    @settings(max_examples=100, deadline=None)
    @given(rationals(max_denominator=1000))
    def test_round_trip(self, q):
        assert serialize.fraction_from_json(serialize.fraction_to_json(q)) == q

    @pytest.mark.parametrize("bad", [1, 0.5, True, None, [], {}])
    def test_numbers_rejected(self, bad):
        with pytest.raises(bx.ValidationError) as err:
            serialize.fraction_from_json(bad)
        if isinstance(bad, (int, float)):
            assert "JSON numbers are not accepted" in str(err.value)

    @pytest.mark.parametrize("bad", ["1/0", "abc", "", "3|4"])
    def test_bad_strings_rejected(self, bad):
        with pytest.raises(bx.ValidationError):
            serialize.fraction_from_json(bad)

    @pytest.mark.parametrize("literal", ["1e5000", "1e-5000", "1e4300", "-1e-4300"])
    def test_exponent_past_int_string_limit(self, literal):
        # 10**4300 has one digit more than the default limit allows
        with pytest.raises(bx.ValidationError, match="more than 4300 digits"):
            serialize.fraction_from_json(literal)

    @pytest.mark.parametrize("literal", ["1e4299", "-1e-4299"])
    def test_exponent_at_int_string_limit(self, literal):
        value = serialize.fraction_from_json(literal)
        assert serialize.fraction_from_json(serialize.fraction_to_json(value)) == value

    def test_long_literal_clipped_in_message(self):
        literal = "1/" + "7" * 5000
        with pytest.raises(bx.ValidationError) as err:
            serialize.fraction_from_json(literal)
        assert "'1/777777777777777777...7777777777'" in str(err.value)

    def test_unprintable_value_rejected(self):
        with pytest.raises(bx.ValidationError, match="cannot write a rational"):
            serialize.fraction_to_json(F(1, 10**5000))


class TestBipartiteBox:
    def test_flat_layout(self):
        # S01 x S10: a = 1 always, b = y; weight lands in row x*2+y at
        # column a*2+b = 2+y
        box = product_box(
            bx.SBox(0, 1).as_local_box(), bx.SBox(1, 0).as_local_box()
        )
        doc = reload(serialize.bipartite_box_to_json(box))
        assert (doc["X"], doc["Y"], doc["A"], doc["B"]) == (2, 2, 2, 2)
        for x in BITS:
            for y in BITS:
                row = doc["table"][x * 2 + y]
                assert row[2 + y] == "1"
                assert sum(1 for v in row if v != "0") == 1

    def test_pr_round_trip(self):
        box = pr_bipartite_box(bx.PRBox(1, 0, 1))
        doc = reload(serialize.bipartite_box_to_json(box))
        assert serialize.bipartite_box_from_json(doc) == box

    @settings(max_examples=60, deadline=None)
    @given(nonlocal_ensembles())
    def test_mixture_round_trip(self, ensemble):
        box = bx.mix_nonlocal(ensemble)
        doc = reload(serialize.bipartite_box_to_json(box))
        assert serialize.bipartite_box_from_json(doc) == box

    def test_row_length_checked(self):
        doc = serialize.bipartite_box_to_json(pr_bipartite_box(bx.PRBox(0, 0, 0)))
        doc["table"][0] = doc["table"][0][:3]
        with pytest.raises(bx.ValidationError):
            serialize.bipartite_box_from_json(doc)

    def test_missing_field(self):
        with pytest.raises(bx.ValidationError) as err:
            serialize.bipartite_box_from_json({"X": 2, "Y": 2, "A": 2, "table": []})
        assert "'B'" in str(err.value)


class TestEnsemble:
    def test_frozen_form(self):
        report = bx.plan_blind_steering(CANONICAL).report
        doc = reload(serialize.ensemble_to_json(report.expected_upper))
        assert doc["X"] == 2 and doc["A"] == 2
        members = {tuple(m["f"]): m["w"] for m in doc["members"]}
        assert members == {(0, 0): "1/4", (1, 1): "1/2", (1, 0): "1/4"}

    def test_round_trip(self):
        for target in (CANONICAL, bx.TargetState(F(1, 8), F(5, 8))):
            report = bx.plan_blind_steering(target).report
            for e in (report.expected_upper, report.expected_lower):
                assert ensembles_equal(
                    serialize.ensemble_from_json(reload(serialize.ensemble_to_json(e))), e
                )

    def test_strategy_length_checked(self):
        with pytest.raises(bx.ValidationError):
            serialize.ensemble_from_json(
                {"X": 2, "A": 2, "members": [{"w": "1", "f": [0]}]}
            )

    def test_output_range_checked(self):
        with pytest.raises(bx.ValidationError):
            serialize.ensemble_from_json(
                {"X": 2, "A": 2, "members": [{"w": "1", "f": [0, 2]}]}
            )

    def test_empty_members_rejected(self):
        with pytest.raises(bx.ValidationError):
            serialize.ensemble_from_json({"X": 2, "A": 2, "members": []})


class TestNonlocalEnsemble:
    def test_frozen_form(self):
        plan = bx.plan_blind_steering(CANONICAL)
        doc = reload(serialize.nonlocal_ensemble_to_json(plan.ensemble))
        assert doc == {
            "products": [
                {"w": "1/4", "ij": [0, 1], "kl": [0, 0]},
                {"w": "1/4", "ij": [1, 1], "kl": [0, 0]},
            ],
            "prs": [{"w": "1/2", "abd": [0, 0, 0]}],
        }
        assert serialize.nonlocal_ensemble_from_json(doc) == plan.ensemble

    @settings(max_examples=60, deadline=None)
    @given(nonlocal_ensembles())
    def test_round_trip(self, ensemble):
        doc = reload(serialize.nonlocal_ensemble_to_json(ensemble))
        assert serialize.nonlocal_ensemble_from_json(doc) == ensemble

    def test_weight_number_rejected(self):
        with pytest.raises(bx.ValidationError):
            serialize.nonlocal_ensemble_from_json(
                {"products": [], "prs": [{"w": 1, "abd": [0, 0, 0]}]}
            )

    def test_abd_length_checked(self):
        with pytest.raises(bx.ValidationError):
            serialize.nonlocal_ensemble_from_json(
                {"products": [], "prs": [{"w": "1", "abd": [0, 0]}]}
            )

    def test_missing_section(self):
        with pytest.raises(bx.ValidationError):
            serialize.nonlocal_ensemble_from_json({"products": []})


class TestSBox:
    @pytest.mark.parametrize("alpha,beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_round_trip(self, alpha, beta):
        sbox = bx.SBox(alpha, beta)
        text = serialize.sbox_to_json(sbox)
        assert text == f"S{alpha}{beta}"
        assert serialize.sbox_from_json(text) == sbox

    @pytest.mark.parametrize("bad", ["S2x", "X00", "S0", "s01", 3, None])
    def test_bad_labels_rejected(self, bad):
        with pytest.raises(bx.ValidationError):
            serialize.sbox_from_json(bad)


class TestRoundLogs:
    def logs(self, rounds=25):
        e = bx.plan_blind_steering(CANONICAL).ensemble
        _, logs = bx.run_protocol(e, rounds=rounds, seed=13)
        return logs

    def test_single_round_trip(self):
        log = self.logs(1)[0]
        doc = reload(round_log_to_json(log))
        assert set(doc) == {
            "round_id",
            "member_id",
            "x",
            "y",
            "a",
            "b",
            "referee_inference",
            "alice_actual",
        }
        assert serialize.round_log_from_json(doc) == log

    def test_ndjson_round_trip(self):
        logs = self.logs()
        text = serialize.logs_to_ndjson(logs)
        assert text.count("\n") == len(logs)
        assert serialize.logs_from_ndjson(text) == logs

    def test_ndjson_lines_sorted_and_parseable(self):
        text = serialize.logs_to_ndjson(self.logs(3))
        for line in text.splitlines():
            doc = json.loads(line)
            assert list(doc) == sorted(doc)

    def test_blank_lines_skipped(self):
        logs = self.logs(4)
        text = "\n" + serialize.logs_to_ndjson(logs).replace("\n", "\n\n")
        assert serialize.logs_from_ndjson(text) == logs

    def test_bad_line_reported_with_number(self):
        text = serialize.logs_to_ndjson(self.logs(3))
        mangled = "\n".join(
            line if i != 1 else line[:-5]
            for i, line in enumerate(text.splitlines())
        )
        with pytest.raises(bx.ValidationError) as err:
            serialize.logs_from_ndjson(mangled)
        assert "line 2" in str(err.value)

    def test_field_validation(self):
        doc = round_log_to_json(self.logs(1)[0])
        doc["a"] = 2
        with pytest.raises(bx.ValidationError):
            serialize.round_log_from_json(doc)


def _reference_logs(text):
    """The log parser's first form, kept as the oracle: every line through
    ``json.loads`` and ``round_log_from_json``."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise bx.ValidationError(f"bad JSON on log line {lineno}: {exc}") from exc
        out.append(serialize.round_log_from_json(obj))
    return out


def _outcome(parse, text):
    try:
        return parse(text)
    except bx.ValidationError as exc:
        return f"ValidationError: {exc}"


def _reference_outcome(text):
    """``_reference_logs``'s outcome, with an int past the int-string limit
    on line 2 named as the reader names it."""
    try:
        return _outcome(_reference_logs, text)
    except ValueError as exc:
        return f"ValidationError: log line 2: {exc}"


bits = st.sampled_from(BITS)
sboxes = st.builds(bx.SBox, bits, bits)
round_logs = st.builds(
    bx.RoundLog, st.integers(0, 2**70), st.integers(0, 2**70),
    bits, bits, bits, bits, sboxes, sboxes,
)


class TestNdjsonCodec:
    @settings(max_examples=200, deadline=None)
    @given(round_logs)
    def test_line_is_sorted_json_dumps(self, log):
        expected = json.dumps(round_log_to_json(log), sort_keys=True) + "\n"
        assert serialize.ndjson_line(log) == expected

    @settings(max_examples=200, deadline=None)
    @given(round_logs)
    def test_canonical_line_parses_as_json(self, log):
        # the first line of a cell goes through json.loads, the next is read by its cell
        line = serialize.ndjson_line(log)
        later = dataclasses.replace(log, round_id=log.round_id + 1)
        text = line + serialize.ndjson_line(later)
        assert _reference_logs(text) == [log, later]
        with mock.patch.object(json, "loads", wraps=json.loads) as loads:
            assert serialize.logs_from_ndjson(text) == [log, later]
        loads.assert_called_once_with(line.rstrip("\n"))

    def test_other_lines_read_as_before(self):
        line = serialize.ndjson_line(
            bx.RoundLog(7, 2, 1, 0, 1, 1, bx.SBox(1, 0), bx.SBox(0, 1))
        ).rstrip("\n")
        doc = json.loads(line)
        read = [  # read as the same round
            json.dumps(dict(reversed(doc.items()))),
            line.replace(": ", ":  ").replace("{", "{ "),
            line[:-1] + ', "note": "extra"}',
            line.replace('"S10"', '"\\u005310"'),
            line + "\r",
            line + " ",
        ]
        refused = [
            line.replace('"x": 1', '"x": true'),
            line.replace('"b": 1', '"b": 2'),
            line.replace('"round_id": 7', '"round_id": 07'),
            line.replace('"member_id": 2', '"member_id": -2'),
            line.replace('"S10"', '"S12"'),
            line.replace('"S01"', '"s01"'),
            line[:-1],
        ]
        for text in read + refused:
            outcome = _outcome(serialize.logs_from_ndjson, text)
            assert outcome == _outcome(_reference_logs, text)
            if text in read:
                assert outcome == [serialize.round_log_from_json(doc)]
            else:
                assert outcome.startswith("ValidationError: ")

    @pytest.mark.parametrize("field", ["round_id", "member_id"])
    @pytest.mark.parametrize("spacing", [": ", ":  "])  # canonical line, json.loads
    def test_integer_past_int_string_limit_names_the_line(self, field, spacing):
        # Python refuses to read an int of more than 4,300 digits, whether
        # the line is the first line's cell (int) or not (json.loads)
        first = serialize.ndjson_line(
            bx.RoundLog(0, 0, 0, 0, 0, 0, bx.SBox(0, 0), bx.SBox(0, 0))
        )
        line = first.replace(f'"{field}": 0', f'"{field}": {"1" * 5000}')
        line = line.replace(": ", spacing)
        by_cell = (field, spacing) == ("round_id", ": ")
        with mock.patch.object(json, "loads", wraps=json.loads) as loads:
            with pytest.raises(bx.ValidationError, match="^log line 2: Exceeds the limit"):
                serialize.logs_from_ndjson(first + line)
        assert loads.call_count == (1 if by_cell else 2)


# a canonical line rewritten around its round id; each must read as _reference_logs reads it
LINE_MUTATIONS = {
    "same-cell": lambda head, digits, tail: f"{head}{digits}{tail}",
    "leading-zero": lambda head, digits, tail: f"{head}0{digits}{tail}",
    "arabic-indic-digits": lambda head, digits, tail: head + digits.translate(
        str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")) + tail,
    "superscript": lambda head, digits, tail: f"{head}{digits}\u00b2{tail}",  # str.isdigit
    "past-int-string-limit": lambda head, digits, tail: f"{head}{'1' * 5000}{tail}",
    "key-twice": lambda head, digits, tail: f'{head}{digits}, "round_id": 7{tail}',
    "key-twice-same-id": lambda head, digits, tail: f'{head}{digits}, "round_id": {digits}{tail}',
    "negative": lambda head, digits, tail: f"{head}-{digits}{tail}",
    "space": lambda head, digits, tail: f"{head} {digits}{tail}",
    "empty": lambda head, digits, tail: f"{head}{tail}",
    "float": lambda head, digits, tail: f"{head}{digits}.0{tail}",
    "trailing-space": lambda head, digits, tail: f"{head}{digits}{tail} ",
    "trailing-tab": lambda head, digits, tail: f"{head}{digits}{tail}\t",
    "trailing-text": lambda head, digits, tail: f"{head}{digits}{tail}x",
}


class TestCellLookup:
    # a line that is an earlier canonical line but for its round id is
    # read by its cell, without json.loads; any other line as before
    @pytest.mark.parametrize("mutation", sorted(LINE_MUTATIONS))
    @settings(max_examples=30, deadline=None)
    @given(round_logs, st.integers(0, 2**70))
    def test_agrees_with_reference(self, mutation, log, round_id):
        first = serialize.ndjson_line(log)
        head, tail = first[:-1].split(f'"round_id": {log.round_id}', 1)
        line = LINE_MUTATIONS[mutation](f'{head}"round_id": ', str(round_id), tail)
        text = f"{first}{line}\n"
        assert _outcome(serialize.logs_from_ndjson, text) == _reference_outcome(text)

    def test_canonical_line_read_by_its_cell(self):
        cell = (3, 1, 0, 1, 1, bx.SBox(1, 0), bx.SBox(1, 0))
        logs = [bx.RoundLog(i, *cell) for i in (0, 9, 10, 10**30)]
        other = bx.RoundLog(11, 3, 1, 0, 1, 0, bx.SBox(1, 0), bx.SBox(1, 0))
        text = serialize.logs_to_ndjson(logs[:2] + [other] + logs[2:])
        with mock.patch.object(json, "loads", wraps=json.loads) as loads:
            assert serialize.logs_from_ndjson(text) == logs[:2] + [other] + logs[2:]
        lines = text.splitlines()
        assert [c.args[0] for c in loads.call_args_list] == [lines[0], lines[2]]
        # a line whose round id is digits without a leading zero is read by
        # its cell, any other reaches json.loads; each reads as the reference
        key = '"round_id": '
        head, tail = lines[0].split(f"{key}0", 1)
        by_cell = {"same-cell", "past-int-string-limit"}
        for mutation, mutate in LINE_MUTATIONS.items():
            text = f"{lines[0]}\n{mutate(head + key, '12', tail)}"
            with mock.patch.object(json, "loads", wraps=json.loads) as loads:
                outcome = _outcome(serialize.logs_from_ndjson, text)
            assert outcome == _reference_outcome(text), mutation
            assert loads.call_count == (1 if mutation in by_cell else 2), mutation


class TestTargets:
    def test_round_trip(self):
        doc = reload(serialize.target_to_json(CANONICAL))
        assert doc == {"s": "1/4", "t": "1/2"}
        s, t = (serialize.fraction_from_json(doc[key]) for key in "st")
        assert bx.TargetState(s, t) == CANONICAL


class TestReports:
    def test_blind_report_document(self):
        plan = bx.plan_blind_steering(CANONICAL)
        doc = reload(serialize.blind_report_to_json(plan.report))
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "reduction_y0",
            "reduction_y1",
            "alice_marginal",
        }
        assert doc["target"] == {"s": "1/4", "t": "1/2"}
        assert doc["relabeling"] == {"flip_outputs": False, "flip_inputs": False}
        assert set(doc["bob_posterior_supports"]) == {"0,0", "0,1", "1,0", "1,1"}
        for labels in doc["bob_posterior_supports"].values():
            assert len(labels) >= 2

    def test_failed_report_carries_witness(self):
        bad = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 1): F(1)})
        report = bx.verify_blind_steering(bad, CANONICAL)
        doc = reload(serialize.verification_report_to_json(report))
        assert doc["passed"] is False
        failing = [c for c in doc["checks"] if not c["passed"]]
        assert failing and all(c["witness"] for c in failing)

    def test_simulation_report_is_json_safe(self):
        e = bx.plan_blind_steering(CANONICAL).ensemble
        report, logs = bx.run_protocol(e, rounds=300, seed=21)
        doc = reload(serialize.simulation_report_to_json(report))
        assert doc["rounds"] == 300
        assert doc["rng_seed"] == 21
        assert doc["verdict"]["passed"] is True
        # a plain JSON number, rounded to 6 decimals, not a numpy scalar
        log_e = doc["verdict"]["log_e_value"]
        assert type(log_e) is float and log_e == round(report.verdict.log_e_value, 6) < 0

    def test_undrawn_input_pair_is_null(self):
        # the policy never draws (x, y) = (1, 1), so its four cells are null,
        # and the document is strict JSON
        policy = bx.InputPolicy(((F(1, 2), F(1, 4)), (F(1, 4), F(0))))
        e = bx.plan_blind_steering(CANONICAL).ensemble
        report, _ = bx.run_protocol(e, rounds=40, seed=5, policy=policy)
        text = serialize.dumps(serialize.simulation_report_to_json(report))
        joint = json.loads(text, parse_constant=reject_constant)["empirical_joint"]
        assert "[\n          null,\n          null\n        ]" in text
        assert text.count("null") == 4
        for x, y in itertools.product(BITS, BITS):
            cells = [joint[x][y][a][b] for a in BITS for b in BITS]
            if (x, y) == (1, 1):
                assert cells == [None] * 4
            else:
                assert sum(cells) == pytest.approx(1)

    def test_dumps_rejects_nan(self):
        with pytest.raises(ValueError):
            serialize.dumps({"p": math.nan})

    def test_audit_verdict_document(self):
        e = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 0): F(1)})
        _, logs = bx.run_protocol(e, rounds=200, seed=3)
        doc = reload(serialize.audit_verdict_to_json(bx.referee_audit(logs, e)))
        assert doc["passed"] is True
        assert doc["mismatch_count"] == 0
        assert doc["significance"] == 0.001


class TestInputPolicyJson:
    def test_round_trip(self):
        policy = bx.InputPolicy(((F(1, 2), F(0)), (F(1, 4), F(1, 4))))
        doc = reload(serialize.input_policy_to_json(policy))
        assert doc == {"table": [["1/2", "0"], ["1/4", "1/4"]]}
        assert serialize.input_policy_from_json(doc) == policy

    def test_shape_checked(self):
        with pytest.raises(bx.ValidationError):
            serialize.input_policy_from_json({"table": [["1/2", "1/2"]]})


class TestDumps:
    def test_formatting(self):
        text = serialize.dumps({"b": "2", "a": "1"})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert "  " in text
