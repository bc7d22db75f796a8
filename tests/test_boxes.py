import itertools
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxsteer as bx
from strategies import (
    all_strategies,
    condition_on_bob,
    det_box,
    local_boxes,
    nonlocal_ensembles,
    pr_bipartite_box,
    product_box,
    weight_vectors,
)

BITS = (0, 1)
Q, H = F(1, 4), F(1, 2)
ROW2 = [[[Q, Q], [Q, Q]], [[Q, Q], [Q, Q]]]  # a valid x block: two (y) uniform blocks


class TestAsProb:
    def test_accepts_fraction_int_str(self):
        assert bx.as_prob(F(3, 4)) == F(3, 4)
        assert bx.as_prob(1) == F(1)
        assert bx.as_prob("2/5") == F(2, 5)

    def test_rejects_floats(self):
        with pytest.raises(bx.ValidationError):
            bx.as_prob(0.5)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bools(self, flag):
        # the rule of every index: an int, never a bool
        with pytest.raises(bx.ValidationError, match=f"cannot interpret {flag}"):
            bx.as_prob(flag)

    @pytest.mark.parametrize(
        "bad", [F(-1, 2), F(3, 2), -1, 2, "7/5", F(10**5000), F(-1, 10**5000)]
    )
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(bx.ValidationError):
            bx.as_prob(bad)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: bx.as_prob("x" * 3000),
            lambda: bx.as_prob(["1/2"] * 3000),
            lambda: bx.TargetState("x" * 3000, "1/2"),
            lambda: bx.LocalBox([[b"1" * 3000, 0]]),
            lambda: bx.as_prob([10**5000]),
        ],
    )
    def test_long_value_quoted_by_its_ends(self, build):
        # "not a rational literal" and "cannot interpret" clip the value,
        # and name one holding an int too long to print by its type
        with pytest.raises(bx.ValidationError) as caught:
            build()
        assert len(str(caught.value)) <= 80


class TestLocalBox:
    def test_row_normalization_enforced(self):
        with pytest.raises(bx.ValidationError):
            bx.LocalBox(((F(1, 2), F(1, 4)),))

    def test_float_entries_rejected(self):
        with pytest.raises(bx.ValidationError):
            bx.LocalBox(((0.5, 0.5),))

    def test_bool_entries_rejected(self):
        with pytest.raises(bx.ValidationError):
            bx.LocalBox([[True, False]])

    def test_prob_and_shape(self):
        box = bx.LocalBox(((F(1, 4), F(3, 4)), (F(1), F(0))))
        assert (box.num_inputs, box.num_outputs) == (2, 2)
        assert box.prob(0, 1) == F(3, 4)

    def test_string_entries_coerced(self):
        box = bx.LocalBox((("1/4", "3/4"),))
        assert box.prob(0, 0) == F(1, 4)

    @pytest.mark.parametrize("table, message", [
        ((), "local box table must be non-empty"),
        (((H, H), (F(1),)), "every input row must list the same outcomes"),
    ], ids=["empty", "unequal-rows"])
    def test_shape_rejected(self, table, message):
        with pytest.raises(bx.ValidationError) as raised:
            bx.LocalBox(table)
        assert str(raised.value) == message


class TestDetBoxes:
    # a deterministic box is its strategy (f(0), f(1), ...); ensembles
    # hold strategies and write out 0/1 tables only on request

    @pytest.mark.parametrize("X,A,count", [(2, 2, 4), (1, 3, 3), (3, 2, 8)])
    def test_enumeration_count(self, X, A, count):
        everything = bx.Ensemble.from_strategies(
            [(F(1, count), s) for s in all_strategies(X, A)], A
        )
        assert everything.cardinality == count
        uniform = bx.LocalBox(tuple((F(1, A),) * A for _ in range(X)))
        assert bx.mix(everything) == uniform

    def test_enumeration_distinct_and_01(self):
        tables = {bx.boxes.deterministic_table(s, 3) for s in all_strategies(3, 3)}
        assert len(tables) == 27
        for table in tables:
            assert all(p in (0, 1) for row in table for p in row)
            assert bx.LocalBox(table).table == table

    def test_lexicographic_order(self):
        strategies = all_strategies(2, 3)
        members = tuple((F(1, 9), det_box(s, 3)) for s in strategies)
        kept = [s for _, s in bx.Ensemble(members).strategies]
        assert kept == strategies == sorted(strategies)
        assert strategies[0] == (0, 0)
        assert strategies[-1] == (2, 2)

    @pytest.mark.parametrize(
        "strategy", [(0.7, 1.2), (0, 1.0), ("1", 0), (True, 0), (0, False)]
    )
    def test_non_integer_strategy_rejected(self, strategy):
        # no truncation: (0.7, 1.2) must not become (0, 1)
        with pytest.raises(bx.ValidationError):
            bx.Ensemble.from_strategies(((F(1), strategy),), 2)

    @pytest.mark.parametrize("num_outputs", [2.5, 2.0, "2", True, 0])
    def test_non_integer_alphabet_rejected(self, num_outputs):
        with pytest.raises(bx.ValidationError):
            bx.Ensemble.from_strategies(((F(1), (0, 1)),), num_outputs)


class TestSBox:
    # a = alpha*x XOR beta, tabulated for all four boxes
    @pytest.mark.parametrize(
        "alpha,beta,outputs",
        [(0, 0, (0, 0)), (0, 1, (1, 1)), (1, 0, (0, 1)), (1, 1, (1, 0))],
    )
    def test_output_table(self, alpha, beta, outputs):
        sbox = bx.SBox(alpha, beta)
        assert (sbox.output(0), sbox.output(1)) == outputs
        assert sbox.index == 2 * alpha + beta
        assert sbox.label == f"S{alpha}{beta}"

    def test_round_trip_through_local_box(self):
        # the box's 0/1 rows read back as the S box's outputs
        for alpha, beta in itertools.product(BITS, BITS):
            sbox = bx.SBox(alpha, beta)
            table = sbox.as_local_box().table
            assert all(sorted(row) == [0, 1] for row in table)
            assert tuple(row.index(1) for row in table) == (sbox.output(0), sbox.output(1))

    def test_bad_bits_rejected(self):
        with pytest.raises(bx.ValidationError):
            bx.SBox(2, 0)

    @pytest.mark.parametrize(
        "alpha,beta,message",
        [
            (2, 0, "alpha=2"),
            (1.0, 0, "alpha=1.0"),
            (0, True, "beta=True"),
            (0, -1, "beta=-1"),
        ],
    )
    def test_bits_are_ints(self, alpha, beta, message):
        # a bit is an int, never a bool or a float: no coercion to SBox(1, 0)
        with pytest.raises(bx.ValidationError) as raised:
            bx.SBox(alpha, beta)
        assert str(raised.value) == f"{message} outside range(0, 2)"

    @pytest.mark.parametrize("x", [1.0, True, 2, "1"])
    def test_output_needs_a_bit(self, x):
        with pytest.raises(bx.ValidationError) as raised:
            bx.SBox(0, 1).output(x)
        assert str(raised.value) == f"x={x!r} outside range(0, 2)"


def signalling_box():
    # p(ab|xy) = [a=y][b=0]: Alice's marginal tracks Bob's input
    table = tuple(
        tuple(
            tuple(
                tuple(F(1) if (a == y and b == 0) else F(0) for b in BITS)
                for a in BITS
            )
            for y in BITS
        )
        for x in BITS
    )
    return bx.BipartiteBox(table)


class TestBipartiteBox:
    def test_normalization_enforced(self):
        bad = tuple(
            tuple(
                tuple(tuple(F(1, 2) for _ in BITS) for _ in BITS) for _ in BITS
            )
            for _ in BITS
        )
        with pytest.raises(bx.ValidationError):
            bx.BipartiteBox(bad)

    def test_signalling_table_constructs_but_flagged(self):
        box = signalling_box()
        assert not bx.is_no_signalling(box)
        assert bx.no_signalling_violations(box)

    def test_shape(self):
        box = pr_bipartite_box(bx.PRBox(0, 0, 0))
        assert box.shape == (2, 2, 2, 2)

    # tables with several faults get the message of the first check they
    # fail: entries coerced in (x, y, a, b) order, then non-empty, then per
    # x the y dimension and per (x, y) the outcome dimensions and the sum
    @pytest.mark.parametrize("table, message", [
        pytest.param([[[[Q, Q], [Q]], [[Q, Q], [Q, Q]]], [[[Q, Q], [Q, 0.25]], ROW2]],
                     "got float 0.25", id="float-after-ragged-row"),
        pytest.param([[[[Q, Q], [Q, Q]], [[Q, Q], [Q, Q]]], [[[Q, True], [H, H]], ROW2]],
                     "cannot interpret True", id="bool-and-bad-sum"),
        pytest.param([[[[H, H], [Q, Q]], [[Q, Q], [Q]]], ROW2],
                     r"entries for \(x=0, y=0\) sum to 3/2", id="bad-sum-before-ragged-row"),
        pytest.param([[[[Q, Q], [Q]], [[H, H], [Q, Q]]], ROW2],
                     "ragged table: outcome dimensions vary", id="ragged-row-before-bad-sum"),
        pytest.param([[[[H, H], [Q, Q]]], ROW2],
                     r"entries for \(x=0, y=0\) sum to 3/2", id="bad-sum-before-ragged-y"),
        pytest.param([[[[Q, Q], [Q, Q]]], [[[Q, Q], [Q]], [[H], [F(1, 2**130 + 1) + 1]]]],
                     r"^probability 1361129467683753853853498429727072845826\.\.\.7072845825 "
                     r"outside \[0, 1\]$", id="long-fraction-above-1-after-ragged"),
        pytest.param([[[[Q, Q], [Q, Q]], 7], [[[H, H], [H, H]], [[0.5]]]],
                     "nested sequences", id="non-sequence-row-before-float"),
        pytest.param([[[[Q, Q], [Q, 0.5]], 7], ROW2],
                     "got float 0.5", id="float-before-non-sequence-row"),
        pytest.param([[], [[[Q, Q], [Q]]]], "non-empty", id="empty-y-block-before-ragged"),
        pytest.param([ROW2, ROW2[:1]], "^ragged table: y dimension varies with x$",
                     id="ragged-y"),
    ])
    def test_first_fault_named(self, table, message):
        with pytest.raises(bx.ValidationError, match=message):
            bx.BipartiteBox(table)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_lattice_is_numerators_over_lcm(self, data):
        # computed while validating: D is the lcm of every entry's
        # denominator, and each numerator is the entry times D
        X, Y, A, B = (data.draw(st.integers(1, 3)) for _ in range(4))
        rows = [data.draw(weight_vectors(A * B)) for _ in range(X * Y)]
        table = [
            [[rows[x * Y + y][a * B:(a + 1) * B] for a in range(A)] for y in range(Y)]
            for x in range(X)
        ]
        box = bx.BipartiteBox(table)
        keys = list(itertools.product(range(X), range(Y), range(A), range(B)))
        den = math.lcm(*(box.prob(*key).denominator for key in keys))
        numerators = tuple(
            tuple(
                tuple(tuple(int(box.prob(x, y, a, b) * den) for b in range(B))
                      for a in range(A))
                for y in range(Y)
            )
            for x in range(X)
        )
        assert (box.den, box.numerators) == (den, numerators)


PR000_TABLE = {
    # (x, y, a, b) -> prob; 1/2 on a XOR b = x*y, 0 elsewhere
    (x, y, a, b): (F(1, 2) if (a ^ b) == (x & y) else F(0))
    for x in BITS
    for y in BITS
    for a in BITS
    for b in BITS
}


def mixed_pr_box(alpha: int, beta: int, delta: int) -> bx.BipartiteBox:
    """The PR box as the library writes it: a one-member ensemble's mix,
    read off the box's ``cells``."""
    ensemble = bx.NonlocalEnsemble.from_weights(prs={(alpha, beta, delta): 1})
    return bx.mix_nonlocal(ensemble)


class TestPRBox:
    def test_pr000_table_oracle(self):
        box = mixed_pr_box(0, 0, 0)
        assert box == pr_bipartite_box(bx.PRBox(0, 0, 0))
        for key, expected in PR000_TABLE.items():
            assert box.prob(*key) == expected

    def test_all_eight_no_signalling_and_distinct(self):
        tables = set()
        for alpha, beta, delta in itertools.product(BITS, BITS, BITS):
            box = pr_bipartite_box(bx.PRBox(alpha, beta, delta))
            assert bx.is_no_signalling(box)
            tables.add(box.table)
        assert len(tables) == 8

    def test_marginals_uniform(self):
        uniform = bx.LocalBox(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
        for alpha, beta, delta in itertools.product(BITS, BITS, BITS):
            box = pr_bipartite_box(bx.PRBox(alpha, beta, delta))
            assert bx.alice_marginal(box) == uniform
            for y in BITS:
                assert bx.bob_outcome_distribution(box, y) == (F(1, 2), F(1, 2))

    def test_parity_relation(self):
        pr = bx.PRBox(1, 0, 1)
        box = mixed_pr_box(1, 0, 1)
        for x, y, a, b in itertools.product(BITS, BITS, BITS, BITS):
            supported = (a ^ b) == pr.parity(x, y)
            assert (box.prob(x, y, a, b) > 0) == supported

    @pytest.mark.parametrize(
        "abd,message",
        [
            ((0.0, 1, 0), "alpha=0.0"),
            ((0, True, 0), "beta=True"),
            ((0, 0, 2), "delta=2"),
        ],
    )
    def test_bad_bits_rejected(self, abd, message):
        with pytest.raises(bx.ValidationError) as raised:
            bx.PRBox(*abd)
        assert str(raised.value) == f"{message} outside range(0, 2)"

    @pytest.mark.parametrize(
        "x,y,message",
        [(2, 0, "x=2"), (0, 3, "y=3"), (1.0, 0, "x=1.0"), (0, False, "y=False")],
    )
    def test_parity_needs_bits(self, x, y, message):
        # (2 XOR 0) & (0 XOR 0) would otherwise read as parity 0
        with pytest.raises(bx.ValidationError) as raised:
            bx.PRBox(0, 0, 0).parity(x, y)
        assert str(raised.value) == f"{message} outside range(0, 2)"


class TestProductBox:
    def test_products_cannot_signal(self):
        for alice, bob in itertools.product(all_strategies(2, 2), repeat=2):
            box = product_box(det_box(alice, 2), det_box(bob, 2))
            assert bx.is_no_signalling(box)

    def test_alice_marginal_of_product(self):
        box = product_box(
            bx.SBox(0, 1).as_local_box(), bx.SBox(1, 0).as_local_box()
        )
        assert bx.alice_marginal(box) == bx.SBox(0, 1).as_local_box()

    def test_bob_distribution_point_mass(self):
        for k, l in itertools.product(BITS, BITS):
            box = product_box(
                bx.SBox(0, 0).as_local_box(), bx.SBox(k, l).as_local_box()
            )
            for y in BITS:
                expected = tuple(
                    F(1) if b == ((k * y) ^ l) else F(0) for b in BITS
                )
                assert bx.bob_outcome_distribution(box, y) == expected

    def test_conditioning_ignores_bob(self):
        alice = bx.SBox(1, 1).as_local_box()
        box = product_box(alice, bx.LocalBox(((F(1, 3), F(2, 3)), (F(1), F(0)))))
        assert condition_on_bob(box, 0, 0) == alice
        assert condition_on_bob(box, 0, 1) == alice


class TestMarginalsAndConditioning:
    def test_pr000_conditional_is_input_echo(self):
        box = pr_bipartite_box(bx.PRBox(0, 0, 0))
        assert condition_on_bob(box, 1, 0) == bx.SBox(1, 0).as_local_box()

    def test_zero_probability_outcome_rejected(self):
        box = product_box(
            bx.SBox(0, 0).as_local_box(), bx.SBox(0, 0).as_local_box()
        )
        with pytest.raises(bx.ZeroProbabilityError):
            condition_on_bob(box, 0, 1)

    def test_signalling_input_rejected(self):
        box = signalling_box()
        with pytest.raises(bx.SignallingError):
            bx.alice_marginal(box)
        with pytest.raises(bx.SignallingError):
            condition_on_bob(box, 0, 0)

    @pytest.mark.parametrize(
        "y,b,message",
        [
            (0.5, 0, "y=0.5"),
            (1.0, 0, "y=1.0"),
            (True, 0, "y=True"),
            (0, 1.0, "b=1.0"),
            (0, False, "b=False"),
            (2, 0, "y=2"),
            (0, -1, "b=-1"),
            ("0", 0, "y='0'"),  # the value's repr: not read as the index 0
        ],
    )
    def test_bad_indices_rejected(self, y, b, message):
        # an index is an int, never a bool, inside the box's range
        box = pr_bipartite_box(bx.PRBox(0, 0, 0))
        with pytest.raises(bx.ValidationError) as raised:
            condition_on_bob(box, y, b)
        assert str(raised.value) == f"{message} outside range(0, 2)"
        if message.startswith("y"):
            with pytest.raises(bx.ValidationError) as raised:
                bx.bob_outcome_distribution(box, y)
            assert str(raised.value) == f"{message} outside range(0, 2)"

    @settings(max_examples=60, deadline=None)
    @given(nonlocal_ensembles())
    def test_conditionals_average_to_marginal(self, ensemble):
        box = bx.mix_nonlocal(ensemble)
        marginal = bx.alice_marginal(box)
        for y in BITS:
            dist = bx.bob_outcome_distribution(box, y)
            for x in BITS:
                for a in BITS:
                    total = sum(
                        dist[b] * condition_on_bob(box, y, b).prob(x, a)
                        for b in BITS
                        if dist[b] > 0
                    )
                    assert total == marginal.prob(x, a)

    @settings(max_examples=40, deadline=None)
    @given(local_boxes(2, 2), local_boxes(2, 3))
    def test_product_boxes_always_ns(self, alice, bob):
        assert bx.is_no_signalling(product_box(alice, bob))

    @settings(max_examples=30, deadline=None)
    @given(weight_vectors(4))
    def test_weight_vectors_are_distributions(self, weights):
        assert sum(weights) == 1
        assert all(w >= 0 for w in weights)


# Each literal reads (its denominator has at most 2,863 digits), but the
# lcm of the three has 8,195, more than an int may print by default.
LONG = (F(1, 3**6000), F(1, 5**4000), F(1, 7**3000))
QUARTERS = ((F(1, 4),) * 2,) * 2


def long_signalling_box(y_long: int = 0) -> bx.BipartiteBox:
    """Alice's p(a=0|x=0) is 1/3**6000 + 1/5**4000 at y = ``y_long`` and
    1/2 at the other y: a signalling box whose two marginals cannot be
    printed.  Bob's marginals are 1/2 throughout."""
    (l3, l5, _) = LONG
    long = ((l3, l5), (F(1, 2) - l3, F(1, 2) - l5))
    row = (long, QUARTERS) if y_long == 0 else (QUARTERS, long)
    return bx.BipartiteBox((row, (QUARTERS, QUARTERS)))


class TestUnprintableTotals:
    """A total past the int-string limit prints as ``(too long to print)``;
    each case names the side of 1 its total is on, which no message prints."""

    @pytest.mark.parametrize(
        "build,case",
        [
            (lambda: bx.LocalBox([[*LONG, F(1, 2)]]), "row x=0 sums to below 1"),
            (lambda: bx.LocalBox([[*LONG, F(1)]]), "row x=0 sums to above 1"),
            (
                lambda: bx.BipartiteBox(
                    (((LONG[:2], (LONG[2], F(1, 2))), QUARTERS), (QUARTERS, QUARTERS))
                ),
                r"entries for \(x=0, y=0\) sum to below 1",
            ),
            (
                lambda: bx.Ensemble.from_strategies([(w, (0,)) for w in LONG], 1),
                "ensemble weights sum to below 1",
            ),
            (
                lambda: bx.NonlocalEnsemble.from_weights(
                    {((0, 0), (0, 0)): LONG[1], ((0, 1), (0, 0)): LONG[2]},
                    {(0, 0, 0): F(1) - LONG[0]},
                ),
                "member weights sum to above 1",
            ),
            (
                lambda: bx.InputPolicy(((LONG[0], LONG[1]), (LONG[2], F(1, 2)))),
                "input policy sums to below 1",
            ),
        ],
    )
    def test_bad_sum(self, build, case):
        what = re.fullmatch(r"(.*) (?:below|above) 1", case)[1]
        with pytest.raises(bx.ValidationError,
                           match=rf"^{what} \(too long to print\), expected 1$"):
            build()

    def test_signalling_scan(self):
        long = "(too long to print)"
        assert bx.no_signalling_violations(long_signalling_box()) == [
            f"Alice marginal p(a=0|x=0) depends on Bob's input: y=0: {long}, y=1: 1/2",
            f"Alice marginal p(a=1|x=0) depends on Bob's input: y=0: {long}, y=1: 1/2",
        ]
        assert bx.no_signalling_violations(long_signalling_box(y_long=1)) == [
            f"Alice marginal p(a=0|x=0) depends on Bob's input: y=0: 1/2, y=1: {long}",
            f"Alice marginal p(a=1|x=0) depends on Bob's input: y=0: 1/2, y=1: {long}",
        ]

    def test_signalling_error(self):
        with pytest.raises(bx.SignallingError) as raised:
            bx.decompose(long_signalling_box())
        assert str(raised.value) == (
            "decompose needs a no-signalling box: "
            "Alice marginal p(a=0|x=0) depends on Bob's input: y=0: (too long to print), "
            "y=1: 1/2; Alice marginal p(a=1|x=0) depends on Bob's input: "
            "y=0: (too long to print), y=1: 1/2"
        )
