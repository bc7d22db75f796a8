import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxsteer as bx
from strategies import (
    condition_on_bob,
    det_box,
    ensembles_equal,
    local_boxes,
    perturbed_same_mixture,
    product_box,
    product_decomposition,
    random_local_box,
    random_same_mixture_case,
    round_trips,
)

BITS = (0, 1)
HALF = F(1, 2)


def sbox_ensemble(*pairs):
    return bx.Ensemble(tuple((w, bx.SBox(a, b).as_local_box()) for w, (a, b) in pairs))


UNIFORM_E0 = sbox_ensemble((HALF, (0, 0)), (HALF, (0, 1)))
UNIFORM_E1 = sbox_ensemble((HALF, (1, 0)), (HALF, (1, 1)))

# 16-entry oracle, written out from the parity condition a XOR b = x*y
PR_EMERGENCE_TABLE = tuple(
    tuple(
        tuple(
            tuple(HALF if (a ^ b) == (x & y) else F(0) for b in BITS)
            for a in BITS
        )
        for y in BITS
    )
    for x in BITS
)


class TestConstruction:
    def test_pr_emergence(self):
        state = bx.construct_steering_state([UNIFORM_E0, UNIFORM_E1])
        assert state.box.table == PR_EMERGENCE_TABLE

    def test_singleton_ensembles_give_product(self):
        e = sbox_ensemble((F(1), (0, 0)))
        state = bx.construct_steering_state([e, e])
        constant_bob = bx.LocalBox(((F(1),), (F(1),)))
        assert state.box == product_box(bx.SBox(0, 0).as_local_box(), constant_bob)

    def test_three_member_example(self):
        e0 = sbox_ensemble((F(1, 4), (0, 0)), (HALF, (0, 1)), (F(1, 4), (1, 1)))
        e1 = sbox_ensemble((F(1, 4), (1, 0)), (F(1, 4), (0, 1)), (HALF, (1, 1)))
        state = bx.construct_steering_state([e0, e1])
        assert bx.bob_outcome_distribution(state.box, 0) == (F(1, 4), HALF, F(1, 4))
        assert bx.bob_outcome_distribution(state.box, 1) == (F(1, 4), F(1, 4), HALF)
        marginal = bx.alice_marginal(state.box)
        assert marginal.prob(0, 0) == F(1, 4)
        assert marginal.prob(1, 0) == HALF

    def test_incompatible_mixtures_rejected(self):
        with pytest.raises(bx.IncompatibleEnsemblesError) as err:
            bx.construct_steering_state(
                [UNIFORM_E0, sbox_ensemble((F(1), (0, 0)))]
            )
        assert "mixes to" in str(err.value)

    @pytest.mark.parametrize("width", [2, 40])
    def test_incompatible_message_bounded(self, width):
        # the two mixtures are quoted by their ends, with entries as "1/2",
        # however many inputs they have
        one = bx.Ensemble.from_strategies([(F(1), (0,) * width)], 2)
        halves = bx.Ensemble.from_strategies(
            [(HALF, (0,) * width), (HALF, (1,) * width)], 2
        )
        with pytest.raises(bx.IncompatibleEnsemblesError) as err:
            bx.construct_steering_state([halves, one])
        assert str(err.value).startswith("ensemble 1 mixes to ((1, 0), (1, 0)")
        assert len(str(err.value)) <= 150

    def test_incompatible_mixture_too_long_to_print(self):
        # denominators of 4,000 digits sum to one of 8,000, past the
        # int-string limit: the mixture is named by its shape
        d1, d2 = 10**4000 + 7, 10**4000 + 9
        wide = bx.Ensemble.from_strategies(
            [(F(1, 2 * d1), (0,)), (F(1, 2 * d2), (0,)),
             (F(d1 - 1, 2 * d1), (1,)), (F(d2 - 1, 2 * d2), (1,))],
            2,
        )
        one = bx.Ensemble.from_strategies([(F(1), (0,))], 2)
        with pytest.raises(bx.IncompatibleEnsemblesError) as err:
            bx.construct_steering_state([one, wide])
        assert "mixes to a 1x2 table too long to print, expected ((1, 0))" in str(err.value)

    def test_single_ensemble_rejected(self):
        with pytest.raises(bx.ValidationError):
            bx.construct_steering_state([UNIFORM_E0])

    def test_alphabet_mismatch_rejected(self):
        bigger = bx.Ensemble(((F(1), det_box((0, 0), 3)),))
        with pytest.raises(bx.ValidationError):
            bx.construct_steering_state([UNIFORM_E0, bigger])

    def test_unequal_cardinality_padded(self):
        e0 = UNIFORM_E0
        e1 = sbox_ensemble(
            (F(1, 4), (0, 0)), (F(1, 4), (0, 1)), (F(1, 4), (1, 0)), (F(1, 4), (1, 1))
        )
        assert bx.mix(e1) == bx.mix(e0)
        state = bx.construct_steering_state([e0, e1])
        assert state.box.num_outputs_bob == 4
        # padded outcomes never occur under y=0
        assert bx.bob_outcome_distribution(state.box, 0)[2:] == (F(0), F(0))
        assert bx.is_no_signalling(state.box)
        assert round_trips(state)


class TestSteeredEnsemble:
    def test_pr_state_recovers_inputs(self):
        state = bx.construct_steering_state([UNIFORM_E0, UNIFORM_E1])
        assert ensembles_equal(bx.steered_ensemble(state, 0), UNIFORM_E0)
        assert ensembles_equal(bx.steered_ensemble(state, 1), UNIFORM_E1)

    def test_singleton(self):
        e = sbox_ensemble((F(1), (0, 0)))
        state = bx.construct_steering_state([e, e])
        assert ensembles_equal(bx.steered_ensemble(state, 0), e)

    @pytest.mark.parametrize("y", [0.5, 1.0, True, 2])
    def test_bad_input_rejected(self, y):
        state = bx.construct_steering_state([UNIFORM_E0, UNIFORM_E1])
        with pytest.raises(bx.ValidationError) as raised:
            bx.steered_ensemble(state, y)
        assert str(raised.value) == f"y={y} outside range(0, 2)"


class TestBobIdentifiesConstituent:
    """Bob's outcome names Alice's constituent: conditioning the built box
    on (y, b) leaves her in member b of ensemble y."""

    def test_pr_state_lookup(self):
        state = bx.construct_steering_state([UNIFORM_E0, UNIFORM_E1])
        assert condition_on_bob(state.box, 0, 1) == bx.SBox(0, 1).as_local_box()

    def test_singleton_lookup(self):
        e = sbox_ensemble((F(1), (0, 0)))
        state = bx.construct_steering_state([e, e])
        assert condition_on_bob(state.box, 1, 0) == bx.SBox(0, 0).as_local_box()

    def test_zero_weight_outcome_rejected(self):
        e0 = UNIFORM_E0
        e1 = sbox_ensemble(
            (F(1, 4), (0, 0)), (F(1, 4), (0, 1)), (F(1, 4), (1, 0)), (F(1, 4), (1, 1))
        )
        state = bx.construct_steering_state([e0, e1])
        with pytest.raises(bx.ZeroProbabilityError):
            condition_on_bob(state.box, 0, 2)  # padding slot

    def test_third_member_lookup(self):
        e0 = sbox_ensemble((F(1, 4), (0, 0)), (HALF, (0, 1)), (F(1, 4), (1, 1)))
        e1 = sbox_ensemble((F(1, 4), (1, 0)), (F(1, 4), (0, 1)), (HALF, (1, 1)))
        state = bx.construct_steering_state([e0, e1])
        assert condition_on_bob(state.box, 1, 2) == bx.SBox(1, 1).as_local_box()


class TestObligations:
    def test_all_three_pass_on_construction(self):
        state = bx.construct_steering_state([UNIFORM_E0, UNIFORM_E1])
        report = bx.verify_steering_state(state)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "mixture_consistency",
            "no_signalling",
            "conditioning",
        ]

    def test_conditioning_check_catches_wrong_box(self):
        state = bx.construct_steering_state([UNIFORM_E0, UNIFORM_E1])
        # swap Bob's outcome labels: still a valid NS box, wrong constituents
        swapped = bx.BipartiteBox(
            tuple(
                tuple(
                    tuple(tuple(row[::-1]) for row in block_a)
                    for block_a in block_y
                )
                for block_y in state.box.table
            )
        )
        tampered = bx.SteeringState(box=swapped, source_ensembles=state.source_ensembles)
        report = bx.verify_steering_state(tampered)
        assert not report.passed
        assert not report.check("conditioning").passed
        assert report.check("conditioning").witness


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_same_mixture_cases_succeed(rng):
    k = rng.choice([2, 3])
    ensembles = random_same_mixture_case(rng, k, rng.choice([2, 3]), rng.choice([2, 3]))
    state = bx.construct_steering_state(ensembles)
    assert bx.verify_steering_state(state).passed
    assert round_trips(state)
    assert state.box.num_outputs_bob == max(e.cardinality for e in ensembles)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), local_boxes(2, 2), local_boxes(2, 2))
def test_distinct_mixtures_rejected(rng, first, second):
    if bx.mix(product_decomposition(first)) == bx.mix(product_decomposition(second)):
        return
    with pytest.raises(bx.IncompatibleEnsemblesError):
        bx.construct_steering_state(
            [product_decomposition(first), product_decomposition(second)]
        )


def test_full_decomposition_needs_all_outputs():
    # with every strategy present, Bob's outcome count is the strategy count
    rng = random.Random(11)
    box = random_local_box(rng, 2, 2)
    while any(box.prob(x, a) == 0 for x in range(2) for a in range(2)):
        box = random_local_box(rng, 2, 2)
    full = product_decomposition(box)
    assert full.cardinality == 4
    other = perturbed_same_mixture(rng, full)
    state = bx.construct_steering_state([full, other])
    assert state.box.num_outputs_bob == 4


def test_remote_case_mixes_once_and_builds_tables_on_request(monkeypatch):
    rng = random.Random(5)
    # fresh ensembles, so that no mixture is cached before counting
    ensembles = [
        bx.Ensemble.from_strategies(e.strategies, e.num_outputs)
        for e in random_same_mixture_case(rng, 3, 3, 3)
    ]
    mixed = []
    local_boxes_built = []
    mixture = bx.Ensemble._mixture.func
    validate = bx.LocalBox.__post_init__

    def counted_mixture(ensemble):
        mixed.append(ensemble)
        return mixture(ensemble)

    def counted_local_box(box):
        local_boxes_built.append(box)
        validate(box)

    monkeypatch.setattr(bx.Ensemble._mixture, "func", counted_mixture)
    monkeypatch.setattr(bx.LocalBox, "__post_init__", counted_local_box)
    state = bx.construct_steering_state(ensembles)
    assert bx.verify_steering_state(state).passed
    # each source ensemble is mixed once; its mixture is the one table built
    assert sorted(map(id, mixed)) == sorted(map(id, ensembles))
    assert len(local_boxes_built) == len(ensembles)

    mixed.clear()
    local_boxes_built.clear()
    steered = [bx.steered_ensemble(state, y) for y in range(3)]
    assert (mixed, local_boxes_built) == ([], [])
    assert all(ensembles_equal(s, e) for s, e in zip(steered, ensembles))
    assert (mixed, local_boxes_built) == ([], [])
    members = steered[0].members
    assert len(local_boxes_built) == steered[0].cardinality == len(members)
    assert steered[0].members is members
