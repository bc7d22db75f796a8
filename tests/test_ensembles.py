import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import boxsteer as bx
from strategies import (
    catalog_ensembles,
    closed_form_reduction,
    condition_on_bob,
    det_box,
    ensemble_weight_map,
    ensembles_equal,
    local_boxes,
    member_box,
    nonlocal_ensembles,
    pr_bipartite_box,
    product_decomposition,
    random_blind_split,
    realizes,
)

BITS = (0, 1)
HALF = F(1, 2)


def sbox_ensemble(*pairs):
    return bx.Ensemble(tuple((w, bx.SBox(a, b).as_local_box()) for w, (a, b) in pairs))


def weights_ensemble(weights):
    """The single-party ensemble of a ``{SBox: weight}`` reduction."""
    return bx.Ensemble(tuple((w, sbox.as_local_box()) for sbox, w in weights.items()))


UNIFORM = bx.LocalBox(((HALF, HALF), (HALF, HALF)))


class TestEnsembleConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(bx.ValidationError):
            sbox_ensemble((HALF, (0, 0)), (F(1, 4), (0, 1)))

    def test_nondeterministic_member_rejected(self):
        with pytest.raises(bx.ValidationError):
            bx.Ensemble(((F(1), UNIFORM),))

    def test_alphabet_mismatch_rejected(self):
        three = det_box((0, 1), 3)
        with pytest.raises(bx.ValidationError):
            bx.Ensemble(((HALF, bx.SBox(0, 0).as_local_box()), (HALF, three)))

    def test_boxes_read_into_strategies(self):
        from_boxes = bx.Ensemble(
            ((F(1, 4), det_box((0, 2), 3)), (F(3, 4), det_box((1, 1), 3)))
        )
        assert from_boxes.strategies == ((F(1, 4), (0, 2)), (F(3, 4), (1, 1)))
        assert (from_boxes.num_inputs, from_boxes.num_outputs) == (2, 3)
        assert from_boxes == bx.Ensemble.from_strategies(from_boxes.strategies, 3)
        assert from_boxes.members == (
            (F(1, 4), det_box((0, 2), 3)),
            (F(3, 4), det_box((1, 1), 3)),
        )

    @pytest.mark.parametrize(
        "pairs",
        [
            ((F(1),),),
            (F(1),),
            ((F(1), 0),),
            ((HALF, (0, 1)), (HALF, (0,))),
            ((F(1), ()),),
        ],
    )
    def test_malformed_strategy_pairs_rejected(self, pairs):
        with pytest.raises(bx.ValidationError):
            bx.Ensemble.from_strategies(pairs, 2)

    @pytest.mark.parametrize(
        "strategy,message",
        [((0, 2), "f[1]=2"), ((True, 0), "f[0]=True"), ((0, 1.0), "f[1]=1.0")],
    )
    def test_strategy_value_named_by_field(self, strategy, message):
        with pytest.raises(bx.ValidationError) as raised:
            bx.Ensemble.from_strategies(((F(1), strategy),), 2)
        assert str(raised.value) == f"{message} outside range(0, 2)"

    @pytest.mark.parametrize(
        "outputs", [sys.maxsize + 1, int("9" * 4300)], ids=["maxsize+1", "4300-nines"]
    )
    def test_alphabet_past_any_table_rejected(self, outputs):
        # the mixture has a row of num_outputs cells: past sys.maxsize no
        # list is that long, so the ensemble is refused when it is built
        with pytest.raises(bx.ValidationError, match="is too many for a table"):
            bx.Ensemble.from_strategies(((F(1), (0, 1)),), outputs)

    def test_duplicates_merged_and_zeros_dropped(self):
        e = sbox_ensemble((HALF, (0, 0)), (HALF, (0, 0)), (F(0), (1, 1)))
        assert e.cardinality == 1
        assert e.strategies == ((F(1), (0, 0)),)
        assert e.members == ((F(1), bx.SBox(0, 0).as_local_box()),)


class TestMix:
    def test_uniform_from_constant_boxes(self):
        e = sbox_ensemble((HALF, (0, 0)), (HALF, (0, 1)))
        assert bx.mix(e) == UNIFORM

    def test_singleton(self):
        e = sbox_ensemble((F(1), (1, 0)))
        assert bx.mix(e) == bx.SBox(1, 0).as_local_box()

    def test_three_member_mixture(self):
        e = sbox_ensemble((F(1, 4), (0, 0)), (HALF, (0, 1)), (F(1, 4), (1, 1)))
        mixed = bx.mix(e)
        assert mixed.prob(0, 0) == F(1, 4)
        assert mixed.prob(1, 0) == HALF


class TestRealizes:
    def test_uniform_realization(self):
        e = sbox_ensemble((HALF, (0, 0)), (HALF, (0, 1)))
        assert realizes(e, UNIFORM)

    def test_singleton_does_not_realize_uniform(self):
        assert not realizes(sbox_ensemble((F(1), (0, 0))), UNIFORM)

    def test_shape_mismatch_rejected(self):
        e = bx.Ensemble(((F(1), det_box((0,), 2)),))
        with pytest.raises(bx.ValidationError):
            realizes(e, UNIFORM)

    @settings(max_examples=50, deadline=None)
    @given(local_boxes(2, 3))
    def test_product_decomposition_realizes(self, box):
        assert realizes(product_decomposition(box), box)


class TestEnsemblesEqual:
    def test_merge_insensitive(self):
        a = sbox_ensemble((F(1), (0, 0)))
        b = sbox_ensemble((HALF, (0, 0)), (HALF, (0, 0)))
        assert ensembles_equal(a, b)

    def test_permutation_insensitive(self):
        a = sbox_ensemble((F(1, 4), (0, 0)), (F(3, 4), (1, 1)))
        b = sbox_ensemble((F(3, 4), (1, 1)), (F(1, 4), (0, 0)))
        assert ensembles_equal(a, b)

    def test_triangle_pair_differs(self):
        upper = bx.upper_triangle_weights(bx.TargetState(F(1, 4), F(1, 2)))
        lower = bx.lower_triangle_weights(bx.TargetState(F(1, 4), F(1, 2)))
        to_ensemble = lambda ws: bx.Ensemble(
            tuple((w, s.as_local_box()) for s, w in ws.items() if w != 0)
        )
        assert not ensembles_equal(to_ensemble(upper), to_ensemble(lower))


class TestNonlocalEnsemble:
    def test_from_weights(self):
        e = bx.NonlocalEnsemble.from_weights(
            products={((0, 1), (0, 0)): F(1, 4), ((1, 1), (0, 0)): F(1, 4)},
            prs={(0, 0, 0): HALF},
        )
        assert e.product_totals() == {(0, 1): F(1, 4), (1, 1): F(1, 4)}
        assert e.pr_totals() == {0: HALF}
        assert len(e.members) == 3

    def test_normalization_enforced(self):
        with pytest.raises(bx.ValidationError):
            bx.NonlocalEnsemble.from_weights(prs={(0, 0, 0): HALF})

    def test_member_lookup_bounds(self):
        e = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 0): F(1)})
        assert isinstance(e.member(0), bx.PRMember)
        with pytest.raises(bx.ValidationError):
            e.member(1)

    @pytest.mark.parametrize("member_id", [1.0, 0.0, False, -1, 1])
    def test_member_lookup_needs_an_int(self, member_id):
        e = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 0): F(1)})
        with pytest.raises(bx.ValidationError) as raised:
            e.member(member_id)
        assert str(raised.value) == f"member_id={member_id} outside range(0, 1)"


class TestMixNonlocal:
    def test_singleton_pr(self):
        e = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 0): F(1)})
        assert bx.mix_nonlocal(e) == pr_bipartite_box(bx.PRBox(0, 0, 0))

    def test_equal_pr_mixture_is_maximally_mixed(self):
        e = bx.NonlocalEnsemble.from_weights(
            prs={
                (a, b, d): F(1, 8)
                for a in BITS
                for b in BITS
                for d in BITS
            }
        )
        box = bx.mix_nonlocal(e)
        for x in BITS:
            for y in BITS:
                for a in BITS:
                    for b in BITS:
                        assert box.prob(x, y, a, b) == F(1, 4)

    def test_blind_ensemble_marginal(self):
        plan = bx.plan_blind_steering(bx.TargetState(F(1, 4), F(1, 2)))
        box = bx.mix_nonlocal(plan.ensemble)
        assert bx.is_no_signalling(box)
        marginal = bx.alice_marginal(box)
        assert marginal.prob(0, 0) == F(1, 4)
        assert marginal.prob(1, 0) == HALF


class TestVertexCells:
    @pytest.mark.parametrize(
        "ensemble", catalog_ensembles(), ids=lambda e: e.members[0].label
    )
    def test_cells_row_and_mix_match_written_table(self, ensemble):
        # every reader of ``cells`` against the table written in the
        # tests, on all four (x, y): the round table's row on (x, y)
        # holds the outcomes the table allows, each with Alice's
        # conditional box as its constituent
        member = ensemble.members[0]
        box = member_box(member)
        table = box.table
        mixed = bx.mix_nonlocal(ensemble)
        pairs = list(itertools.product(BITS, BITS))
        (rows,) = ensemble._round_table
        for (x, y), row in zip(pairs, rows):
            allowed = tuple((a, b) for a, b in pairs if table[x][y][a][b])
            assert member.cells(x, y) == allowed
            assert [entry[:4] for entry in row] == [(x, y, a, b) for a, b in allowed]
            for _, _, _, b, constituent in row:
                assert constituent.as_local_box() == condition_on_bob(box, y, b)
            assert mixed.table[x][y] == table[x][y]


class TestConstituentAfterMeasurement:
    def test_product_member_keeps_alice_factor(self):
        m = bx.ProductMember(F(1), bx.SBox(0, 1), bx.SBox(0, 0))
        for y in BITS:
            for b in BITS:
                assert bx.constituent_after_measurement(m, y, b) == bx.SBox(0, 1)

    @pytest.mark.parametrize(
        "abd,y,b,expected",
        [
            ((0, 0, 0), 0, 0, (0, 0)),
            ((0, 0, 0), 0, 1, (0, 1)),
            ((0, 0, 0), 1, 0, (1, 0)),
            ((0, 0, 0), 1, 1, (1, 1)),
            ((1, 0, 1), 1, 0, (1, 0)),  # slope y, intercept alpha*y^delta^b
        ],
    )
    def test_pr_member_parity_rule(self, abd, y, b, expected):
        m = bx.PRMember(F(1), bx.PRBox(*abd))
        assert bx.constituent_after_measurement(m, y, b) == bx.SBox(*expected)

    @pytest.mark.parametrize(
        "pr,y,b,message",
        [
            (True, 0.5, 0, "y=0.5"),
            (True, 0, 2, "b=2"),
            (False, 5, 7, "y=5"),
            (False, 0, True, "b=True"),
        ],
    )
    def test_non_bits_rejected(self, pr, y, b, message):
        # checked for both member kinds, before any parameter is read
        m = (
            bx.PRMember(F(1), bx.PRBox(0, 0, 0))
            if pr
            else bx.ProductMember(F(1), bx.SBox(0, 1), bx.SBox(0, 0))
        )
        with pytest.raises(bx.ValidationError) as raised:
            bx.constituent_after_measurement(m, y, b)
        assert str(raised.value) == f"{message} outside range(0, 2)"

    def test_matches_table_conditioning(self):
        # the route through ``cells`` equals the conditioning route on all
        # 24 vertices, at every (y, b) Bob can see: all four for a PR box
        vertices = [
            bx.ProductMember(F(1), alice, bob) for alice, bob in bx.catalog_products()
        ] + [bx.PRMember(F(1), pr) for pr in bx.catalog_prs()]
        checked = 0
        for m in vertices:
            box = member_box(m)
            for y in BITS:
                for outcome in BITS:
                    if bx.bob_outcome_distribution(box, y)[outcome] == 0:
                        continue
                    conditioned = condition_on_bob(box, y, outcome)
                    assert (
                        bx.constituent_after_measurement(m, y, outcome)
                        == bx.SBox.from_local_box(conditioned)
                    )
                    checked += 1
        assert checked == 16 * 2 + 8 * 4


def oracle_joint(ensemble, y):
    """The joint after Bob's input ``y`` from each member's written table:
    per member and outcome b Bob can see, w_m times Bob's marginal, b,
    whether that marginal is below one, and Alice's conditional box."""
    joint = []
    for m in ensemble.members:
        box = member_box(m)
        for b, p_b in enumerate(bx.bob_outcome_distribution(box, y)):
            if p_b:
                constituent = bx.SBox.from_local_box(condition_on_bob(box, y, b))
                joint.append((m.weight * p_b, b, p_b < 1, constituent))
    return joint


class TestJointAfterInput:
    @pytest.mark.parametrize(
        "ensemble", catalog_ensembles(), ids=lambda e: e.members[0].label
    )
    def test_vertex_matches_conditioning(self, ensemble):
        # PR001 and its kin list b = 1 first in their cells at (0, 0); the
        # joint, like the oracle, lists b = 0 first
        for y in BITS:
            assert list(ensemble._joints[y]) == oracle_joint(ensemble, y)

    def test_blind_splits_match_conditioning(self):
        rng = random.Random(2007)
        for s, t in [(2, 4), (6, 4), (1, 5), (5, 1)]:  # eighths
            target = bx.TargetState(F(s, 8), F(t, 8))
            canonical = bx.plan_blind_steering(target).ensemble
            for _ in range(10):
                split = random_blind_split(rng, canonical)
                for y in BITS:
                    joint = split._joints[y]
                    assert list(joint) == oracle_joint(split, y)
                    assert sum(share for share, _, _, _ in joint) == 1

    def test_round_table_built_once(self):
        e = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 0): F(1)})
        assert e._round_table is e._round_table
        assert e._joints is e._joints


class TestPosteriorAliceEnsemble:
    def test_pr000_reductions(self):
        e = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 0): F(1)})
        assert bx.posterior_alice_reduction(e, 0) == {
            bx.SBox(0, 0): HALF, bx.SBox(0, 1): HALF
        }
        assert bx.posterior_alice_reduction(e, 1) == {
            bx.SBox(1, 0): HALF, bx.SBox(1, 1): HALF
        }

    def test_product_member_reduction(self):
        e = bx.NonlocalEnsemble.from_weights(products={((0, 1), (0, 0)): F(1)})
        for y in BITS:
            assert bx.posterior_alice_reduction(e, y) == {bx.SBox(0, 1): F(1)}

    @pytest.mark.parametrize("y", [1.0, True, False, 2, "0", None])
    def test_non_bit_input_rejected(self, y):
        e = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 0): F(1)})
        with pytest.raises(bx.ValidationError) as raised:
            bx.posterior_alice_reduction(e, y)
        assert str(raised.value) == f"y={y!r} outside range(0, 2)"

    @settings(max_examples=80, deadline=None)
    @given(nonlocal_ensembles())
    def test_generic_reduction_matches_closed_form(self, ensemble):
        for y in BITS:
            reduced = bx.posterior_alice_reduction(ensemble, y)
            assert reduced == closed_form_reduction(ensemble, y)

    @settings(max_examples=80, deadline=None)
    @given(nonlocal_ensembles())
    def test_reduction_preserves_marginal(self, ensemble):
        marginal = bx.alice_marginal(bx.mix_nonlocal(ensemble))
        for y in BITS:
            reduced = bx.posterior_alice_reduction(ensemble, y)
            assert bx.mix(weights_ensemble(reduced)) == marginal

    @settings(max_examples=50, deadline=None)
    @given(local_boxes(3, 2))
    def test_realizes_mix_identity(self, box):
        e = product_decomposition(box)
        assert realizes(e, bx.mix(e))


def test_ensemble_weight_map_helper():
    e = sbox_ensemble((F(1, 4), (0, 0)), (F(3, 4), (1, 1)))
    assert set(ensemble_weight_map(e).values()) == {F(1, 4), F(3, 4)}
