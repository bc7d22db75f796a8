import dataclasses
import itertools
import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxsteer as bx
from simplex_oracle import solve_nonneg_exact
from strategies import (
    catalog_boxes,
    condition_on_bob,
    interior_targets,
    is_interior,
    long_split,
    nonlocal_ensembles,
    pr_totals,
    product_only_ensembles,
    product_totals,
    random_blind_split,
    realizes,
    refuse_boxes,
    sbox_weights_ensemble,
    target_box,
    target_from_box,
    vertex_ensembles,
)

BITS = (0, 1)
HALF = F(1, 2)
QUARTER = F(1, 4)

CANONICAL = bx.TargetState(QUARTER, HALF)


class TestTargetState:
    def test_region_predicates(self):
        assert CANONICAL.in_canonical_region
        assert is_interior(CANONICAL)
        assert not CANONICAL.on_boundary
        edge = bx.TargetState(F(0), HALF)
        assert edge.in_canonical_region and edge.on_boundary
        diagonal = bx.TargetState(QUARTER, QUARTER)
        assert diagonal.in_canonical_region and diagonal.on_boundary
        assert not bx.TargetState(F(3, 4), HALF).in_canonical_region

    def test_box_round_trip(self):
        assert target_from_box(target_box(CANONICAL)) == CANONICAL

    def test_rejects_floats(self):
        with pytest.raises(bx.ValidationError):
            bx.TargetState(0.25, HALF)

    def test_rejects_bools(self):
        with pytest.raises(bx.ValidationError, match="cannot interpret True"):
            bx.TargetState(True, False)


class TestCanonicalize:
    def test_identity_inside(self):
        target, relabeling = bx.canonicalize(CANONICAL)
        assert target == CANONICAL
        assert relabeling.is_identity

    @pytest.mark.parametrize(
        "s,t,flip_outputs,flip_inputs",
        [
            (F(1, 2), F(1, 4), False, True),   # below main diagonal
            (F(3, 4), F(1, 2), True, False),   # right of anti-diagonal
            (F(1, 2), F(3, 4), True, True),    # upper triangle
        ],
    )
    def test_region_maps(self, s, t, flip_outputs, flip_inputs):
        target, relabeling = bx.canonicalize(bx.TargetState(s, t))
        assert target.in_canonical_region
        assert (relabeling.flip_outputs, relabeling.flip_inputs) == (
            flip_outputs,
            flip_inputs,
        )
        # the relabeling is an involution: applying it again restores the input
        assert relabeling.on_target(target) == bx.TargetState(s, t)

    @pytest.mark.parametrize("s,t", [(HALF, HALF), (QUARTER, F(3, 4)), (F(1), F(0))])
    def test_anti_diagonal_rejected(self, s, t):
        with pytest.raises(bx.RegionError):
            bx.canonicalize(bx.TargetState(s, t))


class TestRelabeling:
    def test_sbox_action(self):
        flip_out = bx.Relabeling(flip_outputs=True)
        assert flip_out.on_sbox(bx.SBox(0, 1)) == bx.SBox(0, 0)
        flip_in = bx.Relabeling(flip_inputs=True)
        assert flip_in.on_sbox(bx.SBox(1, 0)) == bx.SBox(1, 1)
        assert flip_in.on_sbox(bx.SBox(0, 1)) == bx.SBox(0, 1)

    def test_prbox_action(self):
        both = bx.Relabeling(flip_outputs=True, flip_inputs=True)
        assert both.on_prbox(bx.PRBox(0, 0, 0)) == bx.PRBox(1, 0, 1)

    def test_action_commutes_with_table_semantics(self):
        # relabeled S box table equals the table with x and a flipped directly
        for alpha, beta, fo, fi in itertools.product(BITS, BITS, BITS, BITS):
            relabeling = bx.Relabeling(flip_outputs=bool(fo), flip_inputs=bool(fi))
            sbox = bx.SBox(alpha, beta)
            table = sbox.as_local_box().table
            flipped = tuple(
                tuple(table[x ^ fi][a ^ fo] for a in BITS) for x in BITS
            )
            assert relabeling.on_sbox(sbox).as_local_box().table == flipped


def positive(weights):
    return {sbox: w for sbox, w in weights.items() if w != 0}


def quiet_plan(target):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bx.DegenerateRegionWarning)
        return bx.plan_blind_steering(target)


class TestTriangles:
    def test_canonical_example(self):
        upper = {bx.SBox(0, 0): QUARTER, bx.SBox(0, 1): HALF, bx.SBox(1, 1): QUARTER}
        lower = {bx.SBox(0, 1): QUARTER, bx.SBox(1, 0): QUARTER, bx.SBox(1, 1): HALF}
        assert positive(bx.upper_triangle_weights(CANONICAL)) == upper
        assert positive(bx.lower_triangle_weights(CANONICAL)) == lower
        report = bx.plan_blind_steering(CANONICAL).report
        assert report.expected_upper == upper
        assert report.expected_lower == lower

    def test_both_realize_target(self):
        report = bx.plan_blind_steering(CANONICAL).report
        assert realizes(sbox_weights_ensemble(report.expected_upper), target_box(CANONICAL))
        assert realizes(sbox_weights_ensemble(report.expected_lower), target_box(CANONICAL))

    def test_vertex_target_collapses(self):
        target = bx.TargetState(F(0), F(0))
        point = {bx.SBox(0, 1): F(1)}
        assert positive(bx.upper_triangle_weights(target)) == point
        assert positive(bx.lower_triangle_weights(target)) == point
        report = quiet_plan(target).report
        assert report.expected_upper == point
        assert report.expected_lower == point

    def test_degenerate_boundary_weights(self):
        report = quiet_plan(bx.TargetState(QUARTER, QUARTER)).report
        assert report.expected_upper == {
            bx.SBox(0, 0): QUARTER,
            bx.SBox(0, 1): F(3, 4),
        }
        assert report.expected_lower == {
            bx.SBox(0, 1): HALF,
            bx.SBox(1, 0): QUARTER,
            bx.SBox(1, 1): QUARTER,
        }

    def test_mirrored_target_relabels_triangles(self):
        # (3/4, 1/2) flips the outputs of the canonical (1/4, 1/2)
        report = bx.plan_blind_steering(bx.TargetState(F(3, 4), HALF)).report
        assert report.expected_upper == {
            bx.SBox(0, 1): QUARTER,
            bx.SBox(0, 0): HALF,
            bx.SBox(1, 0): QUARTER,
        }
        assert report.expected_lower == {
            bx.SBox(0, 0): QUARTER,
            bx.SBox(1, 1): QUARTER,
            bx.SBox(1, 0): HALF,
        }

    @settings(max_examples=60, deadline=None)
    @given(interior_targets())
    def test_interior_weights(self, target):
        upper = bx.upper_triangle_weights(target)
        lower = bx.lower_triangle_weights(target)
        assert upper[bx.SBox(1, 0)] == 0
        assert lower[bx.SBox(0, 0)] == 0
        assert sum(upper.values()) == 1
        assert sum(lower.values()) == 1
        report = bx.plan_blind_steering(target).report
        assert report.expected_upper == positive(upper)
        assert report.expected_lower == positive(lower)
        assert realizes(sbox_weights_ensemble(report.expected_upper), target_box(target))
        assert realizes(sbox_weights_ensemble(report.expected_lower), target_box(target))


def aggregates(plan):
    """(product weight per Alice S box, PR weight per beta) of a plan's
    ensemble, zero totals left out."""
    return product_totals(plan.ensemble), pr_totals(plan.ensemble)


class TestSolveConstraints:
    """The closed-form aggregates of the canonical ensemble, read off the
    plan: PR (beta=0) weight 2s, S01 products 1-s-t, S11 products t-s,
    and nothing on S00 or S10 products or on beta=1 PR boxes."""

    def test_canonical_example(self):
        assert aggregates(bx.plan_blind_steering(CANONICAL)) == (
            {(0, 1): QUARTER, (1, 1): QUARTER},
            {0: HALF},
        )

    def test_vertex_target(self):
        assert aggregates(quiet_plan(bx.TargetState(F(0), F(0)))) == (
            {(0, 1): F(1)},
            {},
        )

    def test_degenerate_boundary_warns(self):
        with pytest.warns(
            bx.DegenerateRegionWarning,
            match=r"^target \(s=1/4, t=1/4\) sits on the triangle boundary",
        ):
            plan = bx.plan_blind_steering(bx.TargetState(QUARTER, QUARTER))
        assert aggregates(plan) == ({(0, 1): HALF}, {0: HALF})

    def test_out_of_region_rejected(self):
        # the plan relabels every off-diagonal target, so only the
        # anti-diagonal, which no relabeling leaves, is out of its region
        with pytest.raises(bx.RegionError):
            bx.plan_blind_steering(bx.TargetState(F(3, 4), QUARTER))

    def test_near_center_example(self):
        assert aggregates(bx.plan_blind_steering(bx.TargetState(F(3, 8), HALF))) == (
            {(0, 1): F(1, 8), (1, 1): F(1, 8)},
            {0: F(3, 4)},
        )

    @settings(max_examples=60, deadline=None)
    @given(interior_targets())
    def test_totals_sum_to_one(self, target):
        products, prs = aggregates(bx.plan_blind_steering(target))
        assert sum(products.values()) + sum(prs.values()) == 1
        assert prs == {0: 2 * target.s}
        assert products == {
            (0, 1): 1 - target.s - target.t,
            (1, 1): target.t - target.s,
        }


def vertex_reduction_columns():
    """Each catalog vertex's two Alice reductions as one column, rows
    (y, i, j) in lexicographic order, read off by conditioning the vertex
    table on Bob's outcome."""
    columns = []
    for box in catalog_boxes():
        column = dict.fromkeys(itertools.product(BITS, BITS, BITS), F(0))
        for y in BITS:
            for b, p in enumerate(bx.bob_outcome_distribution(box, y)):
                if p != 0:
                    conditioned = condition_on_bob(box, y, b)
                    (sbox,) = [c for c in bx.boxes.SBOXES if c.as_local_box() == conditioned]
                    column[y, sbox.alpha, sbox.beta] += p
        columns.append(tuple(column.values()))
    return columns


VERTEX_REDUCTIONS = vertex_reduction_columns()


def aggregates_forced(target, aggregates):
    """For each (indicator over the 24 vertices, value g*), True iff no
    vertex mixture whose two reductions are the target's triangles has
    an aggregate other than g*.

    Over (w, lam) >= 0 with M.w - lam.r = 0, the row +-(g.w - lam.g*) = 1
    is feasible iff g can exceed (or fall below) g* on the normalized
    feasible set: lam = 0 would force w = 0, since M preserves total
    weight.
    """
    triangles = (bx.upper_triangle_weights(target), bx.lower_triangle_weights(target))
    r = [triangles[y][bx.SBox(i, j)] for y, i, j in itertools.product(BITS, BITS, BITS)]
    for indicator, g_star in aggregates:
        for sign in (1, -1):
            columns = [
                column + (F(sign * g),) for column, g in zip(VERTEX_REDUCTIONS, indicator)
            ]
            columns.append(tuple(-v for v in r) + (-sign * g_star,))
            if solve_nonneg_exact(tuple(columns), [F(0)] * len(r) + [F(1)]) is not None:
                return False
    return True


class TestAggregatesForced:
    """The exact simplex over the 24-vertex catalog, constrained to both
    triangle reductions, admits only the closed-form aggregates."""

    @staticmethod
    def closed_form(target):
        products, prs = aggregates(quiet_plan(target))
        products = [
            (tuple(int(alice == bx.SBox(i, j)) for alice, _ in bx.catalog_products())
             + (0,) * 8, products.get((i, j), F(0)))
            for i, j in itertools.product(BITS, BITS)
        ]
        prs = [
            ((0,) * 16 + tuple(int(pr.beta == beta) for pr in bx.catalog_prs()),
             prs.get(beta, F(0)))
            for beta in BITS
        ]
        return products + prs

    @settings(max_examples=30, deadline=None)
    @given(interior_targets())
    def test_only_closed_form_aggregates_feasible(self, target):
        assert aggregates_forced(target, self.closed_form(target))

    def test_oracle_rejects_wrong_aggregate(self):
        indicator, g_star = self.closed_form(CANONICAL)[4]  # PR beta=0 total
        assert not aggregates_forced(CANONICAL, [(indicator, g_star + F(1, 24))])

    # the 11 points of the 1/8 grid on the canonical triangle's two closed
    # edges, s = 0 and t = s; canonical, as the oracle takes the upper
    # triangle unrelabeled
    @pytest.mark.parametrize(
        "s,t", [(0, t) for t in range(8)] + [(s, s) for s in (1, 2, 3)]
    )
    def test_forced_on_boundary(self, s, t):
        # a split is accepted iff it verifies: that the aggregates are
        # unique there too, and raising any of them by 1/24 is refuted,
        # so the feasible set is not empty
        target = bx.TargetState(F(s, 8), F(t, 8))
        assert target.on_boundary
        closed_form = self.closed_form(target)
        assert aggregates_forced(target, closed_form)
        for indicator, g_star in closed_form:
            assert not aggregates_forced(target, [(indicator, g_star + F(1, 24))])


class TestBuildEnsemble:
    """The plan's ensemble: the canonical split by default, or a caller's
    split accepted as it is iff it verifies, which is iff its aggregates
    match (``TestAggregatesForced``)."""

    def test_canonical_split(self):
        ensemble = bx.plan_blind_steering(CANONICAL).ensemble
        labels = [(m.label, m.weight) for m in ensemble.members]
        assert labels == [("S01xS00", QUARTER), ("S11xS00", QUARTER), ("PR000", HALF)]

    def test_alternative_split_accepted(self):
        split = bx.NonlocalEnsemble.from_weights(
            products={((0, 1), (1, 0)): QUARTER, ((1, 1), (0, 1)): QUARTER},
            prs={(0, 0, 0): QUARTER, (1, 0, 1): QUARTER},
        )
        plan = bx.plan_blind_steering(CANONICAL, split)
        assert plan.ensemble is split
        assert plan.report.passed
        canonical = bx.plan_blind_steering(CANONICAL).ensemble
        for y in BITS:
            assert bx.posterior_alice_reduction(split, y) == (
                bx.posterior_alice_reduction(canonical, y)
            )

    def test_wrong_aggregates_rejected(self):
        wrong = bx.NonlocalEnsemble.from_weights(
            products={((0, 1), (0, 0)): HALF}, prs={(0, 0, 0): HALF}
        )
        with pytest.raises(bx.ValidationError) as raised:
            bx.plan_blind_steering(CANONICAL, wrong)
        # the three failed checks' names, then their witnesses, clipped to 190 bytes
        assert str(raised.value) == (
            "split rejected (reduction_y0, reduction_y1, alice_marginal): Bob input 0 "
            "prepares 3/4*S01 + 1/4*S00, expected 1/4*S00 + 1/2*S01 + 1/4*S11; "
            "Bob input 1 prepares 1/2*S01 + .../4, t=1/2)"
        )

    def test_beta1_pr_split_rejected(self):
        wrong = bx.NonlocalEnsemble.from_weights(
            products={((0, 1), (0, 0)): QUARTER, ((1, 1), (0, 0)): QUARTER},
            prs={(0, 1, 0): HALF},
        )
        with pytest.raises(bx.ValidationError) as raised:
            bx.plan_blind_steering(CANONICAL, wrong)
        # its marginal is the target's, so only the two reductions fail
        assert str(raised.value) == (
            "split rejected (reduction_y0, reduction_y1): Bob input 0 prepares "
            "1/4*S01 + 1/2*S11 + 1/4*S10, expected 1/4*S00 + 1/2*S01 + 1/4*S11; "
            "Bob input 1 prepares 1/2*S01 + 1/4*S1... + 1/2*S11"
        )

    def test_split_past_int_string_limit(self):
        # the reductions' and the marginal's sums over both denominators
        # are too long to print, and are named so; a weight of 4,291-digit
        # terms keeps its ends, 40 and 10 bytes
        split = long_split()
        report = bx.verify_blind_steering(split, CANONICAL)
        # 1/2 - 1/d1, 1/4 - 1/(2 d2) and 3/4 + 1/(2 d2), by their ends
        half, quarter = "9" * 40 + "...0000000002", "1" + "0" * 39 + "...0000000012"
        three_quarters = "3" + "0" * 39 + "...0000000012"
        assert [c.witness for c in report.checks] == [
            f"Bob input 0 prepares (too long to print)*S01 + {half}*S11 "
            f"+ {quarter}*S00, expected 1/4*S00 + 1/2*S01 + 1/4*S11",
            "Bob input 1 prepares (too long to print)*S01 + (too long to print)*S11 "
            f"+ {quarter}*S10, expected 1/4*S01 + 1/4*S10 + 1/2*S11",
            f"mixture marginal is (({quarter}, {three_quarters}), "
            "((too long to print), (too long to print))), expected (s=1/4, t=1/2)",
        ]
        with pytest.raises(bx.ValidationError) as raised:
            bx.plan_blind_steering(CANONICAL, split)
        # every failed check is named, however long its witness
        assert str(raised.value) == (
            "split rejected (reduction_y0, reduction_y1, alice_marginal): Bob input 0 "
            f"prepares (too long to print)*S01 + {half}*S11 + 10.../4, t=1/2)"
        )


class TestVerifyBlindSteering:
    def test_canonical_passes(self):
        plan = bx.plan_blind_steering(CANONICAL)
        assert plan.report.passed
        assert {c.name for c in plan.report.checks} == {
            "reduction_y0",
            "reduction_y1",
            "alice_marginal",
        }

    def test_beta1_ensemble_fails(self):
        bad = bx.NonlocalEnsemble.from_weights(prs={(0, 1, 0): F(1)})
        report = bx.verify_blind_steering(bad, CANONICAL)
        assert not report.passed
        assert not report.check("reduction_y0").passed

    def test_vertex_product_passes(self):
        e = bx.NonlocalEnsemble.from_weights(products={((0, 1), (0, 0)): F(1)})
        report = bx.verify_blind_steering(e, bx.TargetState(F(0), F(0)))
        assert report.passed


class TestRefereeInfer:
    # the Referee names Alice's constituent by the member's
    # measurement-update rule, whatever the member's beta
    @pytest.mark.parametrize(
        "abd,y,b,expected",
        [((0, 0, 0), 1, 1, (1, 1)), ((1, 0, 1), 1, 0, (1, 0)), ((0, 0, 1), 0, 0, (0, 1))],
    )
    def test_pr_rule(self, abd, y, b, expected):
        member = bx.PRMember(F(1), bx.PRBox(*abd))
        assert bx.constituent_after_measurement(member, y, b) == bx.SBox(*expected)

    def test_product_rule(self):
        member = bx.ProductMember(F(1), bx.SBox(0, 1), bx.SBox(1, 0))
        for y, b in itertools.product(BITS, BITS):
            assert bx.constituent_after_measurement(member, y, b) == bx.SBox(0, 1)

    def test_total_on_valid_members(self):
        plan = bx.plan_blind_steering(CANONICAL)
        for member in plan.ensemble.members:
            for y, b in itertools.product(BITS, BITS):
                assert isinstance(bx.constituent_after_measurement(member, y, b), bx.SBox)


class TestBobPosterior:
    def test_canonical_y0_b0(self):
        plan = bx.plan_blind_steering(CANONICAL)
        posterior = bx.bob_posterior(plan.ensemble, 0, 0)
        third = F(1, 3)
        assert posterior == {
            bx.SBox(0, 0): third,
            bx.SBox(0, 1): third,
            bx.SBox(1, 1): third,
        }

    def test_canonical_y1_b0_support(self):
        plan = bx.plan_blind_steering(CANONICAL)
        support = set(bx.bob_posterior(plan.ensemble, 1, 0))
        assert bx.SBox(1, 0) in support
        assert {bx.SBox(0, 1), bx.SBox(1, 1)} <= support

    def test_vertex_target_point_mass(self):
        e = bx.NonlocalEnsemble.from_weights(products={((0, 1), (0, 0)): F(1)})
        for y in BITS:
            assert bx.bob_posterior(e, y, 0) == {bx.SBox(0, 1): F(1)}

    def test_zero_probability_outcome(self):
        e = bx.NonlocalEnsemble.from_weights(products={((0, 1), (0, 0)): F(1)})
        with pytest.raises(bx.ZeroProbabilityError):
            bx.bob_posterior(e, 0, 1)

    @pytest.mark.parametrize(
        "y,b,message",
        [
            (1.0, 0, "y=1.0"),
            (0, 1.0, "b=1.0"),
            (True, 0, "y=True"),
            (0, False, "b=False"),
            (2, 0, "y=2"),
            (0, -1, "b=-1"),
            ("0", 1, "y='0'"),
        ],
        ids=["1.0-0", "0-1.0", "True-0", "0-False", "2-0", "0--1", "0-1"],
    )
    def test_non_bits_rejected(self, y, b, message):
        plan = bx.plan_blind_steering(CANONICAL)
        with pytest.raises(bx.ValidationError) as raised:
            bx.bob_posterior(plan.ensemble, y, b)
        assert str(raised.value) == f"{message} outside range(0, 2)"

    @settings(max_examples=50, deadline=None)
    @given(interior_targets())
    def test_blindness_interior(self, target):
        plan = bx.plan_blind_steering(target)
        box = bx.mix_nonlocal(plan.ensemble)
        for y, b in itertools.product(BITS, BITS):
            assert bx.bob_outcome_distribution(box, y)[b] > 0
            assert len(bx.bob_posterior(plan.ensemble, y, b)) >= 2


@settings(max_examples=40, deadline=None)
@given(interior_targets(), st.randoms(use_true_random=False))
def test_family_invariance(target, rng):
    canonical = bx.plan_blind_steering(target).ensemble
    plan = bx.plan_blind_steering(target, random_blind_split(rng, canonical))
    assert plan.report.passed
    for y in BITS:
        assert bx.posterior_alice_reduction(plan.ensemble, y) == (
            bx.posterior_alice_reduction(canonical, y)
        )


def expected_supports(ensemble):
    box = bx.mix_nonlocal(ensemble)
    return tuple(
        ((y, b), tuple(sorted(sbox.label for sbox in bx.bob_posterior(ensemble, y, b))))
        for y, b in itertools.product(BITS, BITS)
        if bx.bob_outcome_distribution(box, y)[b] > 0
    )


class TestPosteriorSupports:
    @settings(max_examples=40, deadline=None)
    @given(
        interior_targets(),
        st.randoms(use_true_random=False),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_match_bob_posterior(self, target, rng, with_split, flip_outputs, flip_inputs):
        relabeling = bx.Relabeling(flip_outputs=flip_outputs, flip_inputs=flip_inputs)
        relabeled = relabeling.on_target(target)
        split = None
        if with_split:
            split = random_blind_split(rng, bx.plan_blind_steering(relabeled).ensemble)
        plan = bx.plan_blind_steering(relabeled, split)
        assert plan.report.canonical_target == target
        assert plan.report.posterior_supports == expected_supports(plan.ensemble)

    @pytest.mark.parametrize(
        "s,t", [(F(0), F(0)), (F(0), HALF), (QUARTER, QUARTER), (F(1), F(3, 4))]
    )
    def test_match_on_boundary(self, s, t):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", bx.DegenerateRegionWarning)
            plan = bx.plan_blind_steering(bx.TargetState(s, t))
        assert plan.report.posterior_supports == expected_supports(plan.ensemble)


# random mixtures over the 24 vertices (beta = 1 PRs included), single
# vertices, and product-only ensembles in which Bob misses an outcome
ANY_ENSEMBLE = st.one_of(
    nonlocal_ensembles(), vertex_ensembles(), product_only_ensembles()
)
# off the anti-diagonal of the 1/8 grid
GRID_TARGETS = (
    st.tuples(st.integers(0, 8), st.integers(0, 8))
    .filter(lambda ij: sum(ij) != 8)
    .map(lambda ij: bx.TargetState(F(ij[0], 8), F(ij[1], 8)))
)


class TestClosedFormOracles:
    """The verification's marginal and Bob's outcome support, read off the
    members, against the mixed two-party box."""

    @settings(max_examples=150, deadline=None)
    @given(ANY_ENSEMBLE)
    def test_marginal_of_either_reduction(self, ensemble):
        expected = bx.alice_marginal(bx.mix_nonlocal(ensemble)).table
        for y in BITS:
            weights = bx.posterior_alice_reduction(ensemble, y)
            assert bx.blind._alice_marginal(weights) == expected

    @settings(max_examples=150, deadline=None)
    @given(ANY_ENSEMBLE, GRID_TARGETS, st.booleans())
    def test_marginal_check(self, ensemble, target, own_marginal):
        marginal = bx.alice_marginal(bx.mix_nonlocal(ensemble))
        if own_marginal and marginal.prob(0, 0) + marginal.prob(1, 0) != 1:
            target = target_from_box(marginal)
        if marginal == target_box(target):
            expected = bx.CheckResult("alice_marginal", True)
        else:
            rows = ", ".join(f"({p0}, {p1})" for p0, p1 in marginal.table)
            expected = bx.CheckResult(
                "alice_marginal",
                False,
                f"mixture marginal is ({rows}), expected (s={target.s}, t={target.t})",
            )
        report = bx.verify_blind_steering(ensemble, target)
        assert report.check("alice_marginal") == expected

    @settings(max_examples=150, deadline=None)
    @given(ANY_ENSEMBLE)
    def test_outcome_support(self, ensemble):
        box = bx.mix_nonlocal(ensemble)
        for y, b in itertools.product(BITS, BITS):
            seen = bx.bob_outcome_distribution(box, y)[b] > 0
            joint = ensemble._joints[y]
            assert any(outcome == b for _, outcome, _, _ in joint) == seen
            if seen:
                assert sum(bx.bob_posterior(ensemble, y, b).values()) == 1
            else:
                with pytest.raises(bx.ZeroProbabilityError):
                    bx.bob_posterior(ensemble, y, b)

    @settings(max_examples=150, deadline=None)
    @given(ANY_ENSEMBLE, GRID_TARGETS)
    def test_posterior_supports(self, ensemble, target):
        report = bx.verify_blind_steering(ensemble, target)
        assert report.posterior_supports == expected_supports(ensemble)


def count_joints(monkeypatch, calls):
    """Count into ``calls["joints"]`` the joints after Bob's input that
    ensembles build, two per build of ``NonlocalEnsemble._joints``."""
    cached = bx.NonlocalEnsemble.__dict__["_joints"]
    build = cached.func

    def counted(ensemble):
        joints = build(ensemble)
        calls["joints"] += len(joints)
        return joints

    monkeypatch.setattr(cached, "func", counted)


def test_plan_reduces_once_per_input_and_never_mixes(monkeypatch):
    calls = {"mix_nonlocal": 0, "joints": 0, "Ensemble": 0}
    assert not hasattr(bx.blind, "mix_nonlocal")
    original = bx.ensembles.mix_nonlocal

    def counted_mix(*args):
        calls["mix_nonlocal"] += 1
        return original(*args)

    monkeypatch.setattr(bx.ensembles, "mix_nonlocal", counted_mix)
    count_joints(monkeypatch, calls)
    validate = bx.Ensemble.__post_init__

    def counted_ensemble(self):
        calls["Ensemble"] += 1
        validate(self)

    monkeypatch.setattr(bx.Ensemble, "__post_init__", counted_ensemble)
    bx.plan_blind_steering(bx.TargetState(F(3, 4), HALF))
    # no single-party ensemble is built: the report keeps the S-box weights
    assert calls == {"mix_nonlocal": 0, "joints": 2, "Ensemble": 0}


def test_plan_and_posteriors_build_two_joints(monkeypatch):
    # the plan's verification and Bob's posteriors at every (y, b) he
    # sees read the same two joints, built once for the split ensemble
    calls = {"joints": 0}
    count_joints(monkeypatch, calls)
    target = bx.TargetState(F(3, 16), F(7, 16))
    canonical = bx.plan_blind_steering(target).ensemble
    split = random_blind_split(random.Random(23), canonical)
    calls["joints"] = 0
    plan = bx.plan_blind_steering(target, split)
    assert plan.ensemble is split and plan.report.passed
    seen = [key for key, _ in plan.report.posterior_supports]
    assert seen == list(itertools.product(BITS, BITS))
    posteriors = [bx.bob_posterior(split, y, b) for y, b in seen]
    assert all(sum(p.values()) == 1 for p in posteriors)
    assert calls == {"joints": 2}


def test_blind_path_builds_no_box(monkeypatch):
    # the marginal and Bob's outcomes are read off the members: no
    # validated two-party table and no no-signalling scan
    target = bx.TargetState(F(3, 4), HALF)
    split = bx.NonlocalEnsemble.from_weights(
        products={((0, 0), (0, 1)): QUARTER, ((1, 0), (1, 1)): QUARTER},
        prs={(0, 0, 1): HALF},
    )
    wrong = bx.NonlocalEnsemble.from_weights(prs={(0, 1, 0): F(1)})

    def run():
        plans = [bx.plan_blind_steering(target), bx.plan_blind_steering(target, split)]
        reports = [plan.report for plan in plans]
        reports.append(bx.verify_blind_steering(wrong, target))
        posteriors = [
            bx.bob_posterior(e, y, b)
            for e in (split, wrong)
            for y, b in itertools.product(BITS, BITS)
        ]
        return reports, posteriors

    refuse_boxes(monkeypatch)
    reports, posteriors = run()
    monkeypatch.undo()
    assert [r.passed for r in reports] == [True, True, False]
    assert (reports, posteriors) == run()


class TestPlanRelabeled:
    def test_mirrored_target_frozen(self):
        plan = bx.plan_blind_steering(bx.TargetState(F(3, 4), HALF))
        assert plan.report.relabeling == bx.Relabeling(flip_outputs=True)
        assert plan.report.canonical_target == CANONICAL
        labels = {m.label: m.weight for m in plan.ensemble.members}
        assert labels == {"S00xS00": QUARTER, "S10xS00": QUARTER, "PR001": HALF}
        assert plan.report.passed
        marginal = bx.alice_marginal(bx.mix_nonlocal(plan.ensemble))
        assert marginal.prob(0, 0) == F(3, 4)
        assert marginal.prob(1, 0) == HALF

    def test_split_given_in_original_coordinates(self):
        split = bx.NonlocalEnsemble.from_weights(
            products={((0, 0), (0, 1)): QUARTER, ((1, 0), (1, 1)): QUARTER},
            prs={(0, 0, 1): HALF},
        )
        plan = bx.plan_blind_steering(bx.TargetState(F(3, 4), HALF), split)
        assert plan.ensemble is split
        assert plan.report.passed
        assert [f.name for f in dataclasses.fields(plan)] == ["ensemble", "report"]

    @settings(max_examples=50, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=20),
        st.fractions(min_value=0, max_value=1, max_denominator=20),
    )
    def test_any_off_diagonal_target(self, s, t):
        target = bx.TargetState(s, t)
        if s + t == 1:
            with pytest.raises(bx.RegionError):
                bx.plan_blind_steering(target)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", bx.DegenerateRegionWarning)
            plan = bx.plan_blind_steering(target)
        assert plan.report.passed
        marginal = bx.alice_marginal(bx.mix_nonlocal(plan.ensemble))
        assert marginal.prob(0, 0) == s
        assert marginal.prob(1, 0) == t
