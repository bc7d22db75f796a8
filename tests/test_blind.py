import itertools
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxsteer as bx
from boxsteer.polytope import solve_nonneg_exact
from strategies import interior_targets, random_blind_split, realizes

BITS = (0, 1)
HALF = F(1, 2)
QUARTER = F(1, 4)

CANONICAL = bx.TargetState(QUARTER, HALF)


def weights_of(ensemble):
    return {bx.SBox.from_local_box(box): w for w, box in ensemble.members}


class TestTargetState:
    def test_region_predicates(self):
        assert CANONICAL.in_canonical_region
        assert CANONICAL.is_interior
        assert not CANONICAL.on_boundary
        edge = bx.TargetState(F(0), HALF)
        assert edge.in_canonical_region and edge.on_boundary
        diagonal = bx.TargetState(QUARTER, QUARTER)
        assert diagonal.in_canonical_region and diagonal.on_boundary
        assert not bx.TargetState(F(3, 4), HALF).in_canonical_region

    def test_box_round_trip(self):
        assert bx.TargetState.from_box(CANONICAL.to_box()) == CANONICAL

    def test_rejects_floats(self):
        with pytest.raises(bx.ValidationError):
            bx.TargetState(0.25, HALF)


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
        assert weights_of(report.expected_upper) == upper
        assert weights_of(report.expected_lower) == lower

    def test_both_realize_target(self):
        report = bx.plan_blind_steering(CANONICAL).report
        assert realizes(report.expected_upper, CANONICAL.to_box())
        assert realizes(report.expected_lower, CANONICAL.to_box())

    def test_vertex_target_collapses(self):
        target = bx.TargetState(F(0), F(0))
        point = {bx.SBox(0, 1): F(1)}
        assert positive(bx.upper_triangle_weights(target)) == point
        assert positive(bx.lower_triangle_weights(target)) == point
        report = quiet_plan(target).report
        assert weights_of(report.expected_upper) == point
        assert weights_of(report.expected_lower) == point

    def test_degenerate_boundary_weights(self):
        report = quiet_plan(bx.TargetState(QUARTER, QUARTER)).report
        assert weights_of(report.expected_upper) == {
            bx.SBox(0, 0): QUARTER,
            bx.SBox(0, 1): F(3, 4),
        }
        assert weights_of(report.expected_lower) == {
            bx.SBox(0, 1): HALF,
            bx.SBox(1, 0): QUARTER,
            bx.SBox(1, 1): QUARTER,
        }

    def test_mirrored_target_relabels_triangles(self):
        # (3/4, 1/2) flips the outputs of the canonical (1/4, 1/2)
        report = bx.plan_blind_steering(bx.TargetState(F(3, 4), HALF)).report
        assert weights_of(report.expected_upper) == {
            bx.SBox(0, 1): QUARTER,
            bx.SBox(0, 0): HALF,
            bx.SBox(1, 0): QUARTER,
        }
        assert weights_of(report.expected_lower) == {
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
        assert weights_of(report.expected_upper) == positive(upper)
        assert weights_of(report.expected_lower) == positive(lower)
        assert realizes(report.expected_upper, target.to_box())
        assert realizes(report.expected_lower, target.to_box())


class TestSolveConstraints:
    def test_canonical_example(self):
        solution = bx.solve_constraints(CANONICAL)
        assert solution.pr_total(0) == HALF
        assert solution.product_total(0, 1) == QUARTER
        assert solution.product_total(1, 1) == QUARTER
        assert solution.product_total(0, 0) == 0
        assert solution.product_total(1, 0) == 0
        assert solution.pr_total(1) == 0

    def test_vertex_target(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", bx.DegenerateRegionWarning)
            solution = bx.solve_constraints(bx.TargetState(F(0), F(0)))
        assert solution.pr_total(0) == 0
        assert solution.product_total(0, 1) == 1

    def test_degenerate_boundary_warns(self):
        with pytest.warns(bx.DegenerateRegionWarning):
            solution = bx.solve_constraints(bx.TargetState(QUARTER, QUARTER))
        assert solution.pr_total(0) == HALF
        assert solution.product_total(0, 1) == HALF
        assert solution.product_total(1, 1) == 0

    def test_out_of_region_rejected(self):
        with pytest.raises(bx.RegionError):
            bx.solve_constraints(bx.TargetState(F(3, 4), HALF))

    def test_near_center_example(self):
        solution = bx.solve_constraints(bx.TargetState(F(3, 8), HALF))
        assert solution.pr_total(0) == F(3, 4)
        assert solution.product_total(0, 1) == F(1, 8)
        assert solution.product_total(1, 1) == F(1, 8)

    @settings(max_examples=60, deadline=None)
    @given(interior_targets())
    def test_totals_sum_to_one(self, target):
        solution = bx.solve_constraints(target)
        total = sum(solution.product_totals.values()) + sum(
            solution.pr_totals.values()
        )
        assert total == 1
        assert solution.pr_total(0) == 2 * target.s
        assert solution.product_total(0, 1) == 1 - target.s - target.t
        assert solution.product_total(1, 1) == target.t - target.s


def vertex_reduction_columns():
    """Each catalog vertex's two Alice reductions as one column, rows
    (y, i, j) in lexicographic order, read off by conditioning the vertex
    table on Bob's outcome."""
    vertices = [
        bx.ProductMember(F(1), alice, bob).as_bipartite_box()
        for alice, bob in bx.catalog_products()
    ] + [pr.as_bipartite_box() for pr in bx.catalog_prs()]
    columns = []
    for box in vertices:
        column = dict.fromkeys(itertools.product(BITS, BITS, BITS), F(0))
        for y in BITS:
            for b, p in enumerate(bx.bob_outcome_distribution(box, y)):
                if p != 0:
                    sbox = bx.SBox.from_local_box(bx.condition_on_bob(box, y, b))
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
        solution = bx.solve_constraints(target)
        products = [
            (tuple(int(alice == bx.SBox(i, j)) for alice, _ in bx.catalog_products())
             + (0,) * 8, solution.product_total(i, j))
            for i, j in itertools.product(BITS, BITS)
        ]
        prs = [
            ((0,) * 16 + tuple(int(pr.beta == beta) for pr in bx.catalog_prs()),
             solution.pr_total(beta))
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


class TestBuildEnsemble:
    def test_canonical_split(self):
        solution = bx.solve_constraints(CANONICAL)
        ensemble = bx.build_nonlocal_ensemble(solution)
        labels = {m.label: m.weight for m in ensemble.members}
        assert labels == {"S01xS00": QUARTER, "S11xS00": QUARTER, "PR000": HALF}

    def test_alternative_split_accepted(self):
        solution = bx.solve_constraints(CANONICAL)
        split = bx.NonlocalEnsemble.from_weights(
            products={((0, 1), (1, 0)): QUARTER, ((1, 1), (0, 1)): QUARTER},
            prs={(0, 0, 0): QUARTER, (1, 0, 1): QUARTER},
        )
        built = bx.build_nonlocal_ensemble(solution, split)
        assert built == split
        for y in BITS:
            assert bx.ensembles_equal(
                bx.posterior_alice_ensemble(built, y),
                bx.posterior_alice_ensemble(solution.ensemble, y),
            )

    def test_wrong_aggregates_rejected(self):
        solution = bx.solve_constraints(CANONICAL)
        wrong = bx.NonlocalEnsemble.from_weights(
            products={((0, 1), (0, 0)): HALF}, prs={(0, 0, 0): HALF}
        )
        with pytest.raises(bx.ValidationError):
            bx.build_nonlocal_ensemble(solution, wrong)

    def test_beta1_pr_split_rejected(self):
        solution = bx.solve_constraints(CANONICAL)
        wrong = bx.NonlocalEnsemble.from_weights(
            products={((0, 1), (0, 0)): QUARTER, ((1, 1), (0, 0)): QUARTER},
            prs={(0, 1, 0): HALF},
        )
        with pytest.raises(bx.ValidationError):
            bx.build_nonlocal_ensemble(solution, wrong)


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
    @pytest.mark.parametrize(
        "abd,y,b,expected",
        [((0, 0, 0), 1, 1, (1, 1)), ((1, 0, 1), 1, 0, (1, 0)), ((0, 0, 1), 0, 0, (0, 1))],
    )
    def test_pr_rule(self, abd, y, b, expected):
        member = bx.PRMember(F(1), bx.PRBox(*abd))
        assert bx.referee_infer(member, y, b) == bx.SBox(*expected)

    def test_product_rule(self):
        member = bx.ProductMember(F(1), bx.SBox(0, 1), bx.SBox(1, 0))
        for y, b in itertools.product(BITS, BITS):
            assert bx.referee_infer(member, y, b) == bx.SBox(0, 1)

    def test_beta1_pr_refused(self):
        member = bx.PRMember(F(1), bx.PRBox(0, 1, 0))
        with pytest.raises(bx.ValidationError):
            bx.referee_infer(member, 0, 0)

    def test_total_on_valid_members(self):
        plan = bx.plan_blind_steering(CANONICAL)
        for member in plan.ensemble.members:
            for y, b in itertools.product(BITS, BITS):
                assert isinstance(bx.referee_infer(member, y, b), bx.SBox)


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
    solution = bx.solve_constraints(target)
    split = random_blind_split(rng, solution)
    built = bx.build_nonlocal_ensemble(solution, split)
    for y in BITS:
        assert bx.ensembles_equal(
            bx.posterior_alice_ensemble(built, y),
            bx.posterior_alice_ensemble(solution.ensemble, y),
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
        split = None
        if with_split:
            split = relabeling.on_nonlocal_ensemble(
                random_blind_split(rng, bx.solve_constraints(target))
            )
        plan = bx.plan_blind_steering(relabeling.on_target(target), split)
        assert plan.canonical_target == target
        assert plan.report.posterior_supports == expected_supports(plan.ensemble)

    @pytest.mark.parametrize(
        "s,t", [(F(0), F(0)), (F(0), HALF), (QUARTER, QUARTER), (F(1), F(3, 4))]
    )
    def test_match_on_boundary(self, s, t):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", bx.DegenerateRegionWarning)
            plan = bx.plan_blind_steering(bx.TargetState(s, t))
        assert plan.report.posterior_supports == expected_supports(plan.ensemble)


def test_plan_mixes_once_and_reduces_once_per_input(monkeypatch):
    calls = {"mix_nonlocal": 0, "posterior_alice_reduction": 0, "Ensemble": 0}
    for name in ("mix_nonlocal", "posterior_alice_reduction"):
        original = getattr(bx.blind, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(bx.blind, name, counted)
    validate = bx.Ensemble.__post_init__

    def counted_ensemble(self):
        calls["Ensemble"] += 1
        validate(self)

    monkeypatch.setattr(bx.Ensemble, "__post_init__", counted_ensemble)
    bx.plan_blind_steering(bx.TargetState(F(3, 4), HALF))
    # the only single-party ensembles built are the report's two expected ones
    assert calls == {"mix_nonlocal": 1, "posterior_alice_reduction": 2, "Ensemble": 2}


class TestPlanRelabeled:
    def test_mirrored_target_frozen(self):
        plan = bx.plan_blind_steering(bx.TargetState(F(3, 4), HALF))
        assert plan.relabeling == bx.Relabeling(flip_outputs=True)
        assert plan.canonical_target == CANONICAL
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
        assert plan.ensemble == split
        assert plan.report.passed

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
