import hashlib
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxsteer as bx
from simplex_oracle import solve_nonneg_exact
from strategies import (
    catalog_boxes,
    chsh_values,
    facet_local,
    nonlocal_ensembles,
    pr_bipartite_box,
    product_box,
    rationals,
)

BITS = (0, 1)

CATALOG_HASH = "843f5f0aaa8bd927"

# each vertex's table, flattened in (x, y, a, b) order, in catalog order
CATALOG_COLUMNS = tuple(
    tuple(box.prob(*key) for key in itertools.product(BITS, repeat=4))
    for box in catalog_boxes()
)


def uniform_box():
    row = ((F(1, 4),) * 2,) * 2
    return bx.BipartiteBox(((row, row), (row, row)))


def noisy_pr(v: F, pr_box: bx.PRBox = bx.PRBox(0, 0, 0)) -> bx.BipartiteBox:
    pr = pr_bipartite_box(pr_box)
    flat = uniform_box()
    table = tuple(
        tuple(
            tuple(
                tuple(
                    v * pr.prob(x, y, a, b) + (1 - v) * flat.prob(x, y, a, b)
                    for b in BITS
                )
                for a in BITS
            )
            for y in BITS
        )
        for x in BITS
    )
    return bx.BipartiteBox(table)


def simplex_local(box: bx.BipartiteBox) -> bool:
    """Locality by the exact simplex over the 16 product vertices, the
    oracle for the closed-form :func:`bx.is_local`."""
    columns = tuple(col + (F(1),) for col in CATALOG_COLUMNS[:16])
    rhs = [
        box.prob(x, y, a, b) for x, y, a, b in itertools.product(BITS, repeat=4)
    ] + [F(1)]
    return solve_nonneg_exact(columns, rhs) is not None


def boundary_boxes() -> list[bx.BipartiteBox]:
    """Boxes on or next to the local facets: the 24 vertices, every PR
    vertex in white noise at the CHSH threshold and 1/64 either side,
    two-PR mixtures, and the uniform box."""
    boxes = catalog_boxes()
    for pr in bx.catalog_prs():
        for v in (F(1, 2) - F(1, 64), F(1, 2), F(1, 2) + F(1, 64)):
            boxes.append(noisy_pr(v, pr))
    for first, second in itertools.combinations(bx.catalog_prs(), 2):
        for w in (F(1, 2), F(3, 4)):
            boxes.append(
                bx.mix_nonlocal(
                    bx.NonlocalEnsemble(
                        (), (bx.PRMember(w, first), bx.PRMember(1 - w, second))
                    )
                )
            )
    boxes.append(uniform_box())
    return boxes


@st.composite
def pr_heavy_ensembles(draw):
    """A random vertex ensemble blended with one PR vertex at a random
    visibility, so that about half the boxes are nonlocal."""
    base = draw(nonlocal_ensembles())
    pr = draw(st.sampled_from(bx.catalog_prs()))
    v = draw(rationals())
    products = tuple(
        bx.ProductMember((1 - v) * m.weight, m.alice, m.bob) for m in base.products
    )
    prs = tuple(bx.PRMember((1 - v) * m.weight, m.box) for m in base.prs)
    return bx.NonlocalEnsemble(products, prs + (bx.PRMember(v, pr),))


def signalling_box():
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


def assert_canonical(box: bx.BipartiteBox, ensemble: bx.NonlocalEnsemble) -> None:
    """What every decomposition promises: an exact remix, at most one PR
    member of minimal weight, positive Fraction weights whose
    denominators divide 4 times the lcm of the box's, and at most 9
    products listed in catalog order."""
    assert bx.mix_nonlocal(ensemble) == box
    assert len(ensemble.prs) <= 1
    pr_weight = sum((m.weight for m in ensemble.prs), F(0))
    assert pr_weight == max(F(0), (max(chsh_values(box)) - 2) / 2)
    assert all(type(m.weight) is F and m.weight > 0 for m in ensemble.members)
    bound = 4 * math.lcm(
        *(box.prob(*key).denominator for key in itertools.product(BITS, repeat=4))
    )
    assert all(bound % m.weight.denominator == 0 for m in ensemble.members)
    positions = [
        bx.catalog_products().index((m.alice, m.bob)) for m in ensemble.products
    ]
    assert positions == sorted(set(positions))
    assert len(positions) <= 9


def chord_feasible(box: bx.BipartiteBox, chord: F) -> bool:
    """Whether some split of ``box`` over the 16 products gives Alice's
    chord p(a0=0, a1=0) (the weight on her S00 box) the value ``chord``."""
    columns = tuple(
        col + (F(1), F(int(alice == bx.SBox(0, 0))))
        for col, (alice, _) in zip(CATALOG_COLUMNS, bx.catalog_products())
    )
    rhs = [
        box.prob(x, y, a, b) for x, y, a, b in itertools.product(BITS, repeat=4)
    ] + [F(1), chord]
    return solve_nonneg_exact(columns, rhs) is not None


class TestCatalog:
    def test_counts_and_labels(self):
        labels = bx.catalog_labels()
        assert len(labels) == 24
        assert len(set(labels)) == 24
        assert labels[0] == "S00xS00"
        assert labels[15] == "S11xS11"
        assert labels[16] == "PR000"
        assert labels[23] == "PR111"

    def test_all_vertices_no_signalling(self):
        for alice, bob in bx.catalog_products():
            assert bx.is_no_signalling(
                product_box(alice.as_local_box(), bob.as_local_box())
            )
        for pr in bx.catalog_prs():
            assert bx.is_no_signalling(pr_bipartite_box(pr))

    def test_vertices_extremal(self):
        # no vertex is a mixture of the other 23
        columns = CATALOG_COLUMNS
        for v in range(24):
            others = tuple(
                col + (F(1),) for j, col in enumerate(columns) if j != v
            )
            rhs = list(columns[v]) + [F(1)]
            assert solve_nonneg_exact(others, rhs) is None

    def test_hash_frozen(self):
        # the digest the library returns as a literal, recomputed from the
        # labels and tables it names
        payload = "|".join(
            label + ":" + ",".join(str(v) for v in column)
            for label, column in zip(bx.catalog_labels(), CATALOG_COLUMNS)
        )
        digest = hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]
        assert digest == bx.catalog_hash() == CATALOG_HASH

    def test_version_string_builds_no_vertex_table(self):
        # a profile hook set before the import sees every BipartiteBox
        # built while importing the CLI and building its parser
        code = (
            "import sys\n"
            "built = []\n"
            "def hook(frame, event, arg):\n"
            "    if event == 'call' and frame.f_code.co_qualname == "
            "'BipartiteBox.__post_init__':\n"
            "        built.append(1)\n"
            "sys.setprofile(hook)\n"
            "from boxsteer import cli\n"
            "cli._build_parser()\n"
            "sys.setprofile(None)\n"
            "from boxsteer import NonlocalEnsemble, mix_nonlocal\n"
            "pr = NonlocalEnsemble.from_weights(prs={(0, 0, 0): 1})\n"
            "sys.setprofile(hook)\n"
            "mix_nonlocal(pr)\n"
            "sys.setprofile(None)\n"
            "print(len(built))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        # the one table is the control, built after the parser
        assert done.stdout.strip() == "1"


class TestDecompose:
    def test_pr_box_is_its_own_vertex(self):
        ensemble = bx.decompose(pr_bipartite_box(bx.PRBox(0, 0, 0)))
        assert {m.label: m.weight for m in ensemble.members} == {"PR000": F(1)}
        # every PR vertex peels with weight 1, leaving nothing to renormalize
        for pr in bx.catalog_prs():
            ensemble = bx.decompose(pr_bipartite_box(pr))
            assert ensemble.products == ()
            assert ensemble.prs == (bx.PRMember(F(1), pr),)

    def test_product_vertex(self):
        box = product_box(
            bx.SBox(0, 1).as_local_box(), bx.SBox(1, 0).as_local_box()
        )
        ensemble = bx.decompose(box)
        assert {m.label: m.weight for m in ensemble.members} == {"S01xS10": F(1)}
        # every product vertex: three of the four chord cells are 0
        for alice, bob in bx.catalog_products():
            box = product_box(alice.as_local_box(), bob.as_local_box())
            ensemble = bx.decompose(box)
            assert_canonical(box, ensemble)
            assert ensemble.products == (bx.ProductMember(F(1), alice, bob),)

    def test_uniform_box_remixes(self):
        ensemble = bx.decompose(uniform_box())
        assert bx.mix_nonlocal(ensemble) == uniform_box()
        assert sum(m.weight for m in ensemble.members) == 1

    def test_deterministic(self):
        box = noisy_pr(F(5, 8))
        assert bx.decompose(box) == bx.decompose(box)

    @settings(max_examples=60, deadline=None)
    @given(nonlocal_ensembles())
    def test_round_trip(self, ensemble):
        box = bx.mix_nonlocal(ensemble)
        recovered = bx.decompose(box)
        assert bx.mix_nonlocal(recovered) == box
        assert sum(m.weight for m in recovered.members) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(nonlocal_ensembles(), pr_heavy_ensembles()))
    def test_at_most_one_chsh_violation(self, ensemble):
        values = chsh_values(bx.mix_nonlocal(ensemble))
        assert sum(1 for v in values if v > 2) <= 1

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(nonlocal_ensembles(), pr_heavy_ensembles()))
    def test_one_pr_member_of_minimal_weight(self, ensemble):
        box = bx.mix_nonlocal(ensemble)
        recovered = bx.decompose(box)
        assert_canonical(box, recovered)
        pr_weight = sum((m.weight for m in recovered.prs), F(0))
        if 0 < pr_weight < 1:
            # any less PR weight would leave a remainder above the facet
            remainder = bx.NonlocalEnsemble(
                tuple(
                    bx.ProductMember(m.weight / (1 - pr_weight), m.alice, m.bob)
                    for m in recovered.products
                ),
                (),
            )
            assert max(chsh_values(bx.mix_nonlocal(remainder))) == 2

    def test_blind_plan_ensemble_round_trips(self):
        plan = bx.plan_blind_steering(bx.TargetState(F(1, 4), F(1, 2)))
        box = bx.mix_nonlocal(plan.ensemble)
        assert bx.mix_nonlocal(bx.decompose(box)) == box


class TestIsLocal:
    def test_pr_vertices_nonlocal(self):
        for pr in bx.catalog_prs():
            assert not bx.is_local(pr_bipartite_box(pr))

    def test_product_vertices_local(self):
        for alice, bob in bx.catalog_products():
            assert bx.is_local(
                product_box(alice.as_local_box(), bob.as_local_box())
            )

    def test_uniform_box_local(self):
        assert bx.is_local(uniform_box())

    def test_noise_transition(self):
        # the facet oracle puts the local boundary of v*PR + (1-v)*uniform
        # at v* = 2 / max_facet(PR); both routes must agree there
        vstar = F(2) / max(chsh_values(pr_bipartite_box(bx.PRBox(0, 0, 0))))
        assert vstar == F(1, 2)
        assert bx.is_local(noisy_pr(vstar))
        assert bx.is_local(noisy_pr(vstar - F(1, 16)))
        assert not bx.is_local(noisy_pr(vstar + F(1, 16)))
        assert not bx.is_local(noisy_pr(F(1)))
        assert bx.is_local(noisy_pr(F(0)))

    @settings(max_examples=60, deadline=None)
    @given(nonlocal_ensembles())
    def test_agrees_with_facet_oracle(self, ensemble):
        box = bx.mix_nonlocal(ensemble)
        assert bx.is_local(box) == facet_local(box)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(nonlocal_ensembles(), pr_heavy_ensembles()))
    def test_agrees_with_simplex_oracle(self, ensemble):
        box = bx.mix_nonlocal(ensemble)
        assert bx.is_local(box) == simplex_local(box)

    def test_boundary_boxes_agree_with_simplex_oracle(self):
        boxes = boundary_boxes()
        verdicts = [bx.is_local(box) for box in boxes]
        assert verdicts == [simplex_local(box) for box in boxes]
        # both sides of the facet are represented
        assert True in verdicts and False in verdicts

    def test_decompose_on_local_boxes_remixes(self):
        # witnesses are not unique, so only the remix is checked
        for v in (F(0), F(1, 4), F(1, 2)):
            ensemble = bx.decompose(noisy_pr(v))
            assert bx.mix_nonlocal(ensemble) == noisy_pr(v)


class TestGluing:
    def test_library_carries_no_simplex(self):
        import boxsteer.polytope as polytope

        for name in ("solve_nonneg_exact", "_collins_gisin", "_catalog_cg_columns"):
            assert not hasattr(polytope, name)
        assert not hasattr(bx, "InfeasibleError")

    def test_pinned_witness(self):
        # the split rule decides the witness; a change of rule shows here
        ensemble = bx.decompose(noisy_pr(F(1, 4)))
        assert [(m.label, m.weight) for m in ensemble.members] == [
            ("S00xS10", F(1, 8)),
            ("S01xS01", F(1, 8)),
            ("S10xS00", F(3, 16)),
            ("S10xS01", F(1, 16)),
            ("S10xS11", F(1, 8)),
            ("S11xS00", F(3, 16)),
            ("S11xS01", F(3, 16)),
        ]

    @pytest.mark.parametrize("pr", bx.catalog_prs(), ids=lambda pr: pr.label)
    def test_chsh_exactly_two(self, pr):
        # on the facet the feasible chord values shrink to one point
        box = noisy_pr(F(1, 2), pr)
        ensemble = bx.decompose(box)
        assert_canonical(box, ensemble)
        assert ensemble.prs == ()
        assert len(ensemble.products) == 8
        assert all(m.weight == F(1, 8) for m in ensemble.products)
        chord = sum(
            (m.weight for m in ensemble.products if m.alice == bx.SBox(0, 0)), F(0)
        )
        assert chord_feasible(box, chord)
        assert not chord_feasible(box, chord - F(1, 64))
        assert not chord_feasible(box, chord + F(1, 64))

    @pytest.mark.parametrize("pr", bx.catalog_prs(), ids=lambda pr: pr.label)
    @pytest.mark.parametrize("v", [F(1, 4), F(1, 2) - F(1, 64)])
    def test_noisy_pr_vertices(self, pr, v):
        box = noisy_pr(v, pr)
        assert_canonical(box, bx.decompose(box))

    def test_deterministic_marginals(self):
        # a deterministic Alice leaves three of the four chord cells at 0,
        # a deterministic Bob half of the cells of each triangle
        mixed = bx.LocalBox(((F(1, 3), F(2, 3)), (F(3, 4), F(1, 4))))
        for s in (bx.SBox(i, j) for i, j in itertools.product(BITS, repeat=2)):
            box = product_box(s.as_local_box(), mixed)
            ensemble = bx.decompose(box)
            assert_canonical(box, ensemble)
            assert {m.alice for m in ensemble.products} == {s}
            box = product_box(mixed, s.as_local_box())
            ensemble = bx.decompose(box)
            assert_canonical(box, ensemble)
            assert {m.bob for m in ensemble.products} == {s}

    def test_boundary_boxes(self):
        for box in boundary_boxes():
            assert_canonical(box, bx.decompose(box))


class TestScenarioErrors:
    def test_wrong_shape_rejected(self):
        base = bx.LocalBox(((F(1, 3),) * 3, (F(1, 3),) * 3))
        box = product_box(base, bx.SBox(0, 0).as_local_box())
        with pytest.raises(bx.ValidationError):
            bx.decompose(box)
        with pytest.raises(bx.ValidationError):
            bx.is_local(box)

    def test_signalling_rejected(self):
        with pytest.raises(bx.SignallingError):
            bx.decompose(signalling_box())
        with pytest.raises(bx.SignallingError):
            bx.is_local(signalling_box())


def random_columns(rng: random.Random, rows: int, count: int):
    return tuple(
        tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rows))
        for _ in range(count)
    )


def combine(weights, columns):
    return [
        sum((w * col[i] for w, col in zip(weights, columns)), F(0))
        for i in range(len(columns[0]))
    ]


class TestSolver:
    def test_random_feasible_systems(self):
        rng = random.Random(20)
        for _ in range(300):
            columns = random_columns(rng, rng.randint(1, 6), rng.randint(1, 9))
            x = [
                F(rng.randint(0, 6), rng.randint(1, 4)) if rng.random() < 0.6 else F(0)
                for _ in columns
            ]
            rhs = combine(x, columns)
            solution = solve_nonneg_exact(columns, rhs)
            assert solution is not None
            assert all(isinstance(v, F) and v >= 0 for v in solution)
            assert combine(solution, columns) == rhs

    def test_random_rhs_outside_cone(self):
        # Farkas: every column on the nonnegative side of a random y and
        # the right-hand side strictly on the other side
        rng = random.Random(21)
        for _ in range(300):
            rows = rng.randint(1, 6)
            y = [F(rng.randint(-3, 3)) for _ in range(rows)]
            if not any(y):
                y[0] = F(1)
            norm = sum(v * v for v in y)

            def dot(vector):
                return sum(a * b for a, b in zip(y, vector))

            columns = []
            for col in random_columns(rng, rows, rng.randint(1, 9)):
                if dot(col) < 0:
                    col = tuple(-v for v in col)
                elif dot(col) == 0:
                    col = tuple(a + b for a, b in zip(col, y))
                columns.append(col)
            rhs = [F(rng.randint(-4, 4)) for _ in range(rows)]
            shift = dot(rhs) / norm + 1
            rhs = [r - shift * v for r, v in zip(rhs, y)]
            assert dot(rhs) < 0
            assert solve_nonneg_exact(tuple(columns), rhs) is None

    def test_infeasible_returns_none(self):
        columns = ((F(1), F(0)), (F(0), F(1)))
        assert solve_nonneg_exact(columns, [F(-1), F(1)]) is None

    def test_negative_rhs_feasible(self):
        columns = ((F(-1), F(0)), (F(0), F(1)))
        solution = solve_nonneg_exact(columns, [F(-2), F(3)])
        assert solution == [F(2), F(3)]
