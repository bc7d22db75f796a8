import collections
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
from boxsteer import boxes
from simplex_oracle import solve_nonneg_exact
from strategies import (
    BOX_BUILDERS,
    catalog_boxes,
    chsh_values,
    facet_local,
    member_box,
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
        # built, by either constructor, while importing the CLI and
        # building its parser
        builders = sorted(f"BipartiteBox.{name}" for name in BOX_BUILDERS)
        code = (
            "import sys\n"
            "built = []\n"
            "def hook(frame, event, arg):\n"
            f"    if event == 'call' and frame.f_code.co_qualname in {builders!r}:\n"
            "        built.append(1)\n"
            "sys.setprofile(hook)\n"
            "from boxsteer import cli\n"
            "cli._build_parser()\n"
            "sys.setprofile(None)\n"
            "from boxsteer import BipartiteBox, NonlocalEnsemble, mix_nonlocal\n"
            "pr = NonlocalEnsemble.from_weights(prs={(0, 0, 0): 1})\n"
            "sys.setprofile(hook)\n"
            "BipartiteBox(mix_nonlocal(pr).table)\n"
            "sys.setprofile(None)\n"
            "print(len(built))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        # the control, after the parser: one box built each way
        assert done.stdout.strip() == "2"


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


# ---------------------------------------------------------------------------
# the integer lattice: a box's numerators over one common denominator
# ---------------------------------------------------------------------------

KEYS = tuple(itertools.product(BITS, repeat=4))
# pairwise coprime: the five primes just below 2**64
PRIMES_NEAR_2_64 = tuple(2**64 - k for k in (59, 83, 95, 179, 189))


def flat_box(flat) -> bx.BipartiteBox:
    """The one-bit box of 16 entries in (x, y, a, b) order."""
    return bx.BipartiteBox(
        [[[flat[8 * x + 4 * y + 2 * a:8 * x + 4 * y + 2 * a + 2] for a in BITS]
          for y in BITS] for x in BITS]
    )


def mixed_denominators():
    """Small denominators, 2**16..2**20, and coprime ones near 2**64."""
    return st.one_of(
        st.integers(1, 24),
        st.integers(2**16, 2**20),
        st.sampled_from(PRIMES_NEAR_2_64),
    )


@st.composite
def mixed_boxes(draw):
    """One-bit boxes over mixed denominators: a vertex ensemble of up to
    five members, each but the last weighing n/(d k) for its own d, or a
    PR vertex in white noise at visibility 1/2 + s/(4d), s in {-1, 0, 1},
    on either side of the CHSH facet or on it; half of them are then made
    to signal by moving up to 1/d of one cell to another of its block."""
    if draw(st.booleans()):
        vertices = draw(st.lists(st.integers(0, 23), min_size=1, max_size=5, unique=True))
        weights = []
        for _ in vertices[1:]:
            d = draw(mixed_denominators())
            weights.append(F(draw(st.integers(0, d)), d * len(vertices)))
        weights.append(1 - sum(weights, F(0)))
        catalog = catalog_boxes()
        flat = [
            sum((w * catalog[v].prob(*key) for w, v in zip(weights, vertices)), F(0))
            for key in KEYS
        ]
    else:
        visibility = F(1, 2) + F(draw(st.integers(-1, 1)), 4 * draw(mixed_denominators()))
        box = noisy_pr(visibility, draw(st.sampled_from(bx.catalog_prs())))
        flat = [box.prob(*key) for key in KEYS]
    if draw(st.booleans()):
        block = 4 * draw(st.integers(0, 3))
        source, target = draw(st.permutations(range(4)))[:2]
        moved = min(flat[block + source], F(1, draw(mixed_denominators())))
        flat[block + source] -= moved
        flat[block + target] += moved
    return flat_box(flat)


class TestLattice:
    @settings(max_examples=80, deadline=None)
    @given(mixed_boxes())
    def test_matches_simplex(self, box):
        den, numerators = box.den, box.numerators
        assert den == math.lcm(*(box.prob(*key).denominator for key in KEYS))
        assert all(
            F(numerators[x][y][a][b], den) == box.prob(x, y, a, b) for x, y, a, b in KEYS
        )
        # no-signalling iff a mixture of the 24 vertices
        rhs = [box.prob(*key) for key in KEYS] + [F(1)]
        columns = tuple(col + (F(1),) for col in CATALOG_COLUMNS)
        ns = solve_nonneg_exact(columns, rhs) is not None
        assert (bx.no_signalling_violations(box) == []) == ns
        if not ns:
            with pytest.raises(bx.SignallingError):
                bx.decompose(box)
            return
        assert bx.is_local(box) == simplex_local(box)
        assert_canonical(box, bx.decompose(box))

    def test_adds_no_fraction_once_built(self, monkeypatch):
        # the scan, the CHSH test, the peel, the gluing and the remix run
        # on integer numerators; Fractions are only built, never added
        p, q = PRIMES_NEAR_2_64[:2]
        boxes = [
            noisy_pr(F(1, 2) + F(1, p), bx.PRBox(1, 0, 1)),
            noisy_pr(F(1, 2) - F(1, 2**20)),
            bx.mix_nonlocal(
                bx.NonlocalEnsemble.from_weights(
                    {((0, 1), (1, 0)): F(1, p), ((1, 1), (0, 0)): F(1, 3)},
                    {(0, 1, 0): 1 - F(1, p) - F(1, 3) - F(3, q), (1, 1, 1): F(3, q)},
                )
            ),
        ]
        signalling = signalling_box()

        def refuse(*args):
            raise AssertionError("Fraction arithmetic on a built box")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
            monkeypatch.setattr(F, name, refuse)
        assert bx.no_signalling_violations(signalling)
        for box in boxes:
            assert bx.no_signalling_violations(box) == []
            bx.is_local(box)
            assert bx.mix_nonlocal(bx.decompose(box)) == box


    def test_one_op_budget(self):
        # one geometry op on a Fraction-valued table: the public constructor,
        # the scan, decompose, the remix and the locality test.  The
        # decomposition and the remix are built as valid, so the op builds
        # Fractions for the weights alone and checks no index in its loops
        # over fixed bits; the first op reads each vertex's cells, once
        watched = {F.__new__.__code__: "Fraction", boxes._require_index.__code__: "index"}
        p = PRIMES_NEAR_2_64[0]
        ensembles = [
            bx.NonlocalEnsemble.from_weights(
                {((0, 1), (1, 0)): F(1, p), ((1, 1), (0, 0)): F(1, 3)},
                {(0, 1, 0): 1 - F(1, p) - F(1, 3)},
            ),
            # every vertex, weighing 1/300 to 24/300
            bx.NonlocalEnsemble(
                tuple(bx.ProductMember(F(k + 1, 300), *vertex)
                      for k, vertex in enumerate(bx.catalog_products())),
                tuple(bx.PRMember(F(k + 17, 300), pr) for k, pr in enumerate(bx.catalog_prs())),
            ),
        ]
        tables = [noisy_pr(F(1, 2) + F(1, p), bx.PRBox(1, 0, 1)).table]
        tables += [bx.mix_nonlocal(e).table for e in ensembles]

        def op(table):
            box = bx.BipartiteBox(table)
            assert bx.no_signalling_violations(box) == []
            remix = bx.mix_nonlocal(bx.decompose(box))
            bx.is_local(box)
            return box, remix

        for table in tables:
            op(table)
            counts = collections.Counter()

            def hook(frame, event, arg):
                if event == "call" and frame.f_code in watched:
                    counts[watched[frame.f_code]] += 1

            sys.setprofile(hook)
            try:
                box, remix = op(table)
            finally:
                sys.setprofile(None)
            assert remix == box
            assert counts["Fraction"] <= 12 and counts["index"] <= 10, counts


def assert_same_box(built: bx.BipartiteBox, public: bx.BipartiteBox) -> None:
    """``built`` is ``public``: equal, with the same lattice, hash, table
    and repr."""
    assert built == public
    assert (built.den, built.numerators) == (public.den, public.numerators)
    assert hash(built) == hash(public)
    assert built.table == public.table
    assert repr(built) == repr(public)


class TestBuiltAsValid:
    """``mix_nonlocal`` and ``decompose`` build their boxes, members and
    ensembles without the public checks.  Each equals what the public
    constructor builds from the same data, which it accepts."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(nonlocal_ensembles(), nonlocal_ensembles(2**20)))
    def test_remix_is_the_public_box(self, ensemble):
        box = bx.mix_nonlocal(ensemble)
        # the same box summed in Fractions over the members' vertex tables
        tables = [(m.weight, member_box(m)) for m in ensemble.members]
        public = bx.BipartiteBox([[[[
            sum((w * vertex.prob(x, y, a, b) for w, vertex in tables), F(0))
            for b in BITS] for a in BITS] for y in BITS] for x in BITS])
        assert_same_box(box, public)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(nonlocal_ensembles().map(bx.mix_nonlocal), mixed_boxes()))
    def test_decomposition_is_the_public_ensemble(self, box):
        if bx.no_signalling_violations(box):
            return
        ensemble = bx.decompose(box)
        for built in ensemble.members:
            if isinstance(built, bx.ProductMember):
                public = bx.ProductMember(built.weight, built.alice, built.bob)
            else:
                public = bx.PRMember(built.weight, built.box)
            assert built == public and hash(built) == hash(public)
            assert repr(built) == repr(public)
        # the public constructor merges nothing, drops nothing and accepts the sum
        public = bx.NonlocalEnsemble(ensemble.products, ensemble.prs)
        assert ensemble == public and hash(ensemble) == hash(public)
        assert repr(ensemble) == repr(public)
        assert_same_box(bx.mix_nonlocal(ensemble), box)


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
