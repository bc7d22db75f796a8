"""Shared generators for the test suite.

Two flavors: hypothesis strategies for property tests, and plain
``random.Random`` builders for the seeded batch loops in the acceptance
suite.  Everything produced here is exact-rational.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from hypothesis import strategies as st

import boxsteer as bx

BITS = (0, 1)


def rationals(max_denominator: int = 16):
    return st.fractions(min_value=0, max_value=1, max_denominator=max_denominator)


@st.composite
def weight_vectors(draw, n: int, max_denominator: int = 16):
    # n nonnegative fractions summing to 1: differences of sorted cut points
    cuts = sorted(
        draw(
            st.lists(
                rationals(max_denominator), min_size=n - 1, max_size=n - 1
            )
        )
    )
    points = [Fraction(0)] + list(cuts) + [Fraction(1)]
    return tuple(points[i + 1] - points[i] for i in range(n))


@st.composite
def local_boxes(draw, num_inputs: int = 2, num_outputs: int = 2, max_denominator: int = 16):
    rows = tuple(
        draw(weight_vectors(num_outputs, max_denominator))
        for _ in range(num_inputs)
    )
    return bx.LocalBox(rows)


@st.composite
def nonlocal_ensembles(draw, max_denominator: int = 16):
    """Random mixture over the 24 vertex boxes (many weights may be zero)."""
    weights = draw(weight_vectors(24, max_denominator))
    products = tuple(
        bx.ProductMember(w, alice, bob)
        for w, (alice, bob) in zip(weights[:16], bx.catalog_products())
        if w != 0
    )
    prs = tuple(
        bx.PRMember(w, pr) for w, pr in zip(weights[16:], bx.catalog_prs()) if w != 0
    )
    return bx.NonlocalEnsemble(products, prs)


def catalog_ensembles() -> list[bx.NonlocalEnsemble]:
    """Single-member ensembles, one per catalog vertex: 16 products, 8 PRs."""
    one = Fraction(1)
    return [
        bx.NonlocalEnsemble((bx.ProductMember(one, alice, bob),), ())
        for alice, bob in bx.catalog_products()
    ] + [bx.NonlocalEnsemble((), (bx.PRMember(one, pr),)) for pr in bx.catalog_prs()]


def vertex_ensembles():
    return st.sampled_from(catalog_ensembles())


@st.composite
def product_only_ensembles(draw, max_denominator: int = 16):
    """Product members over one or two Bob factors and no PR member, so
    that Bob often never sees one of his outcomes on some input."""
    sboxes = [bx.SBox(alpha, beta) for alpha in BITS for beta in BITS]
    bobs = draw(st.lists(st.sampled_from(sboxes), min_size=1, max_size=2, unique=True))
    pairs = [(alice, bob) for alice in sboxes for bob in bobs]
    weights = draw(weight_vectors(len(pairs), max_denominator))
    return bx.NonlocalEnsemble(
        tuple(
            bx.ProductMember(w, alice, bob)
            for w, (alice, bob) in zip(weights, pairs)
            if w != 0
        ),
        (),
    )


@st.composite
def interior_targets(draw, denominator: int = 24):
    """Rational (s,t) strictly inside the canonical triangle."""
    # 0 < i < j and i + j < denominator, so s > 0, t > s, s + t < 1
    i = draw(st.integers(min_value=1, max_value=(denominator - 2) // 2))
    j = draw(st.integers(min_value=i + 1, max_value=denominator - i - 1))
    return bx.TargetState(Fraction(i, denominator), Fraction(j, denominator))


# ---------------------------------------------------------------------------
# plain-random builders (seeded batch loops)
# ---------------------------------------------------------------------------


def random_weights(rng: random.Random, n: int, scale: int = 24) -> tuple[Fraction, ...]:
    """n nonnegative fractions with a common denominator summing to 1."""
    den = rng.randint(n, scale * n)
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    points = [0] + cuts + [den]
    return tuple(
        Fraction(points[i + 1] - points[i], den) for i in range(n)
    )


def random_local_box(rng: random.Random, num_inputs: int, num_outputs: int) -> bx.LocalBox:
    return bx.LocalBox(
        tuple(random_weights(rng, num_outputs) for _ in range(num_inputs))
    )


def random_nonlocal_ensemble(rng: random.Random) -> bx.NonlocalEnsemble:
    """Random support over the 24 vertices, random rational weights."""
    support_size = rng.randint(1, 24)
    chosen = rng.sample(range(24), support_size)
    weights = random_weights(rng, support_size)
    product_catalog = bx.catalog_products()
    pr_catalog = bx.catalog_prs()
    products = []
    prs = []
    for w, idx in zip(weights, chosen):
        if w == 0:
            continue
        if idx < 16:
            alice, bob = product_catalog[idx]
            products.append(bx.ProductMember(w, alice, bob))
        else:
            prs.append(bx.PRMember(w, pr_catalog[idx - 16]))
    if not products and not prs:
        return bx.NonlocalEnsemble(
            (), (bx.PRMember(Fraction(1), bx.PRBox(0, 0, 0)),)
        )
    return bx.NonlocalEnsemble(tuple(products), tuple(prs))


def random_blind_split(rng: random.Random, ensemble: bx.NonlocalEnsemble) -> bx.NonlocalEnsemble:
    """Random member split honoring a blind ensemble's exact aggregates:
    each Alice factor's product weight spread over the four Bob factors,
    the PR weight over the four beta=0 PR boxes."""
    products = {}
    for (i, j), total in product_totals(ensemble).items():
        shares = random_weights(rng, 4)
        for (k, l), share in zip(itertools.product(BITS, BITS), shares):
            if share != 0:
                products[((i, j), (k, l))] = total * share
    prs = {}
    pr_weight = pr_totals(ensemble).get(0, Fraction(0))
    if pr_weight != 0:
        shares = random_weights(rng, 4)
        for (alpha, delta), share in zip(itertools.product(BITS, BITS), shares):
            if share != 0:
                prs[(alpha, 0, delta)] = pr_weight * share
    return bx.NonlocalEnsemble.from_weights(products=products, prs=prs)


# coprime denominators of 4,291 digits, each under the int-string limit
LONG_D1, LONG_D2 = 10**4290 + 1, 10**4290 + 3


def long_split() -> bx.NonlocalEnsemble:
    """A split over the (1/4, 1/2) plan's support with the wrong aggregates:
    S01xS00 at 1/D1, S01xS01 at 1/D2, S11xS00 at 1/2 - 1/D1 and PR000 at
    1/2 - 1/D2.  Each weight prints; a sum over both denominators does not."""
    half = Fraction(1, 2)
    return bx.NonlocalEnsemble.from_weights(
        products={
            ((0, 1), (0, 0)): Fraction(1, LONG_D1),
            ((0, 1), (0, 1)): Fraction(1, LONG_D2),
            ((1, 1), (0, 0)): half - Fraction(1, LONG_D1),
        },
        prs={(0, 0, 0): half - Fraction(1, LONG_D2)},
    )


def product_box(alice: bx.LocalBox, bob: bx.LocalBox) -> bx.BipartiteBox:
    """Uncorrelated pair: p(ab|xy) = p(a|x) * p(b|y)."""
    return bx.BipartiteBox(tuple(
        tuple(
            tuple(
                tuple(alice.prob(x, a) * bob.prob(y, b) for b in range(bob.num_outputs))
                for a in range(alice.num_outputs)
            )
            for y in range(bob.num_inputs)
        )
        for x in range(alice.num_inputs)
    ))


def pr_bipartite_box(pr: bx.PRBox) -> bx.BipartiteBox:
    """The PR box's table, written out rather than read off its ``cells``:
    1/2 on each (a, b) with a XOR b equal to its parity on (x, y)."""
    half = Fraction(1, 2)
    return bx.BipartiteBox(tuple(
        tuple(
            tuple(tuple(half * (a ^ b == pr.parity(x, y)) for b in BITS) for a in BITS)
            for y in BITS
        )
        for x in BITS
    ))


# every way a BipartiteBox is built: from a table it validates, or from
# numerators that are valid already
BOX_BUILDERS = ("__init__", "_of_numerators")


def refuse_boxes(monkeypatch) -> None:
    """Make building a ``BipartiteBox``, by either constructor, fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("BipartiteBox built")

    for name in BOX_BUILDERS:
        monkeypatch.setattr(bx.BipartiteBox, name, refuse)


def member_box(member: bx.Member) -> bx.BipartiteBox:
    """A member's vertex table: the product of its two S boxes' tables,
    or its PR box's."""
    if isinstance(member, bx.ProductMember):
        return product_box(member.alice.as_local_box(), member.bob.as_local_box())
    return pr_bipartite_box(member.box)


def target_box(target: bx.TargetState) -> bx.LocalBox:
    """Alice's table p(a|x) for the announced state (s, t)."""
    return bx.LocalBox(((target.s, 1 - target.s), (target.t, 1 - target.t)))


def target_from_box(box: bx.LocalBox) -> bx.TargetState:
    """The state (s, t) = (p(0|x=0), p(0|x=1)) of a 2-input/2-output box."""
    return bx.TargetState(box.prob(0, 0), box.prob(1, 0))


def catalog_boxes() -> list[bx.BipartiteBox]:
    """The 24 vertex tables in catalog order: 16 products, then 8 PR boxes."""
    return [
        product_box(alice.as_local_box(), bob.as_local_box())
        for alice, bob in bx.catalog_products()
    ] + [pr_bipartite_box(pr) for pr in bx.catalog_prs()]


def strategy_of(box: bx.LocalBox) -> tuple[int, ...]:
    """Deterministic box -> its output per input."""
    return tuple(
        next(a for a in range(box.num_outputs) if box.prob(x, a) == 1)
        for x in range(box.num_inputs)
    )


def all_strategies(num_inputs: int, num_outputs: int) -> list[tuple[int, ...]]:
    """Every deterministic strategy (f(0), f(1), ...), in lexicographic order."""
    return list(itertools.product(range(num_outputs), repeat=num_inputs))


def det_box(strategy: tuple[int, ...], num_outputs: int) -> bx.LocalBox:
    return bx.LocalBox(bx.boxes.deterministic_table(strategy, num_outputs))


def realizes(ensemble: bx.Ensemble, target: bx.LocalBox) -> bool:
    """True iff the ensemble mixes exactly to ``target``."""
    if (ensemble.num_inputs, ensemble.num_outputs) != (
        target.num_inputs,
        target.num_outputs,
    ):
        raise bx.ValidationError("ensemble and target box have different alphabets")
    return bx.mix(ensemble) == target


def round_trips(state: bx.SteeringState) -> bool:
    """True iff conditioning recovers every source ensemble exactly."""
    return all(
        ensembles_equal(bx.steered_ensemble(state, y), ensemble)
        for y, ensemble in enumerate(state.source_ensembles)
    )


def product_decomposition(box: bx.LocalBox) -> bx.Ensemble:
    """Every local box mixes its deterministic strategies with product
    weights prod_x p(f(x)|x); this ensemble always realizes the box."""
    members = []
    for strategy in all_strategies(box.num_inputs, box.num_outputs):
        w = Fraction(1)
        for x in range(box.num_inputs):
            w *= box.prob(x, strategy[x])
        if w != 0:
            members.append((w, det_box(strategy, box.num_outputs)))
    return bx.Ensemble(tuple(members))


def perturbed_same_mixture(rng: random.Random, ensemble: bx.Ensemble) -> bx.Ensemble:
    """A (usually different) ensemble realizing the same box.

    Shifts weight along a null direction of the mixing map: raise
    strategies agreeing with (a0 at x1, b0 at x2) and (a1, b1), lower
    the two cross terms, all per-input marginals unchanged.  Falls back
    to the unmodified ensemble when there is no slack (X = 1, or the
    cross terms carry no weight).
    """
    target = bx.mix(ensemble)
    num_inputs, num_outputs = target.num_inputs, target.num_outputs
    if num_inputs < 2 or num_outputs < 2:
        return ensemble
    weights: dict[tuple[int, ...], Fraction] = {
        strategy: Fraction(0) for strategy in all_strategies(num_inputs, num_outputs)
    }
    for w, member in ensemble.members:
        weights[strategy_of(member)] += w
    x1, x2 = rng.sample(range(num_inputs), 2)
    a0, a1 = rng.sample(range(num_outputs), 2)
    b0, b1 = rng.sample(range(num_outputs), 2)
    fixed = {
        x: rng.randrange(num_outputs)
        for x in range(num_inputs)
        if x not in (x1, x2)
    }

    def strat(aa: int, bb: int) -> tuple[int, ...]:
        f = dict(fixed)
        f[x1], f[x2] = aa, bb
        return tuple(f[x] for x in range(num_inputs))

    plus = [strat(a0, b0), strat(a1, b1)]
    minus = [strat(a0, b1), strat(a1, b0)]
    slack = min(weights[s] for s in minus)
    if slack == 0:
        plus, minus = minus, plus
        slack = min(weights[s] for s in minus)
        if slack == 0:
            return ensemble
    eps = slack * Fraction(rng.randint(1, 4), 4)
    for s in plus:
        weights[s] += eps
    for s in minus:
        weights[s] -= eps
    members = tuple(
        (w, det_box(s, num_outputs)) for s, w in weights.items() if w != 0
    )
    return bx.Ensemble(members)


def random_same_mixture_case(
    rng: random.Random, k: int, num_inputs: int, num_outputs: int
) -> list[bx.Ensemble]:
    """k ensembles over the same random box, for remote-preparation tests."""
    base = product_decomposition(random_local_box(rng, num_inputs, num_outputs))
    return [base] + [perturbed_same_mixture(rng, base) for _ in range(k - 1)]


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def condition_on_bob(box: bx.BipartiteBox, y: int, b: int) -> bx.LocalBox:
    """Alice's conditional box p(a|x; y,b) after Bob measured y and saw b."""
    bx.boxes._require_no_signalling(box, "condition_on_bob")
    bx.boxes._require_index("y", y, box.num_inputs_bob)
    bx.boxes._require_index("b", b, box.num_outputs_bob)
    A = box.num_outputs_alice
    p_b = sum(box.table[0][y][a][b] for a in range(A))
    if p_b == 0:
        raise bx.ZeroProbabilityError(
            f"p(b={b}|y={y}) = 0: conditional state undefined"
        )
    return bx.LocalBox(tuple(
        tuple(box.table[x][y][a][b] / p_b for a in range(A))
        for x in range(box.num_inputs_alice)
    ))


def ensembles_equal(first: bx.Ensemble, second: bx.Ensemble) -> bool:
    """Order-insensitive equality of merged member weights."""
    return first.num_outputs == second.num_outputs and dict(
        (s, w) for w, s in first.strategies
    ) == dict((s, w) for w, s in second.strategies)


def round_log_to_json(log: bx.RoundLog) -> dict:
    """A round's fields as a JSON object, S boxes by label: the oracle that
    ``serialize.ndjson_line`` matches after ``json.dumps(..., sort_keys=True)``."""
    return {
        "round_id": log.round_id,
        "member_id": log.member_id,
        "x": log.x,
        "y": log.y,
        "a": log.a,
        "b": log.b,
        "referee_inference": log.referee_inference.label,
        "alice_actual": log.alice_actual.label,
    }


def sbox_to_json(sbox: bx.SBox) -> str:
    """An S box as the log and split documents write it: its label."""
    return sbox.label


def product_totals(ensemble: bx.NonlocalEnsemble) -> dict[tuple[int, int], Fraction]:
    """Aggregate product weight per Alice factor (alpha, beta), zero totals
    left out."""
    totals: dict[tuple[int, int], Fraction] = {}
    for m in ensemble.products:
        key = (m.alice.alpha, m.alice.beta)
        totals[key] = totals.get(key, Fraction(0)) + m.weight
    return {k: v for k, v in totals.items() if v != 0}


def pr_totals(ensemble: bx.NonlocalEnsemble) -> dict[int, Fraction]:
    """Aggregate PR weight per beta parameter, zero totals left out."""
    totals: dict[int, Fraction] = {}
    for m in ensemble.prs:
        totals[m.box.beta] = totals.get(m.box.beta, Fraction(0)) + m.weight
    return {k: v for k, v in totals.items() if v != 0}


def is_interior(target: bx.TargetState) -> bool:
    """Strictly inside the canonical triangle (all constructed weights positive)."""
    return target.s > 0 and target.t > target.s and target.s + target.t < 1


def closed_form_reduction(
    ensemble: bx.NonlocalEnsemble, y: int
) -> dict[bx.SBox, Fraction]:
    """Alice's reduction computed from aggregates only: the S_ij weight
    is (product total on (i,j)) + half the PR total with beta = i XOR y."""
    products, prs = product_totals(ensemble), pr_totals(ensemble)
    out = {}
    for i in BITS:
        for j in BITS:
            w = (
                products.get((i, j), Fraction(0))
                + prs.get(i ^ y, Fraction(0)) / 2
            )
            if w != 0:
                out[bx.SBox(i, j)] = w
    return out


def correlators(box: bx.BipartiteBox) -> dict[tuple[int, int], Fraction]:
    return {
        (x, y): sum(
            (Fraction(-1) if (a ^ b) else Fraction(1)) * box.prob(x, y, a, b)
            for a in BITS
            for b in BITS
        )
        for x in BITS
        for y in BITS
    }


def chsh_values(box: bx.BipartiteBox) -> list[Fraction]:
    """The eight facet expressions sum_xy (-1)^((x^p)(y^q)) E_xy and
    their negations; a 2x2x2x2 NS box is local iff all are <= 2."""
    E = correlators(box)
    values = []
    for p in BITS:
        for q in BITS:
            total = sum(
                (Fraction(-1) if ((x ^ p) & (y ^ q)) else Fraction(1)) * E[x, y]
                for x in BITS
                for y in BITS
            )
            values.extend([total, -total])
    return values


def facet_local(box: bx.BipartiteBox) -> bool:
    return max(chsh_values(box)) <= 2


def ensemble_weight_map(ensemble: bx.Ensemble) -> dict[tuple[tuple[Fraction, ...], ...], Fraction]:
    return {box.table: w for w, box in ensemble.members}


_RAW = "\0raw\0"  # stands for a replacement's JSON text
_DUPLICATE = "\0dup\0"  # stands for a duplicated key


def json_text(doc, lines: bool = False) -> str:
    """A JSON document as text; with ``lines``, a list of log lines as NDJSON."""
    if lines:
        return "".join(json.dumps(line, sort_keys=True) + "\n" for line in doc)
    return json.dumps(doc)


def resolve(doc, path: tuple):
    """The value at ``path``, a tuple of keys and indices, in ``doc``."""
    for step in path:
        doc = doc[step]
    return doc


def mutated(doc, kind: str, path: tuple, key, raw: str, lines: bool = False) -> str:
    """``doc`` as text (:func:`json_text`) with the value at ``path``
    replaced by the JSON text ``raw`` (kind "replace"), or with the key
    ``key`` of the object at ``path`` dropped ("drop") or given a second
    time, with the value ``raw`` ("duplicate"); ``lines`` as there."""
    if kind == "replace" and not path:
        return raw
    doc = json.loads(json.dumps(doc))
    parent = resolve(doc, path[:-1] if kind == "replace" else path)
    if kind == "replace":
        parent[path[-1]] = _RAW
    elif kind == "drop":
        del parent[key]
    else:
        parent[_DUPLICATE] = _RAW
    text = json_text(doc, lines).replace(json.dumps(_DUPLICATE), json.dumps(key))
    return text.replace(json.dumps(_RAW), raw)
