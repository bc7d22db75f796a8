"""Seeded inputs for the benchmark workloads, as plain exact data.

Everything here is built from ``random.Random`` and
``fractions.Fraction`` alone, without calling boxsteer, so the library
receives only finished inputs.  Box tables are nested tuples
``table[x][y][a][b]``; ensembles are lists of ``(weight, strategy)``
pairs; nonlocal ensembles are the ``products``/``prs`` weight dicts that
``NonlocalEnsemble.from_weights`` takes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

BITS = (0, 1)
CELLS = tuple(itertools.product(BITS, repeat=4))  # (x, y, a, b) in table order
HALF = Fraction(1, 2)

# Targets live on a 1/16 grid, like the acceptance suite's blind grid.
GRID = 16


def nest(flat) -> tuple:
    """16 entries in (x, y, a, b) order -> table[x][y][a][b]."""
    return tuple(
        tuple(
            tuple(tuple(flat[8 * x + 4 * y + 2 * a + b] for b in BITS) for a in BITS)
            for y in BITS
        )
        for x in BITS
    )


def product_vertex(alice: tuple[int, int], bob: tuple[int, int]) -> tuple:
    """S(i,j) x S(k,l): a = i*x ^ j and b = k*y ^ l, as a flat table."""
    (i, j), (k, l) = alice, bob
    return tuple(
        int(a == (i & x) ^ j and b == (k & y) ^ l) for x, y, a, b in CELLS
    )


def pr_vertex(alpha: int, beta: int, delta: int) -> tuple:
    """a ^ b = (x ^ alpha)(y ^ beta) ^ delta, each consistent pair at 1/2."""
    return tuple(
        HALF if a ^ b == ((x ^ alpha) & (y ^ beta)) ^ delta else 0
        for x, y, a, b in CELLS
    )


PRODUCT_KEYS = tuple(
    ((i, j), (k, l)) for i, j, k, l in itertools.product(BITS, repeat=4)
)
PR_KEYS = tuple(itertools.product(BITS, repeat=3))
VERTICES = tuple(product_vertex(*key) for key in PRODUCT_KEYS) + tuple(
    pr_vertex(*key) for key in PR_KEYS
)


def mix_flat(weighted) -> tuple:
    """sum_w w * vertex over (weight, flat vertex) pairs."""
    acc = [Fraction(0)] * 16
    for weight, vertex in weighted:
        for cell, value in enumerate(vertex):
            if value:
                acc[cell] += weight * value
    return tuple(acc)


def mix_weights(products: dict, prs: dict) -> tuple:
    """Flat table of a nonlocal ensemble given as ``from_weights`` dicts."""
    return mix_flat(
        [(w, product_vertex(*key)) for key, w in products.items()]
        + [(w, pr_vertex(*key)) for key, w in prs.items()]
    )


def random_weights(rng: random.Random, n: int, den: int) -> list[Fraction]:
    """n nonnegative weights over a common denominator, summing to 1."""
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    points = [0] + cuts + [den]
    return [Fraction(points[i + 1] - points[i], den) for i in range(n)]


# ---------------------------------------------------------------------------
# geometry: no-signalling 2x2x2x2 boxes
# ---------------------------------------------------------------------------


def geometry_box(rng: random.Random) -> tuple:
    """A flat no-signalling table.

    Three in four are random vertex ensembles with 1-24 members over a
    small (<= 24 per member) or large (2^16..2^20) denominator; the rest
    are PR boxes in white noise at visibility 1/2 +- up to 1/4, i.e. on
    either side of the CHSH facet (local iff visibility <= 1/2).
    """
    if rng.random() < 0.25:
        den = rng.randint(4, 64)
        visibility = HALF + Fraction(rng.randint(-den // 4, den // 4), den)
        pr = pr_vertex(*rng.choice(PR_KEYS))
        return tuple(visibility * p + (1 - visibility) / 4 for p in pr)
    members = rng.randint(1, 24)
    chosen = rng.sample(range(24), members)
    if rng.random() < 0.5:
        den = rng.randint(members, 24 * members)
    else:
        den = rng.randint(2**16, 2**20)
    weights = random_weights(rng, members, den)
    return mix_flat((w, VERTICES[v]) for w, v in zip(weights, chosen) if w)


# ---------------------------------------------------------------------------
# blind targets and their splits
# ---------------------------------------------------------------------------


def grid_target(rng: random.Random) -> tuple[Fraction, Fraction]:
    """(s, t) on the 1/16 grid, in any of the four triangles (so most
    need relabeling), off both diagonals and off the square's edges."""
    while True:
        i, j = rng.randint(1, GRID - 1), rng.randint(1, GRID - 1)
        if i != j and i + j != GRID:
            return Fraction(i, GRID), Fraction(j, GRID)


def blind_aggregates(s: Fraction, t: Fraction) -> tuple[dict, Fraction]:
    """The forced aggregate weights of a blind-steering ensemble for
    (s, t), in the target's own coordinates: product weight per Alice
    factor (alpha, beta), and the total weight of beta=0 PR boxes.

    In the canonical triangle (t >= s, s + t < 1) they are S01: 1-s-t,
    S11: t-s and PR: 2s; the relabeling that brings (s, t) there flips
    Alice's output (beta ^= 1) and/or input (beta ^= alpha).
    """
    flip_outputs = s + t > 1
    if flip_outputs:
        flip_inputs = s < t
        s, t = 1 - s, 1 - t
    else:
        flip_inputs = t < s
    if flip_inputs:
        s, t = t, s
    fo, fi = int(flip_outputs), int(flip_inputs)
    products = {(0, 1 ^ fo): 1 - s - t, (1, 1 ^ fi ^ fo): t - s}
    return products, 2 * s


def blind_split(rng: random.Random, s: Fraction, t: Fraction) -> tuple[dict, dict]:
    """A random member split of (s, t)'s blind aggregates: each product
    aggregate over the four Bob factors, the PR weight over the four
    beta=0 PR boxes."""
    product_totals, pr_total = blind_aggregates(s, t)
    den = rng.randint(4, 24)
    products = {}
    for alice, total in product_totals.items():
        for bob, share in zip(itertools.product(BITS, BITS), random_weights(rng, 4, den)):
            if share:
                products[alice, bob] = total * share
    prs = {}
    for (alpha, delta), share in zip(
        itertools.product(BITS, BITS), random_weights(rng, 4, den)
    ):
        if share:
            prs[alpha, 0, delta] = pr_total * share
    return products, prs


def skewed_policy(rng: random.Random) -> tuple:
    """A 2x2 input policy p(x, y) with every pair possible."""
    den = rng.randint(8, 32)
    cuts = sorted(rng.sample(range(1, den), 3))
    points = [0] + cuts + [den]
    w = [Fraction(points[i + 1] - points[i], den) for i in range(4)]
    return ((w[0], w[1]), (w[2], w[3]))


# ---------------------------------------------------------------------------
# remote preparation: several ensembles with one mixture
# ---------------------------------------------------------------------------


def _greedy_decomposition(rows: list[list[Fraction]], pick) -> list:
    """Peel deterministic strategies off a local box: choose one output
    per input with ``pick``, take the smallest chosen entry as weight,
    subtract, repeat.  Every row keeps the same remaining mass, so the
    weights sum to 1."""
    rows = [list(row) for row in rows]
    members = []
    while any(any(row) for row in rows):
        strategy = tuple(pick(row) for row in rows)
        weight = min(row[a] for row, a in zip(rows, strategy))
        for row, a in zip(rows, strategy):
            row[a] -= weight
        members.append((weight, strategy))
    return members


def _largest(row):
    return max(range(len(row)), key=lambda a: row[a])


def _smallest_positive(row):
    return min((a for a in range(len(row)) if row[a]), key=lambda a: row[a])


def _independent_decomposition(rows: list[list[Fraction]]) -> list:
    """Weight prod_x p(f(x)|x) on every deterministic strategy f."""
    members = []
    for strategy in itertools.product(*(range(len(row)) for row in rows)):
        weight = Fraction(1)
        for row, a in zip(rows, strategy):
            weight *= row[a]
        if weight:
            members.append((weight, strategy))
    return members


# (ensembles, inputs, outputs) of a same-mixture case
SAME_MIXTURE_SHAPES = tuple(itertools.product((2, 3), repeat=3))


def same_mixture_case(rng: random.Random, shape: tuple[int, int, int]) -> tuple[int, list]:
    """k ensembles over the given inputs and outputs, ``shape`` being
    (k, inputs, outputs), that all mix to one random local box, as
    (num_outputs, [[(weight, strategy)]])."""
    k, num_inputs, num_outputs = shape
    den = rng.randint(num_outputs, 12)
    rows = [random_weights(rng, num_outputs, den) for _ in range(num_inputs)]
    ensembles = [
        _independent_decomposition(rows),
        _greedy_decomposition(rows, _largest),
        _greedy_decomposition(rows, _smallest_positive),
    ]
    return num_outputs, ensembles[:k]


def strategy_table(strategy: tuple[int, ...], num_outputs: int) -> tuple:
    return tuple(
        tuple(Fraction(int(a == f)) for a in range(num_outputs)) for f in strategy
    )
