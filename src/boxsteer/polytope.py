"""Exact vertex decomposition over the one-bit no-signalling polytope.

The no-signalling boxes on binary inputs and outputs form an
8-dimensional polytope with 24 vertices: the 16 products of S boxes and
the 8 PR boxes.  :func:`decompose` writes any such box as an exact
convex combination of catalog vertices; :func:`is_local` asks whether
the product vertices alone suffice.

Both start from the eight CHSH values of the box,
``C_pq = sum_xy (-1)^((x XOR p)(y XOR q)) E_xy`` and their negations,
where ``E_xy`` is the correlator of inputs (x, y).  By Fine's theorem a
one-bit no-signalling box is local iff every CHSH value is at most 2,
so :func:`is_local` is that comparison.  At most one value exceeds 2
(any two forms sum or differ to twice a sum of two correlators, so
``|C_pq| + |C_p'q'| <= 4``), and a box with ``|C_pq| > 2`` is, after
Barrett et al., a mixture of the single vertex ``PR(p, q, delta)``
(``delta`` = 0 for C > 0, 1 for C < 0) with weight
``mu = (|C_pq| - 2) / 2`` and a local remainder whose CHSH values are
all at most 2.  No smaller PR weight leaves a local remainder, so
:func:`decompose` uses at most one PR vertex, with the minimal weight.

The local remainder is split over the 16 product vertices in closed
form, after the constructive half of Fine's theorem (PRL 48:291, 1982).
A product vertex is an assignment (a0, a1, b0, b1), and the remainder
fixes the pairwise marginals p(a_x, b_y).  Adding Alice's chord
q = p(a0=0, a1=0) splits them into the triangles (a0, a1, b_y), whose
cells are c + i q + j r_y with r_y = p(a0=0, a1=0, b_y=0), i and j in
{-1, 0, 1}.  A cell with j = 1 bounds r_y below, one with j = -1 above,
and such a pair leaves room for r_y iff (i + i') q >= -(c + c').  Only
the lower cells (0,0,0), (1,1,0) (i = 0) meet upper ones with i' = 1,
(0,0,1) and (1,1,1), so they alone bound q below; q and then each r_y
take their least values, and by Fine every other pair holds.  With M
the remainder's mass, A_x = p(a_x=0), B_y = p(b_y=0), P_xy = p(a_x=0,
b_y=0):

    q   = max(0, A0 + A1 - M, max_y (P0y + P1y - By),
                 max_y (A0 + A1 + By - P0y - P1y - M)),
    r_y = max(0, q - A0 + P0y, q - A1 + P1y, P0y + P1y - By).

Each chord cell (a0, a1) glues the triangles by its north-west
corner rule (the Frechet-Hoeffding upper bound): w(a0 a1 b b) =
min(t_0(a0 a1 b), t_1(a0 a1 b)) and w(a0 a1 b b') = max(0,
t_0(a0 a1 b) - t_1(a0 a1 b)) for b' != b.  Nothing divides: triangle
cells, and so weights, are integer combinations of box entries and of
mu/2 = (|C_pq| - 2)/4, so every denominator divides 4 lcm(box's entry
denominators).  A chord cell with n > 0 nonzero triangle cells gets at
most n - 1 products; the least r_y zero a cell of each triangle and the
least q two of one, so at most 13 of the 16 cells are nonzero, and the
result lists at most 9 products, deterministically, in catalog order.
Decompositions are not unique in general; callers verify results by
remixing, not by comparing witnesses.  The tests check both closed
forms against an exact simplex.

Both run on the box's integer numerators over one denominator D (local
iff ``|C| <= 2D``); the peel and the triangles are numerators over 4D,
and the only ``Fraction``s built are the weights, ``Fraction(w, 4D)``.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .boxes import SBOXES, BipartiteBox, PRBox, SBox, _built, _require_no_signalling
from .ensembles import PAIRS, NonlocalEnsemble, PRMember, ProductMember
from .errors import ValidationError

__all__ = [
    "catalog_products",
    "catalog_prs",
    "catalog_labels",
    "catalog_hash",
    "decompose",
    "is_local",
]


@functools.cache
def catalog_products() -> tuple[tuple[SBox, SBox], ...]:
    """The 16 product vertices, ordered lexicographically by
    (Alice alpha, Alice beta, Bob alpha, Bob beta)."""
    return tuple(itertools.product(SBOXES, repeat=2))


@functools.cache
def catalog_prs() -> tuple[PRBox, ...]:
    """The 8 PR vertices, ordered lexicographically by (alpha, beta, delta)."""
    return tuple(PRBox(a, b, d) for a, b, d in itertools.product((0, 1), repeat=3))


@functools.cache
def catalog_labels() -> tuple[str, ...]:
    return tuple(
        f"{alice.label}x{bob.label}" for alice, bob in catalog_products()
    ) + tuple(pr.label for pr in catalog_prs())


def catalog_hash() -> str:
    """Digest of the vertex ordering and tables: the first 16 hex digits
    of the SHA-256 of ``label:p,p,...`` per vertex (the labels of
    :func:`catalog_labels`, each table flattened in (x, y, a, b) order),
    joined by ``|``.  The tests recompute it.  A decomposition witness
    depends on this convention and on the split rule of
    :func:`decompose`, so the digest and the package version together
    name the witnesses a box gets."""
    return "843f5f0aaa8bd927"


def _require_scenario(box: BipartiteBox, op: str) -> None:
    if box.shape != (2, 2, 2, 2):
        raise ValidationError(
            f"{op} is defined on the one-bit scenario, got shape {box.shape}"
        )
    _require_no_signalling(box, op)


# per catalog product (S_A, S_B): its triangle cell 4 a0 + 2 a1 + b0, and b0 == b1
_PRODUCT_CELLS = tuple(
    (4 * a.output(0) + 2 * a.output(1) + b.output(0), b.output(0) == b.output(1), a, b)
    for a, b in catalog_products()
)


def _glued_triangles(
    mass: int, alice: list[int], bob: list[int], joint: list[list[int]]
) -> list[tuple[int, ...]]:
    """Fine's two triangles t_y(a0, a1, b_y), y = 0, 1, by 4 a0 + 2 a1 + b,
    for a local table with M ``mass``, A_x ``alice[x]``, B_y ``bob[y]`` and
    P_xy ``joint[x][y]``, numerators over one denominator: module docstring."""
    a0, a1 = alice
    both = [joint[0][y] + joint[1][y] for y in (0, 1)]
    q = max(0, a0 + a1 - mass, *[s - b for s, b in zip(both, bob)],
            *[a0 + a1 + b - s - mass for s, b in zip(both, bob)])
    glued = []
    for p0, p1, b, s in zip(joint[0], joint[1], bob, both):
        r = max(0, q - a0 + p0, q - a1 + p1, s - b)
        glued.append((r, q - r, p0 - r, a0 - p0 - q + r, p1 - r, a1 - p1 - q + r,
                      b - s + r, mass - a0 - a1 - b + s + q - r))
    return glued


def decompose(box: BipartiteBox) -> NonlocalEnsemble:
    """Exact convex decomposition of a one-bit no-signalling box over the
    24-vertex catalog: at most one PR member, of minimal weight, and at
    most 9 products in catalog order, glued by the north-west corner rule
    above, so every weight's denominator divides 4 lcm(box's denominators)."""
    _require_scenario(box, "decompose")
    chsh, alpha, beta = box._strongest_chsh
    # over 4D, mu = (|C_pq| - 2) / 2 is 2(|C| - 2D) and mu/2 is |C| - 2D
    den, t = box.den, box.numerators
    half = max(0, abs(chsh) - 2 * den)
    prs, peel = (), [0] * 4
    if half:
        # catalog_prs() is in (alpha, beta, delta) order; delta = 1 iff C < 0
        pr = catalog_prs()[4 * alpha + 2 * beta + (chsh < 0)]
        prs = (_built(PRMember, weight=Fraction(2 * half, 4 * den), box=pr),)
        # the PR vertex has uniform marginals, and p(00|xy) = 1/2 where its
        # parity on (x, y) is 0; peel is by 2x + y, the order of PAIRS
        peel = [0 if pr.parity(x, y) else half for x, y in PAIRS]
    # the local remainder, unnormalized, by the numbers that fix it: its
    # mass, p(a_x=0), p(b_y=0) and p(a_x=0, b_y=0)
    t0, t1 = _glued_triangles(
        4 * den - 2 * half,
        [4 * (t[x][0][0][0] + t[x][0][0][1]) - half for x in (0, 1)],
        [4 * (t[0][y][0][0] + t[0][y][1][0]) - half for y in (0, 1)],
        [[4 * t[x][y][0][0] - peel[2 * x + y] for y in (0, 1)] for x in (0, 1)],
    )
    products = []
    for cell, same, s_alice, s_bob in _PRODUCT_CELLS:
        u, v = t0[cell], t1[cell]
        w = min(u, v) if same else max(0, u - v)
        if w:
            products.append(
                _built(ProductMember, weight=Fraction(w, 4 * den), alice=s_alice, bob=s_bob)
            )
    # the members are distinct vertices of positive weight summing to one,
    # as NonlocalEnsemble would leave them, so none is merged or checked
    return _built(NonlocalEnsemble, products=tuple(products), prs=prs)


def is_local(box: BipartiteBox) -> bool:
    """True iff the box is a convex combination of product vertices
    alone, i.e. (Fine) iff no CHSH value exceeds 2."""
    _require_scenario(box, "is_local")
    return abs(box._strongest_chsh[0]) <= 2 * box.den
