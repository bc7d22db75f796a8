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
cells are affine in q and r_y = p(a0=0, a1=0, b_y=0).  q and then each
r_y take their least feasible values (locality leaves room, by Fine),
and each chord cell (a0, a1) glues the triangles by its north-west
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
from .ensembles import NonlocalEnsemble, PRMember, ProductMember, _cell_rows
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


def _strongest_chsh(box: BipartiteBox) -> tuple[int, int, int]:
    """(C_pq, p, q) for the CHSH form of largest |C_pq| (first in (p, q)
    order on ties), C_pq as a numerator over the box's denominator D."""
    (e00, e01), (e10, e11) = (
        [t[0][0] + t[1][1] - t[0][1] - t[1][0] for t in block]
        for block in box.numerators
    )
    # the sign flips only at (x, y) = (1-p, 1-q)
    forms = [
        (e00 + e01 + e10 + e11 - 2 * e, p, q)
        for e, p, q in ((e11, 0, 0), (e10, 0, 1), (e01, 1, 0), (e00, 1, 1))
    ]
    return max(forms, key=lambda form: abs(form[0]))


def _glued_triangles(
    mass: int, alice: list[int], bob: list[int], joint: list[list[int]]
) -> list[dict[tuple[int, int, int], int]]:
    """The joints t_y(a0, a1, b_y), y = 0, 1, of Fine's two triangles for
    a local table of total ``mass`` with p(a_x=0) ``alice[x]``, p(b_y=0)
    ``bob[y]`` and p(a_x=0, b_y=0) ``joint[x][y]``, all numerators over
    one denominator."""
    triangles = []
    for y in (0, 1):
        p0, p1 = joint[0][y], joint[1][y]
        # cell (a0, a1, b): (constant, coefficient on q, coefficient on r_y)
        triangles.append({
            (0, 0, 0): (0, 0, 1),
            (0, 0, 1): (0, 1, -1),
            (0, 1, 0): (p0, 0, -1),
            (1, 0, 0): (p1, 0, -1),
            (0, 1, 1): (alice[0] - p0, -1, 1),
            (1, 0, 1): (alice[1] - p1, -1, 1),
            (1, 1, 0): (bob[y] - p0 - p1, 0, 1),
            (1, 1, 1): (mass - alice[0] - alice[1] - bob[y] + p0 + p1, 1, -1),
        })
    # a cell c + i*q + j*r_y >= 0 bounds r_y below (j = 1) or above
    # (j = -1); a lower and an upper bound leave room for r_y iff
    # (i + i') * q >= -(c + c'), with i + i' in {-1, 0, 1}.  The pairs
    # with i + i' = 1 bound q below, and by Fine's theorem the others
    # hold at the largest of those bounds.
    q = max(
        -(c + c_up)
        for cells in triangles
        for c, i, j in cells.values() if j == 1
        for c_up, i_up, j_up in cells.values() if j_up == -1 and i + i_up == 1
    )
    glued = []
    for cells in triangles:
        r = max(-c - i * q for c, i, j in cells.values() if j == 1)
        glued.append({key: c + i * q + j * r for key, (c, i, j) in cells.items()})
    return glued


def decompose(box: BipartiteBox) -> NonlocalEnsemble:
    """Exact convex decomposition of a one-bit no-signalling box over the
    24-vertex catalog: at most one PR member, of minimal weight, and at
    most 9 products in catalog order, glued by the north-west corner rule
    above, so every weight's denominator divides 4 lcm(box's denominators)."""
    _require_scenario(box, "decompose")
    chsh, alpha, beta = _strongest_chsh(box)
    # over 4D, mu = (|C_pq| - 2) / 2 is 2(|C| - 2D) and mu/2 is |C| - 2D
    den, t = box.den, box.numerators
    half = max(0, abs(chsh) - 2 * den)
    # catalog_prs() is in (alpha, beta, delta) order; delta = 1 iff C < 0
    pr = _built(PRMember, weight=Fraction(2 * half, 4 * den),
                box=catalog_prs()[4 * alpha + 2 * beta + (chsh < 0)])
    # the local remainder, unnormalized, by the numbers that fix it: its
    # mass, p(a_x=0), p(b_y=0) and p(a_x=0, b_y=0); the PR vertex has
    # uniform marginals and p(00|xy) = 1/2 where its cells hold (0, 0)
    peel = [half if (0, 0) in cells else 0 for cells in _cell_rows(pr)]  # by 2x + y
    t0, t1 = _glued_triangles(
        4 * den - 2 * half,
        [4 * (t[x][0][0][0] + t[x][0][0][1]) - half for x in (0, 1)],
        [4 * (t[0][y][0][0] + t[0][y][1][0]) - half for y in (0, 1)],
        [[4 * t[x][y][0][0] - peel[2 * x + y] for y in (0, 1)] for x in (0, 1)],
    )
    products = []
    for s_alice, s_bob in catalog_products():
        # an S box (alpha, beta) outputs beta on input 0, alpha XOR beta on 1
        a0, a1 = s_alice.beta, s_alice.alpha ^ s_alice.beta
        b0, b1 = s_bob.beta, s_bob.alpha ^ s_bob.beta
        u, v = t0[a0, a1, b0], t1[a0, a1, b0]
        w = min(u, v) if b0 == b1 else max(0, u - v)
        if w:
            products.append(
                _built(ProductMember, weight=Fraction(w, 4 * den), alice=s_alice, bob=s_bob)
            )
    # the members are distinct vertices of positive weight summing to one,
    # as NonlocalEnsemble would leave them, so none is merged or checked
    return _built(NonlocalEnsemble, products=tuple(products), prs=(pr,) if half else ())


def is_local(box: BipartiteBox) -> bool:
    """True iff the box is a convex combination of product vertices
    alone, i.e. (Fine) iff no CHSH value exceeds 2."""
    _require_scenario(box, "is_local")
    return abs(_strongest_chsh(box)[0]) <= 2 * box.den
