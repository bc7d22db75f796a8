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

The local remainder is split over the 16 product vertices by a
phase-one simplex over :class:`fractions.Fraction` with Bland's rule,
in Collins-Gisin coordinates (Alice's and Bob's p(0|input), p(00|xy)
and normalization: 9 rows, which fix a no-signalling table).  Columns
are scanned in catalog order and ties in the ratio test break toward
the lowest basis index, so the returned decomposition is a
deterministic function of the input (and Bland's rule rules out
cycling).  Decompositions are not unique in general; callers verify
results by remixing, not by comparing witnesses.  The same simplex over
the full tables is the tests' oracle for both closed forms.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from fractions import Fraction
from typing import Sequence

from .boxes import BipartiteBox, PRBox, SBox, _require_no_signalling
from .ensembles import NonlocalEnsemble, PRMember, ProductMember
from .errors import InfeasibleError, ValidationError

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
    return tuple(
        (SBox(i, j), SBox(k, l))
        for i, j, k, l in itertools.product((0, 1), repeat=4)
    )


@functools.cache
def catalog_prs() -> tuple[PRBox, ...]:
    """The 8 PR vertices, ordered lexicographically by (alpha, beta, delta)."""
    return tuple(PRBox(a, b, d) for a, b, d in itertools.product((0, 1), repeat=3))


@functools.cache
def catalog_labels() -> tuple[str, ...]:
    return tuple(
        f"{alice.label}x{bob.label}" for alice, bob in catalog_products()
    ) + tuple(pr.label for pr in catalog_prs())


def _flatten(box: BipartiteBox) -> list[Fraction]:
    return [
        box.prob(x, y, a, b)
        for x, y, a, b in itertools.product((0, 1), repeat=4)
    ]


@functools.cache
def _catalog_columns() -> tuple[tuple[Fraction, ...], ...]:
    columns = [
        tuple(_flatten(ProductMember(Fraction(1), alice, bob).as_bipartite_box()))
        for alice, bob in catalog_products()
    ]
    columns += [tuple(_flatten(pr.as_bipartite_box())) for pr in catalog_prs()]
    return tuple(columns)


@functools.cache
def catalog_hash() -> str:
    """Digest of the vertex ordering and tables; changing either changes
    every decomposition witness, so the digest names the convention."""
    payload = "|".join(
        label + ":" + ",".join(str(v) for v in column)
        for label, column in zip(catalog_labels(), _catalog_columns())
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def solve_nonneg_exact(
    columns: tuple[tuple[Fraction, ...], ...], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Find x >= 0 with sum_j x_j * columns[j] == rhs, exactly.

    Phase-one simplex: artificial variables start basic, the entering
    column is the lowest-index real column with positive reduced cost,
    and the leaving row is the minimum-ratio row with the lowest basis
    index.  Returns None when no nonnegative solution exists.
    """
    n = len(columns)
    m = len(rhs)
    # tableau rows: real columns, then rhs; the artificial columns are
    # never read, so only their basis labels n + i are kept
    rows: list[list[Fraction]] = []
    for i in range(m):
        row = [columns[j][i] for j in range(n)]
        row.append(rhs[i])
        if rhs[i] < 0:
            row = [-v for v in row]
        rows.append(row)
    basis = [n + i for i in range(m)]
    # reduced costs for minimizing the artificial total, then that total
    cost = [sum(rows[i][j] for i in range(m)) for j in range(n + 1)]

    while True:
        enter = next((j for j in range(n) if cost[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                ratio = rows[i][-1] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    leave, best = i, ratio
        if leave is None:
            raise InfeasibleError("phase-one objective unbounded; malformed system")
        pivot = rows[leave][enter]
        if pivot != 1:
            rows[leave] = [v / pivot if v else v for v in rows[leave]]
        pivot_row = rows[leave]
        # zero entries of the pivot row leave every other row unchanged
        support = [k for k, v in enumerate(pivot_row) if v]
        for row in rows + [cost]:
            factor = row[enter]
            if factor and row is not pivot_row:
                for k in support:
                    row[k] -= factor * pivot_row[k]
        basis[leave] = enter

    if cost[-1] != 0:
        return None
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = rows[i][-1]
    return solution


def _require_scenario(box: BipartiteBox, op: str) -> None:
    if box.shape != (2, 2, 2, 2):
        raise ValidationError(
            f"{op} is defined on the one-bit scenario, got shape {box.shape}"
        )
    _require_no_signalling(box, op)


def _strongest_chsh(box: BipartiteBox) -> tuple[Fraction, int, int]:
    """(C_pq, p, q) for the CHSH form of largest |C_pq| (first in (p, q)
    order on ties)."""
    correlators = [
        [t[0][0] + t[1][1] - t[0][1] - t[1][0] for t in block] for block in box.table
    ]
    strongest = None
    for p, q in itertools.product((0, 1), repeat=2):
        value = sum(
            -correlators[x][y] if (x ^ p) & (y ^ q) else correlators[x][y]
            for x, y in itertools.product((0, 1), repeat=2)
        )
        if strongest is None or abs(value) > abs(strongest[0]):
            strongest = (value, p, q)
    return strongest


def _collins_gisin(flat: Sequence[Fraction]) -> list[Fraction]:
    """pA(0|x), pB(0|y), p(00|xy) and the normalization of a flat
    (x, y, a, b) no-signalling table, which they determine."""
    return (
        [flat[8 * x] + flat[8 * x + 1] for x in (0, 1)]
        + [flat[4 * y] + flat[4 * y + 2] for y in (0, 1)]
        + [flat[8 * x + 4 * y] for x, y in itertools.product((0, 1), repeat=2)]
        + [sum(flat[:4])]
    )


@functools.cache
def _catalog_cg_columns() -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(_collins_gisin(col)) for col in _catalog_columns())


def decompose(box: BipartiteBox) -> NonlocalEnsemble:
    """Exact convex decomposition of a one-bit no-signalling box over the
    24-vertex catalog, with at most one PR member of minimal weight.
    Remixing the result reproduces ``box`` exactly."""
    _require_scenario(box, "decompose")
    chsh, p, q = _strongest_chsh(box)
    rhs = _collins_gisin(_flatten(box))
    local_share = Fraction(1)
    prs: tuple[PRMember, ...] = ()
    if abs(chsh) > 2:
        pr = PRBox(p, q, 0 if chsh > 0 else 1)
        weight = (abs(chsh) - 2) / 2
        prs = (PRMember(weight, pr),)
        if weight == 1:
            return NonlocalEnsemble((), prs)
        local_share -= weight
        vertex = _catalog_cg_columns()[16 + catalog_prs().index(pr)]
        rhs = [(v - weight * c) / local_share for v, c in zip(rhs, vertex)]
    weights = solve_nonneg_exact(_catalog_cg_columns()[:16], rhs)
    if weights is None:
        raise InfeasibleError(
            "no convex combination of catalog vertices matches the table; "
            "a normalized no-signalling table should never reach this"
        )
    products = tuple(
        ProductMember(w * local_share, alice, bob)
        for w, (alice, bob) in zip(weights, catalog_products())
        if w != 0
    )
    return NonlocalEnsemble(products, prs)


def is_local(box: BipartiteBox) -> bool:
    """True iff the box is a convex combination of product vertices
    alone, i.e. (Fine) iff no CHSH value exceeds 2."""
    _require_scenario(box, "is_local")
    return abs(_strongest_chsh(box)[0]) <= 2
