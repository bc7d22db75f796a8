"""Exact vertex decomposition over the one-bit no-signalling polytope.

The no-signalling boxes on binary inputs and outputs form an
8-dimensional polytope with 24 vertices: the 16 products of S boxes and
the 8 PR boxes.  :func:`decompose` writes any such box as an exact
convex combination of catalog vertices; :func:`is_local` asks whether
the product vertices alone suffice.

Both reduce to a nonnegative exact-rational linear solve, done by a
phase-one simplex over :class:`fractions.Fraction` with Bland's rule.
Columns are scanned in catalog order and ties in the ratio test break
toward the lowest basis index, so the returned decomposition is a
deterministic function of the input (and Bland's rule rules out
cycling).  Decompositions are not unique in general; callers verify
results by remixing, not by comparing witnesses.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from fractions import Fraction

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
    # tableau rows: real columns, then artificial identity, then rhs
    rows: list[list[Fraction]] = []
    for i in range(m):
        real = [columns[j][i] for j in range(n)]
        target = rhs[i]
        if target < 0:
            real = [-v for v in real]
            target = -target
        row = real
        row += [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        row.append(target)
        rows.append(row)
    basis = [n + i for i in range(m)]
    # reduced-cost row for minimizing the artificial total
    cost = [sum(rows[i][j] for i in range(m)) for j in range(n)]
    objective = sum(rows[i][-1] for i in range(m))

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
        rows[leave] = [v / pivot for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                factor = rows[i][enter]
                rows[i] = [v - factor * p for v, p in zip(rows[i], rows[leave])]
        factor = cost[enter]
        cost = [c - factor * p for c, p in zip(cost, rows[leave][:n])]
        objective -= factor * rows[leave][-1]
        basis[leave] = enter

    if objective != 0:
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


def decompose(box: BipartiteBox) -> NonlocalEnsemble:
    """Exact convex decomposition of a one-bit no-signalling box over the
    24-vertex catalog.  Remixing the result reproduces ``box`` exactly."""
    _require_scenario(box, "decompose")
    columns = _catalog_columns()
    rhs = _flatten(box) + [Fraction(1)]
    padded = tuple(col + (Fraction(1),) for col in columns)
    weights = solve_nonneg_exact(padded, rhs)
    if weights is None:
        raise InfeasibleError(
            "no convex combination of catalog vertices matches the table; "
            "a normalized no-signalling table should never reach this"
        )
    products = tuple(
        ProductMember(w, alice, bob)
        for w, (alice, bob) in zip(weights[:16], catalog_products())
        if w != 0
    )
    prs = tuple(
        PRMember(w, pr)
        for w, pr in zip(weights[16:], catalog_prs())
        if w != 0
    )
    return NonlocalEnsemble(products, prs)


def is_local(box: BipartiteBox) -> bool:
    """True iff the box is a convex combination of product vertices alone."""
    _require_scenario(box, "is_local")
    columns = _catalog_columns()[:16]
    rhs = _flatten(box) + [Fraction(1)]
    padded = tuple(col + (Fraction(1),) for col in columns)
    return solve_nonneg_exact(padded, rhs) is not None
