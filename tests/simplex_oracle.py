"""Exact nonnegative solver, the tests' oracle for the closed forms.

A phase-one simplex over :class:`fractions.Fraction` with Bland's rule:
columns are scanned in index order and ties in the ratio test break
toward the lowest basis index, so it cannot cycle.  The tests use it to
check ``is_local`` against a split over the 16 product vertices, the
chord values that ``decompose``'s gluing may take on the CHSH facet, the
extremality of the 24 catalog vertices, and the forced blind aggregates.
"""

from __future__ import annotations

from fractions import Fraction


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
            raise RuntimeError("phase-one objective unbounded; malformed system")
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
