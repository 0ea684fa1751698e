"""Sparse exact linear algebra over the rationals.

Rows are dicts {column: value} with no stored zeros; a value is an
``int`` or a ``Fraction``.  Everything here is deterministic: pivots are
chosen as the smallest column index of each reduced row, and input order
fixes the elimination order.  The reduced echelon form, and so every
answer, does not depend on that order; only the work does.  Incidence
rows taken in edge-id order are each reduced along a chain of two-entry
pivot rows, and ``deepest_first`` (rows by descending largest column)
keeps those chains short.  ``solve`` eliminates its equations
deepest-first and returns its solution keyed in increasing column
order; the callers that rank graph-local rows pass them in that order.

During elimination integral entries are held as Python ints: an
integral ``Fraction`` is taken in as its numerator, and a pivot row is
divided by its lead only when that lead is not +-1.  On unimodular rows
(incidence rows, characteristic functions) every step is then integer
arithmetic.  The results of ``solve`` and ``nullspace`` are still
``Fraction`` values.
"""

from __future__ import annotations

from math import lcm
from fractions import Fraction

Row = dict[int, int | Fraction]


def _held(x):
    """x as an int when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def row_axpy(row: Row, c, other: Row) -> Row:
    """row + c * other, dropping cancellations."""
    out = dict(row)
    for j, x in other.items():
        y = out.get(j, 0) + c * x
        if y:
            out[j] = y
        else:
            out.pop(j, None)
    return out


class Eliminator:
    """Incremental row reduction; keeps one pivot row per pivot column."""

    def __init__(self):
        self.pivots: dict[int, Row] = {}

    def reduce(self, row: Row) -> Row:
        row = {j: _held(x) for j, x in row.items()}
        while row:
            j = min(row)
            piv = self.pivots.get(j)
            if piv is None:
                return row
            c = -row[j]
            for i, x in piv.items():
                y = row.get(i, 0) + c * x
                if y:
                    row[i] = y
                else:
                    row.pop(i, None)
        return row

    def insert(self, row: Row) -> bool:
        """Reduce and keep the row; True if it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        j = min(row)
        lead = row[j]
        if lead == -1:
            row = {i: -x for i, x in row.items()}
        elif lead != 1:
            row = {i: _held(Fraction(x, lead)) for i, x in row.items()}
        self.pivots[j] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def deepest_first(rows: list[Row]) -> list[int]:
    """Indices of the rows by descending largest column, ties in input
    order (an empty row counts as the shallowest)."""
    return sorted(range(len(rows)), key=lambda i: -max(rows[i], default=-1))


def rank_of_rows(rows) -> int:
    """Rank of the span of the given sparse rows."""
    elim = Eliminator()
    for row in rows:
        elim.insert(row)
    return elim.rank


def _reduced_pivots(elim: Eliminator) -> dict[int, Row]:
    """The eliminator's pivot rows back-substituted to reduced echelon form.

    Pivot columns are cleared from the last to the first.  When column j
    is cleared, row j holds only j and free columns, so subtracting it
    from a row never adds or removes another pivot entry: the rows that
    hold j off their lead are known before any subtraction, and each
    clear touches only those rows.
    """
    pivots = dict(elim.pivots)
    holders: dict[int, list[int]] = {}
    for i, row in pivots.items():
        for j in row:
            if j != i and j in pivots:
                holders.setdefault(j, []).append(i)
    for j in sorted(holders, reverse=True):
        row = pivots[j]
        for i in holders[j]:
            pivots[i] = row_axpy(pivots[i], -pivots[i][j], row)
    return pivots


def nullspace(rows, ncols: int) -> list[Row]:
    """Basis of {x : row . x = 0 for all rows}, one vector per free column.

    The rows are fully reduced (RREF) so each basis vector reads directly
    off a free column; basis vectors are ordered by free column index.
    """
    elim = Eliminator()
    for row in rows:
        elim.insert(row)
    pivots = _reduced_pivots(elim)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec: Row = {f: Fraction(1)}
        for j, row in pivots.items():
            c = row.get(f)
            if c:
                vec[j] = Fraction(-c)
        basis.append(vec)
    return basis


def solve(rows, rhs, ncols: int) -> Row | None:
    """One exact solution of rows . x = rhs, or None if inconsistent.

    Works on the homogenized system (x, 1): each equation row.x = b is
    stored as row.x - L b = 0 with the constant in an extra last column,
    where L is the lcm of the denominators of rhs, so that column is
    integral.  Free variables are set to zero.  The equations are
    eliminated in ``deepest_first`` order of their rows, and the solution
    is keyed in increasing column order, so neither depends on the order
    of the input.
    """
    rows, rhs = list(rows), list(rhs)
    scale = lcm(*(b.denominator for b in rhs))
    aug_col = ncols
    elim = Eliminator()
    for i in deepest_first(rows):
        r, b = dict(rows[i]), rhs[i]
        if b:
            r[aug_col] = -b.numerator * (scale // b.denominator)
        elim.insert(r)
    if aug_col in elim.pivots:
        return None
    pivots = _reduced_pivots(elim)
    # Pivot row now reads x_j + (free terms) + c / L = 0; with free vars at
    # zero the solution is x_j = -c / L.
    sol: Row = {}
    for j in sorted(pivots):
        c = pivots[j].get(aug_col)
        if c:
            sol[j] = Fraction(-c, scale)
    return sol
