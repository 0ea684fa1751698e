"""Sparse exact linear algebra over the rationals.

Rows are dicts {column: Fraction} with no stored zeros.  Everything here
is deterministic: pivots are chosen as the smallest column index of each
reduced row, and input order fixes the elimination order.

Integer rows can also be ranked over GF(p) (``rank_mod_p``).  That rank
is a lower bound on the rank over Q, so when it meets a proven upper
bound it certifies the rational rank; ``certified_rank`` falls back to
exact elimination whenever it does not.
"""

from __future__ import annotations

from fractions import Fraction

Row = dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def row_scale(row: Row, c: Fraction) -> Row:
    return {j: c * x for j, x in row.items()}


def row_axpy(row: Row, c: Fraction, other: Row) -> Row:
    """row + c * other, dropping cancellations."""
    out = dict(row)
    for j, x in other.items():
        y = out.get(j, ZERO) + c * x
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
        row = dict(row)
        while row:
            j = min(row)
            piv = self.pivots.get(j)
            if piv is None:
                return row
            c = -row[j]
            for i, x in piv.items():
                y = row.get(i, ZERO) + c * x
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
        self.pivots[j] = row_scale(row, ONE / row[j])
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank_of_rows(rows) -> int:
    """Rank of the span of the given sparse rows."""
    elim = Eliminator()
    for row in rows:
        elim.insert(row)
    return elim.rank


MODULUS = 2 ** 31 - 1


def rank_mod_p(rows, p: int = MODULUS) -> int:
    """Rank over GF(p) of sparse rows with integer entries, p prime.

    Reducing an integer matrix mod p can only lose rank, so the result is
    a lower bound on the rank over Q.  A non-integer entry is a ValueError.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        red: dict[int, int] = {}
        for j, x in row.items():
            if getattr(x, "denominator", None) != 1:
                raise ValueError(f"rank_mod_p needs integer entries, got {x!r}")
            x = x.numerator % p
            if x:
                red[j] = x
        while red:
            j = min(red)
            piv = pivots.get(j)
            if piv is None:
                inv = pow(red[j], -1, p)
                pivots[j] = {i: x * inv % p for i, x in red.items()}
                break
            c = red[j]
            for i, x in piv.items():
                y = (red.get(i, 0) - c * x) % p
                if y:
                    red[i] = y
                else:
                    del red[i]
    return len(pivots)


def certified_rank(rows, upper: int) -> int:
    """Rank over Q of integer rows, given a proven upper bound on it.

    The GF(p) rank is a lower bound, so when it reaches ``upper`` the two
    meet and ``upper`` is the rank.  Otherwise the exact Fraction
    elimination decides.
    """
    rows = list(rows)
    if rank_mod_p(rows) == upper:
        return upper
    return rank_of_rows(rows)


def _reduced_pivots(elim: Eliminator) -> dict[int, Row]:
    """The eliminator's pivot rows back-substituted to reduced echelon form."""
    pivots = dict(elim.pivots)
    for j in sorted(pivots, reverse=True):
        row = pivots[j]
        for i in sorted(pivots):
            if i >= j:
                break
            if j in pivots[i]:
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
        vec: Row = {f: ONE}
        for j, row in pivots.items():
            c = row.get(f, ZERO)
            if c:
                vec[j] = -c
        basis.append(vec)
    return basis


def solve(rows, rhs, ncols: int) -> Row | None:
    """One exact solution of rows . x = rhs, or None if inconsistent.

    Works on the homogenized system (x, 1): each equation row.x = b is
    stored as row.x - b = 0 with the constant in an extra last column.
    Free variables are set to zero.
    """
    aug_col = ncols
    elim = Eliminator()
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[aug_col] = -b
        elim.insert(r)
    if aug_col in elim.pivots:
        return None
    pivots = _reduced_pivots(elim)
    # Pivot row now reads x_j + (free terms) + c = 0; with free vars at zero
    # the solution is x_j = -c.
    sol: Row = {}
    for j, row in pivots.items():
        c = row.get(aug_col, ZERO)
        if c:
            sol[j] = -c
    return sol


def spans_same_space(basis_a: list[Row], basis_b: list[Row]) -> bool:
    """Exact subspace equality via stacked ranks."""
    ra = rank_of_rows(basis_a)
    rb = rank_of_rows(basis_b)
    if ra != rb:
        return False
    return rank_of_rows(list(basis_a) + list(basis_b)) == ra
