"""Sparse exact elimination against plain Gauss-Jordan over Fraction
(``reference.rref``)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import tower
from treeforms import _linalg
from treeforms.cochains import incidence_rank, incidence_rows
from treeforms.tower import num_components


def random_sparse_rows(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        rows.append({j: v for j, v in row.items() if v})
    return rows


class TestRank:
    def test_simple(self):
        one = Fraction(1)
        rows = [{0: one, 1: one}, {1: one}, {0: one, 1: 2 * one}]
        assert _linalg.rank_of_rows(rows) == 2

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_matches_reference(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = random_sparse_rows(rng, nrows, ncols)
        assert _linalg.rank_of_rows(rows) == reference.rank(rows)


class TestNullspace:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_dimension_and_membership(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = random_sparse_rows(rng, nrows, ncols)
        basis = _linalg.nullspace(rows, ncols)
        rank = reference.rank(rows)
        assert len(basis) == ncols - rank
        for vec in basis:
            for row in rows:
                dot = sum((row[j] * vec.get(j, Fraction(0)) for j in row), Fraction(0))
                assert dot == 0
        # linear independence of the basis itself
        assert _linalg.rank_of_rows(basis) == len(basis)

    def test_empty_system_full_nullspace(self):
        assert len(_linalg.nullspace([], 4)) == 4


class TestSolve:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_solution_satisfies_system(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = random_sparse_rows(rng, nrows, ncols)
        x = {j: Fraction(rng.randrange(-3, 4)) for j in range(ncols)}
        rhs = [sum((row[j] * x.get(j, Fraction(0)) for j in row), Fraction(0))
               for row in rows]
        sol = _linalg.solve(rows, rhs, ncols)
        assert sol is not None
        for row, b in zip(rows, rhs):
            assert sum((row[j] * sol.get(j, Fraction(0)) for j in row), Fraction(0)) == b

    def test_inconsistent_detected(self):
        one = Fraction(1)
        rows = [{0: one}, {0: one}]
        assert _linalg.solve(rows, [one, 2 * one], 1) is None


def same(got, want):
    """Equal values in the same key order, every value a Fraction."""
    assert list(got.items()) == list(want.items())
    assert all(type(x) is Fraction for x in got.values())


def same_solution(got, want):
    """Equal values, every value a Fraction, keys in increasing column
    order."""
    assert got == want
    assert all(type(x) is Fraction for x in got.values())
    assert list(got) == sorted(got)


# Unit and non-unit pivots, held both as int and as Fraction.
ENTRIES = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-1), Fraction(3),
                           Fraction(-2, 3), Fraction(4, 1)])
RHS = st.one_of(st.integers(-3, 3),
                st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def systems(draw):
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), ENTRIES), max_size=8))
    return rows, ncols


def apply(rows, x):
    return [sum((v * x.get(j, 0) for j, v in row.items()), Fraction(0)) for row in rows]


def same_rref(rows):
    """``_reduced_pivots`` of the rows is the reference RREF, pivot by
    pivot, with the pivots in the order the rows created them and each
    row's keys in the same order."""
    elim = _linalg.Eliminator()
    for row in rows:
        elim.insert(row)
    got, want = _linalg._reduced_pivots(elim), reference.rref(rows)
    assert list(got) == list(want)
    for j, row in want.items():
        assert list(got[j].items()) == list(row.items())


class TestReducedPivots:
    @settings(max_examples=150, deadline=None)
    @given(system=systems())
    def test_matches_reference(self, system):
        same_rref(system[0])

    @pytest.mark.parametrize("q,radius", [(2, 3), (2, 4), (3, 3), (3, 4)])
    def test_incidence_grid(self, q, radius):
        rng = random.Random(q * 10 + radius)
        for k in range(4):
            pg = tower(q, radius, k)
            # Half the rows carry a column after the last vertex, as in solve.
            rows = [row | {pg.num_vertices: Fraction(rng.choice([-3, -1, 1, 2]))}
                    if rng.random() < 0.5 else row for row in incidence_rows(pg)]
            same_rref(rows)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(system=systems())
    def test_rank_and_nullspace(self, system):
        rows, ncols = system
        assert _linalg.rank_of_rows(rows) == reference.rank(rows)
        got = _linalg.nullspace(rows, ncols)
        want = reference.nullspace(rows, ncols)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same(g, w)

    @settings(max_examples=150, deadline=None)
    @given(system=systems(), data=st.data())
    def test_solve_mixed_denominators(self, system, data):
        rows, ncols = system
        rhs = data.draw(st.lists(RHS, min_size=len(rows), max_size=len(rows)))
        got = _linalg.solve(rows, rhs, ncols)
        want = reference.solve(rows, rhs, ncols)
        assert (got is None) == (want is None)
        if want is not None:
            same_solution(got, want)
            assert apply(rows, got) == rhs

    @settings(max_examples=100, deadline=None)
    @given(system=systems(), data=st.data())
    def test_solve_consistent_and_inconsistent(self, system, data):
        rows, ncols = system
        x = data.draw(st.dictionaries(st.integers(0, ncols - 1), RHS))
        rhs = apply(rows, x)
        got = _linalg.solve(rows, rhs, ncols)
        assert got is not None
        same_solution(got, reference.solve(rows, rhs, ncols))
        # Repeating an equation with its right-hand side moved by 1/2
        # makes the system inconsistent.
        rows = rows + [rows[0] if rows else {}]
        rhs = rhs + [(rhs[0] if rhs else 0) + Fraction(1, 2)]
        assert _linalg.solve(rows, rhs, ncols) is None
        assert reference.solve(rows, rhs, ncols) is None

    def test_pivot_row_held_as_ints(self):
        elim = _linalg.Eliminator()
        elim.insert({2: Fraction(-1), 5: Fraction(3)})
        elim.insert({3: 2, 4: Fraction(3)})
        assert elim.pivots == {2: {2: 1, 5: -3}, 3: {3: 1, 4: Fraction(3, 2)}}
        assert [type(x) for x in elim.pivots[2].values()] == [int, int]

    @pytest.mark.parametrize("q,radius", [(2, 3), (2, 4), (3, 3), (3, 4)])
    def test_incidence_solve_grid(self, q, radius):
        rng = random.Random(q * 10 + radius)
        for k in range(4):
            pg = tower(q, radius, k)
            rows = list(incidence_rows(pg))
            f = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                 for _ in range(pg.num_vertices)]
            consistent = [f[pg.head[a]] - f[pg.tail[a]] for a in range(pg.num_edges)]
            arbitrary = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 5))
                         for _ in range(pg.num_edges)]
            for rhs in (consistent, arbitrary):
                got = _linalg.solve(rows, rhs, pg.num_vertices)
                want = reference.solve(rows, rhs, pg.num_vertices)
                assert (got is None) == (want is None)
                if want is not None:
                    same_solution(got, want)
            assert _linalg.solve(rows, consistent, pg.num_vertices) is not None


class TestDeepestFirst:
    def test_order(self):
        rows = [{0: 1}, {}, {1: 1, 4: 2}, {3: 1}, {4: -1}]
        assert _linalg.deepest_first(rows) == [2, 4, 3, 0, 1]

    @settings(max_examples=150, deadline=None)
    @given(system=systems(), data=st.data())
    def test_solve_ignores_equation_order(self, system, data):
        rows, ncols = system
        if data.draw(st.booleans()):
            rhs = apply(rows, data.draw(st.dictionaries(st.integers(0, ncols - 1), RHS)))
        else:
            rhs = data.draw(st.lists(RHS, min_size=len(rows), max_size=len(rows)))
        perm = data.draw(st.permutations(range(len(rows))))
        got = _linalg.solve(rows, rhs, ncols)
        shuffled = _linalg.solve([rows[i] for i in perm], [rhs[i] for i in perm], ncols)
        assert (got is None) == (shuffled is None)
        if got is not None:
            assert list(shuffled.items()) == list(got.items())

    @settings(max_examples=150, deadline=None)
    @given(system=systems())
    def test_rank_of_deepest_first_rows(self, system):
        rows = system[0]
        deep = [rows[i] for i in _linalg.deepest_first(rows)]
        assert _linalg.rank_of_rows(deep) == _linalg.rank_of_rows(rows) == reference.rank(rows)

    @pytest.mark.parametrize("q,radius", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                          (3, 1), (3, 2), (3, 3)])
    def test_incidence_rank(self, q, radius):
        for k in range(4):
            pg = tower(q, radius, k)
            rank = incidence_rank(pg)
            assert rank == pg.num_vertices - num_components(pg)
            assert rank == reference.rank(incidence_rows(pg))
