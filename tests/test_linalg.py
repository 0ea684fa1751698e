"""Sparse exact elimination against a dense fraction RREF oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeforms import _linalg


def dense_rref_rank(matrix):
    """Dense Gaussian elimination over Fraction; independent oracle."""
    m = [row[:] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def to_dense(rows, ncols):
    return [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]


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
    def test_matches_dense_oracle(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = random_sparse_rows(rng, nrows, ncols)
        assert _linalg.rank_of_rows(rows) == dense_rref_rank(to_dense(rows, ncols))


class TestNullspace:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_dimension_and_membership(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = random_sparse_rows(rng, nrows, ncols)
        basis = _linalg.nullspace(rows, ncols)
        rank = dense_rref_rank(to_dense(rows, ncols))
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


class TestSpansSameSpace:
    def test_equal_spans(self):
        one = Fraction(1)
        a = [{0: one}, {1: one}]
        b = [{0: one, 1: one}, {0: one, 1: -one}]
        assert _linalg.spans_same_space(a, b)

    def test_different_spans(self):
        one = Fraction(1)
        assert not _linalg.spans_same_space([{0: one}], [{1: one}])


P = _linalg.MODULUS


def random_integer_rows(rng, nrows, ncols, entries):
    """Sparse rows with non-zero entries drawn from `entries`."""
    return [{j: rng.choice(entries) for j in range(ncols) if rng.random() < 0.5}
            for _ in range(nrows)]


class TestModularRank:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p=st.sampled_from([2, 3, 5, P]))
    def test_lower_bound_on_rational_rank(self, seed, p):
        rng = random.Random(seed)
        rows = random_integer_rows(rng, rng.randrange(1, 8), rng.randrange(1, 8),
                                   [-3, -2, -1, 1, 2, 3, P, 2 * P])
        assert _linalg.rank_mod_p(rows, p) <= _linalg.rank_of_rows(rows)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_certified_rank_is_rational_rank(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = random_integer_rows(rng, nrows, ncols, [-3, -1, 1, 2, 5, P])
        rows = [{j: Fraction(v) for j, v in row.items()} for row in rows]
        exact = _linalg.rank_of_rows(rows)
        assert _linalg.certified_rank(rows, min(nrows, ncols)) == exact
        assert _linalg.certified_rank(iter(rows), exact) == exact

    def test_fallback_when_rank_drops_mod_p(self, monkeypatch):
        exact = _linalg.rank_of_rows
        calls = []

        def spy(rows):
            calls.append(rows)
            return exact(rows)

        monkeypatch.setattr(_linalg, "rank_of_rows", spy)
        rows = [{0: Fraction(P)}]
        assert _linalg.rank_mod_p(rows) == 0
        assert _linalg.certified_rank(rows, 1) == 1
        assert len(calls) == 1

    def test_non_integer_entry_rejected(self):
        with pytest.raises(ValueError):
            _linalg.rank_mod_p([{0: Fraction(1, 2)}])
        with pytest.raises(ValueError):
            _linalg.rank_mod_p([{0: 1.0}])
