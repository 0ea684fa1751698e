"""Coboundary, adjoint, pairing, harmonic forms, and the dimension identities."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from treeforms import _linalg, cochains
from treeforms.cochains import (Cochain, adjoint, basis_manifest, coboundary,
                                coboundary_rank, cochain_to_csv, h1c_dimension,
                                harmonic_space, incidence_rank, incidence_rows, integrate,
                                intersect_harmonic_exact, pairing)
from treeforms.radon import radon_transform
from treeforms.tower import (SpanningForest, apply_automorphism, component_roots,
                             components, num_components)
from treeforms.tree import random_automorphism

from conftest import (FOREST_DOCTORS, apartments, ball, doctoring, spy_elimination,
                      stray_parent, tower)

ZERO = Fraction(0)
ONE = Fraction(1)


def dense_matvec(matrix, vec, n):
    return [sum((row.get(j, ZERO) * vec.get(j, ZERO) for j in row), ZERO)
            for row in matrix][:n]


def rand_cochain(rng, level, n, size=4):
    return Cochain(level, {rng.randrange(n): Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                           for _ in range(size)})


class TestCochainBasics:
    def test_zero_dropped(self):
        c = Cochain(0, {3: ZERO, 4: ONE})
        assert set(c.support) == {4}

    def test_bad_level(self):
        with pytest.raises(ValueError):
            Cochain(2, {})

    def test_arithmetic(self):
        a = Cochain(1, {0: ONE, 1: ONE})
        b = Cochain(1, {1: -ONE, 2: ONE})
        assert (a + b).data == {0: ONE, 2: ONE}
        assert (a - a).is_zero()
        assert a.scale(3)(0) == 3

    def test_support_validation(self):
        pg = tower(2, 1, 0)
        with pytest.raises(ValueError):
            coboundary(pg, Cochain(0, {99: ONE}))
        with pytest.raises(ValueError):
            adjoint(pg, Cochain(1, {99: ONE}))


class TestCoboundary:
    def test_zero(self):
        pg = tower(2, 2, 1)
        assert coboundary(pg, Cochain.zero(0)).is_zero()

    def test_indicator_formula(self):
        pg = tower(2, 2, 1)
        for s in range(pg.num_vertices):
            df = coboundary(pg, Cochain.indicator(0, s))
            for a in range(pg.num_edges):
                expected = (ONE if pg.head[a] == s else ZERO) - (ONE if pg.tail[a] == s else ZERO)
                assert df(a) == expected

    def test_constant_on_component_killed(self):
        pg = tower(2, 2, 2)
        from treeforms.tower import components
        comp = components(pg)[0]
        f = Cochain(0, {s: Fraction(7, 3) for s in comp})
        assert coboundary(pg, f).is_zero()

    def test_kernel_dimension_is_component_count(self):
        pg = tower(2, 2, 2)
        from treeforms import _linalg, cochains
        rank = _linalg.rank_of_rows(incidence_rows(pg))
        assert pg.num_vertices - rank == num_components(pg)


    @pytest.mark.parametrize("op,level", [
        (coboundary, 0), (adjoint, 1),
        pytest.param(lambda pg, w: radon_transform(pg, apartments(2, 2, 1), w), 1,
                     id="radon_transform-1")])
    def test_support_outside_the_graph_is_refused(self, op, level):
        pg = tower(2, 2, 1)
        n = pg.num_vertices if level == 0 else pg.num_edges
        for bad in (-1, n, n + 7):
            with pytest.raises(ValueError, match=f"^cochain support {bad} outside the path graph$"):
                op(pg, Cochain(level, {0: 1, bad: 2, 1: 3}))
        # The first offending id in the support's order is the one named.
        with pytest.raises(ValueError, match=f"^cochain support {n + 3} outside"):
            op(pg, Cochain(level, {n + 3: 1, -2: 1}))
        op(pg, Cochain(level, {0: 1, n - 1: 2}))


class TestAdjoint:
    def test_zero(self):
        pg = tower(2, 2, 1)
        assert adjoint(pg, Cochain.zero(1)).is_zero()

    def test_single_edge(self):
        pg = tower(2, 2, 1)
        a = 5
        ds = adjoint(pg, Cochain.indicator(1, a))
        assert ds(pg.head[a]) == 1
        assert ds(pg.tail[a]) == -1
        assert len(ds.data) == 2

    def test_laplacian_dense_oracle(self):
        """d* d f computed sparsely equals the dense matrix product."""
        pg = tower(2, 2, 1)
        rng = random.Random(1)
        rows = list(incidence_rows(pg))  # edge -> vertex row of d
        for _ in range(20):
            f = rand_cochain(rng, 0, pg.num_vertices)
            df_dense = {a: sum((row.get(s, ZERO) * f(s) for s in row), ZERO)
                        for a, row in enumerate(rows)}
            lap_dense = {}
            for a, row in enumerate(rows):
                for s, c in row.items():
                    lap_dense[s] = lap_dense.get(s, ZERO) + c * df_dense[a]
            got = adjoint(pg, coboundary(pg, f))
            assert got.data == {s: v for s, v in lap_dense.items() if v}


class TestPairing:
    def test_zero_pairing(self):
        assert pairing(Cochain.zero(1), Cochain(1, {3: ONE})) == 0

    def test_indicator_self(self):
        assert pairing(Cochain.indicator(1, 2), Cochain.indicator(1, 2)) == 1

    def test_level_mismatch(self):
        with pytest.raises(ValueError):
            pairing(Cochain.zero(0), Cochain.zero(1))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_adjointness(self, seed):
        pg = tower(2, 3, 1)
        rng = random.Random(seed)
        f = rand_cochain(rng, 0, pg.num_vertices)
        w = rand_cochain(rng, 1, pg.num_edges)
        assert pairing(w, coboundary(pg, f)) == pairing(adjoint(pg, w), f)

    def test_l2_norm(self):
        w = Cochain(1, {0: Fraction(3), 1: Fraction(-4)})
        assert pairing(w, w) == 25
        assert pairing(Cochain.zero(1), Cochain.zero(1)) == 0
        assert pairing(Cochain.indicator(1, 7), Cochain.indicator(1, 7)) == 1


def dense_nullspace_dim_of_adjoint(pg):
    """Independent oracle: dense RREF of the vertex-by-edge matrix of d*."""
    from test_linalg import dense_rref_rank
    matrix = [[ZERO] * pg.num_edges for _ in range(pg.num_vertices)]
    for a in range(pg.num_edges):
        matrix[pg.head[a]][a] += ONE
        matrix[pg.tail[a]][a] -= ONE
    return pg.num_edges - dense_rref_rank(matrix)


class TestHarmonicSpace:
    def test_acyclic_graph_empty_basis(self):
        # level 2R has vertices but no edges: trivially acyclic
        pg = tower(2, 1, 2)
        assert pg.num_edges == 0
        assert harmonic_space(pg) == []

    def test_ball21_k0_dimension(self):
        pg = tower(2, 1, 0)
        basis = harmonic_space(pg)
        assert len(basis) == 3 == pg.num_edges - pg.num_vertices + 1

    @pytest.mark.parametrize("q,radius,k", [(2, 1, 0), (2, 2, 1), (2, 2, 2), (3, 1, 1)])
    def test_every_element_harmonic_and_independent(self, q, radius, k):
        pg = tower(q, radius, k)
        basis = harmonic_space(pg)
        for w in basis:
            assert adjoint(pg, w).is_zero()
        from treeforms import _linalg, cochains
        assert _linalg.rank_of_rows([w.data for w in basis]) == len(basis)

    @pytest.mark.parametrize("q,radius,k", [(2, 1, 0), (2, 2, 1), (3, 1, 1), (2, 2, 2)])
    def test_dimension_against_dense_oracle(self, q, radius, k):
        pg = tower(q, radius, k)
        assert len(harmonic_space(pg)) == dense_nullspace_dim_of_adjoint(pg)

    def test_ball22_k1_euler(self):
        pg = tower(2, 2, 1)
        assert len(harmonic_space(pg)) == 24 - 18 + num_components(pg)


class TestDimensionIdentities:
    @pytest.mark.parametrize("q,radius,k", [(2, 1, 0), (2, 2, 0), (2, 2, 1),
                                            (2, 3, 2), (3, 2, 1), (3, 2, 3)])
    def test_h1c_equals_harmonic_dim(self, q, radius, k):
        pg = tower(q, radius, k)
        assert h1c_dimension(pg) == len(harmonic_space(pg))

    def test_acyclic_h1c_zero(self):
        pg = tower(2, 1, 2)
        assert h1c_dimension(pg) == 0

    def test_ball21_k0(self):
        assert h1c_dimension(tower(2, 1, 0)) == 3

    @pytest.mark.parametrize("q,radius,k", [(2, 1, 0), (2, 2, 1), (2, 3, 2), (3, 2, 2)])
    def test_harmonic_meets_coboundaries_trivially(self, q, radius, k):
        assert intersect_harmonic_exact(tower(q, radius, k)) == 0


def exact_answers(pg):
    """rank(d) and dim(ker d* cap im d) by Fraction elimination alone."""
    d_rows = list(incidence_rows(pg))
    dstar_rows = [{} for _ in range(pg.num_vertices)]
    for a, row in enumerate(d_rows):
        for s, x in row.items():
            dstar_rows[s][a] = x
    cycles = [w.data for w in harmonic_space(pg)]
    rank_d = _linalg.rank_of_rows(d_rows)
    assert _linalg.rank_of_rows(dstar_rows) == rank_d
    # The cycles span ker d*: they lie in it and are E - rank(d) independent rows.
    assert all(adjoint(pg, Cochain(1, c)).is_zero() for c in cycles)
    dim_a = _linalg.rank_of_rows(cycles)
    assert dim_a == pg.num_edges - rank_d
    return rank_d, dim_a + rank_d - _linalg.rank_of_rows(cycles + dstar_rows)


def assert_spans_ker_dstar(pg, basis, rank_d):
    """The basis has E - rank(d) elements, all in ker d*, and that rank."""
    assert len(basis) == pg.num_edges - rank_d
    assert all(adjoint(pg, w).is_zero() for w in basis)
    assert _linalg.rank_of_rows([w.data for w in basis]) == len(basis)


def flipped_sign(cycles):
    """One forest edge of the first cycle runs the wrong way."""
    a, vec = cycles[0]
    b = next(e for e in vec if e != a)
    vec[b] = -vec[b]
    return cycles


def doubled(cycles):
    """The first cycle carries flow 2."""
    a, vec = cycles[0]
    cycles[0] = (a, {e: 2 * x for e, x in vec.items()})
    return cycles


def merged(cycles):
    """The second cycle is added to the first, which is then nonzero at
    the second's own edge."""
    (a, vec), (_, other) = cycles[0], cycles[1]
    total = {e: vec.get(e, 0) + other.get(e, 0) for e in vec.keys() | other.keys()}
    cycles[0] = (a, {e: x for e, x in total.items() if x})
    return cycles


def dropped(cycles):
    """The last cycle is missing."""
    return cycles[:-1]


def repeated(cycles):
    """The first cycle also stands in for the last."""
    return cycles[:-1] + [cycles[0]]


class TestCertifiedRanks:
    """The forest certificates agree with Fraction elimination, and a
    doctored forest or cycle is rejected and sent to the exact route."""

    @settings(max_examples=30, deadline=None)
    @given(size=st.sampled_from([(q, radius, k) for q in (2, 3) for radius in (1, 2, 3)
                                 for k in range(2 * radius + 1)]))
    def test_agree_with_fraction_elimination(self, size):
        pg = tower(*size)
        rank_d, dim = exact_answers(pg)
        assert coboundary_rank(pg) == rank_d
        assert intersect_harmonic_exact(pg) == dim == 0

    @pytest.mark.parametrize("q,radius,k", [(2, 2, 0), (2, 3, 1), (3, 2, 2)])
    def test_genuine_forest_skips_elimination(self, q, radius, k, monkeypatch):
        pg = tower(q, radius, k)
        rank_d, dim = exact_answers(pg)
        cycles = cochains._fundamental_cycles(SpanningForest(pg))
        calls = spy_elimination(monkeypatch)
        assert coboundary_rank(pg) == rank_d
        assert intersect_harmonic_exact(pg) == dim
        basis = harmonic_space(pg)
        assert calls == []
        assert basis == [Cochain(1, vec) for _, vec in cycles]
        assert_spans_ker_dstar(pg, basis, rank_d)

    @pytest.mark.parametrize("doctor", FOREST_DOCTORS)
    @pytest.mark.parametrize("q,radius,k", [(2, 2, 0), (2, 3, 1), (3, 2, 2)])
    def test_doctored_forest_takes_exact_route(self, q, radius, k, doctor, monkeypatch):
        pg = tower(q, radius, k)
        rank_d, dim = exact_answers(pg)
        monkeypatch.setattr(cochains, "SpanningForest", doctoring(doctor))
        calls = spy_elimination(monkeypatch)
        assert coboundary_rank(pg) == rank_d
        assert calls == ["rank_of_rows"]
        assert intersect_harmonic_exact(pg) == dim
        assert calls == ["rank_of_rows", "nullspace", "rank_of_rows"]
        basis = harmonic_space(pg)
        assert calls == ["rank_of_rows", "nullspace", "rank_of_rows", "nullspace"]
        assert_spans_ker_dstar(pg, basis, rank_d)

    def test_forest_whose_roots_split_a_component_is_refused(self, monkeypatch):
        # A forest over every third edge passes ``checked`` (its own facts
        # hold) but has 5 roots on one component: V - #roots = 5, while
        # rank(d) = 9.  Only the guard that both ends of every edge share a
        # root refuses it.
        pg = tower(2, 2, 0)
        edge_ids = range(0, pg.num_edges, 3)
        forest = SpanningForest(pg, edge_ids=edge_ids)
        assert forest.checked() and None not in forest.root
        assert len(set(component_roots(pg))) == 1
        assert pg.num_vertices - forest.parent_edge.count(None) == 5
        assert incidence_rank(pg) == 9
        assert cochains._forest_rank(forest) is None
        monkeypatch.setattr(cochains, "SpanningForest",
                            lambda pg: SpanningForest(pg, edge_ids=edge_ids))
        calls = spy_elimination(monkeypatch)
        assert coboundary_rank(pg) == 9
        assert calls == ["rank_of_rows"]

    @pytest.mark.parametrize("doctor", [flipped_sign, doubled, merged, dropped, repeated])
    @pytest.mark.parametrize("q,radius,k", [(2, 2, 0), (2, 3, 1), (3, 2, 2)])
    def test_doctored_cycles_take_exact_route(self, q, radius, k, doctor, monkeypatch):
        pg = tower(q, radius, k)
        rank_d, dim = exact_answers(pg)
        real = cochains._fundamental_cycles
        monkeypatch.setattr(cochains, "_fundamental_cycles", lambda f: doctor(real(f)))
        calls = spy_elimination(monkeypatch)
        assert intersect_harmonic_exact(pg) == dim
        assert calls == ["nullspace", "rank_of_rows"]
        basis = harmonic_space(pg)
        assert calls == ["nullspace", "rank_of_rows", "nullspace"]
        assert_spans_ker_dstar(pg, basis, rank_d)


# The harmonic-grid benchmark's instances.
HARMONIC_GRID = [(q, radius, k) for q, radius in ((2, 3), (2, 4), (2, 5), (3, 3))
                 for k in range(4)]


def solve_df(pg, w):
    """Independent oracle: exact elimination of the incidence rows."""
    return _linalg.solve(list(incidence_rows(pg)), [w(a) for a in range(pg.num_edges)],
                         pg.num_vertices)


def constant_per_component(pg, f, g) -> bool:
    """Whether 0-cochain f minus the solution dict g is constant on each component."""
    deltas = {}
    for s, root in enumerate(component_roots(pg)):
        deltas.setdefault(root, set()).add(f(s) - g.get(s, ZERO))
    return all(len(vals) == 1 for vals in deltas.values())


def spy_solve(monkeypatch) -> list:
    """Record each exact solve that ``integrate`` falls back to."""
    calls = []
    real = _linalg.solve

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_linalg, "solve", spy)
    return calls


def perturbed(pg, rng, forest):
    """A coboundary plus a nonzero multiple of a non-forest edge's
    indicator: that edge's fundamental cycle pairs to the multiple, so the
    sum is not a coboundary."""
    w = coboundary(pg, rand_cochain(rng, 0, pg.num_vertices, 6))
    e = rng.choice(forest.non_tree_edges)
    return w + Cochain(1, {e: Fraction(rng.choice([-3, -1, 1, 2]), rng.randrange(1, 5))})


class TestIntegrate:
    """``integrate`` against the exact solve of the incidence rows, with the
    genuine forest and with doctored ones."""

    @settings(max_examples=20, deadline=None)
    @given(size=st.sampled_from(HARMONIC_GRID), seed=st.integers(0, 10 ** 6))
    def test_coboundary_is_integrated_without_elimination(self, size, seed):
        pg = tower(*size)
        w = coboundary(pg, rand_cochain(random.Random(seed), 0, pg.num_vertices, 6))
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_solve(mp)
            f, bad = integrate(pg, w)
        assert bad is None and calls == []
        assert coboundary(pg, f) == w
        sol = solve_df(pg, w)
        assert sol is not None and constant_per_component(pg, f, sol)

    @settings(max_examples=20, deadline=None)
    @given(size=st.sampled_from(HARMONIC_GRID), seed=st.integers(0, 10 ** 6))
    def test_non_coboundary_has_a_checked_witness(self, size, seed):
        pg = tower(*size)
        forest = SpanningForest(pg)
        w = perturbed(pg, random.Random(seed), forest)
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_solve(mp)
            f, bad = integrate(pg, w)
        assert bad is not None and calls == []
        assert f(pg.head[bad]) - f(pg.tail[bad]) != w(bad)
        cycle = cochains._unit_cycle(forest, bad)
        assert cochains._unit_circulations(pg, [(bad, cycle)])
        assert cycle[bad] == 1 and adjoint(pg, Cochain(1, cycle)).is_zero()
        assert pairing(Cochain(1, cycle), w) != 0
        assert solve_df(pg, w) is None

    @pytest.mark.parametrize("doctor", FOREST_DOCTORS)
    @pytest.mark.parametrize("q,radius,k", [(2, 3, 0), (2, 3, 3), (3, 3, 2)])
    def test_doctored_forest_keeps_answers_exact(self, q, radius, k, doctor, monkeypatch):
        pg = tower(q, radius, k)
        rng = random.Random(q * 100 + radius * 10 + k)
        forest = SpanningForest(pg)
        last = forest.order[-1]
        bad_w = perturbed(pg, rng, forest)
        doctor(forest)
        calls = spy_solve(monkeypatch)
        w = coboundary(pg, Cochain.indicator(0, last) + rand_cochain(rng, 0, pg.num_vertices))
        f, bad = integrate(pg, w, forest)
        assert bad is None and coboundary(pg, f) == w
        f, bad = integrate(pg, bad_w, forest)
        assert bad is not None and solve_df(pg, bad_w) is None

    @pytest.mark.parametrize("q,radius,k", [(2, 3, 0), (2, 4, 1), (3, 3, 1)])
    def test_wrong_parent_edge_leaves_the_answer_to_elimination(self, q, radius, k,
                                                                monkeypatch):
        """The last vertex takes a parent edge that does not touch it: the walk
        gets its value wrong, and the exact solve decides both ways."""
        pg = tower(q, radius, k)
        forest = SpanningForest(pg)
        bad_w = perturbed(pg, random.Random(k), forest)
        last = forest.order[-1]
        stray_parent(forest)
        calls = spy_solve(monkeypatch)
        w = coboundary(pg, Cochain.indicator(0, last))
        f, bad = integrate(pg, w, forest)
        assert bad is None and coboundary(pg, f) == w and len(calls) == 1
        f, bad = integrate(pg, bad_w, forest)
        assert bad is not None and len(calls) == 2 and solve_df(pg, bad_w) is None

    def test_forest_of_some_components_leaves_the_rest_zero(self):
        """A forest rooted in one component integrates a cochain supported
        there and leaves f = 0 on every other component."""
        pg = tower(2, 3, 2)
        roots = component_roots(pg)
        r = roots[pg.tail[0]]
        inside = [s for s in range(pg.num_vertices) if roots[s] == r]
        g = Cochain(0, {s: Fraction(s + 1, 3) for s in inside})
        f, bad = integrate(pg, coboundary(pg, g), SpanningForest(pg, roots=[r]))
        assert bad is None and coboundary(pg, f) == coboundary(pg, g)
        assert set(f.support) <= set(inside)

    def test_rejects_a_0_cochain_and_foreign_support(self):
        pg = tower(2, 2, 1)
        with pytest.raises(ValueError):
            integrate(pg, Cochain.zero(0))
        with pytest.raises(ValueError):
            integrate(pg, Cochain.indicator(1, pg.num_edges))


def oracle_coboundary(pg, f):
    """The per-entry Fraction coboundary the int one replaced."""
    out = {}
    for s, x in f.data.items():
        for a in pg.edges_into[s]:
            out[a] = out.get(a, ZERO) + x
        for a in pg.edges_out_of[s]:
            out[a] = out.get(a, ZERO) - x
    return {a: x for a, x in out.items() if x}


def oracle_adjoint(pg, omega):
    """The per-entry Fraction adjoint the int one replaced."""
    out = {}
    for a, x in omega.data.items():
        h, t = pg.head[a], pg.tail[a]
        out[h] = out.get(h, ZERO) + x
        out[t] = out.get(t, ZERO) - x
    return {s: x for s, x in out.items() if x}


def oracle_pairing(x, y):
    """The per-entry Fraction pairing the int one replaced."""
    small, large = (x.data, y.data) if len(x.data) <= len(y.data) else (y.data, x.data)
    return sum((v * large[i] for i, v in small.items() if i in large), ZERO)


def same_cochain(got, want):
    """Equal values in the same key order, every value a plain Fraction."""
    assert list(got.data.items()) == list(want.items())
    assert all(type(x) is Fraction for x in got.data.values())


class FractionSub(Fraction):
    pass


# Mixed denominators; a few values recur so that sums cancel.
VALUES = st.one_of(st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
                                    Fraction(-1, 6), ONE, -ONE]),
                   st.fractions(min_value=-4, max_value=4, max_denominator=12),
                   st.integers(-3, 3))


@st.composite
def vertex_cochains(draw, pg):
    """A 0-cochain with random entries plus both ends of some edges set
    to one value, so d cancels on those edges."""
    data = draw(st.dictionaries(st.integers(0, pg.num_vertices - 1), VALUES, max_size=8))
    for a in draw(st.lists(st.integers(0, pg.num_edges - 1), max_size=3)):
        data[pg.head[a]] = data[pg.tail[a]] = draw(VALUES)
    return Cochain(0, data)


@st.composite
def edge_cochains(draw, pg):
    """A 1-cochain with random entries plus opposite values on two edges
    into one vertex, so d* cancels there."""
    data = draw(st.dictionaries(st.integers(0, pg.num_edges - 1), VALUES, max_size=8))
    for s in draw(st.lists(st.integers(0, pg.num_vertices - 1), max_size=3)):
        into = pg.edges_into[s]
        if len(into) >= 2:
            x = draw(VALUES)
            data[into[0]], data[into[1]] = x, -x
    return Cochain(1, data)


class TestIntOperatorsAgainstFractionOracle:
    """coboundary, adjoint and pairing, summed in ints, against the
    per-entry Fraction loops they replaced, on the harmonic-grid sizes."""

    @settings(max_examples=150, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), data=st.data())
    def test_coboundary_and_adjoint(self, inst, data):
        pg = tower(*inst)
        f = data.draw(vertex_cochains(pg))
        same_cochain(coboundary(pg, f), oracle_coboundary(pg, f))
        w = data.draw(edge_cochains(pg))
        same_cochain(adjoint(pg, w), oracle_adjoint(pg, w))

    @settings(max_examples=150, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), data=st.data())
    def test_pairing(self, inst, data):
        pg = tower(*inst)
        f, g = data.draw(vertex_cochains(pg)), data.draw(vertex_cochains(pg))
        w = data.draw(edge_cochains(pg))
        for x, y in ((f, g), (g, f), (f, f), (w, coboundary(pg, f)),
                     (adjoint(pg, w), f), (w, Cochain.zero(1))):
            got = pairing(x, y)
            assert got == oracle_pairing(x, y)
            assert type(got) is Fraction

    def test_disjoint_supports_pair_to_zero(self):
        assert pairing(Cochain(1, {0: ONE}), Cochain(1, {1: ONE})) is cochains.ZERO
        assert pairing(Cochain.zero(0), Cochain.zero(0)) is cochains.ZERO

    def test_cancelling_sums_dropped(self):
        pg = tower(2, 3, 1)
        comp = max(components(pg), key=len)
        assert coboundary(pg, Cochain(0, {s: Fraction(5, 7) for s in comp})).is_zero()
        for w in harmonic_space(pg):
            assert adjoint(pg, w.scale(Fraction(-3, 4))).is_zero()
        assert pairing(Cochain(1, {0: Fraction(1, 2), 1: Fraction(1, 3)}),
                       Cochain(1, {0: Fraction(2, 3), 1: -1})) == 0

    @pytest.mark.parametrize("inst", HARMONIC_GRID)
    def test_empty_and_out_of_range(self, inst):
        pg = tower(*inst)
        assert coboundary(pg, Cochain.zero(0)).data == {}
        assert adjoint(pg, Cochain.zero(1)).data == {}
        for bad in (-1, pg.num_vertices):
            with pytest.raises(ValueError):
                coboundary(pg, Cochain(0, {bad: ONE}))
        for bad in (-1, pg.num_edges):
            with pytest.raises(ValueError):
                adjoint(pg, Cochain(1, {bad: Fraction(1, 3)}))

    @pytest.mark.parametrize("inst", HARMONIC_GRID)
    def test_harmonic_space_shares_unit_values(self, inst):
        pg = tower(*inst)
        basis = harmonic_space(pg)
        vecs, certified = cochains._harmonic_basis(pg)
        assert certified
        assert [list(w.data.items()) for w in basis] == [list(v.items()) for v in vecs]
        for w in basis:
            assert all(type(x) is Fraction for x in w.data.values())
            assert len({id(x) for x in w.data.values()}) == len(set(w.data.values()))

    def test_shared_fractions(self):
        got = cochains.shared_fractions({4: 3, 1: 0, 2: -6, 7: 3, 0: 6}, 6)
        assert list(got.items()) == [(4, Fraction(1, 2)), (2, -ONE), (7, Fraction(1, 2)),
                                     (0, ONE)]
        assert got[4] is got[7]
        assert all(type(x) is Fraction for x in got.values())

    def test_shared_fractions_reuses_own_objects(self):
        half, third, unused = Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)
        own = {3: half, -2: third, 5: unused}
        got = cochains.shared_fractions({4: 3, 1: 0, 2: -2, 7: 3, 0: 6, 9: 1}, 6, own)
        assert list(got.items()) == [(4, half), (2, third), (7, half), (0, ONE),
                                     (9, Fraction(1, 6))]
        assert got[4] is half and got[7] is half and got[2] is third
        assert not any(x is unused for x in got.values())
        assert all(type(x) is Fraction for x in got.values())

    @settings(max_examples=100, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), data=st.data())
    def test_outputs_equal_to_an_input_value_are_its_objects(self, inst, data):
        pg = tower(*inst)
        f = data.draw(vertex_cochains(pg))
        w = data.draw(edge_cochains(pg))
        df = coboundary(pg, f)
        for source, out in ((f, df), (w, adjoint(pg, w))):
            ids = {id(x) for x in source.data.values()}
            assert all(id(x) in ids for x in out.data.values() if x in source.data.values())

    def test_cochain_keeps_fractions_and_converts_the_rest(self):
        half = Fraction(1, 2)
        c = Cochain(0, {3: half, 1: 2, 0: FractionSub(-1, 3), 5: 0, 6: ZERO,
                        2: FractionSub(0), 4: True})
        assert list(c.data.items()) == [(3, half), (1, Fraction(2)), (0, Fraction(-1, 3)),
                                        (4, ONE)]
        assert c.data[3] is half
        assert all(type(x) is Fraction for x in c.data.values())


# -- the per-call lcm conversions that the carried int form replaced ------


def lcm_form(data):
    """(lcm of the denominators, {i: numerator over it}) in data's key
    order: the conversion each operator made of its input on every call."""
    den = lcm(*(x.denominator for x in data.values()))
    return den, {i: x.numerator * (den // x.denominator) for i, x in data.items()}


def lcm_coboundary(pg, f):
    """coboundary as it converted f on every call."""
    den, nums = lcm_form(f.data)
    own, sums = {}, {}
    for s, x in f.data.items():
        own[nums[s]] = x
        for a in pg.edges_into[s]:
            sums[a] = sums.get(a, 0) + nums[s]
        for a in pg.edges_out_of[s]:
            sums[a] = sums.get(a, 0) - nums[s]
    return cochains.shared_fractions(sums, den, own)


def lcm_adjoint(pg, omega):
    """adjoint as it converted w on every call."""
    den, nums = lcm_form(omega.data)
    own, sums = {}, {}
    for a, x in omega.data.items():
        own[nums[a]] = x
        h, t = pg.head[a], pg.tail[a]
        sums[h] = sums.get(h, 0) + nums[a]
        sums[t] = sums.get(t, 0) - nums[a]
    return cochains.shared_fractions(sums, den, own)


def lcm_pairing(x, y):
    """pairing over the lcm of the products' denominators."""
    small, large = (x.data, y.data) if len(x.data) <= len(y.data) else (y.data, x.data)
    terms = [(u.numerator * v.numerator, u.denominator * v.denominator)
             for i, u in small.items() if (v := large.get(i)) is not None]
    if not terms:
        return ZERO
    den = lcm(*(d for _, d in terms))
    return Fraction(sum(n * (den // d) for n, d in terms), den)


def lcm_integrate_walk(pg, w, forest):
    """integrate's forest walk over the lcm of w's denominators: f's values,
    and the first edge where df != w (None when df = w)."""
    den, wn = lcm_form(w.data)
    head, tail = pg.head, pg.tail
    values = {}
    for s in forest.order:
        a = forest.parent_edge[s]
        if a is None:
            values[s] = 0
            continue
        u = tail[a] if head[a] == s else head[a]
        x = wn.get(a, 0)
        values[s] = values.get(u, 0) + (x if head[a] == s else -x)
    bad = next((a for a in range(pg.num_edges)
                if values.get(head[a], 0) - values.get(tail[a], 0) != wn.get(a, 0)), None)
    return cochains.shared_fractions(values, den), bad


def sharing(values, source=()):
    """Each value's object as an index: its position among the source's
    values when it is one of those objects, else a new index shared by
    every later value that is the same object."""
    objs, out = list(source), []
    for v in values:
        j = next((j for j, x in enumerate(objs) if x is v), None)
        if j is None:
            objs.append(v)
            j = len(objs) - 1
        out.append(j)
    return out


def same_values(got, want, source=()):
    """Equal values in the same key order, each a plain Fraction, holding
    the same objects of the source and sharing the same new ones."""
    assert list(got.items()) == list(want.items())
    assert all(type(x) is Fraction for x in got.values())
    assert sharing(got.values(), source) == sharing(want.values(), source)


def assert_int_form(c, built=False):
    """c.int_form is the form recomputed from c.data, over c's own den:
    each value its numerator over den, in data's key order.  A cochain
    built from its values (built=True) has den the lcm of its denominators;
    an operator's output may keep a multiple of it, its input's den."""
    den, nums = c.int_form
    lcm_den = lcm_form(c.data)[0]
    assert den > 0 and den % lcm_den == 0 and (den == lcm_den or not built)
    assert list(nums.items()) == [(i, x.numerator * (den // x.denominator))
                                  for i, x in c.data.items()]


def shuffled(n, rng):
    """A permutation of range(n) that is not the identity (n >= 2)."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm if perm != sorted(perm) else perm[1:] + perm[:1]


class TestCarriedIntForm:
    """Every operator reads the int form its input carries; each gives what
    the per-call lcm conversion gave: the same values in the same key
    order, object for object."""

    @settings(max_examples=150, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), data=st.data())
    def test_coboundary_adjoint_and_pairing(self, inst, data):
        pg = tower(*inst)
        f, g = data.draw(vertex_cochains(pg)), data.draw(vertex_cochains(pg))
        w = data.draw(edge_cochains(pg))
        df, dw = coboundary(pg, f), adjoint(pg, w)
        same_values(df.data, lcm_coboundary(pg, f), f.data.values())
        same_values(dw.data, lcm_adjoint(pg, w), w.data.values())
        # Outputs carry their input's den, which may exceed the lcm.
        same_values(adjoint(pg, df).data, lcm_adjoint(pg, df), df.data.values())
        same_values(coboundary(pg, dw).data, lcm_coboundary(pg, dw), dw.data.values())
        for x, y in ((f, g), (g, f), (w, df), (dw, f), (df, df), (dw, dw),
                     (w, Cochain.zero(1))):
            got = pairing(x, y)
            assert got == lcm_pairing(x, y) and type(got) is Fraction

    @settings(max_examples=40, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), seed=st.integers(0, 10 ** 6))
    def test_integrate(self, inst, seed):
        pg = tower(*inst)
        rng = random.Random(seed)
        forest = SpanningForest(pg)
        f0 = rand_cochain(rng, 0, pg.num_vertices, 6)
        for w in (coboundary(pg, f0), perturbed(pg, rng, forest),
                  Cochain(1, coboundary(pg, f0).data)):
            f, bad = integrate(pg, w, forest)
            want, want_bad = lcm_integrate_walk(pg, w, forest)
            assert bad == want_bad
            same_values(f.data, want)

    @settings(max_examples=100, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), data=st.data(), seed=st.integers(0, 10 ** 6))
    def test_every_cochain_carries_the_form_of_its_data(self, inst, data, seed):
        pg = tower(*inst)
        rng = random.Random(seed)
        f = data.draw(vertex_cochains(pg))
        w = data.draw(edge_cochains(pg))
        vperm, eperm = shuffled(pg.num_vertices, rng), shuffled(pg.num_edges, rng)
        for c in (f, w, f + f, f - f, w.scale(Fraction(-2, 3)), Cochain.zero(0),
                  Cochain.zero(1), Cochain.indicator(0, pg.num_vertices - 1),
                  Cochain.indicator(1, 0), f.permuted(vperm), w.permuted(eperm)):
            assert_int_form(c, built=True)
        df, dw = coboundary(pg, f), adjoint(pg, w)
        for c in (df, dw, coboundary(pg, dw), adjoint(pg, df), df.permuted(eperm),
                  dw.permuted(vperm), integrate(pg, df)[0], integrate(pg, w)[0]):
            assert_int_form(c)
        assert f.permuted(vperm).int_form == (
            f.int_form[0], {vperm[i]: n for i, n in f.int_form[1].items()})

    @pytest.mark.parametrize("inst", [(2, 3, 1), (3, 3, 0)])
    def test_harmonic_bases_carry_their_form(self, inst, monkeypatch):
        pg = tower(*inst)
        for w in harmonic_space(pg):
            assert w.int_form[0] == 1
            assert_int_form(w, built=True)
        monkeypatch.setattr(cochains, "SpanningForest", doctoring(stray_parent))
        calls = spy_elimination(monkeypatch)
        basis = harmonic_space(pg)
        assert "nullspace" in calls and basis
        for w in basis:
            assert_int_form(w, built=True)


class TestEquivariance:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_d_and_adjoint_commute_with_action(self, seed):
        b = ball(2, 2)
        pg = tower(2, 2, 1)
        g = random_automorphism(b, seed)
        vmap, emap = apply_automorphism(pg, g)
        rng = random.Random(seed)
        for _ in range(10):
            f = rand_cochain(rng, 0, pg.num_vertices)
            w = rand_cochain(rng, 1, pg.num_edges)
            assert coboundary(pg, f.permuted(vmap)) == coboundary(pg, f).permuted(emap)
            assert adjoint(pg, w.permuted(emap)) == adjoint(pg, w).permuted(vmap)


class TestExports:
    def test_csv_round_trip_values(self):
        w = Cochain(1, {2: Fraction(-5, 3), 0: ONE})
        csv = cochain_to_csv(w)
        lines = csv.strip().splitlines()
        assert lines[0] == "kind,id,numerator,denominator"
        assert lines[1] == "E,0,1,1"
        assert lines[2] == "E,2,-5,3"

    def test_manifest_dimension(self):
        pg = tower(2, 1, 0)
        basis = harmonic_space(pg)
        import json
        payload = json.loads(basis_manifest(pg, basis, [f"v{i}.csv" for i in range(len(basis))]))
        assert payload["dimension"] == 3
        assert payload["edges"] - payload["vertices"] + payload["components"] == 3
