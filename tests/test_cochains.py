"""Coboundary, adjoint, pairing, harmonic forms, and the dimension identities."""

import gc
import random
import weakref
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from treeforms import _linalg, cochains
from treeforms.cochains import (Cochain, adjoint, basis_manifest, coboundary,
                                coboundary_rank, cochain_to_csv, h1c_dimension,
                                harmonic_space, incidence_rank, integrate,
                                intersect_harmonic_exact, pairing)
from treeforms.radon import radon_transform
from treeforms.tower import SpanningForest, apply_automorphism, component_roots, num_components
from treeforms.tree import random_automorphism

import reference
from conftest import (FOREST_DOCTORS, apartments, ball, fresh_tower, spy_calls,
                      stray_parent, tower)

ZERO = Fraction(0)
ONE = Fraction(1)


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
        roots = reference.components(reference.graph(2, 2, 2))
        comp = [s for s in range(pg.num_vertices) if roots[s] == 0]
        f = Cochain(0, {s: Fraction(7, 3) for s in comp})
        assert coboundary(pg, f).is_zero()

    def test_kernel_dimension_is_component_count(self):
        pg = tower(2, 2, 2)
        rank = reference.rank(reference.d_rows(reference.graph(2, 2, 2)))
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

    def test_laplacian_reference(self):
        """d* d f computed sparsely equals the reference's."""
        pg, g = tower(2, 2, 1), reference.graph(2, 2, 1)
        rng = random.Random(1)
        for _ in range(20):
            f = rand_cochain(rng, 0, pg.num_vertices)
            got = adjoint(pg, coboundary(pg, f))
            assert got.data == reference.adjoint(g, reference.coboundary(g, f.data))


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
        assert reference.rank([w.data for w in basis]) == len(basis)

    @pytest.mark.parametrize("q,radius,k", [(2, 1, 0), (2, 2, 1), (3, 1, 1), (2, 2, 2)])
    def test_dimension_against_reference(self, q, radius, k):
        g = reference.graph(q, radius, k)
        assert len(harmonic_space(tower(q, radius, k))) == len(
            reference.nullspace(reference.dstar_rows(g), g.num_edges))

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
    """rank(d) and dim(ker d* cap im d) by the reference: im d is spanned
    by the rows of d*, and ker d* by the harmonic basis, once the reference
    shows that the basis lies in ker d* and has E - rank(d) independent
    vectors."""
    g = reference.graph(pg.ball.params.q, pg.ball.params.radius, pg.k)
    dstar = reference.dstar_rows(g)
    rank_d = reference.rank(reference.d_rows(g))
    assert reference.rank(dstar) == rank_d
    cycles = [w.data for w in harmonic_space(pg)]
    assert all(not reference.adjoint(g, c) for c in cycles)
    assert reference.rank(cycles) == pg.num_edges - rank_d
    return rank_d, len(cycles) + rank_d - reference.rank(cycles + dstar)


def assert_spans_ker_dstar(pg, basis, rank_d):
    """The basis has E - rank(d) elements, all in ker d*, and that rank."""
    assert len(basis) == pg.num_edges - rank_d
    assert all(adjoint(pg, w).is_zero() for w in basis)
    assert reference.rank([w.data for w in basis]) == len(basis)


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
    """The forest certificates agree with the reference, and a doctored
    forest or cycle is rejected and sent to the exact route."""

    @settings(max_examples=30, deadline=None)
    @given(size=st.sampled_from([(q, radius, k) for q in (2, 3) for radius in (1, 2, 3)
                                 for k in range(2 * radius + 1)]))
    def test_agree_with_reference(self, size):
        pg = tower(*size)
        rank_d, dim = exact_answers(pg)
        assert coboundary_rank(pg) == rank_d
        assert intersect_harmonic_exact(pg) == dim == 0

    @pytest.mark.parametrize("q,radius,k", [(2, 2, 0), (2, 3, 1), (3, 2, 2)])
    def test_genuine_forest_skips_elimination(self, q, radius, k, monkeypatch):
        pg = tower(q, radius, k)
        rank_d, dim = exact_answers(pg)
        cycles = cochains._fundamental_cycles(SpanningForest(pg))
        calls = spy_calls(monkeypatch, _linalg, "rank_of_rows", lambda *_: "rank_of_rows")
        spy_calls(monkeypatch, _linalg, "nullspace", lambda *_: "nullspace", calls)
        assert coboundary_rank(pg) == rank_d
        assert intersect_harmonic_exact(pg) == dim
        basis = harmonic_space(pg)
        assert calls == []
        assert basis == [Cochain(1, vec) for _, vec in cycles]
        assert_spans_ker_dstar(pg, basis, rank_d)

    @pytest.mark.parametrize("doctor", FOREST_DOCTORS)
    @pytest.mark.parametrize("q,radius,k", [(2, 2, 0), (2, 3, 1), (3, 2, 2)])
    def test_doctored_forest_takes_exact_route(self, q, radius, k, doctor, monkeypatch):
        rank_d, dim = exact_answers(tower(q, radius, k))
        pg = fresh_tower(q, radius, k)
        doctor(pg.forest)
        calls = spy_calls(monkeypatch, _linalg, "rank_of_rows", lambda *_: "rank_of_rows")
        spy_calls(monkeypatch, _linalg, "nullspace", lambda *_: "nullspace", calls)
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
        pg = fresh_tower(2, 2, 0)
        edge_ids = range(0, pg.num_edges, 3)
        forest = SpanningForest(pg, edge_ids=edge_ids)
        assert forest.checked() and None not in forest.root
        assert len(set(component_roots(pg))) == 1
        assert pg.num_vertices - forest.parent_edge.count(None) == 5
        assert incidence_rank(pg) == 9
        assert cochains._forest_rank(forest) is None
        pg.forest = forest
        calls = spy_calls(monkeypatch, _linalg, "rank_of_rows", lambda *_: "rank_of_rows")
        spy_calls(monkeypatch, _linalg, "nullspace", lambda *_: "nullspace", calls)
        assert coboundary_rank(pg) == 9
        assert calls == ["rank_of_rows"]

    @pytest.mark.parametrize("doctor", [flipped_sign, doubled, merged, dropped, repeated])
    @pytest.mark.parametrize("q,radius,k", [(2, 2, 0), (2, 3, 1), (3, 2, 2)])
    def test_doctored_cycles_take_exact_route(self, q, radius, k, doctor, monkeypatch):
        rank_d, dim = exact_answers(tower(q, radius, k))
        pg = fresh_tower(q, radius, k)
        doctor_cycles(doctor)(monkeypatch, pg)
        calls = spy_calls(monkeypatch, _linalg, "rank_of_rows", lambda *_: "rank_of_rows")
        spy_calls(monkeypatch, _linalg, "nullspace", lambda *_: "nullspace", calls)
        assert intersect_harmonic_exact(pg) == dim
        assert calls == ["nullspace", "rank_of_rows"]
        basis = harmonic_space(pg)
        assert calls == ["nullspace", "rank_of_rows", "nullspace"]
        assert_spans_ker_dstar(pg, basis, rank_d)


def doctor_cycles(doctor):
    """Apply ``doctor`` to the fundamental cycles the certificate reads."""
    def patch(monkeypatch, pg):
        real = cochains._fundamental_cycles
        monkeypatch.setattr(cochains, "_fundamental_cycles", lambda f: doctor(real(f)))
    return patch


def doctor_forest(doctor):
    """Break the graph's cached forest in place."""
    def patch(monkeypatch, pg):
        doctor(pg.forest)
    return patch


class TestSharedForest:
    """Each graph builds its whole-graph forest once, and only a passed
    harmonic certificate is kept with it."""

    @pytest.mark.parametrize("inst", [(2, 2, 0), (2, 3, 1), (3, 2, 2)])
    def test_one_graph_builds_one_forest(self, inst, monkeypatch):
        pg = fresh_tower(*inst)
        built = []
        real = SpanningForest.__init__

        def spy(forest, graph, edge_ids=None, roots=None):
            built.append((graph, edge_ids, roots))
            real(forest, graph, edge_ids, roots)

        monkeypatch.setattr(SpanningForest, "__init__", spy)
        basis = harmonic_space(pg)
        cycles = spy_calls(monkeypatch, cochains, "_fundamental_cycles")
        units = spy_calls(monkeypatch, cochains, "_unit_circulations")
        assert intersect_harmonic_exact(pg) == 0
        assert cycles == [] and units == []
        # Later bases rebuild the same cycles and check nothing.
        assert harmonic_space(pg) == basis
        assert len(cycles) == 1 and units == []
        rank_d = coboundary_rank(pg)
        assert h1c_dimension(pg) == len(basis) == pg.num_edges - rank_d
        assert num_components(pg) == len(set(component_roots(pg))) == pg.num_vertices - rank_d
        w = coboundary(pg, rand_cochain(random.Random(len(basis)), 0, pg.num_vertices))
        f, bad = integrate(pg, w)
        assert bad is None and coboundary(pg, f) == w
        assert built == [(pg, None, None)]

    @pytest.mark.parametrize("intersect_first", [True, False])
    @pytest.mark.parametrize("breakage", [
        *(pytest.param(doctor_forest(d), id=d.__name__) for d in FOREST_DOCTORS),
        *(pytest.param(doctor_cycles(d), id=d.__name__)
          for d in (flipped_sign, dropped, repeated))])
    def test_failed_certificate_is_never_kept(self, breakage, intersect_first, monkeypatch):
        rank_d, dim = exact_answers(tower(2, 3, 1))
        pg = fresh_tower(2, 3, 1)
        breakage(monkeypatch, pg)
        calls = spy_calls(monkeypatch, _linalg, "rank_of_rows", lambda *_: "rank_of_rows")
        spy_calls(monkeypatch, _linalg, "nullspace", lambda *_: "nullspace", calls)
        exact_route = {intersect_harmonic_exact: ["nullspace", "rank_of_rows"],
                       harmonic_space: ["nullspace"]}
        consumers = [intersect_harmonic_exact, harmonic_space]
        for consumer in (consumers if intersect_first else consumers[::-1]) * 2:
            calls.clear()
            got = consumer(pg)
            assert calls == exact_route[consumer]
            if consumer is harmonic_space:
                assert_spans_ker_dstar(pg, got, rank_d)
            else:
                assert got == dim
        assert not pg.forest.certified

    @pytest.mark.parametrize("inst", [(2, 2, 0), (2, 3, 1), (3, 2, 2)])
    def test_rank_after_a_kept_verdict(self, inst, monkeypatch):
        """A kept verdict changes no rank: after a certified
        ``harmonic_space``, ``coboundary_rank`` and ``h1c_dimension`` give
        the exact answers from the one forest with no elimination, and the
        verdict stays kept."""
        rank_d = exact_answers(tower(*inst))[0]
        pg = fresh_tower(*inst)
        assert harmonic_space(pg) and pg.forest.certified
        forest = pg.forest
        eliminations = spy_calls(monkeypatch, cochains, "incidence_rank")
        assert coboundary_rank(pg) == rank_d
        assert h1c_dimension(pg) == pg.num_edges - rank_d
        assert eliminations == [] and pg.forest is forest and forest.certified

    def test_no_reference_cycle_keeps_a_graph_alive(self):
        """With every cache filled, a dropped graph is freed at once, not
        left for the cycle collector."""
        pg = fresh_tower(2, 3, 1)
        gc.disable()
        try:
            assert pg.ends and harmonic_space(pg) and intersect_harmonic_exact(pg) == 0
            assert pg.forest.certified and {"ends", "forest"} <= set(vars(pg))
            ref = weakref.ref(pg)
            del pg
            assert ref() is None
        finally:
            gc.enable()


# The harmonic-grid benchmark's instances.
HARMONIC_GRID = [(q, radius, k) for q, radius in ((2, 3), (2, 4), (2, 5), (3, 3))
                 for k in range(4)]


def solve_df(pg, w):
    """The reference solution of df = w, or None."""
    g = reference.graph(pg.ball.params.q, pg.ball.params.radius, pg.k)
    return reference.solve(reference.d_rows(g), [w(a) for a in range(g.num_edges)],
                           g.num_vertices)


def constant_per_component(pg, f, g) -> bool:
    """Whether 0-cochain f minus the solution dict g is constant on each component."""
    deltas = {}
    graph = reference.graph(pg.ball.params.q, pg.ball.params.radius, pg.k)
    for s, root in enumerate(reference.components(graph)):
        deltas.setdefault(root, set()).add(f(s) - g.get(s, ZERO))
    return all(len(vals) == 1 for vals in deltas.values())


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
            calls = spy_calls(mp, _linalg, "solve")
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
            calls = spy_calls(mp, _linalg, "solve")
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
        calls = spy_calls(monkeypatch, _linalg, "solve")
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
        calls = spy_calls(monkeypatch, _linalg, "solve")
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


def ref_graph(pg):
    return reference.graph(pg.ball.params.q, pg.ball.params.radius, pg.k)


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


class TestIntOperatorsAgainstReference:
    """coboundary, adjoint and pairing, summed in ints, against the
    reference's Fraction maps, on the harmonic-grid sizes."""

    @settings(max_examples=150, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), data=st.data())
    def test_coboundary_and_adjoint(self, inst, data):
        pg = tower(*inst)
        f = data.draw(vertex_cochains(pg))
        same_cochain(coboundary(pg, f), reference.coboundary(ref_graph(pg), f.data))
        w = data.draw(edge_cochains(pg))
        same_cochain(adjoint(pg, w), reference.adjoint(ref_graph(pg), w.data))

    @settings(max_examples=150, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), data=st.data())
    def test_pairing(self, inst, data):
        pg = tower(*inst)
        f, g = data.draw(vertex_cochains(pg)), data.draw(vertex_cochains(pg))
        w = data.draw(edge_cochains(pg))
        for x, y in ((f, g), (g, f), (f, f), (w, coboundary(pg, f)),
                     (adjoint(pg, w), f), (w, Cochain.zero(1))):
            got = pairing(x, y)
            assert got == reference.pairing(x.data, y.data)
            assert type(got) is Fraction

    def test_disjoint_supports_pair_to_zero(self):
        assert pairing(Cochain(1, {0: ONE}), Cochain(1, {1: ONE})) is cochains.ZERO
        assert pairing(Cochain.zero(0), Cochain.zero(0)) is cochains.ZERO

    def test_cancelling_sums_dropped(self):
        pg = tower(2, 3, 1)
        roots = reference.components(ref_graph(pg))
        largest = max(roots, key=roots.count)
        comp = [s for s in range(pg.num_vertices) if roots[s] == largest]
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


def shared_objects(values, source=()):
    """The objects an operator's output holds for these values: a value
    equal to one of its input's is the input's own object (the last such
    in key order), and each other distinct value is one new object."""
    own = {v: v for v in source}
    new = {}
    return [own[v] if v in own else new.setdefault(v, v) for v in values]


def same_values(got, want, source=()):
    """Equal values in the same key order, each a plain Fraction, holding
    the source's own objects where they are equal to its values and one
    new object per other distinct value."""
    assert list(got.items()) == list(want.items())
    assert all(type(x) is Fraction for x in got.values())
    assert sharing(got.values(), source) == sharing(shared_objects(want.values(), source),
                                                    source)


def assert_int_form(c, built=False):
    """c.int_form is the form recomputed from c.data, over c's own den:
    each value its numerator over den, in data's key order.  A cochain
    built from its values (built=True) has den the lcm of its denominators;
    an operator's output may keep a multiple of it, its input's den."""
    den, nums = c.int_form
    lcm_den = lcm(*(x.denominator for x in c.data.values()))
    assert den > 0 and den % lcm_den == 0 and (den == lcm_den or not built)
    assert list(nums.items()) == [(i, x.numerator * (den // x.denominator))
                                  for i, x in c.data.items()]


def shuffled(n, rng):
    """A permutation of range(n) that is not the identity (n >= 2)."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm if perm != sorted(perm) else perm[1:] + perm[:1]


class TestCarriedIntForm:
    """Every operator reads the int form its input carries; each gives the
    reference's values in the same key order, holding its input's own
    objects where the values are equal."""

    @settings(max_examples=150, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), data=st.data())
    def test_coboundary_adjoint_and_pairing(self, inst, data):
        pg = tower(*inst)
        f, g = data.draw(vertex_cochains(pg)), data.draw(vertex_cochains(pg))
        w = data.draw(edge_cochains(pg))
        df, dw = coboundary(pg, f), adjoint(pg, w)
        g0 = ref_graph(pg)
        same_values(df.data, reference.coboundary(g0, f.data), f.data.values())
        same_values(dw.data, reference.adjoint(g0, w.data), w.data.values())
        # Outputs carry their input's den, which may exceed the lcm.
        same_values(adjoint(pg, df).data, reference.adjoint(g0, df.data), df.data.values())
        same_values(coboundary(pg, dw).data, reference.coboundary(g0, dw.data),
                    dw.data.values())
        for x, y in ((f, g), (g, f), (w, df), (dw, f), (df, df), (dw, dw),
                     (w, Cochain.zero(1))):
            got = pairing(x, y)
            assert got == reference.pairing(x.data, y.data) and type(got) is Fraction

    @settings(max_examples=40, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), seed=st.integers(0, 10 ** 6))
    def test_integrate(self, inst, seed):
        pg = tower(*inst)
        rng = random.Random(seed)
        forest = SpanningForest(pg)
        f0 = rand_cochain(rng, 0, pg.num_vertices, 6)
        g = ref_graph(pg)
        for w in (coboundary(pg, f0), perturbed(pg, rng, forest),
                  Cochain(1, coboundary(pg, f0).data)):
            f, bad = integrate(pg, w, forest)
            # f is 0 at the roots and df = w on the parent edges, which fixes
            # it on the walked vertices; bad is the first edge where df != w.
            df = reference.coboundary(g, f.data)
            assert all(f(s) == 0 for s in forest.order if forest.parent_edge[s] is None)
            assert all(df.get(a, 0) == w(a) for a in forest.parent_edge if a is not None)
            assert bad == next((a for a in range(g.num_edges) if df.get(a, 0) != w(a)), None)
            assert list(f.data) == [s for s in forest.order if s in f.data]
            vals = list(f.data.values())
            assert all(type(x) is Fraction and x for x in vals)
            assert len({id(x) for x in vals}) == len(set(vals))

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
        pg = fresh_tower(*inst)
        stray_parent(pg.forest)
        calls = spy_calls(monkeypatch, _linalg, "rank_of_rows", lambda *_: "rank_of_rows")
        spy_calls(monkeypatch, _linalg, "nullspace", lambda *_: "nullspace", calls)
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
