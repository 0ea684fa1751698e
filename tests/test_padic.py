"""Lattice classes, the projective action, congruence subgroups, stabilizers."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import IDENTITY, adjugate, class_matrix, is_leaf, mul, time_limit
from treeforms import checks, padic
from treeforms.padic import (GroupElement, LatticeClassVertex, ROOT,
                             TransitivityResult, act, canonicalize, embed_ball,
                             enumerate_unit_lifts, fixes_path_pointwise,
                             fixes_vertex, in_gamma0, lattice_neighbors, sample_gamma0,
                             sample_with_exact_lower_valuation,
                             stabilizer_transitivity_check, standard_path,
                             tree_distance)
from treeforms.tower import build_path_graph

F = Fraction


def valuation(x, p):
    """v_p(x) for a rational x; None plays the role of +infinity at 0.
    p < 2 is refused at every x, 0 included (by ``padic._int_valuation``)."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    vd = padic._int_valuation(x.denominator, p)
    return padic._int_valuation(x.numerator, p) - vd if x else None


def rand_invertible(rng, span=8, den=5):
    while True:
        entries = [F(rng.randrange(-span, span + 1), rng.randrange(1, den)) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2] != 0:
            return GroupElement(*entries)


def rand_class(rng, p):
    """A canonical class, often with negative n and non-integral u."""
    if rng.random() < 0.25:
        return canonicalize(rand_invertible(rng), p)
    n = rng.randrange(-4, 5)
    return LatticeClassVertex(n, reference.residue(F(rng.randrange(-300, 301),
                                                     rng.randrange(1, 40)), n, p))


def scaled(g, lam):
    return GroupElement(g.a * lam, g.b * lam, g.c * lam, g.d * lam)


def ref_class(lv):
    """A class as the reference's (n, u)."""
    return lv.n, lv.u


def ref_distance(v, w, p):
    return reference.lattice_distance(ref_class(v), ref_class(w), p)


def fixes_reference(g, classes, p):
    return all(reference.fixes(g.entries, ref_class(lv), p) for lv in classes)


def stabilizer_reference(emb, path, modulus_exp):
    """Every unit lift modulo p^modulus_exp that fixes each path vertex."""
    return [g for g in reference.unit_lifts(emb.p, modulus_exp)
            if all(reference.fixes(g, ref_class(emb.to_lattice[v]), emb.p) for v in path)]


def transitivity_reference(emb, pg, s, stabilizer):
    """Both sides' results from the whole stabilizer (entry tuples), each
    element moving every vertex of the base edge by the reference action,
    with no early stop."""
    ids = {ref_class(lv): v for v, lv in enumerate(emb.to_lattice)}
    results = {}
    for side, targets in (("+", pg.edges_into[s]), ("-", pg.edges_out_of[s])):
        if len(targets) <= 1:
            results[side] = TransitivityResult(True, True, len(targets), len(targets), 0)
            continue
        orbit = set()
        for g in stabilizer:
            image = tuple(ids.get(reference.act(g, ref_class(emb.to_lattice[v]), emb.p))
                          for v in pg.edges[targets[0]])
            if image in pg.edge_index:
                orbit.add(pg.edge_index[image])
        covered = set(targets) <= orbit
        results[side] = TransitivityResult(covered, covered, len(orbit), len(targets),
                                           len(stabilizer))
    return results


class TestValuation:
    @pytest.mark.parametrize("x,p,v", [(8, 2, 3), (F(3, 4), 2, -2), (F(9, 5), 3, 2),
                                       (1, 7, 0), (F(-12), 2, 2)])
    def test_values(self, x, p, v):
        assert valuation(x, p) == v

    def test_zero_is_infinite(self):
        assert valuation(0, 5) is None

    @pytest.mark.parametrize("p", [1, 0, -3])
    @pytest.mark.parametrize("call", [
        lambda p: valuation(F(6), p),
        lambda p: valuation(0, p),
        lambda p: padic._int_valuation(12, p),
        lambda p: padic._residue(6, 1, 2, p),
        lambda p: canonicalize(GroupElement.of(2, 1, 0, 1), p),
        lambda p: in_gamma0(GroupElement.of(1, 0, 2, 1), 1, p),
        lambda p: in_gamma0(GroupElement.of(0, 1, 1, 0), 1, p),
        lambda p: fixes_vertex(GroupElement(1, 1, 1, 1), ROOT, p),
        lambda p: tree_distance(ROOT, LatticeClassVertex(1, F(1)), p),
    ], ids=["valuation", "valuation_of_zero", "kernel", "residue_mod", "canonicalize", "in_gamma0",
          "in_gamma0_zero_diagonal", "fixes_singular", "tree_distance"])
    def test_p_below_two_refused(self, call, p):
        # p = 1 used to loop forever and p = 0 to divide by zero.
        with time_limit(10, f"valuation at p={p}"), pytest.raises(ValueError, match="p >= 2"):
            call(p)

    def test_multiplicative(self):
        rng = random.Random(0)
        for _ in range(100):
            a = F(rng.randrange(1, 50), rng.randrange(1, 50))
            b = F(rng.randrange(1, 50), rng.randrange(1, 50))
            assert valuation(a * b, 3) == valuation(a, 3) + valuation(b, 3)


class TestResidue:
    def test_zero_when_valuation_large(self):
        assert padic._residue(8, 1, 3, 2) == 0
        assert padic._residue(0, 1, 2, 5) == 0

    def test_integral_representative(self):
        assert padic._residue(7, 1, 2, 3) == 7 % 8
        assert padic._residue(1, 3, 1, 2) == 1  # 1/3 = 1 mod 2 in Z_2

    def test_negative_valuation_representative(self):
        r = padic._residue(1, 2, 1, 2)
        v = valuation(r - F(1, 2), 2)
        assert v is None or v >= 1
        assert valuation(r, 2) == -1
        # 3/2 and 1/2 + 1 differ by a unit times 2^0, not mod 2: distinct classes
        assert padic._residue(3, 2, 1, 2) != padic._residue(1, 2, 1, 2)

    def test_congruence_property(self):
        rng = random.Random(1)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            u = F(rng.randrange(-40, 41), rng.randrange(1, 20))
            n = rng.randrange(-2, 4)
            r = padic._residue(u.numerator, u.denominator, n, p)
            diff = r - u
            v = valuation(diff, p)
            assert v is None or v >= n


class TestCanonicalize:
    def test_identity_is_root(self):
        assert canonicalize(IDENTITY, 2) == ROOT

    def test_diag_p_one(self):
        assert canonicalize(GroupElement.of(2, 0, 0, 1), 2) == LatticeClassVertex(1, F(0))

    def test_upper_unipotent_shift(self):
        assert canonicalize(GroupElement.of(2, 1, 0, 1), 2) == LatticeClassVertex(1, F(1))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(GroupElement(F(1), F(2), F(2), F(4)), 2)
        with pytest.raises(ValueError):
            GroupElement.of(1, 2, 2, 4)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_invariant_under_right_unimodular_and_scalars(self, seed):
        rng = random.Random(seed)
        g = rand_invertible(rng)
        p = rng.choice([2, 3])
        unimods = [GroupElement.of(1, 1, 0, 1), GroupElement.of(0, 1, 1, 0),
                   GroupElement.of(1, 0, p, 1), GroupElement.of(1, 0, 0, -1)]
        k = unimods[rng.randrange(len(unimods))]
        lam = F(rng.randrange(1, 9), rng.randrange(1, 9))
        scaled = GroupElement(g.a * lam, g.b * lam, g.c * lam, g.d * lam)
        assert canonicalize(g, p) == canonicalize(mul(g, k), p) == canonicalize(scaled, p)


class TestAction:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_left_action_axioms(self, seed):
        rng = random.Random(seed)
        p = rng.choice([2, 3])
        g, h = rand_invertible(rng), rand_invertible(rng)
        v = canonicalize(rand_invertible(rng), p)
        assert act(mul(g, h), v, p) == act(g, act(h, v, p), p)
        assert act(IDENTITY, v, p) == v
        assert act(g, act(adjugate(g), v, p), p) == v

    def test_diag_moves_root_distance_one(self):
        g = GroupElement.of(2, 0, 0, 1)
        image = act(g, ROOT, 2)
        assert tree_distance(ROOT, image, 2) == 1


class TestDistance:
    def test_reflexive(self):
        assert tree_distance(ROOT, ROOT, 2) == 0

    @pytest.mark.parametrize("n,expect", [(1, 1), (2, 2), (-3, 3)])
    def test_powers_along_apartment(self, n, expect):
        assert tree_distance(ROOT, LatticeClassVertex(n, F(0)), 2) == expect

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(50):
            v = canonicalize(rand_invertible(rng), 2)
            w = canonicalize(rand_invertible(rng), 2)
            assert tree_distance(v, w, 2) == tree_distance(w, v, 2)

    @pytest.mark.parametrize("n1,u1,n2,u2,p", [
        (-2, F(1, 8), -3, F(3, 32), 2),
        (-1, F(2, 9), 2, F(5), 3),
        (-2, F(1, 125), -2, F(2, 125), 5),
        (1, F(1), -2, F(1), 2),
    ])
    def test_closed_form_examples(self, n1, u1, n2, u2, p):
        v = LatticeClassVertex(n1, reference.residue(u1, n1, p))
        w = LatticeClassVertex(n2, reference.residue(u2, n2, p))
        assert tree_distance(v, w, p) == ref_distance(v, w, p)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p=st.sampled_from([2, 3, 5]))
    def test_closed_form_matches_elementary_divisors(self, seed, p):
        rng = random.Random(seed)
        for _ in range(20):
            v = rand_class(rng, p)
            w = rand_class(rng, p)
            if rng.random() < 0.2:
                w = LatticeClassVertex(w.n, reference.residue(v.u, w.n, p))
            assert tree_distance(v, w, p) == ref_distance(v, w, p)

    def test_neighbors_at_distance_one(self):
        for p in (2, 3):
            for v in (ROOT, LatticeClassVertex(2, F(1)), LatticeClassVertex(-1, F(0))):
                ns = lattice_neighbors(v, p)
                assert len(ns) == len(set(ns)) == p + 1
                for w in ns:
                    assert tree_distance(v, w, p) == 1


class TestEmbedding:
    @pytest.mark.parametrize("p,radius,nverts", [(2, 1, 4), (2, 3, 22), (3, 2, 17)])
    def test_counts(self, p, radius, nverts):
        emb = embed_ball(p, radius)
        assert emb.ball.num_vertices == nverts
        assert len(set(emb.to_lattice)) == nverts

    @pytest.mark.parametrize("p,radius", [(2, 3), (3, 2)])
    def test_full_distance_matrix(self, p, radius):
        emb = embed_ball(p, radius)
        n = emb.ball.num_vertices
        for u in range(n):
            for v in range(n):
                assert emb.ball.distance(u, v) == \
                    tree_distance(emb.to_lattice[u], emb.to_lattice[v], p)

    def test_wrong_branching_rejected(self):
        # q = p is forced by construction: embed only takes a prime p
        emb = embed_ball(2, 2)
        assert emb.ball.params.q == 2

    def test_unit_lift_automorphism_preserves_incidence(self):
        """Root-fixing group elements act as ball automorphisms; the induced
        path-graph maps preserve all incidence numbers."""
        from treeforms.tower import apply_automorphism
        emb = embed_ball(2, 2)
        pg = build_path_graph(emb.ball, 1)
        rng = random.Random(7)
        lifts = sample_gamma0(2, 0, 4, 10, seed=21)
        for g in lifts:
            perm = emb.automorphism_from(g)
            vmap, emap = apply_automorphism(pg, perm)
            for a in range(pg.num_edges):
                assert pg.head[emap[a]] == vmap[pg.head[a]]
                assert pg.tail[emap[a]] == vmap[pg.tail[a]]


class TestGamma0:
    def test_identity_all_levels(self):
        for n in range(4):
            assert in_gamma0(IDENTITY, n, 2)

    def test_lower_triangular_example(self):
        g = GroupElement.of(1, 0, 2, 1)
        assert in_gamma0(g, 1, 2)
        assert not in_gamma0(g, 2, 2)

    def test_antidiagonal_example(self):
        w = GroupElement.of(0, 1, 1, 0)
        assert in_gamma0(w, 0, 2)
        assert not in_gamma0(w, 1, 2)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_scalar_invariance(self, seed):
        rng = random.Random(seed)
        g = rand_invertible(rng)
        lam = F(rng.randrange(1, 30), rng.randrange(1, 30))
        gl = GroupElement(g.a * lam, g.b * lam, g.c * lam, g.d * lam)
        for n in (0, 1, 2):
            assert in_gamma0(g, n, 2) == in_gamma0(gl, n, 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_deep_levels_take_no_huge_power(self, p):
        # The fix test passes a zero entry and fails a nonzero one shorter
        # than p^e without computing p^e; 3^(3 10^7) alone takes seconds.
        n = 200
        g = GroupElement(1, 0, p ** n, 1)
        deep = 3 * 10 ** 7
        with time_limit(5, f"deep levels at p={p}"):
            assert in_gamma0(g, n, p) and not in_gamma0(g, n + 1, p)
            assert in_gamma0(IDENTITY, deep, p)
            assert not in_gamma0(GroupElement(1, 0, p, 1), deep, p)
            assert fixes_vertex(IDENTITY, LatticeClassVertex(deep, 0), p)
            assert not fixes_vertex(GroupElement(1, 1, 0, 1), LatticeClassVertex(deep, 0), p)

    def test_sampled_members_satisfy_membership(self):
        for p in (2, 3):
            for n in (1, 2, 3):
                for g in sample_gamma0(p, n, 6, 30, seed=n):
                    assert in_gamma0(g, n, p)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p=st.sampled_from([2, 3, 5, 7]))
    def test_level_zero_is_the_min_valuation_rule(self, seed, p):
        # g lies in Q_p^* GL(2, Z_p) exactly when v_p(det g) is twice the
        # least entry valuation.
        rng = random.Random(seed)
        for _ in range(20):
            g = rand_invertible(rng, span=2 * p ** 2, den=p ** 2)
            least = min(v for v in (valuation(x, p) for x in g.entries) if v is not None)
            assert in_gamma0(g, 0, p) == (valuation(g.det, p) == 2 * least)


class TestFixesVertex:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p=st.sampled_from([2, 3, 5]))
    def test_matches_action(self, seed, p):
        rng = random.Random(seed)
        lv = rand_class(rng, p)
        m = class_matrix(lv, p)
        unit = sample_gamma0(p, 0, 3, 1, seed)[0]
        fixer = mul(mul(m, unit), adjugate(m))
        lam = F(p) ** rng.randrange(-2, 3) * F(rng.choice([1, -1, p + 1]), rng.choice([1, p - 1, 7]))
        g = rand_invertible(rng)
        for h in (g, scaled(g, lam), fixer, scaled(fixer, lam)):
            assert fixes_vertex(h, lv, p) == fixes_reference(h, [lv], p)
        assert fixes_vertex(scaled(fixer, lam), lv, p)

    def test_both_outcomes_and_non_unit_determinants(self):
        rng = random.Random(3)
        seen = set()
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            lv = rand_class(rng, p)
            g = rand_invertible(rng, span=3)
            fixed = fixes_vertex(g, lv, p)
            assert fixed == fixes_reference(g, [lv], p)
            seen.add((fixed, valuation(g.det, p) != 0))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestStandardPath:
    def test_level0_edge(self):
        emb = embed_ball(2, 2)
        path = standard_path(emb, 0)
        assert len(path) == 2
        assert emb.to_lattice[path[0]] == ROOT
        assert emb.ball.distance(path[0], path[1]) == 1

    def test_radius_too_small(self):
        emb = embed_ball(2, 1)
        with pytest.raises(ValueError):
            standard_path(emb, 1)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_congruence_subgroup_fixes_path(self, p, n):
        emb = embed_ball(p, n + 1)
        path = standard_path(emb, n)
        for g in sample_gamma0(p, n + 1, 6, 60, seed=17 + n):
            assert fixes_path_pointwise(g, emb, path)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_exact_level_moves_path(self, p, n):
        emb = embed_ball(p, n + 1)
        path = standard_path(emb, n)
        movers = sample_with_exact_lower_valuation(p, n, 6, 25, seed=23 + n)
        assert any(not fixes_path_pointwise(g, emb, path) for g in movers)

    def test_path_is_along_one_apartment(self):
        emb = embed_ball(2, 3)
        path = standard_path(emb, 2)
        for i, v in enumerate(path):
            assert emb.to_lattice[v] == LatticeClassVertex(-i, F(0))


class TestTransitivity:
    def test_root_0path_both_sides(self):
        emb = embed_ball(2, 2)
        pg = build_path_graph(emb.ball, 0)
        s = pg.vert_index[(0,)]
        for side in ("+", "-"):
            res = stabilizer_transitivity_check(emb, pg, s, side, 2)
            assert res.covered and res.conclusive
            assert res.target_size == 3

    def test_interior_1path_both_sides(self):
        emb = embed_ball(2, 3)
        pg = build_path_graph(emb.ball, 1)
        s = pg.vert_index[standard_path(emb, 0)]
        for side in ("+", "-"):
            res = stabilizer_transitivity_check(emb, pg, s, side, 3)
            assert res.covered and res.conclusive

    def test_singleton_side_trivially_true(self):
        emb = embed_ball(2, 2)
        pg = build_path_graph(emb.ball, 0)
        leaf_path = next(s for s, pth in enumerate(pg.verts)
                         if is_leaf(emb.ball, pth[0]))
        res = stabilizer_transitivity_check(emb, pg, leaf_path, "+", 2)
        assert res.covered and res.target_size == 1

    # (p, path, m, d): d is the reduced exponent, the root distance of the
    # farthest vertex of the path, floored at 1 (d = m: full route).
    DIFFERENTIAL = [(2, "root0", 2, 1), (2, "root0", 3, 1), (2, "root0", 4, 1),
                    (2, "std1", 2, 1), (2, "std1", 3, 1), (2, "std1", 4, 1),
                    (3, "root0", 2, 1), (3, "std1", 2, 1)]

    @pytest.mark.parametrize("p,path,m,d", DIFFERENTIAL)
    def test_matches_full_enumeration(self, p, path, m, d):
        if path == "root0":
            emb = embed_ball(p, 2)
            pg = build_path_graph(emb.ball, 0)
            s = pg.vert_index[(0,)]
        else:
            emb = embed_ball(p, 3)
            pg = build_path_graph(emb.ball, 1)
            s = pg.vert_index[standard_path(emb, 0)]
        full = stabilizer_reference(emb, pg.verts[s], m)
        residues, size = padic._path_stabilizer(emb, pg.verts[s], m)
        pd = p ** d
        reduced = [tuple(int(x) for x in g.entries) for g in residues]
        assert all(0 <= x < pd for entries in reduced for x in entries)
        assert len(set(reduced)) == len(reduced)
        assert set(reduced) == {tuple(x % pd for x in g) for g in full}
        assert size == len(residues) * p ** (4 * (m - d)) == len(full)
        expected = transitivity_reference(emb, pg, s, full)
        for side in ("+", "-"):
            assert stabilizer_transitivity_check(emb, pg, s, side, m) == expected[side]

    def test_singleton_side_matches_reference(self):
        emb = embed_ball(2, 2)
        pg = build_path_graph(emb.ball, 0)
        leaf = next(s for s, pth in enumerate(pg.verts) if is_leaf(emb.ball, pth[0]))
        expected = transitivity_reference(emb, pg, leaf,
                                          stabilizer_reference(emb, pg.verts[leaf], 2))
        assert expected["+"].target_size == 1
        for side in ("+", "-"):
            assert stabilizer_transitivity_check(emb, pg, leaf, side, 2) == expected[side]

    def test_modulus_exponent_below_one_is_refused(self):
        emb = embed_ball(2, 2)
        pg = build_path_graph(emb.ball, 0)
        # A leaf's + side has one extension, so it needs no stabilizer; the
        # modulus is refused there all the same.
        leaf = next(s for s, pth in enumerate(pg.verts) if is_leaf(emb.ball, pth[0]))
        assert len(pg.edges_into[leaf]) == 1
        for s in (pg.vert_index[(0,)], leaf):
            for m in (0, -3):
                with pytest.raises(ValueError, match="modulus exponent"):
                    stabilizer_transitivity_check(emb, pg, s, "+", m)

    def test_check_enumerates_modulo_p(self, monkeypatch):
        moduli = []

        def spy(p, modulus_exp):
            moduli.append(modulus_exp)
            return enumerate_unit_lifts(p, modulus_exp)

        monkeypatch.setattr(padic, "enumerate_unit_lifts", spy)
        passed, report = checks.check_transitivity(2)
        assert passed and report["conclusive"]
        # One enumeration per path and side, each modulo p: the root 0-path
        # and the standard 1-path both lie in the radius-1 ball (d = 1).
        assert moduli == [1, 1, 1, 1]

    def test_unit_lift_enumeration_size(self):
        # |GL(2, Z/4)| = 96
        assert len(enumerate_unit_lifts(2, 2)) == 96

    @pytest.mark.parametrize("p,radius", [(2, 3), (3, 2)])
    def test_lifting_matches_reference_on_every_short_path(self, p, radius):
        """Digit-by-digit residues, and both sides' transitivity results,
        against the full enumeration modulo p^m with no early stop, on
        every k-path with k <= 2 of the ball, for every m <= radius."""
        emb = embed_ball(p, radius)
        depths = emb.ball.depths
        pgs = [build_path_graph(emb.ball, k) for k in range(3)]
        for m in range(1, radius + 1):
            # Which ball vertices each unit lift fixes, by the reference, so
            # that `full` below is stabilizer_reference(emb, path, m) from
            # one table.
            fixed = [(g, {v for v, lv in enumerate(emb.to_lattice)
                          if reference.fixes(g, ref_class(lv), p)})
                     for g in reference.unit_lifts(p, m)]
            for pg in pgs:
                for s, path in enumerate(pg.verts):
                    full = [g for g, fixes in fixed if fixes.issuperset(path)]
                    pd = p ** min(m, max(1, max(depths[v] for v in path)))
                    residues, size = padic._path_stabilizer(emb, path, m)
                    reduced = [g.entries for g in residues]
                    assert all(0 <= x < pd for entries in reduced for x in entries)
                    assert len(set(reduced)) == len(reduced)
                    assert set(reduced) == {tuple(x % pd for x in g) for g in full}
                    assert size == len(full)
                    expected = transitivity_reference(emb, pg, s, full)
                    for side in ("+", "-"):
                        got = stabilizer_transitivity_check(emb, pg, s, side, m)
                        assert got == expected[side], (m, pg.k, path, side)


class TestJson:
    def test_matrix_entries_as_fraction_strings(self):
        g = GroupElement.of(1, F(1, 2), 0, 1)
        assert g.to_json_dict() == [["1/1", "1/2"], ["0/1", "1/1"]]


class TestSamplerLevels:
    @pytest.mark.parametrize("sampler", [sample_gamma0, sample_with_exact_lower_valuation])
    @pytest.mark.parametrize("n,m", [(-1, 6), (-2, 0), (6, 6), (7, 6)])
    def test_level_outside_range_refused(self, sampler, n, m):
        with pytest.raises(ValueError, match=f"congruence level n = {n} must satisfy"):
            sampler(2, n, m, 5, 0)

    @pytest.mark.parametrize("sampler", [sample_gamma0, sample_with_exact_lower_valuation])
    @pytest.mark.parametrize("p,n", [(1, 0), (4, 1), (0, 0), (-3, 1), (9, 0)])
    def test_non_prime_p_refused(self, sampler, p, n):
        # At p = 1 level 0 rejected every index, so the call never returned;
        # at p = 4 the "units" 2, 6, 10, 14 were even.
        with time_limit(10, f"sampling at p={p}"), \
                pytest.raises(ValueError, match=f"^p must be a prime, got {p}$"):
            sampler(p, n, 2, 200, 0)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_movers_are_level_n_with_exact_valuation(self, p, n):
        for g in sample_with_exact_lower_valuation(p, n, 6, 20, 0):
            assert in_gamma0(g, n, p)
            assert valuation(g.c, p) == n


SAMPLERS = {False: sample_gamma0, True: sample_with_exact_lower_valuation}
SAMPLER_GRID = [(p, m, n) for p in (2, 3, 5) for m in (1, 2, 3) for n in range(m)]


class TestUniformSamplers:
    """The samplers draw one index per attempt and decode it onto the set
    the reference defines."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("p,m,n", [(p, m, n) for p, m, n in SAMPLER_GRID if p ** m <= 27])
    def test_indices_decode_one_to_one_onto_the_reference_set(self, p, m, n, exact):
        # A bijection from range(N) onto the accepted set (rejected indices
        # aside) makes a uniform index a uniform element.  One byte marks
        # each 4-tuple of residues; p = 5, m = 3 has 5^12 of them and is
        # checked below on drawn indices instead.  The set holds no c that
        # p^n does not divide, so those are not offered.
        pm, pn = p ** m, p ** n
        oracle = bytearray(pm ** 4)
        for c in range(0, pm, pn):
            for a, b, d in itertools.product(range(pm), repeat=3):
                if reference.in_sampled_set(p, n, m, exact, a, b, c, d):
                    oracle[((a * pm + b) * pm + c) * pm + d] = 1
        hits = bytearray(pm ** 4)
        size, decode = padic._index_decoder(p, n, m, exact)
        accepted = 0
        for g in decode(range(size)):
            a, b, c, d = g.entries
            hits[((a * pm + b) * pm + c) * pm + d] += 1
            accepted += 1
        assert hits == oracle
        if n:  # no index is rejected above level 0
            assert accepted == size

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_drawn_indices_decode_into_the_reference_set_at_p5_m3(self, n, exact):
        size, decode = padic._index_decoder(5, n, 3, exact)
        indices = random.Random(n).sample(range(size), 4000)
        got = [g.entries for g in decode(indices)]
        for t in got:
            assert reference.in_sampled_set(5, n, 3, exact, *t)
        assert len(set(got)) == len(got)
        if n:
            assert len(got) == len(indices)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1)])
    def test_samples_cover_the_reference_set(self, p, m, exact):
        # Ties the decoder tests above to the samplers themselves: enough
        # seeded draws land in the reference set and reach all of it.
        for n in range(m):
            got = {g.entries for g in SAMPLERS[exact](p, n, m, 2000, n)}
            accepted = {t for t in itertools.product(range(p ** m), repeat=4)
                        if reference.in_sampled_set(p, n, m, exact, *t)}
            assert got == accepted

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("p,m,n", SAMPLER_GRID)
    def test_samples_are_seeded_and_at_their_level(self, p, m, n, exact):
        sampler = SAMPLERS[exact]
        got = sampler(p, n, m, 40, 11)
        assert got == sampler(p, n, m, 40, 11)
        assert len(got) == 40
        for g in got:
            assert g.det != 0
            assert in_gamma0(g, n, p)
            if exact:
                assert valuation(g.c, p) == n

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_one_draw_per_element_above_level_zero(self, p, exact, monkeypatch):
        draws = []
        randrange = random.Random.randrange

        def counting(self, *args):
            draws.append(args)
            return randrange(self, *args)

        monkeypatch.setattr(random.Random, "randrange", counting)
        sampler = SAMPLERS[exact]
        for n in (1, 2, 3):
            draws.clear()
            assert len(sampler(p, n, 6, 200, 5)) == 200
            assert len(draws) == 200
        draws.clear()
        assert len(sampler(p, 0, 6, 200, 5)) == 200
        assert len(draws) >= 200  # level 0 draws again after a non-unit det


def path_in_ball(rng, emb):
    """A random geodesic of the ball: a vertex and up to two steps away."""
    path = [rng.randrange(emb.ball.num_vertices)]
    for _ in range(rng.randrange(3)):
        nxt = [w for w in emb.ball.adjacency[path[-1]] if w not in path]
        if nxt:
            path.append(rng.choice(nxt))
    return tuple(path)


class TestIntegerRoute:
    """Entries held as ints where integral, and the integer-valuation
    routes, against the reference."""

    def test_integral_entries_are_ints(self):
        g = GroupElement.of(1, 2, 4, 3)
        assert all(type(x) is int for x in g.entries)
        assert g == GroupElement.of(F(1), F(2), F(4), F(3)) == GroupElement(F(2, 2), 2, 4, 3)
        assert g.to_json_dict() == GroupElement.of(F(1), F(2), F(4), F(3)).to_json_dict() \
            == [["1/1", "2/1"], ["4/1", "3/1"]]
        h = GroupElement.of(F(1, 2), F(4, 2), 0, 1)
        assert [type(x) for x in h.entries] == [F, int, int, int]
        assert h.to_json_dict() == [["1/2", "2/1"], ["0/1", "1/1"]]
        assert all(type(x) is int for x in mul(h, GroupElement.of(2, 0, 0, 1)).entries)

    def test_classes_hold_ints_where_integral(self):
        assert type(ROOT.u) is int and type(LatticeClassVertex(1, F(1)).u) is int
        assert LatticeClassVertex(1, F(1)) == LatticeClassVertex(1, 1)
        assert {ROOT: 0}[LatticeClassVertex(0, F(0))] == 0
        assert type(padic._residue(7, 3, 2, 2)) is int
        assert type(padic._residue(7, 3, 2, 3)) is F
        emb = embed_ball(3, 2)
        for lv in emb.to_lattice:
            assert (type(lv.u) is int) == (lv.u.denominator == 1)
        for g in (enumerate_unit_lifts(2, 1) + sample_gamma0(3, 1, 4, 5, 0)
                  + sample_with_exact_lower_valuation(3, 1, 4, 5, 0)):
            assert all(type(x) is int for x in g.entries)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), p=st.sampled_from([2, 3, 5]))
    def test_matches_reference(self, seed, p):
        rng = random.Random(seed)
        emb = embed_ball(p, 2)
        for _ in range(5):
            v, w = rand_class(rng, p), rand_class(rng, p)
            path = path_in_ball(rng, emb)
            # Integral elements: unit lifts and level-n congruence samples,
            # which fix the standard path up to depth n, so both outcomes
            # of the fix tests occur.
            unit = sample_gamma0(p, rng.randrange(3), 3, 1, rng.randrange(10 ** 6))[0]
            integral = rand_invertible(rng, span=30, den=2) if rng.random() < 0.3 else unit
            m = class_matrix(v, p)
            conjugate = mul(mul(m, unit), adjugate(m))
            # Conjugates that move v, their least conjugate valuation taken
            # at one diagonal entry alone.
            movers = [mul(mul(m, h), adjugate(m)) for h in (GroupElement.of(2 * p * p, p, p, 1),
                                                          GroupElement.of(1, p, p, 2 * p * p))]
            lam = F(p) ** rng.randrange(-2, 3) * F(rng.choice([1, -1, p + 1]), rng.choice([1, p - 1, 7]))
            for g in (integral, rand_invertible(rng), conjugate, *movers):
                for h in (g, scaled(g, lam)):
                    if h.det == 0:
                        continue
                    assert ref_class(canonicalize(h, p)) == reference.lattice_class(h.entries, p)
                    assert fixes_vertex(h, v, p) == fixes_reference(h, [v], p)
                    assert fixes_path_pointwise(h, emb, path) == \
                        fixes_reference(h, [emb.to_lattice[x] for x in path], p)
            assert fixes_vertex(conjugate, v, p)
            assert not any(fixes_vertex(g, v, p) for g in movers)
            assert tree_distance(v, w, p) == ref_distance(v, w, p)


# -- the integer valuation kernel against the reference -------------------

PRIMES = st.sampled_from([2, 3, 5, 7])


@st.composite
def rationals(draw, p, integral=False):
    """p^e times a ratio of ints, either of which may share factors with p;
    zero sometimes."""
    num = draw(st.integers(-10 ** 4, 10 ** 4))
    den = 1 if integral else draw(st.integers(1, 10 ** 3))
    e = draw(st.integers(0 if integral else -6, 12))
    return F(num, den) * F(p) ** e


@st.composite
def classes(draw, p):
    """A canonical class, or one whose u is any rational, not reduced
    modulo p^n, with a denominator that may be prime to p."""
    n = draw(st.integers(-5, 5))
    u = draw(rationals(p))
    return LatticeClassVertex(n, reference.residue(u, n, p) if draw(st.booleans()) else u)


@st.composite
def elements(draw, p):
    """A 2x2 matrix of rationals, singular about one time in six."""
    a, b, c, d = (draw(rationals(p)) for _ in range(4))
    if draw(st.integers(0, 5)) == 0:
        lam = draw(rationals(p))
        c, d = lam * a, lam * b
    return GroupElement(a, b, c, d)


@st.composite
def level_elements(draw, p):
    """A scalar multiple of [[a, b], [c, d]] with a and d units, b an int
    and c = p^j r, j <= 7, so at level j; a or d is made a non-unit
    sometimes, and r is often a unit, so that level j + 1 fails."""
    a, d = (p * draw(st.integers(-50, 50)) + draw(st.integers(1, p - 1)) for _ in "ad")
    if draw(st.integers(0, 4)) == 0:
        a *= p
    if draw(st.integers(0, 4)) == 0:
        d *= p ** draw(st.integers(1, 2))
    b = draw(st.integers(-10 ** 4, 10 ** 4))
    c = p ** draw(st.integers(0, 7)) * draw(st.integers(-10 ** 3, 10 ** 3))
    return scaled(GroupElement(a, b, c, d), draw(rationals(p).filter(bool)))


class TestIntegerKernel:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_valuation_matches_divide_loop(self, data, p):
        x = data.draw(st.one_of(rationals(p, integral=True), rationals(p)))
        assert valuation(x, p) == reference.valuation(x, p)
        if x.denominator == 1 and x:
            n = int(x)
            assert padic._int_valuation(n, p) == padic._int_valuation(-n, p) \
                == reference.valuation(n, p)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=PRIMES, n=st.integers(-6, 6))
    def test_residues_and_neighbours_match_reference(self, data, p, n):
        u = data.draw(rationals(p))
        got, want = padic._residue(u.numerator, u.denominator, n, p), reference.residue(u, n, p)
        assert got == want and type(got) is (int if want.denominator == 1 else F)
        v = data.draw(classes(p))
        got = lattice_neighbors(v, p)
        assert [ref_class(x) for x in got] == reference.neighbours(ref_class(v), p)
        assert all(type(x.u) is (int if x.u.denominator == 1 else F) for x in got)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_distance_matches_reference(self, data, p):
        v, w = data.draw(classes(p)), data.draw(classes(p))
        d = tree_distance(v, w, p)
        assert d == ref_distance(v, w, p)
        assert d == tree_distance(w, v, p)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_act_matches_the_reference_product(self, data, p):
        """The int route of ``act`` against the class of g . matrix(v), on
        elements with Fraction entries and classes whose u need not be
        reduced, its denominator possibly prime to p."""
        g = data.draw(st.one_of(level_elements(p), elements(p)))
        v = data.draw(classes(p))
        if g.det == 0:
            with pytest.raises(ValueError, match="singular"):
                act(g, v, p)
            return
        got = act(g, v, p)
        assert ref_class(got) == reference.act(g.entries, ref_class(v), p)
        assert type(got.u) is (int if got.u.denominator == 1 else F)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_fix_test_matches_least_conjugate_valuation(self, data, p):
        g = data.draw(st.one_of(level_elements(p), elements(p)))
        path = [data.draw(classes(p)) for _ in range(data.draw(st.integers(1, 3)))]
        with time_limit(10, "a singular element at odd p"):
            if g.det == 0:
                assert not padic._fixes_all(g, path, p)
                assert not any(in_gamma0(g, n, p) for n in range(7))
                with pytest.raises(ValueError, match="singular"):
                    canonicalize(g, p)
                return
            assert padic._fixes_all(g, path, p) == fixes_reference(g, path, p)
            assert fixes_vertex(g, path[0], p) == fixes_reference(g, path[:1], p)
            assert ref_class(canonicalize(g, p)) == reference.lattice_class(g.entries, p)
            for n in range(7):
                assert in_gamma0(g, n, p) == reference.in_gamma0(g.entries, n, p)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_conjugated_fixers_and_movers(self, data, p):
        """Elements built to fix a class (conjugates of unit lifts) or to
        move it, where a random element rarely fixes a deep class."""
        lv = data.draw(classes(p))
        m = class_matrix(lv, p)
        unit = sample_gamma0(p, 0, 3, 1, data.draw(st.integers(0, 10 ** 6)))[0]
        lam = data.draw(rationals(p).filter(bool))
        fixer = scaled(mul(mul(m, unit), adjugate(m)), lam)
        assert padic._fixes_all(fixer, [lv], p) and fixes_reference(fixer, [lv], p)
        for h in GUARD_MOVERS.values():
            mover = scaled(mul(mul(m, h(p)), adjugate(m)), lam)
            assert not padic._fixes_all(mover, [lv], p)
            assert not fixes_reference(mover, [lv], p)


class TestIntForms:
    """The cached integer form of a class and the private constructor of
    int-entry elements leave equality, hashing and freezing as they were."""

    @pytest.mark.parametrize("entries", [(1, 2, 4, 3), (0, 1, 1, 0), (-5, 7, 2 ** 70, 3),
                                         (2, 0, 0, 0)])
    def test_private_constructor_matches_the_dataclass(self, entries):
        g, ref = padic._element(*entries), GroupElement(*entries)
        assert type(g) is GroupElement and g.entries == entries
        assert all(type(x) is int for x in g.entries)
        assert g == ref and ref == g and hash(g) == hash(ref) and repr(g) == repr(ref)
        assert {ref: 0}[g] == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.a = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del g.d
        assert g.entries == entries

    def test_sampled_and_lifted_elements_match_the_dataclass(self):
        elements = (enumerate_unit_lifts(2, 1) + sample_gamma0(3, 1, 4, 20, 0)
                    + sample_gamma0(2, 0, 3, 20, 1)
                    + sample_with_exact_lower_valuation(5, 1, 3, 20, 0)
                    + list(padic._lifts(enumerate_unit_lifts(2, 1)[:3], 1, 2)))
        for g in elements:
            ref = GroupElement(*g.entries)
            assert g == ref and hash(g) == hash(ref)
            assert all(type(x) is int for x in g.entries)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_int_form_is_lowest_terms_and_leaves_equality(self, p):
        emb = embed_ball(p, 2)
        for lv in guard_classes(p) + emb.to_lattice + [LatticeClassVertex(-3, F(6, 4 * p ** 3))]:
            fresh = LatticeClassVertex(lv.n, lv.u)
            n, U, D = lv.int_form
            assert (n, F(U, D)) == (lv.n, lv.u) and D >= 1 and F(U, D).denominator == D
            assert lv.int_form is lv.int_form
            assert lv == fresh and fresh == lv and hash(lv) == hash(fresh)
            assert repr(lv) == repr(fresh) and {fresh: 0}[lv] == 0
            assert dataclasses.astuple(lv) == (lv.n, lv.u)
        # Every class of the ball has had its form read; fresh keys find it.
        assert all(emb.from_lattice[LatticeClassVertex(lv.n, lv.u)] == i
                   for i, lv in enumerate(emb.to_lattice))


# One element per clause of ``_fixes_all``'s divisibility test.  Each has
# v_p(det) = 2, so h = 1, and exactly one entry not divisible by p: at the
# root its conjugate is itself, and it fails that clause alone.
GUARD_MOVERS = {
    "a - cu": lambda p: GroupElement.of(1, p, p, 2 * p * p),
    "b + (a - d)u - cu^2": lambda p: GroupElement.of(p, 1, 0, p),
    "c p^n": lambda p: GroupElement.of(p, 0, 1, p),
    "cu + d": lambda p: GroupElement.of(2 * p * p, p, p, 1),
}



def guard_classes(p):
    """The root and classes with n of both signs, u with a power of p or a
    unit in its denominator, and u not reduced modulo p^n."""
    return [ROOT, LatticeClassVertex(3, 5), LatticeClassVertex(-2, F(1, p ** 3)),
            LatticeClassVertex(-1, F(2 * p + 1, p ** 2)), LatticeClassVertex(2, F(7, 5)),
            LatticeClassVertex(1, F(p ** 3 + 1, 3))]


class TestFixGuards:
    """Each early return of ``_fixes_all`` decides some answer alone, so
    deleting it changes a result here."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_odd_determinant_valuation_fixes_nothing(self, p):
        # diag(p, 1): v(det) = 1, and every conjugate entry at the root is
        # integral, so only the parity test refuses it.
        g = GroupElement.of(p, 0, 0, 1)
        assert not fixes_vertex(g, ROOT, p)
        assert not in_gamma0(g, 0, p)
        assert act(g, ROOT, p) != ROOT

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("entry", list(GUARD_MOVERS))
    def test_each_divisibility_clause(self, entry, p):
        h = GUARD_MOVERS[entry](p)
        for lv in guard_classes(p):
            m = class_matrix(lv, p)
            g = mul(mul(m, h), adjugate(m))
            assert not fixes_vertex(g, lv, p)
            assert not fixes_reference(g, [lv], p)
            # With the failing entry made divisible by p, g fixes lv.
            fixed = [x * p if name == entry else x
                     for name, x in zip(GUARD_MOVERS, h.entries)]
            g = mul(mul(m, GroupElement.of(*fixed)), adjugate(m))
            assert fixes_vertex(g, lv, p) and fixes_reference(g, [lv], p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_singular_fixes_nothing_and_returns(self, p):
        # At odd p a valuation of 0 would never return.
        with time_limit(10, f"singular element at p={p}"):
            for g in (GroupElement(1, 1, 1, 1), GroupElement(p, 0, 0, 0),
                      GroupElement(F(1, 3), F(2, 3), 1, 2)):
                assert not fixes_vertex(g, ROOT, p)
                assert not fixes_path_pointwise(g, embed_ball(p, 1), (0, 1))
                assert not in_gamma0(g, 0, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_empty_path_is_fixed_by_every_element(self, p):
        emb = embed_ball(p, 1)
        with time_limit(10, f"singular element at p={p}"):
            for g in (GroupElement.of(p, 0, 0, 1), GroupElement(1, 1, 1, 1), IDENTITY):
                assert fixes_path_pointwise(g, emb, ()) and fixes_reference(g, (), p)
