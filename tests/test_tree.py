"""Tree ball construction, geodesics, hulls, and seeded automorphisms."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from treeforms.padic import BallEmbedding
from treeforms.tree import (BallAutomorphism, TreeParams, build_ball,
                            enumerate_oriented_diameters,
                            geodesic_between, random_automorphism)

import reference
from conftest import ball, compose, identity, inverse, is_leaf


class TestParams:
    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            TreeParams(1, 2)

    def test_rejects_small_radius(self):
        with pytest.raises(ValueError):
            TreeParams(2, 0)


class TestBuildBall:
    @pytest.mark.parametrize("q,radius,nverts", [(2, 1, 4), (2, 2, 10), (3, 2, 17)])
    def test_known_sizes(self, q, radius, nverts):
        b = ball(q, radius)
        assert b.num_vertices == nverts
        assert len(b.edges) == nverts - 1

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
    def test_count_formula(self, q, radius):
        b = build_ball(TreeParams(q, radius))
        assert b.num_vertices == 1 + (q + 1) * (q ** radius - 1) // (q - 1)
        assert len(b.edges) == b.num_vertices - 1

    def test_connected_via_union_find(self):
        b = ball(3, 3)
        parent = list(range(b.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in b.edges:
            parent[find(u)] = find(v)
        assert len({find(x) for x in range(b.num_vertices)}) == 1

    def test_degrees(self):
        b = ball(2, 3)
        q = 2
        for v in range(b.num_vertices):
            deg = len(b.adjacency[v])
            if is_leaf(b, v):
                assert deg == 1
            else:
                assert deg == q + 1

    def test_breadth_first_numbering_deterministic(self):
        a = build_ball(TreeParams(2, 3))
        b = build_ball(TreeParams(2, 3))
        assert a.addresses == b.addresses
        assert a.to_json() == b.to_json()

    def test_json_round_trip_fields(self):
        payload = json.loads(ball(2, 2).to_json())
        assert payload["q"] == 2 and payload["radius"] == 2
        assert len(payload["vertices"]) == 10
        assert len(payload["edges"]) == 9
        assert sorted(payload["leaves"]) == [4, 5, 6, 7, 8, 9]

    def test_dot_output(self):
        dot = ball(2, 1).to_dot()
        assert dot.count("--") == 3


class TestGeodesics:
    def test_degenerate(self, ball22):
        seg = geodesic_between(ball22, 3, 3)
        assert seg == (3,)
        assert len(seg) - 1 == 0

    def test_root_to_leaf_depth(self, ball22):
        for leaf in ball22.leaves:
            assert len(geodesic_between(ball22, 0, leaf)) - 1 == 2

    def test_sibling_leaves_through_parent(self, ball22):
        # leaves 4 and 5 share parent 1
        seg = geodesic_between(ball22, 4, 5)
        assert seg == (4, 1, 5)

    def test_unknown_vertex(self, ball22):
        with pytest.raises(ValueError):
            geodesic_between(ball22, 0, 99)

    @pytest.mark.parametrize("q,radius", [(2, 3), (3, 2)])
    def test_length_matches_bfs_reference(self, q, radius):
        b = ball(q, radius)
        for u in range(0, b.num_vertices, 3):
            dist = reference.ball(q, radius).distances[u]
            for v in range(b.num_vertices):
                seg = geodesic_between(b, u, v)
                assert len(seg) - 1 == dist[v] == b.distance(u, v)
                # injective, consecutive entries adjacent
                assert len(set(seg)) == len(seg)
                for x, y in zip(seg, seg[1:]):
                    assert (min(x, y), max(x, y)) in set(b.edges)

    @pytest.mark.parametrize("q,radius", [(2, 5), (3, 3), (5, 2), (4, 2)])
    def test_distance_and_geodesic_match_reference(self, q, radius):
        b, ref = ball(q, radius), reference.ball(q, radius)
        for u in range(b.num_vertices):
            for v in range(b.num_vertices):
                assert b.distance(u, v) == ref.distances[u][v]
                assert geodesic_between(b, u, v) == reference.geodesic(ref, u, v)

    @pytest.mark.parametrize("q,radius", [(2, 4), (3, 3)])
    def test_meet_matches_reference(self, q, radius):
        """The geodesic's vertex closest to the root."""
        b, ref = ball(q, radius), reference.ball(q, radius)
        for u in range(b.num_vertices):
            for v in range(b.num_vertices):
                assert b.meet(u, v) == reference.meet(ref, u, v)

    def test_meet_depth_identity(self):
        b = ball(2, 3)
        for u in range(b.num_vertices):
            for v in range(b.num_vertices):
                m = b.meet(u, v)
                assert b.distance(u, v) == b.depths[u] + b.depths[v] - 2 * b.depths[m]


class TestOrientedDiameters:
    @pytest.mark.parametrize("q,radius,count", [(2, 1, 6), (2, 2, 30)])
    def test_counts(self, q, radius, count):
        b = ball(q, radius)
        diams = enumerate_oriented_diameters(b)
        assert len(diams) == count == len(b.leaves) * (len(b.leaves) - 1)

    def test_each_is_leaf_to_leaf(self, ball22):
        leaves = set(ball22.leaves)
        seen = set()
        for seg in enumerate_oriented_diameters(ball22):
            assert seg[0] in leaves and seg[-1] in leaves
            seen.add((seg[0], seg[-1]))
        assert len(seen) == 30

    @pytest.mark.parametrize("q,radius", [(2, 4), (3, 3), (4, 2)])
    def test_end_depth_against_geodesics(self, q, radius):
        """Geodesics between ordered pairs of distinct depth-D vertices in id
        order; the radius is the default end depth."""
        b = ball(q, radius)
        for depth in range(1, radius + 1):
            ends = [v for v in range(b.num_vertices) if b.depths[v] == depth]
            want = [geodesic_between(b, u, v) for u in ends for v in ends if u != v]
            assert enumerate_oriented_diameters(b, depth) == want
        assert enumerate_oriented_diameters(b) == want

    @pytest.mark.parametrize("q,radius", [(2, 3), (3, 2)])
    def test_fresh_list_per_call(self, q, radius):
        """The ball keeps each depth's segments; a caller's list is its own."""
        b = build_ball(TreeParams(q, radius))
        for depth in range(radius + 1):
            first = enumerate_oriented_diameters(b, depth)
            second = enumerate_oriented_diameters(b, depth)
            assert first == second and first is not second
            want = list(second)
            second.reverse()
            second.append(None)
            assert enumerate_oriented_diameters(b, depth) == want

    def test_end_depth_range(self, ball22):
        assert enumerate_oriented_diameters(ball22, 0) == []
        for depth in (-1, 3):
            with pytest.raises(ValueError):
                enumerate_oriented_diameters(ball22, depth)


# Every ball the diameters are compared with the reference on, each built
# fresh so that no memo is shared.
REFERENCE_BALLS = ([(2, radius) for radius in range(1, 6)]
                + [(q, radius) for q in (3, 4, 5) for radius in range(1, 5)])


def assert_diameters_match_reference(b, depth):
    got = enumerate_oriented_diameters(b, depth)
    assert got == reference.diameters(reference.ball(b.params.q, b.params.radius), depth)
    assert all(type(seg) is tuple for seg in got)
    # Later calls hand out the memo's own tuples.
    assert all(x is y for x, y in zip(enumerate_oriented_diameters(b, depth), got))


class TestMeetDepthRuns:
    """enumerate_oriented_diameters, one map per run of ends sharing a
    meet depth, against the reference's geodesics."""

    @pytest.mark.parametrize("q,radius", REFERENCE_BALLS)
    def test_runs_match_the_reference(self, q, radius):
        b = build_ball(TreeParams(q, radius))
        for depth in range(radius + 1):
            assert_diameters_match_reference(b, depth)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_balls_and_depths(self, data):
        """Balls up to q = 9, wider than the grid's, at every end depth in
        a drawn order of first calls."""
        q = data.draw(st.integers(2, 9))
        radius = data.draw(st.integers(1, 2 if q > 5 else 3))
        b = build_ball(TreeParams(q, radius))
        for depth in data.draw(st.permutations(range(radius + 1))):
            assert_diameters_match_reference(b, depth)


def geodesic_union(b, vertices):
    """The union of the library's geodesics between every two vertices."""
    return {x for u in vertices for v in vertices for x in geodesic_between(b, u, v)}


class TestConvexHull:
    """The reference hull on hand-worked sets, and against the library's
    geodesics."""

    def test_singleton(self):
        assert reference.hull(reference.ball(2, 2), [7]) == {7}

    def test_two_sibling_leaves(self):
        assert reference.hull(reference.ball(2, 2), [4, 5]) == {4, 5, 1}

    def test_all_leaves_of_small_ball(self):
        ref = reference.ball(2, 1)
        assert reference.hull(ref, ref.leaves) == set(range(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reference.hull(reference.ball(2, 2), [])

    def test_union_of_pairwise_geodesics_oracle(self):
        b, ref = ball(2, 3), reference.ball(2, 3)
        for s in [[0, 12], [5, 6, 7], list(b.leaves)[:4]]:
            assert reference.hull(ref, s) == geodesic_union(b, s)

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([(2, 2), (2, 3), (2, 5), (3, 3), (3, 4)]),
           data=st.data())
    def test_matches_pairwise_hull(self, size, data):
        b = ball(*size)
        s = data.draw(st.lists(st.integers(0, b.num_vertices - 1), min_size=1,
                               max_size=12))
        assert reference.hull(reference.ball(*size), s) == geodesic_union(b, s)


class TestAutomorphisms:
    def test_identity(self, ball22):
        g = identity(ball22)
        assert all(g(v) == v for v in range(ball22.num_vertices))

    def test_not_a_permutation_rejected(self, ball21):
        with pytest.raises(ValueError):
            BallAutomorphism(ball21, [0, 0, 1, 2])

    def test_edge_breaking_rejected(self, ball22):
        # swapping the root with a leaf cannot preserve edges
        perm = list(range(ball22.num_vertices))
        perm[0], perm[4] = perm[4], perm[0]
        with pytest.raises(ValueError):
            BallAutomorphism(ball22, perm)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 9))
    def test_random_automorphism_preserves_structure(self, seed):
        b = ball(2, 3)
        g = random_automorphism(b, seed)
        edges = {(min(u, v), max(u, v)) for u, v in b.edges}
        image = {(min(g(u), g(v)), max(g(u), g(v))) for u, v in b.edges}
        assert image == edges
        assert {g(v) for v in b.leaves} == set(b.leaves)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10 ** 9))
    def test_distance_matrix_invariant(self, seed):
        b = ball(2, 3)
        g = random_automorphism(b, seed)
        for u in range(0, b.num_vertices, 2):
            dist = reference.ball(2, 3).distances[u]
            gdist = reference.ball(2, 3).distances[g(u)]
            for v in range(b.num_vertices):
                assert dist[v] == gdist[g(v)]

    def test_seed_determinism(self):
        b = ball(2, 3)
        assert random_automorphism(b, 42).perm == random_automorphism(b, 42).perm

    def test_identity_shuffle_seed_gives_identity(self):
        # seed 17 happens to shuffle every child list back to itself
        b = ball(2, 2)
        assert random_automorphism(b, 17).perm == tuple(range(b.num_vertices))

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([(2, 1), (2, 2), (2, 4), (3, 2), (3, 3), (4, 2)]),
           seed=st.integers(0, 10 ** 9), data=st.data())
    def test_parent_test_matches_edge_set_reference(self, size, seed, data):
        """The parent test accepts a random automorphism, and after one
        transposition of its values accepts exactly when the edge set does."""
        b = ball(*size)
        perm = list(random_automorphism(b, seed).perm)
        assert reference.is_automorphism(reference.ball(*size), perm)
        n = b.num_vertices
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        perm[i], perm[j] = perm[j], perm[i]
        if reference.is_automorphism(reference.ball(*size), perm):
            assert BallAutomorphism(b, perm).perm == tuple(perm)
        else:
            with pytest.raises(ValueError, match="edge set"):
                BallAutomorphism(b, perm)

    def test_compose_and_inverse(self):
        b = ball(2, 2)
        g = random_automorphism(b, 5)
        h = random_automorphism(b, 6)
        gh = compose(g, h)
        for v in range(b.num_vertices):
            assert gh(v) == g(h(v))
        ginv = inverse(g)
        assert compose(g, ginv).perm == tuple(range(b.num_vertices))


def random_automorphism_oracle(b, seed):
    """The route that shuffles the children of every vertex, leaves
    included: their shuffles are empty."""
    rng = random.Random(seed)
    perm = [0] * b.num_vertices
    stack = [(0, 0)]
    while stack:
        orig, image = stack.pop()
        perm[orig] = image
        shuffled = list(b.children[image])
        rng.shuffle(shuffled)
        stack += zip(b.children[orig], shuffled)
    return tuple(perm)


class TestLeafShuffles:
    @pytest.mark.parametrize("q,radius", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                          (3, 1), (3, 2), (3, 3)])
    def test_skipping_leaves_draws_the_same_permutation(self, q, radius):
        b = ball(q, radius)
        for seed in range(200):
            assert random_automorphism(b, seed).perm == random_automorphism_oracle(b, seed)


# -- pins: every tree-layer value, recorded as plain data ----------------

PIN_BALLS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
             (3, 1), (3, 2), (3, 3), (3, 4), (4, 3), (5, 2)]
PIN_EMBEDDINGS = [(2, 4), (3, 3), (5, 2)]


def _seq(geodesic):
    """A geodesic's vertex ids as a tuple, whether it is a plain tuple or a
    record holding one in ``vertices``."""
    return tuple(getattr(geodesic, "vertices", geodesic))


def tree_layer_digest():
    """sha256 over each pinned ball's export, root chains, depths, edges,
    leaves, adjacency, 30 seeded automorphisms, oriented diameters at every
    end depth, and all-pairs meets, geodesics and hulls; then over each
    pinned embedding's lattice classes."""
    h = hashlib.sha256()

    def put(label, value):
        h.update(f"{label}={value!r};".encode())

    for q, radius in PIN_BALLS:
        b = ball(q, radius)
        n = b.num_vertices
        put("ball", (q, radius))
        put("json", b.to_json())
        put("chains", b.chains)
        put("depths", b.depths)
        put("edges", b.edges)
        put("leaves", b.leaves)
        put("adjacency", b.adjacency)
        put("automorphisms", [random_automorphism(b, s).perm for s in range(30)])
        for depth in range(radius + 1):
            put("diameters", [_seq(g) for g in enumerate_oriented_diameters(b, depth)])
        put("meet", [[b.meet(u, v) for v in range(n)] for u in range(n)])
        put("geodesics", [[_seq(geodesic_between(b, u, v)) for v in range(n)]
                          for u in range(n)])
        put("hulls", [[sorted(reference.hull(reference.ball(q, radius), (u, v)))
                       for v in range(n)] for u in range(n)])
    for p, radius in PIN_EMBEDDINGS:
        emb = BallEmbedding(p, radius)
        put("embedding", (p, radius))
        put("to_lattice", [(lv.n, lv.u) for lv in emb.to_lattice])
    return h.hexdigest()


class TestPins:
    """Values recorded from the record-class tree layer; the plain-data one
    must reproduce them exactly."""

    AUTOMORPHISMS = {
        (2, 2): [[0, 1, 3, 2, 4, 5, 8, 9, 7, 6], [0, 2, 3, 1, 6, 7, 9, 8, 4, 5],
                 [0, 2, 3, 1, 7, 6, 8, 9, 5, 4], [0, 2, 3, 1, 7, 6, 8, 9, 4, 5],
                 [0, 3, 2, 1, 8, 9, 6, 7, 5, 4]],
        (3, 1): [[0, 3, 1, 2, 4], [0, 4, 1, 3, 2], [0, 2, 3, 4, 1], [0, 4, 1, 3, 2],
                 [0, 3, 1, 4, 2]],
    }

    DIGEST = "ac2525a34408ae118dd4ec2fa006b6cbfd5a1bd77d3733ecf768e946f3c14964"

    @pytest.mark.parametrize("q,radius", [(2, 2), (3, 1)])
    def test_automorphism_permutations(self, q, radius):
        b = ball(q, radius)
        assert [list(random_automorphism(b, s).perm) for s in range(5)] == \
            self.AUTOMORPHISMS[q, radius]

    def test_tree_layer_digest(self):
        assert tree_layer_digest() == self.DIGEST


class TestChildrenTable:
    @pytest.mark.parametrize("q,radius", PIN_BALLS)
    def test_runs_of_deeper_neighbours(self, q, radius):
        """children[v] is one run of consecutive ids, the neighbours of v one
        level deeper in increasing order, and its i-th entry has v's
        address extended by label i."""
        b = ball(q, radius)
        assert len(b.children) == b.num_vertices
        for v, children in enumerate(b.children):
            deeper = [w for w in b.adjacency[v] if b.depths[w] == b.depths[v] + 1]
            assert list(children) == deeper == sorted(deeper)
            if children:
                assert list(children) == list(range(children[0], children[-1] + 1))
            else:
                assert is_leaf(b, v)
            for i, c in enumerate(children):
                assert b.addresses[c] == b.addresses[v] + (i,)
