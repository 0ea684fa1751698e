"""Path graphs: enumeration, incidence, automorphism action, monotone walks."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from treeforms import radon
from treeforms.cochains import Cochain
from treeforms.padic import embed_ball, sample_gamma0
from treeforms.radon import (PathDependenceError, fundamental_loops, interior_edges,
                             path_integral, primitive)
from treeforms.tower import (PathGraph, SpanningForest, apply_automorphism,
                             build_path_graph, component_roots, components,
                             num_components)
from treeforms.tree import random_automorphism

from conftest import (FOREST_DOCTORS, apartments, ball, compose, deep_root, doctoring,
                      false_root, identity, incidence, is_loop, orphan, tower)


def enumerate_paths_oracle(b, nverts):
    """Brute force: filter all vertex tuples for injectivity and adjacency."""
    if nverts == 1:
        return [(v,) for v in range(b.num_vertices)]
    edge_set = {(u, v) for u, v in b.edges} | {(v, u) for u, v in b.edges}
    out = []
    for tup in itertools.permutations(range(b.num_vertices), nverts):
        if all((x, y) in edge_set for x, y in zip(tup, tup[1:])):
            out.append(tup)
    return sorted(out)


class TestEnumeration:
    def test_ball21_k0_doubling(self):
        pg = tower(2, 1, 0)
        assert pg.num_vertices == 4
        assert pg.num_edges == 6 == 2 * len(ball(2, 1).edges)

    def test_ball21_k1(self):
        pg = tower(2, 1, 1)
        assert pg.num_vertices == 6
        assert pg.num_edges == 6

    def test_ball22_k1_counts(self):
        pg = tower(2, 2, 1)
        assert pg.num_vertices == 18
        assert pg.num_edges == 24
        # middle-vertex oracle for 2-paths: sum of deg(m)(deg(m)-1)
        b = ball(2, 2)
        expected = sum(len(b.adjacency[m]) * (len(b.adjacency[m]) - 1)
                       for m in range(b.num_vertices))
        assert pg.num_edges == expected

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_against_brute_force(self, k):
        """Up to k = 2R, where the top level has no edges."""
        b = ball(2, 2)
        pg = tower(2, 2, k)
        assert pg.verts == enumerate_paths_oracle(b, k + 1)
        assert pg.edges == enumerate_paths_oracle(b, k + 2)

    def test_ordered_pairs_at_distance_k_oracle(self):
        b = ball(3, 2)
        for k in (1, 2, 3):
            pg = tower(3, 2, k)
            pairs = sum(1 for u in range(b.num_vertices) for v in range(b.num_vertices)
                        if b.distance(u, v) == k)
            assert pg.num_vertices == pairs

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            build_path_graph(ball(2, 1), -1)

    def test_deterministic_lexicographic_order(self):
        pg = tower(2, 2, 1)
        assert pg.verts == sorted(pg.verts)
        assert pg.edges == sorted(pg.edges)


class TestIncidence:
    def test_head_tail_values(self):
        pg = tower(2, 2, 1)
        for a in range(pg.num_edges):
            assert incidence(pg, a, pg.head[a]) == 1
            assert incidence(pg, a, pg.tail[a]) == -1
            other = next(s for s in range(pg.num_vertices)
                         if s not in (pg.head[a], pg.tail[a]))
            assert incidence(pg, a, other) == 0

    def test_head_is_suffix_tail_is_prefix(self):
        pg = tower(2, 2, 1)
        for a, e in enumerate(pg.edges):
            assert pg.verts[pg.head[a]] == e[1:]
            assert pg.verts[pg.tail[a]] == e[:-1]

    def test_one_plus_one_minus_per_edge(self):
        pg = tower(2, 2, 0)
        for a in range(pg.num_edges):
            row = [incidence(pg, a, s) for s in range(pg.num_vertices)]
            assert row.count(1) == 1 and row.count(-1) == 1

    def test_unknown_ids(self):
        pg = tower(2, 1, 0)
        with pytest.raises(ValueError):
            incidence(pg, 99, 0)
        with pytest.raises(ValueError):
            incidence(pg, 0, 99)


class TestNeighborSets:
    def test_root_of_ball21(self):
        pg = tower(2, 1, 0)
        root = pg.vert_index[(0,)]
        assert len(pg.edges_into[root]) == 3
        assert len(pg.edges_out_of[root]) == 3

    def test_leaf_of_ball21(self):
        pg = tower(2, 1, 0)
        leaf = pg.vert_index[(1,)]
        assert len(pg.edges_into[leaf]) == 1
        assert len(pg.edges_out_of[leaf]) == 1

    def test_disjoint(self):
        pg = tower(2, 2, 1)
        for s in range(pg.num_vertices):
            assert not set(pg.edges_into[s]) & set(pg.edges_out_of[s])


class TestAutomorphismAction:
    def test_identity_action(self):
        pg = tower(2, 2, 1)
        vmap, emap = apply_automorphism(pg, identity(ball(2, 2)))
        assert vmap == list(range(pg.num_vertices))
        assert emap == list(range(pg.num_edges))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_incidence_preserved_full_table(self, seed):
        pg = tower(2, 2, 1)
        g = random_automorphism(ball(2, 2), seed)
        vmap, emap = apply_automorphism(pg, g)
        for a in range(pg.num_edges):
            for s in range(pg.num_vertices):
                assert incidence(pg, emap[a], vmap[s]) == incidence(pg, a, s)

    def test_order_two_composition(self):
        b = ball(2, 2)
        pg = tower(2, 2, 1)
        # swap the subtrees under the first depth-1 vertex: an involution
        perm = list(range(b.num_vertices))
        perm[4], perm[5] = perm[5], perm[4]
        from treeforms.tree import BallAutomorphism
        g = BallAutomorphism(b, perm)
        vmap, emap = apply_automorphism(pg, g)
        assert [vmap[vmap[s]] for s in range(pg.num_vertices)] == list(range(pg.num_vertices))
        assert [emap[emap[a]] for a in range(pg.num_edges)] == list(range(pg.num_edges))

    def test_wrong_ball_rejected(self):
        pg = tower(2, 2, 1)
        g = random_automorphism(ball(2, 3), 1)
        with pytest.raises(ValueError):
            apply_automorphism(pg, g)


def apply_automorphism_oracle(pg, g):
    """The full-tuple route: map every tree vertex of each path and look
    the image tuple up in ``vert_index`` or ``edge_index``."""
    image = g.perm.__getitem__
    return ([pg.vert_index[tuple(map(image, p))] for p in pg.verts],
            [pg.edge_index[tuple(map(image, e))] for e in pg.edges])


# Every level k <= 2R of the balls q in {2, 3}, R <= 3.
ACTION_SIZES = [(q, radius, k) for q in (2, 3) for radius in (1, 2, 3)
                for k in range(2 * radius + 1)]


class TestEndPairAction:
    """``apply_automorphism`` reads each path off its two ends; the
    full-tuple route is the oracle."""

    @pytest.mark.parametrize("q,radius,k", ACTION_SIZES)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10 ** 9))
    def test_matches_full_tuple_oracle(self, q, radius, k, seed):
        pg = tower(q, radius, k)
        g = random_automorphism(ball(q, radius), seed)
        assert apply_automorphism(pg, g) == apply_automorphism_oracle(pg, g)

    @pytest.mark.parametrize("p,radius", [(2, 3), (3, 2)])
    def test_matches_oracle_on_group_elements(self, p, radius):
        """Root-fixing group elements act on the ball through
        ``BallEmbedding.automorphism_from``."""
        emb = embed_ball(p, radius)
        autos = [emb.automorphism_from(x) for x in sample_gamma0(p, 0, 4, 12, seed=p)]
        assert any(g.perm != tuple(range(emb.ball.num_vertices)) for g in autos)
        for k in range(2 * radius + 1):
            pg = build_path_graph(emb.ball, k)
            for g in autos:
                assert apply_automorphism(pg, g) == apply_automorphism_oracle(pg, g)

    @pytest.mark.parametrize("q,radius,k", [(2, 2, 0), (2, 3, 1), (2, 3, 4), (3, 2, 2),
                                            (3, 3, 6)])
    @settings(max_examples=10, deadline=None)
    @given(seeds=st.tuples(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9)))
    def test_action_is_a_homomorphism(self, q, radius, k, seeds):
        """apply(g after h) = apply(g) after apply(h), on vertices and on
        edges, and the identity acts as the identity."""
        pg = tower(q, radius, k)
        g, h = (random_automorphism(ball(q, radius), seed) for seed in seeds)
        gv, ge = apply_automorphism(pg, g)
        hv, he = apply_automorphism(pg, h)
        assert apply_automorphism(pg, compose(g, h)) == ([gv[s] for s in hv],
                                                         [ge[a] for a in he])
        assert apply_automorphism(pg, identity(ball(q, radius))) == \
            (list(range(pg.num_vertices)), list(range(pg.num_edges)))

    def test_index_is_built_once(self):
        pg = build_path_graph(ball(2, 2), 1)
        assert "ends" not in vars(pg)
        apply_automorphism(pg, random_automorphism(pg.ball, 1))
        index = pg.ends
        apply_automorphism(pg, random_automorphism(pg.ball, 2))
        assert pg.ends is index


class TestComponents:
    def test_doubled_tree_connected(self):
        assert num_components(tower(2, 1, 0)) == 1

    def test_ball21_k1(self):
        assert num_components(tower(2, 1, 1)) == 1

    @pytest.mark.parametrize("q,radius,k", [(2, 3, 2), (2, 2, 2), (3, 2, 2)])
    def test_against_bfs_oracle(self, q, radius, k):
        pg = tower(q, radius, k)
        # Depth-first oracle, independent of SpanningForest
        adj = {s: set() for s in range(pg.num_vertices)}
        for a in range(pg.num_edges):
            adj[pg.head[a]].add(pg.tail[a])
            adj[pg.tail[a]].add(pg.head[a])
        seen, count = set(), 0
        root = {}
        for s in range(pg.num_vertices):
            if s in seen:
                continue
            count += 1
            stack = [s]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                root[x] = s
                stack.extend(adj[x])
        assert num_components(pg) == count
        # s is the smallest vertex of the component it opens
        assert component_roots(pg) == [root[s] for s in range(pg.num_vertices)]

    def test_partition(self):
        pg = tower(2, 2, 1)
        comps = components(pg)
        flat = sorted(s for comp in comps for s in comp)
        assert flat == list(range(pg.num_vertices))


FOREST_TOWERS = [(q, radius, k) for q in (2, 3) for radius in (2, 3) for k in range(4)]


def random_edge_subset(pg, seed, percent):
    rng = random.Random(seed)
    return [a for a in range(pg.num_edges) if rng.randrange(100) < percent]


def union_find_components(pg, edge_ids):
    """(vertices touched by edge_ids, their component count), by union-find."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in edge_ids:
        parent[find(pg.head[a])] = find(pg.tail[a])
    return len(parent), len({find(x) for x in list(parent)})


class TestSpanningForest:
    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(FOREST_TOWERS), seed=st.integers(0, 10 ** 6),
           percent=st.integers(0, 100))
    def test_parent_edges_form_a_forest(self, case, seed, percent):
        pg = tower(*case)
        edge_ids = random_edge_subset(pg, seed, percent)
        forest = SpanningForest(pg, edge_ids)
        tree_edges = 0
        for s in range(pg.num_vertices):
            a = forest.parent_edge[s]
            assert forest.root[s] is not None
            if a is None:
                assert forest.root[s] == s and forest.depth[s] == 0
                continue
            tree_edges += 1
            assert a in edge_ids and s in (pg.head[a], pg.tail[a])
            parent = pg.tail[a] if pg.head[a] == s else pg.head[a]
            assert forest.depth[s] == forest.depth[parent] + 1
            assert forest.root[s] == forest.root[parent]
        touched, ncomp = union_find_components(pg, edge_ids)
        assert tree_edges == touched - ncomp
        assert sorted(forest.order) == list(range(pg.num_vertices))

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(FOREST_TOWERS), seed=st.integers(0, 10 ** 6),
           percent=st.integers(0, 100))
    def test_loops_close_through_one_non_tree_edge(self, case, seed, percent):
        pg = tower(*case)
        edge_ids = random_edge_subset(pg, seed, percent)
        forest = SpanningForest(pg, edge_ids)
        non_tree = set(forest.non_tree_edges)
        assert forest.non_tree_edges == sorted(non_tree)
        for a in forest.non_tree_edges:
            edges, verts = forest.loop(a)
            assert edges[0] == a and len(verts) == len(edges) + 1
            assert verts[0] == verts[-1] == pg.tail[a]
            for e, x, y in zip(edges, verts, verts[1:]):
                assert {x, y} == {pg.head[e], pg.tail[e]}
            assert [e for e in edges if e in non_tree] == [a]

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(FOREST_TOWERS), seed=st.integers(0, 10 ** 6),
           percent=st.integers(0, 100))
    def test_fundamental_loop_count_is_cycle_rank(self, case, seed, percent):
        pg = tower(*case)
        edge_ids = random_edge_subset(pg, seed, percent)
        touched, ncomp = union_find_components(pg, edge_ids)
        assert len(fundamental_loops(pg, edge_ids)) == len(edge_ids) - touched + ncomp

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(FOREST_TOWERS), seed=st.integers(0, 10 ** 6),
           percent=st.integers(0, 100))
    def test_checked(self, case, seed, percent):
        """``checked`` holds on genuine forests and fails under each doctor,
        and ``fundamental_loops`` refuses a forest that fails it."""
        pg = tower(*case)
        assert SpanningForest(pg).checked()
        assert SpanningForest(pg, random_edge_subset(pg, seed, percent)).checked()
        chosen = tower(2, 3, 3)
        assert SpanningForest(chosen, roots=[chosen.num_vertices - 1, 5]).checked()
        for doctored in (2, 2, 0), (2, 3, 1), (3, 2, 2):
            for doctor in FOREST_DOCTORS:
                assert not doctoring(doctor)(tower(*doctored)).checked()
        pg = tower(2, 3, 1)
        inner = interior_edges(pg, 0)
        for doctor in (orphan, false_root, deep_root):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(radon, "SpanningForest", doctoring(doctor))
                with pytest.raises(ValueError, match="spanning forest failed its check"):
                    fundamental_loops(pg, inner)

    @pytest.mark.parametrize("q,radius,k", [(2, 3, 0), (2, 3, 1), (3, 2, 2)])
    def test_roots_share_one_queue(self, q, radius, k):
        """Roots in one component all stay roots, and each vertex hangs at
        its distance from the nearest root, measured by a breadth-first walk
        from each root on its own."""
        pg = tower(q, radius, k)
        roots = [0, pg.num_vertices // 2, pg.num_vertices - 1]
        forest = SpanningForest(pg, roots=roots)
        assert forest.checked() and forest.order[:3] == roots
        adj = {s: set() for s in range(pg.num_vertices)}
        for h, t in zip(pg.head, pg.tail):
            adj[h].add(t)
            adj[t].add(h)
        nearest = {}
        for r in roots:
            dist, frontier = {r: 0}, [r]
            while frontier:
                following = []
                for s in frontier:
                    for u in adj[s]:
                        if u not in dist:
                            dist[u] = dist[s] + 1
                            following.append(u)
                frontier = following
            for s, d in dist.items():
                nearest[s] = min(nearest.get(s, d), d)
        assert {s: forest.depth[s] for s in nearest} == nearest
        assert all((forest.root[s] is None) == (s not in nearest) for s in range(pg.num_vertices))
        assert all(forest.root[r] == r and forest.parent_edge[r] is None for r in roots)

    def test_roots_grow_only_their_components(self):
        pg = tower(2, 3, 3)
        roots = component_roots(pg)
        chosen = [pg.num_vertices - 1, 5]
        forest = SpanningForest(pg, roots=chosen)
        assert forest.order[0] == chosen[0]
        for s in range(pg.num_vertices):
            reached = roots[s] in {roots[r] for r in chosen}
            assert (forest.root[s] is not None) == reached
            if reached:
                assert forest.root[s] in chosen and roots[forest.root[s]] == roots[s]
        unreached = [a for a in range(pg.num_edges) if forest.root[pg.tail[a]] is None]
        assert unreached and not set(unreached) & set(forest.non_tree_edges)

    def test_path_dependence_on_disconnected_tower(self):
        """Base on an isolated k=2 path, support in the large component: the
        support's component gets its own root and the failing loop lies in it."""
        pg, aps = tower(2, 4, 2), apartments(2, 4, 2)
        comps = components(pg)
        assert len(comps) > 1
        base = next(comp[0] for comp in comps if len(comp) == 1)
        bad = Cochain.indicator(1, 4)
        with pytest.raises(PathDependenceError, match="^edge 4: df = 0 but cochain value is 1") as err:
            primitive(pg, aps, bad, base)
        loop = err.value.loop
        assert is_loop(loop) and path_integral(bad, loop) != 0
        roots = component_roots(pg)
        assert {roots[s] for s in loop.vertices} == {roots[pg.tail[4]]} != {roots[base]}


def monotone_path_check(pg: PathGraph, walk: list[int]) -> tuple[int, ...]:
    """Certify a constant-sign edge walk and return its supporting geodesic.

    A walk a_0, ..., a_{l-1} is monotone when consecutive edges chain
    head-to-tail (all incidence signs +1) or tail-to-head (all -1); the
    underlying tree windows then slide along a single geodesic, which is
    returned.  At level 0 an edge followed by its reversal also has
    constant sign but folds back on itself; that degenerate case is
    rejected along with genuine sign changes.
    """
    if not walk:
        raise ValueError("empty walk")
    for a in walk:
        pg.check_edge(a)
    if len(walk) == 1:
        return tuple(pg.edges[walk[0]])

    first, second = pg.edges[walk[0]], pg.edges[walk[1]]
    if second[:-1] == first[1:]:
        forward = True
    elif second[1:] == first[:-1]:
        forward = False
    else:
        raise ValueError("incidence signs are not constant along the walk")

    for prev, cur in zip(walk, walk[1:]):
        e_prev, e_cur = pg.edges[prev], pg.edges[cur]
        if forward and e_cur[:-1] != e_prev[1:]:
            raise ValueError("incidence signs are not constant along the walk")
        if not forward and e_cur[1:] != e_prev[:-1]:
            raise ValueError("incidence signs are not constant along the walk")
    if forward:
        # Each edge extends the previous window by one vertex at the end.
        seq = list(pg.edges[walk[0]]) + [pg.edges[a][-1] for a in walk[1:]]
    else:
        # Windows slide toward the start; read them from the last edge back.
        seq = list(pg.edges[walk[-1]]) + [pg.edges[a][-1] for a in reversed(walk[:-1])]
    if len(set(seq)) != len(seq):
        raise ValueError("walk folds back on itself (level-0 reversal)")
    return tuple(seq)


class TestMonotoneWalks:
    def test_single_edge(self):
        pg = tower(2, 2, 1)
        seg = monotone_path_check(pg, [0])
        assert seg == pg.edges[0]

    def test_diameter_window_sequence(self):
        from treeforms.tree import enumerate_oriented_diameters
        b = ball(2, 2)
        pg = tower(2, 2, 1)
        edge_index = {e: i for i, e in enumerate(pg.edges)}
        for seq in enumerate_oriented_diameters(b):
            windows = [edge_index[seq[i:i + 3]] for i in range(len(seq) - 2)]
            if windows:
                out = monotone_path_check(pg, windows)
                assert out == seq

    def test_sign_change_rejected(self):
        pg = tower(2, 1, 0)
        a = pg.edges.index((1, 0))
        b_ = pg.edges.index((2, 0))  # (1,0) then (2,0): signs +1 then -1
        with pytest.raises(ValueError):
            monotone_path_check(pg, [a, b_])

    def test_level0_reversal_rejected(self):
        pg = tower(2, 1, 0)
        a = pg.edges.index((0, 1))
        b_ = pg.edges.index((1, 0))
        with pytest.raises(ValueError):
            monotone_path_check(pg, [a, b_])

    @pytest.mark.parametrize("radius,k", [(r, k) for r in (1, 2, 3) for k in (0, 1, 2)
                                          if k <= 2 * r])
    def test_exhaustive_constant_sign_walks_supported_by_diameters(self, radius, k):
        """Every forward chain (exhaustive up to the maximal possible length
        2R-k-1) passes the check and lands inside an oriented diameter."""
        from treeforms.tree import enumerate_oriented_diameters
        pg = tower(2, radius, k)
        diam_seqs = {seg for seg in enumerate_oriented_diameters(ball(2, radius))}

        def contained(seq):
            n = len(seq)
            return any(seq == d[i:i + n] for d in diam_seqs for i in range(len(d) - n + 1))

        checked = 0
        chains = [[a] for a in range(pg.num_edges)]
        for _ in range(2 * radius - k - 2):
            new_chains = []
            for chain in chains:
                last = chain[-1]
                for nxt in pg.edges_out_of[pg.head[last]]:
                    if pg.edges[nxt][:-1] == pg.edges[last][1:]:
                        if k > 0 or pg.edges[nxt][-1] != pg.edges[last][0]:
                            new_chains.append(chain + [nxt])
            chains = new_chains
            for chain in chains:
                seg = monotone_path_check(pg, chain)
                assert contained(seg)
                checked += 1
            if not chains:
                break
        if 2 * radius - k - 1 >= 2:
            assert checked > 0


class TestExports:
    def test_json_shape(self):
        pg = tower(2, 1, 1)
        payload = json.loads(pg.to_json())
        assert payload["k"] == 1
        assert len(payload["vertices"]) == 6
        assert len(payload["edges"]) == 6
        e0 = payload["edges"][0]
        assert set(e0) == {"seq", "head", "tail"}

    def test_dot_directed(self):
        dot = tower(2, 1, 0).to_dot()
        assert dot.startswith("digraph")
        assert dot.count("->") == 6
