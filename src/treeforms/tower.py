"""The directed graph of k-paths over a tree ball.

A k-path is an injective sequence of k+1 ball vertices with consecutive
entries adjacent; in a tree this is the same as an oriented geodesic of
length k.  The level-k graph has k-paths as vertices and (k+1)-paths as
edges; the head of an edge drops its first tree vertex, the tail drops
its last.  At level 0 this is the ball with every edge doubled into two
directed edges.

Near the truncation boundary paths have fewer continuations than in the
infinite tree, so connectivity of a level graph is measured (see
``component_roots``), never assumed.
"""

from __future__ import annotations

import functools
import json

from .tree import BallAutomorphism, TreeBall


class PathGraph:
    """Level-k path graph over a ball.

    Vertices and edges are ordered lexicographically by their tree-vertex
    id sequences, so ids are deterministic for a given ball and level.
    Never written after construction; the only state added later is the
    end-pair index ``ends`` and the whole-graph spanning forest
    ``forest``, each built on first use.  Neither refers back to the
    graph, so no reference cycle keeps a dropped graph alive.
    """

    def __init__(self, ball: TreeBall, k: int):
        if k < 0:
            raise ValueError(f"level k must be >= 0, got {k}")
        self.ball = ball
        self.k = k
        verts = [(v,) for v in range(ball.num_vertices)]
        for _ in range(k):
            verts = _extend(ball, verts)
        self.verts = verts
        self.edges = _extend(ball, verts)
        self.vert_index = {p: i for i, p in enumerate(self.verts)}
        self.edge_index = {e: a for a, e in enumerate(self.edges)}
        self.head = [self.vert_index[e[1:]] for e in self.edges]
        self.tail = [self.vert_index[e[:-1]] for e in self.edges]
        # A_s^+ = edges with head s, A_s^- = edges with tail s.
        into: list[list[int]] = [[] for _ in self.verts]
        outof: list[list[int]] = [[] for _ in self.verts]
        for a, (h, t) in enumerate(zip(self.head, self.tail)):
            into[h].append(a)
            outof[t].append(a)
        self.edges_into = into
        self.edges_out_of = outof

    @functools.cached_property
    def ends(self) -> tuple[list[int], list[int], dict[tuple[int, int], int],
                            dict[tuple[int, int], int]]:
        """End-pair index (firsts, lasts, vertex_at, edge_at): the first and
        the last tree vertex of each vertex path, the vertex id of each
        (first, last) pair, and the edge id of each (tail, head) pair.  A
        tree path is fixed by its two ends, and an edge (k+1)-path by its
        tail and head k-paths, so every pair is the key of one id."""
        firsts = [p[0] for p in self.verts]
        lasts = [p[-1] for p in self.verts]
        return (firsts, lasts, dict(zip(zip(firsts, lasts), range(len(firsts)))),
                dict(zip(zip(self.tail, self.head), range(len(self.tail)))))

    @functools.cached_property
    def forest(self) -> SpanningForest:
        """The breadth-first spanning forest of the whole graph,
        ``SpanningForest(self)``, shared by ``component_roots``,
        ``num_components`` and the certificates of ``cochains``.

        Sharing it is sound: the graph is never written after
        ``__init__`` and the forest is a deterministic function of it, so
        a fact checked once on it holds for every later call."""
        return SpanningForest(self)

    @property
    def num_vertices(self) -> int:
        return len(self.verts)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def check_vertex(self, s: int) -> None:
        if not (0 <= s < len(self.verts)):
            raise ValueError(f"unknown path-graph vertex id {s}")

    def check_edge(self, a: int) -> None:
        if not (0 <= a < len(self.edges)):
            raise ValueError(f"unknown path-graph edge id {a}")

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "vertices": [list(p) for p in self.verts],
            "edges": [
                {"seq": list(e), "head": self.head[a], "tail": self.tail[a]}
                for a, e in enumerate(self.edges)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"

    def to_dot(self) -> str:
        lines = [f"digraph level{self.k} {{"]
        for a in range(len(self.edges)):
            lines.append(f"  {self.tail[a]} -> {self.head[a]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _extend(ball: TreeBall, paths: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Each path extended by one vertex at its end, in the given order.

    In a tree a walk is injective iff it never immediately backtracks, so
    a path extends by the neighbors of its endpoint other than the
    previous vertex.  Adjacency lists are sorted, so a lexicographically
    ordered list stays ordered.
    """
    adj = ball.adjacency
    return [p + (w,) for p in paths for w in adj[p[-1]] if len(p) < 2 or w != p[-2]]


def build_path_graph(ball: TreeBall, k: int) -> PathGraph:
    return PathGraph(ball, k)


def apply_automorphism(pg: PathGraph, g: BallAutomorphism) -> tuple[list[int], list[int]]:
    """Entrywise action on paths: returns (vertex map, edge map), read off
    the end-pair index ``pg.ends``.

    This is sound: a validated ``BallAutomorphism`` is an edge-preserving
    bijection, so it maps the geodesic x -> y onto the geodesic
    g(x) -> g(y), of the same length (Serre, *Trees*, I.2).  So the image
    of a vertex path is the path between the images of its ends, and the
    image of an edge is the edge from the image of its tail to the image
    of its head.  Raises if g belongs to another ball.
    """
    if g.ball is not pg.ball:
        raise ValueError("automorphism belongs to a different ball")
    firsts, lasts, vertex_at, edge_at = pg.ends
    image = g.perm.__getitem__
    vmap = list(map(vertex_at.__getitem__, zip(map(image, firsts), map(image, lasts))))
    image = vmap.__getitem__
    emap = list(map(edge_at.__getitem__, zip(map(image, pg.tail), map(image, pg.head))))
    return vmap, emap


class SpanningForest:
    """Breadth-first spanning forest of a path graph, or of the subgraph
    spanned by some of its edges (``edge_ids``; default all).  It keeps
    the graph's ``head`` and ``tail`` lists, which it walks, and not the
    graph itself.

    Explicit ``roots`` open their trees together, in the given order, and
    grow them from one breadth-first queue, so no root is reached from
    another; with no roots every vertex not yet reached opens a tree, in
    increasing order, so each tree's root is the smallest vertex of its
    component.  A vertex meets its neighbours through its outgoing edges,
    then its incoming ones.  Per vertex it keeps ``parent_edge`` (None at
    roots and unreached vertices), ``depth`` and ``root`` (None when
    unreached); ``order`` lists the reached vertices in discovery order,
    and ``non_tree_edges`` the sorted used edges of the reached trees that
    are not forest edges.

    ``certified`` is False until ``cochains._harmonic_basis`` proves the
    forest's fundamental cycles a basis of ker d*; only a passed
    certificate is kept.
    """

    def __init__(self, pg: PathGraph, edge_ids=None, roots=None):
        self.head, self.tail = pg.head, pg.tail
        used = None if edge_ids is None else set(edge_ids)
        nv = pg.num_vertices
        self.parent_edge: list[int | None] = [None] * nv
        self.depth = [0] * nv
        self.root: list[int | None] = [None] * nv
        self.order: list[int] = []
        self.certified = False
        if roots is None:
            for r in range(nv):
                if self.root[r] is None:
                    self._grow((r,), used, pg)
        else:
            self._grow(roots, used, pg)
        tree = set(self.parent_edge)
        self.non_tree_edges = [a for a in (range(pg.num_edges) if used is None else sorted(used))
                               if a not in tree and self.root[pg.tail[a]] is not None]

    def _grow(self, seeds, used, pg) -> None:
        """Open a tree at each seed not yet reached and grow them all from
        one breadth-first queue."""
        root, order, parent_edge, depth = self.root, self.order, self.parent_edge, self.depth
        qi = len(order)
        for r in seeds:
            if root[r] is None:
                root[r] = r
                order.append(r)
        steps = ((pg.edges_out_of, pg.head), (pg.edges_into, pg.tail))
        while qi < len(order):
            s = order[qi]
            qi += 1
            for incident, other in steps:
                for a in incident[s]:
                    t = other[a]
                    if root[t] is None and (used is None or a in used):
                        root[t] = root[s]
                        parent_edge[t] = a
                        depth[t] = depth[s] + 1
                        order.append(t)

    def checked(self) -> bool:
        """Whether the facts ``loop`` climbs by hold, checked by one walk of
        ``order``: each root is its own root at depth 0, each parent edge
        joins its vertex to one walked before, one level up and with the
        same root, and the walk sees every vertex that has a root.  Every
        consumer of the forest's loops or tree rows asks this rather than
        trusting the forest.
        """
        head, tail, parent_edge, depth, root = (self.head, self.tail, self.parent_edge,
                                                self.depth, self.root)
        seen = set()
        for s in self.order:
            a = parent_edge[s]
            if a is None:
                if depth[s] != 0 or root[s] != s:
                    return False
            else:
                h, t = head[a], tail[a]
                u = t if h == s else h
                if (s not in (h, t) or u not in seen or depth[s] != depth[u] + 1
                        or root[s] != root[u]):
                    return False
            seen.add(s)
        return len(seen) == len(root) - root.count(None)

    def loop(self, a: int) -> tuple[list[int], list[int]]:
        """(edges, vertices) itinerary of edge a, tail to head, followed by
        the forest path from its head back to its tail.  The two ends meet
        by climbing from the deeper one, so the cost is the loop's length.
        When ``checked`` holds and both ends share a root, the climb is
        well defined."""
        head, tail, parent_edge, depth = self.head, self.tail, self.parent_edge, self.depth
        t, h = tail[a], head[a]
        up_edges, up_verts = [], []  # from h toward the meeting vertex
        down_edges, down_verts = [], []  # from t toward it, reversed below
        x, y = h, t
        while x != y:
            if depth[x] >= depth[y]:
                e = parent_edge[x]
                x = tail[e] if head[e] == x else head[e]
                up_edges.append(e)
                up_verts.append(x)
            else:
                e = parent_edge[y]
                down_edges.append(e)
                down_verts.append(y)
                y = tail[e] if head[e] == y else head[e]
        return ([a] + up_edges + down_edges[::-1],
                [t, h] + up_verts + down_verts[::-1])


def component_roots(pg: PathGraph) -> list[int]:
    """For each vertex, the root of its connected component (of the
    underlying undirected graph): the component's smallest vertex.  This
    is the list ``pg.forest`` holds, not a copy."""
    return pg.forest.root


def num_components(pg: PathGraph) -> int:
    """Number of connected components: the distinct ``component_roots``."""
    return len(set(component_roots(pg)))
