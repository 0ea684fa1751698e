"""Finite balls in the (q+1)-homogeneous tree.

A ball of radius R around a root vertex is the full truncation of the
infinite (q+1)-regular tree: the root has q+1 children, every other
internal vertex has q children, and every vertex at depth R is a leaf
of the truncation (not a leaf of the infinite tree).

Vertices are numbered breadth-first, with siblings ordered by branch
label, so construction is reproducible byte-for-byte.  Addresses are
tuples of branch labels from the root: the first step is in 0..q, all
later steps in 0..q-1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class TreeParams:
    """Residue cardinality q (branching degree q+1) and truncation radius."""

    q: int
    radius: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")


class TreeBall:
    """Radius-R truncation of the (q+1)-homogeneous tree.

    Vertices are the ids 0..n-1; ``addresses[v]`` is v's tuple of branch
    labels and ``children[v]`` the run of consecutive ids one level deeper,
    in label order (empty at a leaf).  Immutable after construction; all
    queries are pure functions.  The only state added later is a private
    memo of the oriented diameters per end depth
    (``enumerate_oriented_diameters``).
    """

    def __init__(self, params: TreeParams):
        self.params = params
        q, radius = params.q, params.radius

        addresses: list[tuple[int, ...]] = [()]
        # Root chain of v: (v, parent(v), ..., root); entry i has depth |v| - i.
        chains: list[tuple[int, ...]] = [(0,)]
        children: list[range] = []
        # Breadth-first ids put each parent before its children, so the
        # internal vertices are the ids below the first leaf, in order.
        v = 0
        while len(addresses[v]) < radius:
            start = len(addresses)
            addresses += [addresses[v] + (lab,) for lab in range(q + 1 if v == 0 else q)]
            children.append(range(start, len(addresses)))
            chains += [(c,) + chains[v] for c in children[v]]
            v += 1
        children += [range(0)] * (len(addresses) - v)

        self.addresses = addresses
        self.chains = chains
        self.children = children
        self.depths = [len(a) for a in addresses]
        self.edges = [(c[1], c[0]) for c in chains[1:]]  # sorted; a parent precedes its child
        self.leaves = list(range(v, len(addresses)))
        self.adjacency = [list(cs) if u == 0 else [chains[u][1], *cs]
                          for u, cs in enumerate(children)]
        self._diameters: dict[int, tuple[tuple[int, ...], ...]] = {}

        expected = 1 + (q + 1) * (q ** radius - 1) // (q - 1)
        assert len(addresses) == expected

    # -- basic queries -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.addresses)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < len(self.addresses)):
            raise ValueError(f"unknown vertex id {v}")

    def meet(self, u: int, v: int) -> int:
        """Deepest common ancestor (the median of u, v and the root): it
        lies (|u| - |v| + d(u, v)) / 2 steps up u's root chain."""
        depths = self.depths
        return self.chains[u][(depths[u] - depths[v] + self.distance(u, v)) // 2]

    def distance(self, u: int, v: int) -> int:
        """len(a) + len(b) - 2 k for the addresses a and b of u and v, k
        the length of their common prefix: the meet's depth."""
        a, b = self.addresses[u], self.addresses[v]
        k = 0
        while k < len(a) and k < len(b) and a[k] == b[k]:
            k += 1
        return len(a) + len(b) - 2 * k

    def to_json_dict(self) -> dict:
        return {
            "q": self.params.q,
            "radius": self.params.radius,
            "vertices": [{"id": v, "address": list(a)} for v, a in enumerate(self.addresses)],
            "edges": [[u, v] for u, v in self.edges],
            "leaves": list(self.leaves),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"

    def to_dot(self) -> str:
        lines = ["graph ball {"]
        for u, v in self.edges:
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_ball(params: TreeParams) -> TreeBall:
    """Build the radius-R ball; deterministic breadth-first numbering."""
    return TreeBall(params)


def geodesic_between(ball: TreeBall, u: int, v: int) -> tuple[int, ...]:
    """The unique injective path from u to v, as its tuple of vertex ids:
    u's root chain up to the meet, then v's reversed chain below it."""
    ball.check_vertex(u)
    ball.check_vertex(v)
    dm = ball.depths[ball.meet(u, v)]
    return ball.chains[u][:ball.depths[u] + 1 - dm] + ball.chains[v][::-1][dm + 1:]


def enumerate_oriented_diameters(ball: TreeBall,
                                 depth: int | None = None) -> list[tuple[int, ...]]:
    """All oriented geodesics between distinct vertices at the given depth
    (default: the radius, so leaf to leaf), ordered by (from, to) ids.

    The leaf-to-leaf ones are the visible windows of the oriented
    apartments of the infinite tree; every ordered pair of distinct leaves
    contributes one.  Breadth-first numbering puts the depth-D vertices
    below a vertex at depth d in one block of consecutive ids (all of them
    at d = 0, q^(D-d) at d >= 1), so the other ends of one end u fall into
    runs of consecutive ids that share one meet depth dm: the part of u's
    depth-dm block outside its depth-(dm + 1) block, one run on each side.
    The geodesics of a run are u's root chain up to depth dm joined to the
    other ends' down-chains below depth dm, one ``map`` per run.  The ball
    keeps each depth's vertex tuples, and every call returns a fresh list
    of the same tuples.
    """
    q, radius = ball.params.q, ball.params.radius
    if depth is None:
        depth = radius
    if not 0 <= depth <= radius:
        raise ValueError(f"depth must be in 0..{radius}, got {depth}")
    if depth in ball._diameters:
        return list(ball._diameters[depth])
    chains = ball.chains
    ends = [v for v, d in enumerate(ball.depths) if d == depth]
    # downs[dm][j]: the vertices of ends[j]'s root chain below depth dm, root side first.
    downs = [[chains[v][depth - dm - 1::-1] for v in ends] for dm in range(depth)]
    blocks = [len(ends)] + [q ** (depth - d) for d in range(1, depth + 1)]
    out = []
    for i, u in enumerate(ends):
        up = chains[u]
        starts = [i - i % b for b in blocks]
        runs = [(dm, starts[dm], starts[dm + 1]) for dm in range(depth)]
        runs += [(dm, starts[dm + 1] + blocks[dm + 1], starts[dm] + blocks[dm])
                 for dm in reversed(range(depth))]
        for dm, lo, hi in runs:
            out += map(up[:depth + 1 - dm].__add__, downs[dm][lo:hi])
    ball._diameters[depth] = tuple(out)
    return out


class BallAutomorphism:
    """Graph automorphism of a ball, stored as a vertex permutation.

    The permutation is checked to map every edge onto an edge.  Every
    edge joins a vertex to its parent, and breadth-first ids put the
    parent first, so {u, v} with u < v is an edge exactly when u is v's
    parent (``chains[v][1]``); no edge set is built.
    """

    def __init__(self, ball: TreeBall, perm):
        perm = tuple(perm)
        if sorted(perm) != list(range(ball.num_vertices)):
            raise ValueError("not a permutation of the vertex ids")
        chains = ball.chains
        for u, v in ball.edges:
            iu, iv = perm[u], perm[v]
            if (chains[iv][1] != iu) if iu < iv else (chains[iu][1] != iv):
                raise ValueError("permutation does not preserve the edge set")
        self.ball = ball
        self.perm = perm

    def __call__(self, v: int) -> int:
        return self.perm[v]


def random_automorphism(ball: TreeBall, seed: int) -> BallAutomorphism:
    """Seeded automorphism built by recursively shuffling child subtrees.

    Every output preserves the edge set and the leaf set by construction.
    Leaves have no children and are skipped: an empty shuffle would draw
    nothing from the generator.
    """
    rng = random.Random(seed)
    children = ball.children
    perm = [0] * ball.num_vertices
    # Pairs (original vertex, image vertex); each image's children shuffled.
    stack = [(0, 0)]
    while stack:
        orig, image = stack.pop()
        perm[orig] = image
        if children[orig]:
            shuffled = list(children[image])
            rng.shuffle(shuffled)
            stack += zip(children[orig], shuffled)
    return BallAutomorphism(ball, perm)
