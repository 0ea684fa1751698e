import contextlib
import signal

import pytest

from fractions import Fraction

from treeforms import _linalg, padic
from treeforms.padic import GroupElement
from treeforms.radon import induced_apartments
from treeforms.tower import SpanningForest, build_path_graph, component_roots
from treeforms.tree import (BallAutomorphism, TreeParams, build_ball,
                            enumerate_oriented_diameters, geodesic_between)


@contextlib.contextmanager
def time_limit(seconds, what):
    """Fail with TimeoutError instead of hanging when the block runs past
    `seconds` (SIGALRM; main thread only)."""
    def expire(signum, frame):
        raise TimeoutError(f"{what} ran past {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# Test-only queries on library objects.

def convex_hull(ball, vertex_ids) -> set[int]:
    """Minimal subtree containing the given vertices.

    In a tree this is the union of the geodesics from any one of them to
    all the others: the geodesic between two of them runs inside the two
    geodesics that join them to the chosen one.
    """
    vs = set(vertex_ids)
    if not vs:
        raise ValueError("convex hull of an empty set")
    base = min(vs)
    hull: set[int] = set()
    for v in vs:
        hull.update(geodesic_between(ball, base, v))
    return hull


def is_leaf(ball, v: int) -> bool:
    """v lies on the ball's boundary sphere."""
    return ball.depths[v] == ball.params.radius


def components(pg) -> list[list[int]]:
    """Connected components of the underlying undirected graph, each a
    sorted vertex list, ordered by their smallest vertex."""
    groups: dict[int, list[int]] = {}
    for s, root in enumerate(component_roots(pg)):
        groups.setdefault(root, []).append(s)
    return [groups[r] for r in sorted(groups)]


def is_loop(walk) -> bool:
    """The walk has a step and ends where it starts."""
    return len(walk.vertices) > 1 and walk.vertices[0] == walk.vertices[-1]


def incidence(pg, a: int, s: int) -> int:
    """[a:s] = +1 if s is the head of a, -1 if the tail, 0 otherwise."""
    pg.check_edge(a)
    pg.check_vertex(s)
    if pg.head[a] == s:
        return 1
    if pg.tail[a] == s:
        return -1
    return 0


def through(aps, a: int) -> list[int]:
    """Ids of the apartments whose induced edge list contains a."""
    aps.pg.check_edge(a)
    return list(aps._through[a])


def identity(ball) -> BallAutomorphism:
    return BallAutomorphism(ball, range(ball.num_vertices))


def inverse(g: BallAutomorphism) -> BallAutomorphism:
    inv = [0] * len(g.perm)
    for i, j in enumerate(g.perm):
        inv[j] = i
    return BallAutomorphism(g.ball, inv)


def compose(g: BallAutomorphism, h: BallAutomorphism) -> BallAutomorphism:
    """g after h: compose(g, h)(v) = g(h(v))."""
    return BallAutomorphism(g.ball, [g.perm[x] for x in h.perm])


IDENTITY = GroupElement(1, 0, 0, 1)


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """The matrix product g h."""
    return GroupElement(g.a * h.a + g.b * h.c, g.a * h.b + g.b * h.d,
                        g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d)


def adjugate(g: GroupElement) -> GroupElement:
    """The adjugate of g, its inverse in PGL(2)."""
    return GroupElement(g.d, -g.b, -g.c, g.a)


def class_matrix(v, p: int) -> GroupElement:
    """The canonical matrix [[p^n, u], [0, 1]] of the lattice class v."""
    n = v.n
    return GroupElement(p ** n if n >= 0 else Fraction(1, p ** -n), v.u, 0, 1)


def residue_mod(u, n: int, p: int):
    """Canonical representative of u modulo p^n Z_p.

    The result is p^v * r with v = v_p(u) and r the unit part reduced
    modulo p^(n-v), an integer in [1, p^(n-v)); zero when v >= n.  For
    v >= 0 it is the int u mod p^n, in [0, p^n); for negative v it is
    the honest non-integral rational r / p^-v.  p < 2 is refused.
    """
    u = padic._exact(u)
    return padic._residue(u.numerator, u.denominator, n, p)


_BALLS: dict = {}
_TOWERS: dict = {}
_APARTMENTS: dict = {}


def ball(q, radius):
    key = (q, radius)
    if key not in _BALLS:
        _BALLS[key] = build_ball(TreeParams(q, radius))
    return _BALLS[key]


def tower(q, radius, k):
    key = (q, radius, k)
    if key not in _TOWERS:
        _TOWERS[key] = build_path_graph(ball(q, radius), k)
    return _TOWERS[key]


def fresh_tower(q, radius, k):
    """A newly built ``tower(q, radius, k)``, with no cached forest or
    kept certificate, for a test that doctors its forest: the shared
    graphs of ``tower`` must never carry a doctored forest."""
    return build_path_graph(ball(q, radius), k)


def apartments(q, radius, k):
    key = (q, radius, k)
    if key not in _APARTMENTS:
        b = ball(q, radius)
        _APARTMENTS[key] = induced_apartments(tower(q, radius, k),
                                              enumerate_oriented_diameters(b))
    return _APARTMENTS[key]


@pytest.fixture
def ball21():
    return ball(2, 1)


@pytest.fixture
def ball22():
    return ball(2, 2)


@pytest.fixture
def ball24():
    return ball(2, 4)


# Forest doctors: each breaks one fact that ``SpanningForest.checked``
# walks, in place.


def forward_parent(forest):
    """The first tree vertex now comes before its parent in ``order``."""
    forest.order[0], forest.order[1] = forest.order[1], forest.order[0]


def wrong_root(forest):
    """A vertex with a parent edge claims to be its own root."""
    s = forest.order[1]
    forest.root[s] = s


def orphan(forest):
    """A vertex loses its parent edge but keeps its root."""
    forest.parent_edge[forest.order[1]] = None


def false_root(forest):
    """A vertex loses its parent edge and claims to be a root."""
    s = forest.order[1]
    forest.parent_edge[s] = None
    forest.root[s] = s


def deep_root(forest):
    """The first root claims depth 99."""
    forest.depth[forest.order[0]] = 99


def skipped_level(forest):
    """The last vertex claims to lie two levels below its parent."""
    forest.depth[forest.order[-1]] += 1


def stray_parent(forest):
    """The last vertex takes the parent edge of the first tree vertex."""
    forest.parent_edge[forest.order[-1]] = forest.parent_edge[forest.order[1]]


def short_order(forest):
    """The last vertex is missing from ``order``."""
    forest.order.pop()


FOREST_DOCTORS = [forward_parent, wrong_root, orphan, false_root,
                  deep_root, skipped_level, stray_parent, short_order]


def doctoring(doctor):
    """A ``SpanningForest`` constructor that applies ``doctor`` to each
    forest it builds."""
    def build(*args, **kwargs):
        forest = SpanningForest(*args, **kwargs)
        doctor(forest)
        return forest
    return build


def spy_elimination(monkeypatch) -> list[str]:
    """Record, by name, each exact elimination the certificates fall back to."""
    calls = []
    for name in ("rank_of_rows", "nullspace"):
        real = getattr(_linalg, name)

        def spy(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(_linalg, name, spy)
    return calls
