import contextlib
import signal

import pytest
from hypothesis import Phase, settings

from fractions import Fraction

from treeforms.padic import GroupElement
from treeforms.radon import induced_apartments
from treeforms.tower import SpanningForest, build_path_graph
from treeforms.tree import BallAutomorphism, TreeParams, build_ball, enumerate_oriented_diameters


# The profile ``python tests/mutants.py`` runs under: a drawn example that
# fails ends the test at once, unshrunk, and the draws repeat from run to run.
settings.register_profile("mutants", derandomize=True, database=None,
                          phases=[Phase.explicit, Phase.generate])


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

def is_leaf(ball, v: int) -> bool:
    """v lies on the ball's boundary sphere."""
    return ball.depths[v] == ball.params.radius


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


def spy_calls(monkeypatch, module, name, record=None, calls=None) -> list:
    """Patch ``module.<name>`` so that each call is first recorded in
    ``calls`` (a new list by default), then made; returns the list.  A call
    is recorded as ``record(*args)``, by default the tuple of its
    arguments."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def spy(*args):
        calls.append(args if record is None else record(*args))
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls
