import contextlib
import signal

import pytest

from treeforms import _linalg
from treeforms.radon import induced_apartments
from treeforms.tower import SpanningForest, build_path_graph
from treeforms.tree import (TreeParams, build_ball, enumerate_oriented_diameters,
                            geodesic_between)


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


def is_loop(walk) -> bool:
    """The walk has a step and ends where it starts."""
    return len(walk.vertices) > 1 and walk.vertices[0] == walk.vertices[-1]


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
