import contextlib
import signal

import pytest

from treeforms.radon import induced_apartments
from treeforms.tower import build_path_graph
from treeforms.tree import TreeParams, build_ball, enumerate_oriented_diameters

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
