"""Cochains with exact rational coefficients on a path graph.

All operators here (coboundary, its adjoint, the pairing) have integer
matrices, so exact rationals carry the full content of the complex-
coefficient theory at finite level; there is no floating-point mode.
On a finite graph every cochain has finite support and every form is
smooth, so the smooth/arbitrary-support distinction collapses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import _linalg
from .tower import PathGraph, SpanningForest, num_components

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Cochain:
    """Finitely supported map from vertex (level 0) or edge (level 1) ids.

    Zero values are never stored; two cochains compare equal iff their
    levels and supports agree.
    """

    level: int
    data: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.level not in (0, 1):
            raise ValueError(f"cochain level must be 0 or 1, got {self.level}")
        cleaned = {i: Fraction(x) for i, x in self.data.items() if x}
        object.__setattr__(self, "data", cleaned)

    @classmethod
    def zero(cls, level: int) -> "Cochain":
        return cls(level, {})

    @classmethod
    def indicator(cls, level: int, idx: int) -> "Cochain":
        return cls(level, {idx: ONE})

    def __call__(self, idx: int) -> Fraction:
        return self.data.get(idx, ZERO)

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.level != other.level:
            raise ValueError("cochain level mismatch")
        out = dict(self.data)
        for i, x in other.data.items():
            out[i] = out.get(i, ZERO) + x
        return Cochain(self.level, out)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-ONE)

    def scale(self, c) -> "Cochain":
        c = Fraction(c)
        return Cochain(self.level, {i: c * x for i, x in self.data.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain) and self.level == other.level
                and self.data == other.data)

    def __hash__(self):
        return hash((self.level, frozenset(self.data.items())))

    @property
    def support(self):
        return self.data.keys()

    def is_zero(self) -> bool:
        return not self.data

    def permuted(self, perm: list[int]) -> "Cochain":
        """Push forward along an id permutation: (g.f)(perm[i]) = f(i)."""
        return Cochain(self.level, {perm[i]: x for i, x in self.data.items()})


def _check_support(pg: PathGraph, c: Cochain) -> None:
    n = pg.num_vertices if c.level == 0 else pg.num_edges
    for i in c.support:
        if not (0 <= i < n):
            raise ValueError(f"cochain support {i} outside the path graph")


def coboundary(pg: PathGraph, f: Cochain) -> Cochain:
    """df(a) = f(head a) - f(tail a)."""
    if f.level != 0:
        raise ValueError("coboundary applies to 0-cochains")
    _check_support(pg, f)
    out: dict[int, Fraction] = {}
    for s, x in f.data.items():
        for a in pg.edges_into[s]:
            out[a] = out.get(a, ZERO) + x
        for a in pg.edges_out_of[s]:
            out[a] = out.get(a, ZERO) - x
    return Cochain(1, out)


def adjoint(pg: PathGraph, omega: Cochain) -> Cochain:
    """d*w(s) = sum over edges a incident to s of [a:s] w(a)."""
    if omega.level != 1:
        raise ValueError("adjoint applies to 1-cochains")
    _check_support(pg, omega)
    out: dict[int, Fraction] = {}
    for a, x in omega.data.items():
        h, t = pg.head[a], pg.tail[a]
        out[h] = out.get(h, ZERO) + x
        out[t] = out.get(t, ZERO) - x
    return Cochain(0, out)


def pairing(x: Cochain, y: Cochain) -> Fraction:
    """<x, y> = sum over the common support of x(i) y(i)."""
    if x.level != y.level:
        raise ValueError("pairing requires cochains of the same level")
    small, large = (x.data, y.data) if len(x.data) <= len(y.data) else (y.data, x.data)
    return sum((v * large[i] for i, v in small.items() if i in large), ZERO)


def harmonic_space(pg: PathGraph) -> list[Cochain]:
    """Basis of ker d*, the space of harmonic forms.

    A 1-cochain is harmonic iff it is a circulation: at every vertex the
    signed sum of incident edge values vanishes.  The basis consists of
    the fundamental circulations of a breadth-first spanning forest: one
    unit cycle per non-forest edge.  Its size |E| - |V| + #components is
    cross-checked against the rank oracle in the test suite.
    """
    return [Cochain(1, vec) for _, vec in _fundamental_cycles(pg)]


def _fundamental_cycles(pg: PathGraph) -> list[tuple[int, dict[int, Fraction]]]:
    """(non-forest edge a, unit cycle through a) for each non-forest edge,
    by increasing a; a is the only non-forest edge of its cycle.  The
    cycle carries unit flow along its forest loop, so each edge's value is
    +1 where the loop runs tail to head and -1 where it runs back."""
    forest = SpanningForest(pg)
    cycles = []
    for a in forest.non_tree_edges:
        edges, verts = forest.loop(a)
        cycles.append((a, {e: ONE if pg.tail[e] == x else -ONE
                           for e, x in zip(edges, verts)}))
    return cycles


def incidence_rows(pg: PathGraph):
    """Rows of the coboundary matrix d: one sparse row per edge."""
    for a in range(pg.num_edges):
        yield {pg.head[a]: ONE, pg.tail[a]: -ONE}


def coboundary_rank(pg: PathGraph) -> int:
    """rank(d), certified over GF(p) with the exact Fraction rank as fallback.

    The rows of d* at the vertices of one component sum to zero, so
    V - #components is an upper bound on rank(d).  When the rank mod
    2^31 - 1, a lower bound, reaches it, that is the rank; d is totally
    unimodular, so it always does.  Otherwise exact elimination decides.
    """
    upper = pg.num_vertices - num_components(pg)
    return _linalg.certified_rank(incidence_rows(pg), upper)


def h1c_dimension(pg: PathGraph) -> int:
    """dim of compactly supported H^1 = dim C^1 - rank(d)."""
    return pg.num_edges - coboundary_rank(pg)


def intersect_harmonic_exact(pg: PathGraph) -> int:
    """dim(ker d* intersect im d), from a certified rank of A + B.

    A is spanned by the fundamental cycles, independent since each is
    the only one nonzero at its own non-forest edge, and B = im d by the
    V rows of d*, whose rows over one component sum to zero.  So
    #cycles + V - #components bounds dim(A + B), and ``certified_rank``
    meets it exactly when the intersection is 0; otherwise the
    intersection is #cycles + rank(d) - dim(A + B).  Positivity of the
    rational pairing forces 0; the computation verifies it rather than
    assuming it.
    """
    cycles = _fundamental_cycles(pg)
    upper = len(cycles) + pg.num_vertices - num_components(pg)
    # Cycle rows first, each led by its own non-forest edge: they form an
    # identity block and the vertex rows reduce against it with little fill.
    col = {a: i for i, (a, _) in enumerate(cycles)}
    for a in range(pg.num_edges):
        col.setdefault(a, len(col))
    stacked = [{col[a]: x for a, x in vec.items()} for _, vec in cycles]
    for s in range(pg.num_vertices):
        # Row s of d* is [a:s] on the edges at s; no edge has head = tail.
        row = {col[a]: 1 for a in pg.edges_into[s]}
        row.update((col[a], -1) for a in pg.edges_out_of[s])
        stacked.append(row)
    dim_sum = _linalg.certified_rank(stacked, upper)
    if dim_sum == upper:
        return 0
    return len(cycles) + coboundary_rank(pg) - dim_sum


# -- export formats ---------------------------------------------------


def cochain_to_csv(c: Cochain) -> str:
    kind = "V" if c.level == 0 else "E"
    lines = ["kind,id,numerator,denominator"]
    for i in sorted(c.support):
        x = c.data[i]
        lines.append(f"{kind},{i},{x.numerator},{x.denominator}")
    return "\n".join(lines) + "\n"


def basis_manifest(pg: PathGraph, basis: list[Cochain], files: list[str]) -> str:
    payload = {
        "dimension": len(basis),
        "edges": pg.num_edges,
        "vertices": pg.num_vertices,
        "components": num_components(pg),
        "vectors": files,
    }
    return json.dumps(payload, sort_keys=True) + "\n"
