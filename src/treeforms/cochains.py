"""Cochains with exact rational coefficients on a path graph.

All operators here (coboundary, its adjoint, the pairing) have integer
matrices, so exact rationals carry the full content of the complex-
coefficient theory at finite level; there is no floating-point mode.
On a finite graph every cochain has finite support and every form is
smooth, so the smooth/arbitrary-support distinction collapses.

The operators hold their arithmetic in Python ints, as the elimination
in ``_linalg`` does: they read their input's ``Cochain.int_form`` and
pass on the form of the sums they build (``_summed``).
``shared_fractions`` turns the nonzero sums back into ``Fraction``s, so
every value a cochain stores or an operator returns is still a
``Fraction``; in ``coboundary`` and ``adjoint`` (and
``radon.radon_transform``) a sum equal to one of the input's values is
that input's own ``Fraction`` object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import _linalg
from .tower import PathGraph, SpanningForest, num_components

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


@dataclass(frozen=True, init=False)
class Cochain:
    """Finitely supported map from vertex (level 0) or edge (level 1) ids.

    Zero values are never stored; two cochains compare equal iff their
    levels and supports agree.  ``int_form`` is (den, {id: numerator}),
    each value its numerator over den, in ``data``'s key order: den is the
    lcm of the denominators, or an operator's input's den in its output.
    It is kept outside the fields that equality and hashing compare.
    """

    level: int
    data: dict[int, Fraction]

    def __init__(self, level: int, data: dict | None = None):
        if level not in (0, 1):
            raise ValueError(f"cochain level must be 0 or 1, got {level}")
        data = {i: x if type(x) is Fraction else Fraction(x)
                for i, x in (data or {}).items() if x}
        object.__setattr__(self, "__dict__", {"level": level, "data": data,
                                              "int_form": _int_form(data)})

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
        return self + other.scale(MINUS_ONE)

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
        den, nums = self.int_form
        return _cochain(self.level, {perm[i]: x for i, x in self.data.items()},
                        (den, {perm[i]: n for i, n in nums.items()}))


def _int_form(data: dict[int, Fraction]) -> tuple[int, dict[int, int]]:
    # The slots behind Fraction's numerator and denominator properties, read
    # directly: each property read is a Python-level call.
    den = lcm(*[x._denominator for x in data.values()])
    return den, {i: x._numerator * (den // x._denominator) for i, x in data.items()}


def _cochain(level: int, data: dict[int, Fraction], form) -> Cochain:
    """Cochain(level, data) for a valid level, nonzero Fraction values and
    their int form, as the operators build them, stored as given."""
    c = object.__new__(Cochain)
    object.__setattr__(c, "__dict__", {"level": level, "data": data, "int_form": form})
    return c


def _check_support(pg: PathGraph, c: Cochain) -> None:
    n = pg.num_vertices if c.level == 0 else pg.num_edges
    if c.data and (min(c.data) < 0 or max(c.data) >= n):
        i = next(i for i in c.support if not 0 <= i < n)
        raise ValueError(f"cochain support {i} outside the path graph")


def shared_fractions(nums: dict[int, int], den: int,
                     own: dict[int, Fraction] | None = None) -> dict[int, Fraction]:
    """{i: n / den} for the nonzero integer numerators n, in nums' key
    order, with one shared Fraction object per distinct value.

    ``own`` maps an operator's input's numerators over den to its values,
    so where an output repeats an input value it holds the input's object,
    and comparing two outputs that share objects stops at the identity
    check.  New Fractions are added to the table.
    """
    shared = {} if own is None else own
    out: dict[int, Fraction] = {}
    for i, n in nums.items():
        if n:
            v = shared.get(n)
            if v is None:
                v = shared[n] = Fraction(n, den)
            out[i] = v
    return out


def _summed(level: int, sums: dict[int, int], den: int,
            source: Cochain | None = None) -> Cochain:
    """The cochain of the nonzero sums over den, with int form (den, those
    sums).  The source is the cochain whose numerators were summed; its
    ``shared_fractions`` table is built only when some sum is nonzero."""
    if not any(sums.values()):
        return _cochain(level, {}, (1, {}))
    own = source and dict(zip(source.int_form[1].values(), source.data.values()))
    data = shared_fractions(sums, den, own)
    if len(data) < len(sums):
        sums = {i: n for i, n in sums.items() if n}
    return _cochain(level, data, (den, sums))


def coboundary(pg: PathGraph, f: Cochain) -> Cochain:
    """df(a) = f(head a) - f(tail a), summed in ints over f's int form."""
    if f.level != 0:
        raise ValueError("coboundary applies to 0-cochains")
    _check_support(pg, f)
    den, nums = f.int_form
    into, out_of = pg.edges_into, pg.edges_out_of
    sums: dict[int, int] = {}
    for s, n in nums.items():
        for a in into[s]:
            sums[a] = sums.get(a, 0) + n
        for a in out_of[s]:
            sums[a] = sums.get(a, 0) - n
    return _summed(1, sums, den, f)


def adjoint(pg: PathGraph, omega: Cochain) -> Cochain:
    """d*w(s) = sum over edges a incident to s of [a:s] w(a), summed in
    ints over w's int form."""
    if omega.level != 1:
        raise ValueError("adjoint applies to 1-cochains")
    _check_support(pg, omega)
    den, nums = omega.int_form
    return _summed(0, _adjoint_sums(pg, nums), den, omega)


def _adjoint_sums(pg: PathGraph, nums: dict[int, int]) -> dict[int, int]:
    """d* of the integer edge values nums: {vertex: sum}, zero sums kept."""
    head, tail = pg.head, pg.tail
    sums: dict[int, int] = {}
    for a, n in nums.items():
        h, t = head[a], tail[a]
        sums[h] = sums.get(h, 0) + n
        sums[t] = sums.get(t, 0) - n
    return sums


def pairing(x: Cochain, y: Cochain) -> Fraction:
    """<x, y> = sum over the common support of x(i) y(i): the products of
    the int forms' numerators, summed over the product of their dens."""
    if x.level != y.level:
        raise ValueError("pairing requires cochains of the same level")
    (dx, nx), (dy, ny) = x.int_form, y.int_form
    small, large = (nx, ny) if len(nx) <= len(ny) else (ny, nx)
    total = sum([u * v for i, u in small.items() if (v := large.get(i))])
    return Fraction(total, dx * dy) if total else ZERO


def harmonic_space(pg: PathGraph) -> list[Cochain]:
    """Basis of ker d*, the space of harmonic forms.

    A 1-cochain is harmonic iff it is a circulation: at every vertex the
    signed sum of incident edge values vanishes.  The basis is
    ``_harmonic_basis``: the fundamental circulations of a breadth-first
    spanning forest, one unit cycle per non-forest edge, when they are
    certified, and an exact ``ker d*`` basis otherwise.
    """
    basis, certified = _harmonic_basis(pg)
    if certified:
        units: dict[int, Fraction] = {}  # one table for the basis: every value is +-1
        return [_cochain(1, shared_fractions(vec, 1, units), (1, vec)) for vec in basis]
    return [Cochain(1, vec) for vec in basis]


def _unit_cycle(forest: SpanningForest, a: int) -> dict[int, int]:
    """Unit flow along the forest loop of edge a: each edge's value is +1
    where the loop runs tail to head and -1 where it runs back."""
    tail = forest.pg.tail
    edges, verts = forest.loop(a)
    return {e: 1 if tail[e] == x else -1 for e, x in zip(edges, verts)}


def _fundamental_cycles(forest: SpanningForest) -> list[tuple[int, dict[int, int]]]:
    """(non-forest edge a, unit cycle through a) for each non-forest edge,
    by increasing a; a is the only non-forest edge of its cycle."""
    return [(a, _unit_cycle(forest, a)) for a in forest.non_tree_edges]


def _forest_rank(forest: SpanningForest) -> int | None:
    """rank(d) = V - #roots, when the forest's facts check out; else None.

    The facts are checked, not trusted: ``forest.checked()`` must hold,
    every vertex must have a root, and both ends of every edge must share
    one.  Then the rows of d at the V - #roots parent edges are triangular
    with +-1 pivots (each row's other vertex is walked before its own), so
    rank(d) >= V - #roots, and the indicator of each root's vertices lies
    in ker d, so rank(d) <= V - #roots.
    """
    pg, root = forest.pg, forest.root
    if not forest.checked() or None in root:
        return None
    if any(root[h] != root[t] for h, t in zip(pg.head, pg.tail)):
        return None
    return pg.num_vertices - forest.parent_edge.count(None)


def incidence_rows(pg: PathGraph):
    """Rows of the coboundary matrix d: one sparse row per edge."""
    for a in range(pg.num_edges):
        yield {pg.head[a]: ONE, pg.tail[a]: MINUS_ONE}


def incidence_rank(pg: PathGraph) -> int:
    """rank(d) by exact elimination of the incidence rows, taken
    deepest-first (``_linalg.deepest_first``); no forest is used."""
    rows = list(incidence_rows(pg))
    return _linalg.rank_of_rows(rows[i] for i in _linalg.deepest_first(rows))


def coboundary_rank(pg: PathGraph) -> int:
    """rank(d), certified by a spanning forest, with exact elimination as
    the fallback.

    ``_forest_rank`` checks the breadth-first forest's facts and proves
    rank(d) = V - #roots from them.  When a check fails,
    ``incidence_rank`` decides.
    """
    rank = _forest_rank(SpanningForest(pg))
    if rank is None:
        return incidence_rank(pg)
    return rank


def h1c_dimension(pg: PathGraph) -> int:
    """dim of compactly supported H^1 = dim C^1 - rank(d)."""
    return pg.num_edges - coboundary_rank(pg)


def _unit_circulations(pg: PathGraph, cycles) -> bool:
    """Whether each (a, c) has d* c = 0, c(a) = 1 and c(b) = 0 at every
    other b among the cycles' own edges."""
    own = {a for a, _ in cycles}
    if len(own) != len(cycles):
        return False
    for a, vec in cycles:
        if (vec.get(a) != 1 or any(b in own for b in vec if b != a)
                or any(_adjoint_sums(pg, vec).values())):
            return False
    return True


def _adjoint_rows(pg: PathGraph, verts) -> list[dict[int, int]]:
    """Rows of d* at the given vertices: row s is [a:s] on the edges at s
    (no edge has head = tail)."""
    return [{a: 1 for a in pg.edges_into[s]} | {a: -1 for a in pg.edges_out_of[s]}
            for s in verts]


def _harmonic_basis(pg: PathGraph) -> tuple[list[dict], bool]:
    """(basis of ker d*, whether the forest certified it).

    The certificate checks each fundamental cycle of the spanning forest
    in exact integers: d* c = 0, and c is 1 at its own non-forest edge and
    0 at every other one.  Then the cycles lie in ker d*, and they are
    independent, since each is the only one nonzero at its own edge.
    When they also number E - rank(d), with rank(d) proven by
    ``_forest_rank``, they span ker d*.  When a check fails, the forest is
    not used at all: the basis is the exact nullspace of d*.
    """
    forest = SpanningForest(pg)
    rank = _forest_rank(forest)
    if rank is not None:
        cycles = _fundamental_cycles(forest)
        if len(cycles) == pg.num_edges - rank and _unit_circulations(pg, cycles):
            return [vec for _, vec in cycles], True
    return _linalg.nullspace(_adjoint_rows(pg, range(pg.num_vertices)), pg.num_edges), False


def intersect_harmonic_exact(pg: PathGraph) -> int:
    """dim(ker d* intersect im d), 0 when ``_harmonic_basis`` is certified.

    For x = df in the span of the certified cycles, which is ker d*,
    <x, x> = <f, d* x> = 0, so x = 0.  Otherwise the exact basis N of
    ker d* is stacked on the V rows of d*; since dim N + rank(d*) = E,
    the intersection has dimension E - rank(N + d*).
    """
    basis, certified = _harmonic_basis(pg)
    if certified:
        return 0
    dstar = _adjoint_rows(pg, range(pg.num_vertices))
    return pg.num_edges - _linalg.rank_of_rows(basis + dstar)


def integrate(pg: PathGraph, w: Cochain,
              forest: SpanningForest | None = None) -> tuple[Cochain, int | None]:
    """Solve df = w along a spanning forest (default: of the whole graph).

    Returns (f, None) with df = w on every edge, or (f, a) when w is not
    in im d, with f the forest walk and a the first edge where df != w.
    The walk follows ``forest.order``: f is 0 at each root and
    f(s) = f(u) +- w(a) across the parent edge a from its other end u.
    Vertices the forest does not reach keep f = 0.

    Nothing about the forest is trusted.  df = w is checked on every
    edge, forest edges included.  At the first edge a where it fails, the
    unit cycle c of a's forest loop is checked exactly: d* c = 0,
    c(a) = 1 and <c, w> != 0.  Since <c, df> = <d* c, f> = 0 for every
    f, that proves w is not in im d.  The loop is built only when both
    ends of a were walked with one root and ``forest.checked()`` holds,
    so a success does no check of the forest beyond df = w.  When those
    facts or the witness fail, an exact solve of the incidence rows
    decides.
    """
    if w.level != 1:
        raise ValueError("integrate applies to 1-cochains")
    _check_support(pg, w)
    if forest is None:
        forest = SpanningForest(pg)
    head, tail, root = pg.head, pg.tail, forest.root
    # The walk runs in ints: f is put over w's den.
    den, wn = w.int_form
    values: dict[int, int] = {}
    for s in forest.order:
        a = forest.parent_edge[s]
        if a is None:
            values[s] = 0
        elif head[a] == s:
            values[s] = values.get(tail[a], 0) + wn.get(a, 0)
        else:
            values[s] = values.get(head[a], 0) - wn.get(a, 0)
    f = _summed(0, values, den)
    bad = next((a for a in range(pg.num_edges)
                if values.get(head[a], 0) - values.get(tail[a], 0) != wn.get(a, 0)), None)
    if bad is None:
        return f, None
    h, t = head[bad], tail[bad]
    if h in values and t in values and root[h] == root[t] and forest.checked():
        cycle = _unit_cycle(forest, bad)
        if _unit_circulations(pg, [(bad, cycle)]) and pairing(Cochain(1, cycle), w):
            return f, bad
    sol = _linalg.solve(incidence_rows(pg), [w(a) for a in range(pg.num_edges)],
                        pg.num_vertices)
    return (f, bad) if sol is None else (Cochain(0, sol), None)


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
