"""Geodesic Radon transform on 1-cochains of a path graph.

An oriented apartment of the ball is an oriented leaf-to-leaf geodesic;
its induced edges at level k are the length-(k+2) windows of the
geodesic read in orientation order.  The transform sums a 1-cochain
over the induced edges of each apartment.

Truncation note: on the infinite tree the transform kills exactly the
coboundaries.  At finite level that statement survives on cochains kept
away from the truncation boundary, which is what the interior margin
controls: an edge is interior when every vertex of its convex hull is
at tree distance >= margin from every leaf, and a vertex of the path
graph is interior when its hull keeps distance >= margin + 1.  With
this pairing d maps interior 0-cochains into interior-supported
1-cochains killed by the transform, and the exactness check measures
whether the converse inclusion holds: a forest-and-peel certificate
decides first, with no elimination (``_certified_dims``), and exact
ranks decide when it does not (``_subspace_dims``).

Kernel rows: an edge is interior at margin m when its window lies at
depth <= R - m.  Along a leaf-to-leaf geodesic depth falls to the meet
and rises again, so the vertices at depth <= R - m form one stretch, the
geodesic between the depth-(R - m) ancestors x', y' of its ends (a single
vertex when the meet is deeper), and its interior windows are that
stretch's windows.  Breadth-first ids keep the order of (x', y'), so the
distinct interior rows of the whole family first occur in the order of
``interior_family(pg, m)``, the apartments of the geodesics between
depth-(R - m) vertices.  ``exactness_check`` and
``radon_kernel_interior`` read that family at m >= 1 in place of the
complete family ``interior_family(pg, 0)``, and read the family they are
given otherwise.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import _linalg
from .cochains import Cochain, _adjoint_rows, _check_support, integrate, shared_fractions
from .tower import PathGraph, SpanningForest, component_roots
from .tree import enumerate_oriented_diameters, geodesic_between

ZERO = Fraction(0)
# Steps a walk of ``random_loops`` may take to return to its start.
_LOOP_STEPS = 60


class MarginError(ValueError):
    """The truncation margin is too small (or too large) for the request."""


class PathDependenceError(ValueError):
    """Primitive construction met a loop with nonzero integral."""

    def __init__(self, message: str, loop: "WalkWithSigns"):
        super().__init__(message)
        self.loop = loop


class OrientedApartment(NamedTuple):
    """Oriented leaf-to-leaf geodesic with its induced level-k edges."""

    id: int
    base: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def leaf_from(self) -> int:
        return self.base[0]

    @property
    def leaf_to(self) -> int:
        return self.base[-1]


class ApartmentFamily:
    """Oriented apartments of a path graph, with an edge index.

    ``complete`` is set only by ``interior_family(pg, 0)``, on the one
    complete family: it holds the apartment of every ordered pair of
    distinct leaves of ``pg.ball`` whose geodesic carries a window (has at
    least k + 2 vertices), in (from, to) order.  A family built by hand
    with this constructor is never complete, whatever it holds.
    """

    def __init__(self, pg: PathGraph, apartments: list[OrientedApartment]):
        self.pg = pg
        self.apartments = apartments
        self.complete = False
        # _through[a]: ids of the apartments through edge a, in id order.
        through: list[list[int]] = [[] for _ in range(pg.num_edges)]
        for i, _, edges in apartments:
            for a in edges:
                through[a].append(i)
        self._through = through

    def __len__(self) -> int:
        return len(self.apartments)

    def __iter__(self):
        return iter(self.apartments)

    def to_manifest_json(self) -> str:
        payload = [
            {
                "id": ap.id,
                "leaf_from": ap.leaf_from,
                "leaf_to": ap.leaf_to,
                "induced_edges": list(ap.edges),
            }
            for ap in self.apartments
        ]
        return json.dumps(payload, sort_keys=True) + "\n"


def induced_apartments(pg: PathGraph, diameters: Iterable[tuple[int, ...]]) -> ApartmentFamily:
    """One apartment per diameter that is long enough to carry a window.

    The diameters are read once, into a list.  When they are the ball's
    own, ``enumerate_oriented_diameters(pg.ball)`` in content and order,
    the family is ``interior_family(pg, 0)``, the one complete family.  Any
    other list has every window looked up in ``pg.edge_index``, so a window
    that is not a path of the ball is a KeyError, and its family is not
    complete.
    """
    diameters = list(diameters)
    if diameters == enumerate_oriented_diameters(pg.ball):
        return interior_family(pg, 0)
    width, edge_index = pg.k + 2, pg.edge_index
    apartments = []
    for seq in diameters:
        if len(seq) >= width:
            ids = tuple([edge_index[seq[i:i + width]] for i in range(len(seq) - width + 1)])
            apartments.append(OrientedApartment(len(apartments), seq, ids))
    return ApartmentFamily(pg, apartments)


def interior_family(pg: PathGraph, margin: int) -> ApartmentFamily:
    """Apartments of ``enumerate_oriented_diameters(pg.ball, D)``, the
    geodesics between distinct vertices at depth D = R - margin (D = 0, so
    none, at margin >= R), built from their structure with no validation.

    At margin 0 this is the whole family, and the only family marked
    complete: it holds every ordered leaf pair whose geodesic carries a
    window.  At margin >= 1 it is the part of the whole family that
    reaches interior edges, in its row order (``_kernel_rows``).

    A geodesic between depth-D vertices x and y climbs x's root chain
    (``TreeBall.chains``) to the meet and descends y's, so its n vertices
    put the apex at h = (n - 1) // 2 and the meet at depth D - h.  Its
    windows are x's chain windows below the apex, the peaked windows (the
    at most k with the apex strictly inside), and y's reversed chain
    windows from the meet on.  A geodesic with fewer than k + 2 vertices
    carries no window and has no apartment.  The peaked windows are all
    the windows of the stretch of the geodesic they cover, and a tree
    geodesic is fixed by its two ends, so they are looked up once per pair
    of first and last covered vertex and shared by every apartment with
    that pair.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    ball, k, edge_index = pg.ball, pg.k, pg.edge_index
    depth = max(ball.params.radius - margin, 0)
    width = k + 2

    def windows(c):
        return tuple(map(edge_index.__getitem__, zip(*[c[i:] for i in range(width)])))

    ends = [v for v, d in enumerate(ball.depths) if d == depth]
    ups = {v: windows(ball.chains[v]) for v in ends}
    downs = {v: windows(ball.chains[v][::-1]) for v in ends}
    peaked: dict[tuple[int, int], tuple[int, ...]] = {}
    apartments = []
    new = tuple.__new__
    for seq in enumerate_oriented_diameters(ball, depth):
        n = len(seq)
        if n < width:
            continue
        h = (n - 1) // 2
        lo = h - k if h > k else 0
        ids = ups[seq[0]][:lo]
        if lo < h:
            hi = min(h, n - width + 1)
            key = seq[lo], seq[hi + width - 2]
            mid = peaked.get(key)
            if mid is None:
                mid = peaked[key] = tuple([edge_index[seq[i:i + width]] for i in range(lo, hi)])
            ids += mid
        ids += downs[seq[-1]][depth - h:]
        apartments.append(new(OrientedApartment, (len(apartments), seq, ids)))
    family = ApartmentFamily(pg, apartments)
    family.complete = margin == 0
    return family


def radon_transform(pg: PathGraph, aps: ApartmentFamily, omega: Cochain) -> dict[int, Fraction]:
    """Value at each apartment = exact sum of the cochain over its edges.

    The numerators of the cochain's int form are summed in Python ints per
    apartment through the family's edge index, and only the nonzero sums
    become Fractions (``shared_fractions``): a sum equal to one of the
    cochain's values is that value's own object, and each other distinct
    sum is one new shared object.  Keys appear in the order the
    apartments are first reached; an edge id outside the path graph, or a
    family built on another path graph, is a ValueError.
    """
    if omega.level != 1:
        raise ValueError("the transform applies to 1-cochains")
    if aps.pg is not pg:
        raise ValueError("the apartment family is built on another path graph")
    _check_support(pg, omega)
    den, nums = omega.int_form
    through = aps._through
    sums: dict[int, int] = {}
    for a, n in nums.items():
        for i in through[a]:
            sums[i] = sums.get(i, 0) + n
    if not any(sums.values()):
        return {}
    return shared_fractions(sums, den, dict(zip(nums.values(), omega.data.values())))


# -- interior (truncation margin) --------------------------------------


def _hull_margin(pg: PathGraph, seq: tuple[int, ...]) -> int:
    """Tree distance from the hull of a path to the leaf set.

    The hull of a path is its own vertex set; in a full truncation the
    distance from a vertex to the nearest leaf is radius - depth.
    """
    radius = pg.ball.params.radius
    return radius - max(pg.ball.depths[v] for v in seq)


def interior_edges(pg: PathGraph, margin: int) -> list[int]:
    if margin < 0:
        raise ValueError("margin must be >= 0")
    return [a for a, e in enumerate(pg.edges) if _hull_margin(pg, e) >= margin]


def interior_vertices(pg: PathGraph, margin: int) -> list[int]:
    """Vertices one step deeper than interior edges, so that coboundaries
    of interior 0-cochains stay supported on interior edges."""
    if margin < 0:
        raise ValueError("margin must be >= 0")
    return [s for s, p in enumerate(pg.verts) if _hull_margin(pg, p) >= margin + 1]


def _kernel_rows(aps: ApartmentFamily, interior: list[int]):
    """Deduplicated constraint rows of the transform on interior columns.

    Apartments are deduplicated on the sorted tuple of their interior
    column ids, and a {column: int count} row is built only for the first
    apartment of each distinct tuple, so rows keep first-occurrence order.
    Fed ``interior_family(pg, margin)`` in place of a complete family
    (``_row_family``), it returns the same rows in the same order.
    """
    col = {a: j for j, a in enumerate(interior)}.get
    seen = set()
    rows = []
    for ap in aps:
        js = [j for j in map(col, ap.edges) if j is not None]
        if not js:
            continue
        key = tuple(sorted(js))
        if key in seen:
            continue
        seen.add(key)
        row: dict[int, int] = {}
        for j in js:
            row[j] = row.get(j, 0) + 1
        rows.append(row)
    return rows


def _row_family(pg: PathGraph, aps: ApartmentFamily, margin: int) -> ApartmentFamily:
    """The family whose kernel rows are read: ``interior_family(pg, margin)``
    for the complete family of pg at margin >= 1, else aps."""
    if margin >= 1 and aps.complete and aps.pg is pg:
        return interior_family(pg, margin)
    return aps


def radon_kernel_interior(pg: PathGraph, aps: ApartmentFamily, margin: int) -> list[Cochain]:
    """Exact basis of the interior-supported kernel of the transform."""
    interior = interior_edges(pg, margin)
    if not interior:
        raise MarginError(f"no interior edges at margin {margin}")
    rows = _kernel_rows(_row_family(pg, aps, margin), interior)
    basis = _linalg.nullspace(rows, len(interior))
    return [Cochain(1, {interior[j]: v for j, v in vec.items()}) for vec in basis]


@dataclass(frozen=True)
class ExactnessReport:
    kernel_dim: int
    image_dim: int
    equal: bool
    interior_edge_count: int
    interior_vertex_count: int


def _annihilated(rows, image) -> bool:
    """Whether every integer row kills every image row, in exact ints."""
    at: dict[int, list[tuple[int, int]]] = {}
    for s, vec in enumerate(image):
        for j, v in vec.items():
            at.setdefault(j, []).append((s, v))
    get = at.get
    for row in rows:
        dots: dict[int, int] = {}
        for j, c in row.items():
            for s, v in get(j, ()):
                dots[s] = dots.get(s, 0) + c * v
        if any(dots.values()):
            return False
    return True


def _subspace_dims(rows, image, ncols: int) -> tuple[int, int, bool]:
    """(dim K, dim im d, im d = K) for K the kernel of the integer rows on
    ncols columns and image the integer coboundaries d1_s in those columns.

    Both dimensions are exact ranks (``_linalg.rank_of_rows``), with the
    graph-local image rows in ``_linalg.deepest_first`` order.  The
    spaces are equal when the dimensions are and im d lies in K, that is,
    when every row annihilates every d1_s (``_annihilated``).
    """
    kernel_dim = ncols - _linalg.rank_of_rows(rows)
    image_dim = _linalg.rank_of_rows(image[i] for i in _linalg.deepest_first(image))
    return kernel_dim, image_dim, kernel_dim == image_dim and _annihilated(rows, image)


def _certified_dims(pg: PathGraph, interior: list[int], int_verts: list[int], rows,
                    image) -> tuple[int, int, bool] | None:
    """(n, n, True) for n = V_int interior vertices when a forest and a
    peel prove K = im d_int with no elimination, else None.  K is the
    kernel of the integer rows on the interior columns, and image holds the
    d1_s of the interior vertices s in those columns.

    1. F is the breadth-first forest of the interior edges, grown from
       every non-interior endpoint at once (``SpanningForest`` with those
       roots).  Every interior vertex must have a parent edge in F, and F
       must pass ``checked``.  Then every endpoint of an interior edge is
       reached (a non-interior one is a root), an isolated interior vertex
       (d1_s = 0) is ruled out, and the parent edges P number V_int.  In
       the order F walks them, the d1_s are triangular on P with +-1
       pivots, since the parent edge of s joins it to a root, which is not
       interior, or to an interior vertex walked before.  So
       dim im d_int = V_int.  Let Q be the other interior columns.
    2. Peel (Luby, Mitzenmacher, Shokrollahi and Spielman, IEEE Trans.
       IT 47, 2001): while some row has exactly one unpeeled Q column,
       peel that column.  What gets peeled does not depend on the order
       rows are read in.  If every Q column is peeled, the rows hold a
       triangular |Q| x |Q| block whose diagonal entries are counts
       (``_kernel_rows``), so nonzero, and a cochain in K supported on Q
       is 0.
    3. Every row kills every d1_s (``_annihilated``), so im d_int lies in
       K.

    For w in K, integrate w along F from the roots (f = 0 there and on
    every non-interior vertex) to an interior 0-cochain f with df = w on
    P.  Then w - df lies in K by 3 and is supported on Q, so it is 0 by 2.
    Hence K = im d_int, and both have dimension V_int by 1.
    """
    inner = set(int_verts)
    roots = sorted({v for a in interior for v in (pg.tail[a], pg.head[a])} - inner)
    forest = SpanningForest(pg, interior, roots)
    parents = [forest.parent_edge[s] for s in int_verts]
    if None in parents or not forest.checked():
        return None
    col = {a: j for j, a in enumerate(interior)}
    live = set(range(len(interior))).difference(map(col.__getitem__, parents))
    # Short rows first: on every cell tried, one pass then peels all of Q.
    pending = sorted(rows, key=len)
    while live:
        left, rest = len(live), []
        for row in pending:
            js = live.intersection(row)
            if len(js) == 1:
                live -= js
            elif js:
                rest.append(row)
        if len(live) == left:
            return None
        pending = rest
    if not _annihilated(rows, image):
        return None
    return len(int_verts), len(int_verts), True


def exactness_check(pg: PathGraph, aps: ApartmentFamily, margin: int) -> ExactnessReport:
    """Compare ker(transform) on interior cochains with d of interior
    0-cochains, as subspaces.  Each d1_s of an interior vertex s lies on
    interior edges (``interior_vertices``).  A forest and a peel decide
    first, with no elimination (``_certified_dims``); when they do not,
    exact ranks and an exact containment check decide
    (``_subspace_dims``).

    An empty interior makes both spaces trivial and the report says so
    (kernel_dim = image_dim = 0, equal); it is not an error, since the
    margin rule is probed across whole parameter grids.  It needs no
    branch of its own: it has no interior vertex either (a vertex at
    margin m + 1 has all its edges at margin m), and no rows and no image
    on zero columns are two trivial spaces.
    """
    interior = interior_edges(pg, margin)
    int_verts = interior_vertices(pg, margin)
    rows = _kernel_rows(_row_family(pg, aps, margin), interior)
    col = {a: j for j, a in enumerate(interior)}
    # d1_s is row s of d*, supported on interior edges.
    image = [{col[a]: v for a, v in row.items()} for row in _adjoint_rows(pg, int_verts)]
    dims = (_certified_dims(pg, interior, int_verts, rows, image)
            or _subspace_dims(rows, image, len(interior)))
    return ExactnessReport(*dims, len(interior), len(int_verts))


# -- path integrals ----------------------------------------------------


@dataclass(frozen=True)
class WalkWithSigns:
    """Edge walk with its vertex itinerary and incidence signs.

    sign +1 at step u means the edge is traversed tail-to-head
    (tail = x_u, head = x_{u+1}); -1 means head-to-tail.
    """

    edges: tuple[int, ...]
    vertices: tuple[int, ...]
    signs: tuple[int, ...]

    @classmethod
    def from_itinerary(cls, pg: PathGraph, edges, vertices) -> "WalkWithSigns":
        edges = tuple(edges)
        vertices = tuple(vertices)
        if len(vertices) != len(edges) + 1:
            raise ValueError("itinerary must have one more vertex than edges")
        signs = []
        for u, a in enumerate(edges):
            pg.check_edge(a)
            h, t = pg.head[a], pg.tail[a]
            if (t, h) == (vertices[u], vertices[u + 1]):
                signs.append(1)
            elif (h, t) == (vertices[u], vertices[u + 1]):
                signs.append(-1)
            else:
                raise ValueError(f"edge {a} does not join step {u} of the walk")
        return cls(edges, vertices, tuple(signs))


def path_integral(omega: Cochain, walk: WalkWithSigns) -> Fraction:
    """Signed sum of the cochain along the walk, summed in ints over its
    int form's den (``ZERO`` when the sum is 0)."""
    if omega.level != 1:
        raise ValueError("path integrals apply to 1-cochains")
    den, nums = omega.int_form
    get = nums.get
    total = sum([sign * n for a, sign in zip(walk.edges, walk.signs) if (n := get(a))])
    return Fraction(total, den) if total else ZERO


def fundamental_loops(pg: PathGraph, edge_ids: list[int]) -> list[WalkWithSigns]:
    """Cycle-basis loops of the subgraph spanned by the given edges.

    One loop per non-forest edge: the edge followed by the forest path
    back from its head to its tail.  Raises ValueError when the forest
    fails ``SpanningForest.checked``.
    """
    forest = SpanningForest(pg, edge_ids)
    if not forest.checked():
        raise ValueError("spanning forest failed its check")
    return [WalkWithSigns.from_itinerary(pg, *forest.loop(a)) for a in forest.non_tree_edges]


def random_loops(pg: PathGraph, edge_ids: list[int], count: int,
                 seed: int) -> list[WalkWithSigns]:
    """Seeded closed walks inside the subgraph spanned by the given edges,
    each given up after ``_LOOP_STEPS`` steps."""
    rng = random.Random(seed)
    adj: dict[int, list[tuple[int, int]]] = {}
    for a in sorted(edge_ids):
        adj.setdefault(pg.tail[a], []).append((a, pg.head[a]))
        adj.setdefault(pg.head[a], []).append((a, pg.tail[a]))
    if not adj:
        return []
    starts = sorted(adj)
    loops: list[WalkWithSigns] = []
    attempts = 0
    while len(loops) < count and attempts < count * 50:
        attempts += 1
        start = rng.choice(starts)
        vertices = [start]
        edges: list[int] = []
        for _ in range(_LOOP_STEPS):
            options = adj[vertices[-1]]
            a, nxt = options[rng.randrange(len(options))]
            edges.append(a)
            vertices.append(nxt)
            if nxt == start:
                break
        if len(vertices) > 1 and vertices[-1] == start:
            loops.append(WalkWithSigns.from_itinerary(pg, edges, vertices))
    return loops


# -- primitives ---------------------------------------------------------


def enlarged_support(pg: PathGraph, omega: Cochain) -> set[int]:
    """Path-graph vertices whose hull meets the support region of omega.

    The support region is the ball X(t, delta) around the center t of the
    convex hull of the supports of omega's edges, with delta its radius.
    The hull vertex farthest from any vertex is one of those supports' own
    tree vertices, so two farthest-point sweeps over them find a diameter
    b -> c of the hull.  Its middle vertex is the center and half its
    length, rounded up, the radius; of the two middle vertices of an odd
    diameter the smaller id is taken.  The region is the breadth-first walk
    of radius delta from t.
    """
    if omega.is_zero():
        return set()
    ball = pg.ball
    tree_vertices = set()
    for a in omega.support:
        tree_vertices.update(pg.edges[a])
    start = min(tree_vertices)
    b = max(tree_vertices, key=lambda v: ball.distance(start, v))
    c = max(tree_vertices, key=lambda v: ball.distance(b, v))
    diameter = geodesic_between(ball, b, c)
    n = len(diameter) - 1
    center = min(diameter[n // 2], diameter[(n + 1) // 2])
    region = {center}
    frontier = [center]
    for _ in range((n + 1) // 2):
        frontier = [w for v in frontier for w in ball.adjacency[v] if w not in region]
        region.update(frontier)
    return {s for s, p in enumerate(pg.verts) if not region.isdisjoint(p)}


def primitive(pg: PathGraph, aps: ApartmentFamily, omega: Cochain, base: int) -> Cochain:
    """Integrate a transform-kernel cochain to f with df = omega.

    f is ``cochains.integrate`` along a breadth-first spanning forest from
    the base (and from canonical bases in other components meeting the
    support), so df = omega is verified on every edge, and a cochain
    outside the kernel is reported through the offending loop rather than
    silently integrated.  The result vanishes outside the enlarged support
    region.  ``aps`` is never read; it stays in the signature because
    perfbench's ``primitive`` case passes four positional arguments.
    """
    if omega.level != 1:
        raise ValueError("primitive applies to 1-cochains")
    pg.check_vertex(base)
    return _primitive(pg, omega, base, enlarged_support(pg, omega))


def _primitive(pg: PathGraph, omega: Cochain, base: int, enlarged: set[int]) -> Cochain:
    """``primitive`` of a 1-cochain from a valid base, given its enlarged
    support region, so that a caller which chose the base from the region
    does not compute it twice."""
    if base in enlarged:
        raise MarginError("base vertex lies inside the enlarged support region")

    comp_of = component_roots(pg)

    roots = {comp_of[base]: base}
    for a in omega.support:
        comp = comp_of[pg.tail[a]]
        if comp in roots:
            continue
        candidates = [s for s in range(pg.num_vertices)
                      if comp_of[s] == comp and s not in enlarged]
        if not candidates:
            raise MarginError(
                "a component of the support has no vertex outside the enlarged region")
        roots[comp] = min(candidates)

    forest = SpanningForest(pg, roots=[roots[comp] for comp in sorted(roots)])
    f, a = integrate(pg, omega, forest)
    if a is not None:
        # The forest loop through a has a nonzero integral.
        got, want = f(pg.head[a]) - f(pg.tail[a]), omega(a)
        loop = WalkWithSigns.from_itinerary(pg, *forest.loop(a))
        raise PathDependenceError(
            f"edge {a}: df = {got} but cochain value is {want}; "
            "the cochain is not in the transform kernel", loop)

    for s in f.support:
        if s not in enlarged:
            raise MarginError(
                f"primitive does not vanish at vertex {s} outside the enlarged region; "
                "margin too small for this support")
    return f


# -- span of characteristic functions -----------------------------------


def span_check(pgs: list[PathGraph], diameters: list[tuple[int, ...]]) -> bool:
    """Do the apartment-set characteristic functions of all edges up to the
    given levels span all functions on the oriented-diameter set?

    Edge a's row is the indicator of the diameters whose apartments pass
    through a, read off the family's edge index ``_through``.  Two sound
    certificates come before any elimination:

    - Not spanning: the rank is at most the number of rows, one per edge.
      Level 0 alone has 2(V - 1) edges against L(L - 1) diameters, fewer
      in every ball but q = 2, R = 1, where both are 6.
    - Spanning: a diameter D with n vertices is itself an edge of level
      n - 2.  When that edge's apartment list is exactly D's apartment,
      its row is D's unit vector, and when every diameter has such a row
      they span.  A leaf-to-leaf geodesic lies in no other one, so with
      every level up to 2R - 1 each diameter of the ball has its unit row.

    When neither decides, every row is eliminated exactly, deepest-first
    (``_linalg.deepest_first``), stopping at full rank.
    """
    ndiam = len(diameters)
    if sum(pg.num_edges for pg in pgs) < ndiam:
        return False
    key_to_index = {seq: i for i, seq in enumerate(diameters)}
    families: dict[PathGraph, tuple[list[list[int]], list[int]]] = {}

    def family(pg):
        """The family's edge index, and each apartment's diameter index."""
        if pg not in families:
            aps = induced_apartments(pg, diameters)
            families[pg] = aps._through, [key_to_index[ap.base] for ap in aps]
        return families[pg]

    by_level = {pg.k: pg for pg in pgs}

    def unit_row(c: int, seq: tuple[int, ...]) -> bool:
        pg = by_level.get(len(seq) - 2)
        if pg is None:
            return False
        through, index = family(pg)
        ids = through[pg.edge_index[seq]]
        return len(ids) == 1 and index[ids[0]] == c

    if all(unit_row(c, seq) for c, seq in enumerate(diameters)):
        return True
    rows = []
    for pg in pgs:
        through, index = family(pg)
        rows += [{index[i]: 1 for i in ids} for ids in through if ids]
    elim = _linalg.Eliminator()
    for i in _linalg.deepest_first(rows):
        if elim.insert(rows[i]) and elim.rank == ndiam:
            return True
    return False
