"""Reference model of the treeforms objects, built from their definitions.

Standard library only, and nothing from ``treeforms``: every value here is
computed the slow, obvious way, so that the tests compare the library with
the definitions and not with an earlier version of itself.

- The ball: vertex ids from addresses, distances and geodesics by
  breadth-first search, meets and hulls from geodesics.
- Path graphs: k-paths as all injective walks, in lexicographic order,
  with head and tail taken by dropping an end; components by
  breadth-first search.
- Cochains as ``{id: Fraction}`` maps: d, d*, the pairing, path integrals
  and the transform R, with keys in the order the library documents
  (first reached from the input's support).
- Exact linear algebra by plain Gauss-Jordan over ``Fraction``.
- Apartments as the geodesic windows of ordered pairs of equidistant
  vertices, interior margins from the breadth-first distance to the leaves,
  the interior exactness question by ranks, and the span of apartment
  characteristic functions by a rank.
- Lattice classes by column reduction of 2 x 2 matrices, the action by the
  matrix product, distances by walking the superlattice rays, and the
  pointwise stabilizers and sampled sets of the congruence subgroups by
  enumeration.

A change of route in the library is checked against this model; the route
it replaces is not kept as another oracle.
"""

import functools
import itertools
from collections import deque
from fractions import Fraction

# -- the ball -------------------------------------------------------------


class Ball:
    """The radius-R ball of the (q+1)-homogeneous tree.

    A vertex is an address, the branch labels of its path from the root
    (the first in 0..q, every later one in 0..q-1), and the ids number the
    addresses by (length, address).  Neighbours differ by one label at the
    end.
    """

    def __init__(self, q, radius):
        self.q, self.radius = q, radius
        addresses = [()]
        for length in range(1, radius + 1):
            addresses += [(first,) + rest for first in range(q + 1)
                          for rest in itertools.product(range(q), repeat=length - 1)]
        addresses.sort(key=lambda a: (len(a), a))
        self.addresses = addresses
        self.index = {a: i for i, a in enumerate(addresses)}
        self.depths = [len(a) for a in addresses]
        self.num_vertices = len(addresses)
        self.edges = sorted((self.index[a[:-1]], i) for i, a in enumerate(addresses) if a)
        adjacency = [[] for _ in addresses]
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        self.adjacency = [sorted(ws) for ws in adjacency]
        self.leaves = [v for v, d in enumerate(self.depths) if d == radius]

    @functools.cached_property
    def distances(self):
        """All-pairs distances, one breadth-first search per vertex."""
        return [bfs(self.adjacency, [v])[0] for v in range(self.num_vertices)]

    @functools.cache
    def toward(self, v):
        """For each vertex, its neighbour one step closer to v (None at v),
        from one breadth-first search from v."""
        return bfs(self.adjacency, [v])[1]


@functools.cache
def ball(q, radius):
    return Ball(q, radius)


def bfs(adjacency, sources):
    """Breadth-first search of an undirected graph given by neighbour lists:
    (distance from the nearest source, the vertex it was reached from) for
    every vertex, None where they do not apply."""
    dist, pred = [None] * len(adjacency), [None] * len(adjacency)
    queue = deque(sources)
    for s in sources:
        dist[s] = 0
    while queue:
        x = queue.popleft()
        for y in adjacency[x]:
            if dist[y] is None:
                dist[y], pred[y] = dist[x] + 1, x
                queue.append(y)
    return dist, pred


def geodesic(b, u, v):
    """The vertices of the shortest path from u to v: from u, always step
    to the neighbour one closer to v."""
    step = b.toward(v)
    path = [u]
    while path[-1] != v:
        path.append(step[path[-1]])
    return tuple(path)


def meet(b, u, v):
    """The vertex of the geodesic from u to v closest to the root."""
    return min(geodesic(b, u, v), key=b.depths.__getitem__)


def hull(b, vertices):
    """The smallest subtree holding the vertices: the union of the
    geodesics between every two of them.  No vertex has no hull."""
    if not vertices:
        raise ValueError("the hull of no vertex")
    return {x for u in vertices for v in vertices for x in geodesic(b, u, v)}


@functools.cache
def diameters(b, depth=None):
    """The geodesics between ordered pairs of distinct vertices at the given
    depth (default: the radius, so leaf to leaf), in (from, to) id order."""
    depth = b.radius if depth is None else depth
    ends = [v for v, d in enumerate(b.depths) if d == depth]
    return [geodesic(b, u, v) for u in ends for v in ends if u != v]


def is_automorphism(b, perm):
    """Whether perm permutes the vertex ids and maps the edge set onto itself."""
    edges = {frozenset(e) for e in b.edges}
    return (sorted(perm) == list(range(b.num_vertices))
            and {frozenset((perm[u], perm[v])) for u, v in b.edges} == edges)


# -- path graphs ----------------------------------------------------------


def paths(b, n):
    """Every injective walk through n vertices of the ball, in
    lexicographic order of the id sequences."""
    out = []

    def grow(path):
        if len(path) == n:
            out.append(path)
            return
        for w in b.adjacency[path[-1]]:
            if w not in path:
                grow(path + (w,))

    for v in range(b.num_vertices):
        grow((v,))
    return out


class Graph:
    """The level-k path graph: the k-paths are its vertices and the
    (k+1)-paths its edges, each directed from its tail (the edge without its
    last tree vertex) to its head (without its first)."""

    def __init__(self, b, k):
        self.ball, self.k = b, k
        self.verts, self.edges = paths(b, k + 1), paths(b, k + 2)
        self.vert_index = {p: s for s, p in enumerate(self.verts)}
        self.edge_index = {e: a for a, e in enumerate(self.edges)}
        self.head = [self.vert_index[e[1:]] for e in self.edges]
        self.tail = [self.vert_index[e[:-1]] for e in self.edges]
        self.into = [[] for _ in self.verts]
        self.out_of = [[] for _ in self.verts]
        adjacency = [set() for _ in self.verts]
        for a, (h, t) in enumerate(zip(self.head, self.tail)):
            self.into[h].append(a)
            self.out_of[t].append(a)
            adjacency[h].add(t)
            adjacency[t].add(h)
        self.adjacency = [sorted(x) for x in adjacency]
        self.num_vertices, self.num_edges = len(self.verts), len(self.edges)


@functools.cache
def graph(q, radius, k):
    return Graph(ball(q, radius), k)


def components(g, edge_ids=None):
    """For each vertex, the smallest vertex of its connected component in
    the subgraph spanned by the given edges (default: all)."""
    adjacency = g.adjacency
    if edge_ids is not None:
        adjacency = [[] for _ in range(g.num_vertices)]
        for a in edge_ids:
            adjacency[g.head[a]].append(g.tail[a])
            adjacency[g.tail[a]].append(g.head[a])
    root = [None] * g.num_vertices
    for s in range(g.num_vertices):
        if root[s] is None:
            for t, d in enumerate(bfs(adjacency, [s])[0]):
                if d is not None:
                    root[t] = s
    return root


def act_on_paths(g, perm):
    """(vertex map, edge map) of a ball automorphism, applied to every tree
    vertex of each path."""
    return ([g.vert_index[tuple(perm[v] for v in p)] for p in g.verts],
            [g.edge_index[tuple(perm[v] for v in e)] for e in g.edges])


# -- cochains -------------------------------------------------------------


def d_rows(g):
    """The rows of d, one per edge: +1 at its head and -1 at its tail."""
    return [{h: 1, t: -1} for h, t in zip(g.head, g.tail)]


def dstar_rows(g):
    """The rows of d*, one per vertex: +1 on the edges into it and -1 on
    the edges out of it."""
    return [{**{a: 1 for a in g.into[s]}, **{a: -1 for a in g.out_of[s]}}
            for s in range(g.num_vertices)]


def _first_reached(support, incident, value):
    """{x: value(x)} over the ids incident to the support, in the order
    first reached, with the zeros dropped."""
    out = {}
    for i in support:
        for x in incident(i):
            if x not in out:
                out[x] = value(x)
    return {x: v for x, v in out.items() if v}


def _at(c, i):
    return Fraction(c.get(i, 0))


def coboundary(g, f):
    """df(a) = f(head a) - f(tail a)."""
    return _first_reached(f, lambda s: g.into[s] + g.out_of[s],
                          lambda a: _at(f, g.head[a]) - _at(f, g.tail[a]))


def adjoint(g, w):
    """d*w(s) = the sum of w over the edges into s less the sum over the
    edges out of s."""
    return _first_reached(w, lambda a: (g.head[a], g.tail[a]),
                          lambda s: (sum((_at(w, a) for a in g.into[s]), Fraction(0))
                                     - sum((_at(w, a) for a in g.out_of[s]), Fraction(0))))


def pairing(x, y):
    return sum((_at(x, i) * _at(y, i) for i in x), Fraction(0))


def path_integral(w, edges, signs):
    return sum((sign * _at(w, a) for a, sign in zip(edges, signs)), Fraction(0))


# -- exact linear algebra -------------------------------------------------


def _axpy(row, c, other):
    """row += c * other, in place, dropping the zeros."""
    for j, x in other.items():
        row[j] = row.get(j, 0) + c * x
        if not row[j]:
            del row[j]


def echelon(rows):
    """Row echelon form by Gaussian elimination: {pivot column: row}, in
    the order the rows first raise the rank.  Each row is reduced by the
    pivot row at its smallest column while there is one, then scaled to 1
    at that column, its pivot."""
    pivots = {}
    for row in rows:
        row = {j: Fraction(x) for j, x in row.items() if x}
        while row and min(row) in pivots:
            j = min(row)
            _axpy(row, -row[j], pivots[j])
        if row:
            lead = min(row)
            pivots[lead] = {j: x / row[lead] for j, x in row.items()}
    return pivots


def rref(rows):
    """Reduced row echelon form by Gauss-Jordan: the echelon rows, with
    each pivot column cleared from every other row, the last pivot first
    (so a row subtracted holds no later pivot column)."""
    pivots = echelon(rows)
    for lead in sorted(pivots, reverse=True):
        for j, row in pivots.items():
            if j != lead and lead in row:
                _axpy(row, -row[lead], pivots[lead])
    return pivots


def rank(rows):
    return len(echelon(rows))


def nullspace(rows, ncols):
    """One basis vector per free column f, in increasing f: 1 at f and,
    at each pivot column (in rref's order), minus that row's entry at f."""
    pivots = rref(rows)
    return [{f: Fraction(1), **{j: -row[f] for j, row in pivots.items() if f in row}}
            for f in range(ncols) if f not in pivots]


def solve(rows, rhs, ncols):
    """The solution of rows . x = rhs with every free variable 0, keyed in
    increasing column order, or None when the system is inconsistent."""
    pivots = rref({**row, ncols: -Fraction(b)} for row, b in zip(rows, rhs))
    if ncols in pivots:
        return None
    return {j: -pivots[j][ncols] for j in sorted(pivots) if ncols in pivots[j]}


# -- apartments, interiors and the transform ------------------------------


def windows(g, seq):
    """The level-k edges of a vertex sequence: its windows of k + 2 vertices,
    in order (a KeyError when one is not a path of the ball)."""
    width = g.k + 2
    return tuple(g.edge_index[seq[i:i + width]] for i in range(len(seq) - width + 1))


def apartments(g, seqs):
    """(id, sequence, windows) for each sequence long enough to carry a
    window, ids in input order."""
    out = []
    for seq in seqs:
        if len(seq) >= g.k + 2:
            out.append((len(out), seq, windows(g, seq)))
    return out


@functools.cache
def family(g, margin=0):
    """The apartments of the geodesics between distinct vertices at depth
    R - margin (none at margin >= R); at margin 0, every ordered leaf pair
    whose geodesic carries a window."""
    depth = g.ball.radius - margin
    return tuple(apartments(g, diameters(g.ball, depth) if depth > 0 else []))


def through(aps, num_edges):
    """For each edge, the ids of the apartments whose windows hold it."""
    out = [[] for _ in range(num_edges)]
    for i, _, edges in aps:
        for a in edges:
            out[a].append(i)
    return out


def transform(g, aps, w):
    """R(w): each apartment's sum of w over its windows, keys in the order
    the support first reaches the apartments."""
    by_edge = through(aps, g.num_edges)
    edges = {i: es for i, _, es in aps}
    return _first_reached(w, by_edge.__getitem__,
                          lambda i: sum((_at(w, a) for a in edges[i]), Fraction(0)))


def leaf_distance(b):
    return bfs(b.adjacency, b.leaves)[0]


def interior_edges(g, margin):
    """Edges whose every tree vertex lies at distance >= margin from the leaves."""
    near = leaf_distance(g.ball)
    return [a for a, e in enumerate(g.edges) if min(near[v] for v in e) >= margin]


def interior_vertices(g, margin):
    """Vertices whose every tree vertex lies at distance >= margin + 1 from
    the leaves."""
    near = leaf_distance(g.ball)
    return [s for s, p in enumerate(g.verts) if min(near[v] for v in p) >= margin + 1]


def kernel_rows(aps, interior):
    """The distinct nonzero rows of R on the interior columns, in first
    occurrence order: each apartment's count of each interior column, keyed
    in window order."""
    col = {a: j for j, a in enumerate(interior)}
    rows, seen = [], set()
    for _, _, edges in aps:
        row = {}
        for a in edges:
            if a in col:
                row[col[a]] = row.get(col[a], 0) + 1
        if row and frozenset(row.items()) not in seen:
            seen.add(frozenset(row.items()))
            rows.append(row)
    return rows


@functools.cache
def interior_kernel(g, aps, margin):
    """The nullspace basis of the kernel rows of a family (a tuple of
    apartments) on the interior columns, each vector keyed by edge id."""
    interior = interior_edges(g, margin)
    return [{interior[j]: x for j, x in vec.items()}
            for vec in nullspace(kernel_rows(aps, interior), len(interior))]


def exactness(g, aps, margin):
    """(dim K, dim im d, K = im d) for K the interior-supported kernel of R
    and im d the span of the d1_s of the interior vertices s: the spaces
    are equal when K, im d and their sum have one dimension."""
    kernel = interior_kernel(g, tuple(aps), margin)
    image = [coboundary(g, {s: 1}) for s in interior_vertices(g, margin)]
    image_dim = rank(image)
    return len(kernel), image_dim, len(kernel) == image_dim == rank(kernel + image)


def spans(graphs, seqs):
    """Whether the characteristic functions of the edges of the given
    levels (edge a's: 1 at each sequence whose windows hold a) span all
    functions on the sequences.  Deeper levels are taken first, where rows
    are short; the rank does not depend on the order."""
    rows = []
    for g in sorted(graphs, key=lambda g: -g.k):
        by_edge = [{} for _ in range(g.num_edges)]
        for c, seq in enumerate(seqs):
            if len(seq) >= g.k + 2:
                for a in windows(g, seq):
                    by_edge[a][c] = 1
        rows += [row for row in by_edge if row]
    return rank(rows) == len(seqs)


def enlarged_support(g, w):
    """The path-graph vertices meeting the ball X(t, delta) of a center t of
    the hull of w's edges, delta its eccentricity there (the smallest id
    among the centres)."""
    if not w:
        return set()
    b = g.ball
    support = hull(b, {v for a in w for v in g.edges[a]})
    ecc = {t: max(b.distances[t][v] for v in support) for t in sorted(support)}
    center = min(ecc, key=ecc.get)
    region = {v for v, d in enumerate(b.distances[center]) if d <= ecc[center]}
    return {s for s, p in enumerate(g.verts) if region.intersection(p)}


# -- p-adic lattice classes -----------------------------------------------


def _ratio(x, y):
    return Fraction(x, y) if type(x) is int and type(y) is int else Fraction(x) / y


def valuation(x, p):
    """v_p of a rational, None at 0."""
    if not x:
        return None
    if type(x) is not int:
        x = Fraction(x)
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def residue(u, n, p):
    """The representative of u modulo p^n Z_p in [0, p^n) of the form
    x / p^k, x an integer and k = max(0, -v_p(u)): 0 when v_p(u) >= n,
    else x = u p^k modulo p^(n + k), u p^k being p-integral.  An int when
    k = 0, else a Fraction."""
    v = valuation(u, p)
    if v is None or v >= n:
        return 0
    k = max(0, -v)
    modulus = p ** (n + k)
    scaled = Fraction(u) * p ** k
    x = scaled.numerator * pow(scaled.denominator, -1, modulus) % modulus
    return x if k == 0 else Fraction(x, p ** k)


def lattice_class(m, p):
    """(n, u) of the class of the lattice spanned by the columns of the
    rational matrix m = (a, b, c, d), by column operations over Z_p and a
    scalar: put the column whose lower entry has the least valuation
    second, clear the first column's lower entry with it, divide by that
    lower entry, and reduce u modulo p^n."""
    a, b, c, d = m
    if not a * d - b * c:
        raise ValueError("singular")
    if not d or (c and valuation(c, p) < valuation(d, p)):
        a, b, c, d = b, a, d, c
    # The first column less c / d times the second is (det / d, 0).
    n = valuation(a * d - b * c, p) - 2 * valuation(d, p)
    return n, residue(_ratio(b, d), n, p)


def class_matrix(cls, p):
    """[[p^n, u], [0, 1]] times the scalar that makes its entries integers."""
    n, u = cls
    u = Fraction(u)
    P, Q, U, D = p ** max(n, 0), p ** max(-n, 0), u.numerator, u.denominator
    return P * D, U * Q, 0, D * Q


def product(g, h):
    a, b, c, d = g
    e, f, x, y = h
    return a * e + b * x, a * f + b * y, c * e + d * x, c * f + d * y


def act(g, cls, p):
    """The class of g times the matrix of cls."""
    return lattice_class(product(g, class_matrix(cls, p)), p)


@functools.cache
def canonical(cls, p):
    n, u = cls
    return n, residue(u, n, p)


def fixes(g, cls, p):
    """Whether g maps the class to itself (False for a singular g)."""
    a, b, c, d = g
    return bool(a * d - b * c) and act(g, cls, p) == canonical(cls, p)


def neighbours(cls, p):
    """The classes of the index-p sublattices of the class's matrix M,
    M [[p, t], [0, 1]] for t = 0..p-1, then its index-p superlattice's,
    M [[1, 0], [0, p]] over p."""
    m = class_matrix(cls, p)
    return ([lattice_class(product(m, (p, t, 0, 1)), p) for t in range(p)]
            + [lattice_class(product(m, (1, 0, 0, p)), p)])


def lattice_distance(v, w, p):
    """Steps from v and from w up their superlattice rays (the last of
    ``neighbours``) until the two walks meet.  Both rays run toward one end
    of the tree, so they meet and then coincide, and the steps to the
    meeting class are the geodesic's length.  (A breadth-first search over
    all p + 1 neighbours grows as p^d, too fast for the distances drawn.)"""
    v, w = canonical(v, p), canonical(w, p)
    steps = 0
    while v != w:
        if v[0] >= w[0]:
            v = neighbours(v, p)[-1]
        else:
            w = neighbours(w, p)[-1]
        steps += 1
    return steps


def in_gamma0(g, n, p):
    """Whether some scalar multiple of g lies in GL(2, Z_p) with its
    lower-left entry in p^n Z_p: scale by p^-e, e the least entry
    valuation, and test v_p(det) = 0 and v_p(c) >= n + e."""
    a, b, c, d = (Fraction(x) for x in g)
    if not a * d - b * c:
        return False
    e = min(valuation(x, p) for x in g if x)
    vc = valuation(c, p)
    return valuation(a * d - b * c, p) == 2 * e and (vc is None or vc - e >= n)


def unit_lifts(p, m):
    """The integer matrices with entries in [0, p^m) and a unit
    determinant modulo p, in (a, b, c, d) product order."""
    return [g for g in itertools.product(range(p ** m), repeat=4)
            if (g[0] * g[3] - g[1] * g[2]) % p]


def in_sampled_set(p, n, m, exact, a, b, c, d):
    """Membership in the set the congruence samplers draw from: entries in
    [0, p^m), c divisible by p^n, a unit determinant modulo p, a and d
    units at level n >= 1, and for the movers (``exact``) c / p^n a unit."""
    pm, pn = p ** m, p ** n
    if not (0 <= a < pm and 0 <= b < pm and 0 <= c < pm and 0 <= d < pm) or c % pn:
        return False
    if not (a * d - b * c) % p:
        return False
    if exact:
        return bool(a % p and d % p and (c // pn) % p)
    return n == 0 or bool(a % p and d % p)
