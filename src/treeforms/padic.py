"""Exact p-adic realization of the tree: lattice classes and the
projective linear action.

Vertices of the tree are homothety classes of rank-2 Z_p-lattices; the
canonical representative of a class is the column-reduced matrix
[[p^n, u], [0, 1]] with u taken modulo p^n Z_p.  Group elements are 2x2
rational matrices modulo nonzero scalars, acting by left multiplication
followed by column reduction.  Everything is exact: rationals carry
their p-adic valuations, no truncated expansions anywhere.

A number is held as an int when it is integral and as a Fraction
otherwise, in matrix entries and in the u of a class alike (an int and
an equal Fraction compare and hash alike).  The canonical form and the
fix test are computed from integer valuations: a class comes from
v_p(det g) and v_p of one entry, and a fix test clears g's denominators
and scales the conjugate by u's.  Path stabilizers modulo p^d, d the
depth of the path, are lifted one p-adic digit at a time.

Only F = Q_p for a prime p is modeled (residue cardinality q = p);
general local fields would need ring extensions and are out of scope.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .tree import BallAutomorphism, TreeBall, TreeParams, build_ball


def valuation(x, p: int):
    """v_p(x) for a rational x; None plays the role of +infinity at 0.

    p must be at least 2: p = 1 divides everything and p = 0 nothing."""
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    n, d = x.numerator, x.denominator
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact primality of n < 2^64: Miller-Rabin with the first twelve
    prime bases has no false positive below 3.3e23.  Larger n raise."""
    if n >= 2 ** 64:
        raise ValueError(f"primality of {n} >= 2^64 is not decided")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _vge(v, bound: int) -> bool:
    """valuation >= bound, with None as +infinity."""
    return v is None or v >= bound


def _exact(x) -> int | Fraction:
    """The rational x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class GroupElement:
    """2x2 rational matrix of nonzero determinant, modulo scalars; each
    entry is held as an int when integral, else as a Fraction."""

    a: int | Fraction
    b: int | Fraction
    c: int | Fraction
    d: int | Fraction

    def __post_init__(self):
        if not (type(self.a) is type(self.b) is type(self.c) is type(self.d) is int):
            for name in "abcd":
                object.__setattr__(self, name, _exact(getattr(self, name)))

    @classmethod
    def of(cls, a, b, c, d) -> "GroupElement":
        g = cls(a, b, c, d)
        if g.det == 0:
            raise ValueError("matrix is singular")
        return g

    @property
    def det(self) -> int | Fraction:
        return self.a * self.d - self.b * self.c

    @property
    def entries(self) -> tuple[int | Fraction, ...]:
        return (self.a, self.b, self.c, self.d)

    def mul(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GroupElement":
        # Projectively the adjugate is the inverse.
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def to_json_dict(self) -> list[list[str]]:
        def fmt(x: int | Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"
        return [[fmt(self.a), fmt(self.b)], [fmt(self.c), fmt(self.d)]]


IDENTITY = GroupElement(1, 0, 0, 1)


def _power(p: int, n: int) -> int | Fraction:
    """p^n, an int for n >= 0 and a Fraction below."""
    return p ** n if n >= 0 else Fraction(1, p ** -n)


def residue_mod(u, n: int, p: int) -> int | Fraction:
    """Canonical representative of u modulo p^n Z_p.

    The result is p^v * r with v = v_p(u) and r the unit part reduced
    modulo p^(n-v), an integer in [1, p^(n-v)); zero when v >= n.  For
    v >= 0 it is the int u mod p^n, in [0, p^n); for negative v it is
    the honest non-integral rational r / p^-v.
    """
    u = _exact(u)
    v = valuation(u, p)
    if v is None or v >= n:
        return 0
    k = max(0, -v)  # u = U / (D' p^k) with D' prime to p
    modulus = p ** (n + k)
    r = u.numerator * pow(u.denominator // p ** k, -1, modulus) % modulus
    return r if k == 0 else Fraction(r, p ** k)


@dataclass(frozen=True)
class LatticeClassVertex:
    """Homothety class of lattices: column-reduced form [[p^n, u], [0, 1]],
    u held as an int when integral, else as a Fraction."""

    n: int
    u: int | Fraction

    def __post_init__(self):
        if type(self.u) is not int:
            object.__setattr__(self, "u", _exact(self.u))

    def matrix(self, p: int) -> GroupElement:
        return GroupElement(_power(p, self.n), self.u, 0, 1)


ROOT = LatticeClassVertex(0, 0)


def canonicalize(g: GroupElement, p: int) -> LatticeClassVertex:
    """The unique (n, u mod p^n) of g's class, from valuations alone.

    Right multiplication by GL(2, Z_p) realizes the column operations
    (swap, and adding a Z_p-multiple of one column to the other), and
    neither they nor scalars change the class.  Swap the columns so that
    d != 0 and v_p(c) >= v_p(d); then clearing c and dividing by d gives

        [[det g / d^2, b / d], [0, 1]]   (up to the sign of det),

    so n = v_p(det g) - 2 v_p(d) and u = b / d mod p^n.
    """
    det = g.det
    if det == 0:
        raise ValueError("matrix is singular")
    a, b, c, d = g.entries
    if d == 0 or (c != 0 and valuation(c, p) < valuation(d, p)):
        b, d = a, c
    n = valuation(det, p) - 2 * valuation(d, p)
    return LatticeClassVertex(n, residue_mod(Fraction(b, d), n, p))


def act(g: GroupElement, v: LatticeClassVertex, p: int) -> LatticeClassVertex:
    """Left action on lattice classes: canonicalize(g . matrix(v))."""
    return canonicalize(g.mul(v.matrix(p)), p)


def tree_distance(v: LatticeClassVertex, w: LatticeClassVertex, p: int) -> int:
    """|e1 - e2| for the elementary-divisor valuations e1 <= e2 of the
    relative position matrix(v)^-1 matrix(w), in closed form.

    With v = [[p^n1, u1], [0, 1]] and w = [[p^n2, u2], [0, 1]],

        matrix(v)^-1 matrix(w) = [[p^dn, (u2 - u1) / p^n1], [0, 1]],
        dn = n2 - n1.

    Its determinant has valuation e1 + e2 = dn, and e1 is the least
    entry valuation, min(dn, 0, v_p(u2 - u1) - n1), where the last term
    is absent when u1 = u2 (a zero entry).  So the distance is
    |dn - 2 e1|, from one subtraction and one valuation.
    """
    dn = w.n - v.n
    e1 = min(dn, 0)
    if v.u != w.u:
        e1 = min(e1, valuation(w.u - v.u, p) - v.n)
    return abs(dn - 2 * e1)


def lattice_neighbors(v: LatticeClassVertex, p: int) -> list[LatticeClassVertex]:
    """The p+1 classes at distance 1: p sublattices of index p and one
    superlattice."""
    pn = _power(p, v.n)
    down = [LatticeClassVertex(v.n + 1, residue_mod(v.u + t * pn, v.n + 1, p))
            for t in range(p)]
    up = LatticeClassVertex(v.n - 1, residue_mod(v.u, v.n - 1, p))
    return down + [up]


class BallEmbedding:
    """Distance-preserving bijection between an abstract ball and the set
    of lattice classes at distance <= R from the standard class."""

    def __init__(self, p: int, radius: int):
        self.p = p
        self.ball: TreeBall = build_ball(TreeParams(q=p, radius=radius))
        to_lattice: list[LatticeClassVertex | None] = [None] * self.ball.num_vertices
        to_lattice[0] = ROOT
        seen = {ROOT}
        for v, children in enumerate(self.ball.children):
            if not children:
                continue
            lv = to_lattice[v]
            fresh = sorted((x for x in lattice_neighbors(lv, p) if x not in seen),
                           key=lambda x: (x.n, x.u))
            if len(children) != len(fresh):
                raise RuntimeError("lattice neighbor enumeration does not match the ball")
            for w, lw in zip(children, fresh):
                to_lattice[w] = lw
                seen.add(lw)
        self.to_lattice: list[LatticeClassVertex] = to_lattice
        self.from_lattice = {lv: v for v, lv in enumerate(to_lattice)}

    def automorphism_from(self, g: GroupElement) -> BallAutomorphism:
        """The ball permutation induced by a group element that maps the
        ball onto itself (e.g. any element fixing the root class)."""
        perm = []
        for lv in self.to_lattice:
            image = act(g, lv, self.p)
            if image not in self.from_lattice:
                raise ValueError("group element does not preserve the ball window")
            perm.append(self.from_lattice[image])
        return BallAutomorphism(self.ball, perm)


def embed_ball(p: int, radius: int) -> BallEmbedding:
    return BallEmbedding(p, radius)


def in_gamma0(g: GroupElement, n: int, p: int) -> bool:
    """Membership in the congruence subgroup with lower-left entries in
    p^n (diagonal entries units, upper-right integral), up to scalars;
    n = 0 means the maximal compact subgroup, image of GL(2, Z_p)."""
    if n < 0:
        raise ValueError("congruence level must be >= 0")
    if n == 0:
        return _fixes_all(g, (ROOT,), p)
    va, vb, vc, vd = (valuation(x, p) for x in g.entries)
    if va is None or vd is None or va != vd:
        return False
    m = va
    return _vge(vb, m) and _vge(vc, m + n)


def standard_path(emb: BallEmbedding, n: int) -> tuple[int, ...]:
    """The (n+1)-path from the root along the diagonal-torus apartment
    whose pointwise stabilizer is the level-(n+1) congruence subgroup.

    Returns ball vertex ids for the lattice classes diag(1, p^j),
    j = 0..n+1; usable as the distinguished edge of the level-n path
    graph over the embedded ball.
    """
    if emb.ball.params.radius < n + 1:
        raise ValueError(f"ball radius {emb.ball.params.radius} too small for level {n}")
    path = []
    for j in range(n + 2):
        lv = LatticeClassVertex(-j, 0)
        path.append(emb.from_lattice[lv])
    return tuple(path)


def fixes_vertex(g: GroupElement, lv: LatticeClassVertex, p: int) -> bool:
    """act(g, lv, p) == lv, without column reduction, in integers.

    With M = matrix(lv) = [[p^n, u], [0, 1]], g fixes the class [M]
    exactly when M^-1 g M lies in Q_p^* GL(2, Z_p), the level-0
    congruence subgroup.  For g = [[a, b], [c, d]],

        M^-1 g M = [[a - c u, (b + (a - d) u - c u^2) / p^n],
                    [c p^n,   c u + d]],

    whose determinant is det g; so the test is
    v_p(det g) == 2 min(v(a - cu), v(b + (a-d)u - cu^2) - n, v(c) + n,
    v(cu + d)), over the nonzero entries.  Both sides are taken after
    clearing g's denominators (``_fixes_all``).
    """
    return _fixes_all(g, (lv,), p)


def fixes_path_pointwise(g: GroupElement, emb: BallEmbedding, path: tuple[int, ...]) -> bool:
    """Every vertex of the path is fixed by g; v_p(det g) is taken once."""
    return _fixes_all(g, [emb.to_lattice[v] for v in path], emb.p)


def _fixes_all(g: GroupElement, classes, p: int) -> bool:
    """g fixes every class, by the valuation test of ``fixes_vertex``.

    g is first scaled by the lcm of its entries' denominators.  That is
    the same element of PGL(2), and it moves v_p(det) and twice the least
    conjugate valuation by the same 2 v_p(lcm), so the test is unchanged
    while every entry is an int.
    """
    a, b, c, d = g.entries
    den = lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    if den != 1:
        a, b, c, d = (x.numerator * (den // x.denominator) for x in g.entries)
    vdet = valuation(a * d - b * c, p)
    return all(vdet == 2 * _conjugate_min_valuation(a, b, c, d, lv, p) for lv in classes)


def _conjugate_min_valuation(a: int, b: int, c: int, d: int,
                             lv: LatticeClassVertex, p: int) -> int:
    """The least entry valuation of matrix(lv)^-1 g matrix(lv), for the
    integer matrix g = [[a, b], [c, d]].

    With u = U / D, the entries a - cu, b + (a - d)u - cu^2 and cu + d
    times D, D^2 and D are the integers below; their valuations less
    v_p(D), 2 v_p(D) and v_p(D) are those of the entries.
    """
    U, D = lv.u.numerator, lv.u.denominator
    n = lv.n
    k = valuation(D, p)
    cU = c * U
    least = None
    for x, shift in ((a * D - cU, -k), ((b * D + (a - d) * U) * D - cU * U, -2 * k - n),
                     (c, n), (cU + d * D, -k)):
        if x:
            v = valuation(x, p) + shift
            if least is None or v < least:
                least = v
    return least


def sample_gamma0(p: int, n: int, modulus_exp: int, count: int, seed: int) -> list[GroupElement]:
    """Seeded sample of congruence-subgroup elements with entries reduced
    modulo p^modulus_exp; lower-left valuations are >= n by construction.

    At level 0 the subgroup is the full maximal compact, so the sample is
    any integral matrix with unit determinant.
    """
    _check_level(n, modulus_exp)
    rng = random.Random(seed)
    pm = p ** modulus_exp
    out = []
    while len(out) < count:
        a = rng.randrange(pm)
        d = rng.randrange(pm)
        b = rng.randrange(pm)
        if n == 0:
            c = rng.randrange(pm)
            if (a * d - b * c) % p == 0:
                continue
        else:
            if a % p == 0 or d % p == 0:
                continue
            c = (p ** n) * rng.randrange(p ** (modulus_exp - n))
        if a * d - b * c == 0:
            continue
        out.append(GroupElement.of(a, b, c, d))
    return out


def sample_with_exact_lower_valuation(p: int, n: int, modulus_exp: int,
                                      count: int, seed: int) -> list[GroupElement]:
    """Elements of the level-n subgroup whose lower-left valuation is
    exactly n (so they sit outside level n+1)."""
    _check_level(n, modulus_exp)
    rng = random.Random(seed)
    pm = p ** modulus_exp
    out = []
    while len(out) < count:
        a = rng.randrange(1, pm)
        d = rng.randrange(1, pm)
        if a % p == 0 or d % p == 0:
            continue
        b = rng.randrange(pm)
        unit = rng.randrange(1, p ** (modulus_exp - n))
        if unit % p == 0:
            continue
        c = (p ** n) * unit
        if (a * d - b * c) % p == 0:
            continue
        out.append(GroupElement.of(a, b, c, d))
    return out


def _check_level(n: int, modulus_exp: int) -> None:
    """The samplers need a congruence level 0 <= n < modulus_exp."""
    if not 0 <= n < modulus_exp:
        raise ValueError(f"congruence level n = {n} must satisfy "
                         f"0 <= n < modulus exponent {modulus_exp}")


def enumerate_unit_lifts(p: int, modulus_exp: int) -> list[GroupElement]:
    """Integer lifts of GL(2, Z/p^m): one representative per residue class
    with unit determinant, entries in [0, p^m).  All lie in GL(2, Z_p), so
    each fixes the root class and induces an automorphism of any embedded
    ball."""
    return [GroupElement(a, b, c, d)
            for a, b, c, d in itertools.product(range(p ** modulus_exp), repeat=4)
            if (a * d - b * c) % p != 0]


@dataclass(frozen=True)
class TransitivityResult:
    covered: bool
    conclusive: bool
    orbit_size: int
    target_size: int
    stabilizer_size: int


def stabilizer_transitivity_check(emb: BallEmbedding, pg, s: int, side: str,
                                  modulus_exp: int) -> TransitivityResult:
    """Does the pointwise path stabilizer act transitively on the edge
    extensions of a path-graph vertex?

    Takes the unit lifts modulo p^modulus_exp that fix the k-path s
    pointwise, and checks whether the orbit of one extension covers the
    whole side.  Coverage is a positive certificate; a miss only means
    the sampling window was too small, reported as inconclusive rather
    than false.

    Two lifts that agree modulo p^j differ by an element of the principal
    congruence subgroup K(p^j) = 1 + p^j M_2(Z_p), which fixes the
    radius-j ball about the root class pointwise (Serre, *Trees*, II.1).
    So the stabilizer is found modulo p^d, d the depth of the path (see
    ``_path_stabilizer``), and ``stabilizer_size`` is that count times
    p^(4(m-d)), the order of the kernel of GL(2, Z/p^m) -> GL(2, Z/p^d).
    The base extension's new vertex is adjacent to an end of the path, so
    where a lift sends it is decided at most one digit deeper; that digit
    is lifted inside the orbit loop, which stops once every target is
    covered.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    pg.check_vertex(s)
    if modulus_exp < 1:
        raise ValueError(f"modulus exponent must be >= 1, got {modulus_exp}")
    targets = pg.edges_into[s] if side == "+" else pg.edges_out_of[s]
    if len(targets) <= 1:
        return TransitivityResult(True, True, len(targets), len(targets), 0)
    p, path = emb.p, pg.verts[s]
    stabilizer, size = _path_stabilizer(emb, path, modulus_exp)
    # Every stabilizer element fixes the path (and the root class, so it
    # preserves the ball), so it maps an edge at s on this side to another
    # one: the orbit is a subset of the targets, and only the base edge's
    # vertex off the path needs to be moved.  An edge into s starts with
    # that vertex, an edge out of s ends with it.
    w = pg.edges[targets[0]][0 if side == "+" else -1]
    d = _digits(emb, path, modulus_exp)
    if _digits(emb, (w,), modulus_exp) > d:
        stabilizer = _lifts(stabilizer, d, p)
    orbit = set()
    for g in stabilizer:
        v = emb.from_lattice[act(g, emb.to_lattice[w], p)]
        orbit.add(pg.edge_index[(v,) + path if side == "+" else path + (v,)])
        if len(orbit) == len(targets):
            break
    covered = set(targets) <= orbit
    return TransitivityResult(covered, covered, len(orbit), len(targets), size)


def _digits(emb: BallEmbedding, vertices: tuple[int, ...], modulus_exp: int) -> int:
    """The number of p-adic digits that decide how a unit lift modulo
    p^m acts on the given ball vertices: their largest root distance,
    capped at m and floored at 1 (the order
    |GL(2, Z/p^m)| = p^(4(m-1)) (p^2 - 1)(p^2 - p) needs m >= 1)."""
    return min(modulus_exp, max(1, *(emb.ball.depths[v] for v in vertices)))


def _lifts(residues, j: int, p: int):
    """Every lift g + p^j X, X in [0, p)^4, of each residue g modulo p^j,
    one at a time."""
    step = range(0, p ** (j + 1), p ** j)
    for g in residues:
        for x, y, z, w in itertools.product(step, repeat=4):
            yield GroupElement(g.a + x, g.b + y, g.c + z, g.d + w)


def _path_stabilizer(emb: BallEmbedding, path: tuple[int, ...],
                     modulus_exp: int) -> tuple[list[GroupElement], int]:
    """The pointwise stabilizer of a path of ball vertices among the unit
    lifts modulo p^m, m = modulus_exp: its residues modulo p^d, and its
    size.

    d is the largest root distance of a path vertex, capped at m and
    floored at 1 (``_digits``).  K(p^d) fixes every path vertex at depth
    <= d, so each residue modulo p^d that fixes the path stands for the
    p^(4(m-d)) lifts modulo p^m above it; no path vertex is due past d.

    The residues are found one p-adic digit at a time: first those
    modulo p that fix the path's vertices at depth <= 1, then, for
    j = 2..d, the lifts of the survivors that fix the path's vertices at
    depth j.  Whether a residue modulo p^j fixes a vertex at depth <= j
    does not depend on its lift, since K(p^j) fixes the radius-j ball; so
    every lift of a survivor still fixes the shallower vertices, and
    every residue modulo p^d that fixes the path reduces to a survivor at
    each digit.  Path vertices deeper than d (d capped at m) are tested
    at the last digit, on the representatives in [0, p^d), as a full
    enumeration modulo p^d would.
    """
    p, depths = emb.p, emb.ball.depths
    d = _digits(emb, path, modulus_exp)
    due: list[list[LatticeClassVertex]] = [[] for _ in range(d + 1)]
    for v in path:
        due[min(d, max(1, depths[v]))].append(emb.to_lattice[v])
    residues = [g for g in enumerate_unit_lifts(p, 1) if _fixes_all(g, due[1], p)]
    for j in range(2, d + 1):
        residues = [g for g in _lifts(residues, j - 1, p)
                    if not due[j] or _fixes_all(g, due[j], p)]
    return residues, len(residues) * p ** (4 * (modulus_exp - d))
