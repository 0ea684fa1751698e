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
an equal Fraction compare and hash alike).  Valuations are taken of
ints, by one kernel (``_int_valuation``: a bit trick at p = 2, a divide
loop at odd p), from numerators and denominators, so the canonical
form, residues and distances build no Fraction difference; the fix test
is parity and divisibility on the integer conjugate (``_fixes_all``).
Path stabilizers modulo p^d, d the depth of the path, are lifted one
p-adic digit at a time.

The hot paths read ints only.  A class keeps its integer form (n, U, D),
u = U / D, computed once on first use (``LatticeClassVertex.int_form``),
which the distance, the fix test and the action read; v_p(D) is taken
only when D != 1.  The embedding's neighbour enumeration reads u
directly, so building a ball computes no form.  ``act`` multiplies g, scaled to int
entries, by the class matrix scaled to ints and column-reduces the
product in ints, with no GroupElement built.  The samplers and the lift
enumerations build their int-entry elements through ``_element``, which
skips the dataclass __init__ and __post_init__.

Only F = Q_p for a prime p is modeled (residue cardinality q = p);
general local fields would need ring extensions and are out of scope.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .tree import BallAutomorphism, TreeBall, TreeParams, build_ball


def _int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero int n; p < 2 is refused (1 would loop, 0 divide by 0)."""
    if p == 2:
        return (n & -n).bit_length() - 1
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    v = 0
    while not n % p:
        n //= p
        v += 1
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

    def to_json_dict(self) -> list[list[str]]:
        s = [f"{x.numerator}/{x.denominator}" for x in self.entries]
        return [s[:2], s[2:]]


def _element(a: int, b: int, c: int, d: int) -> GroupElement:
    """GroupElement(a, b, c, d) for int entries, built without the
    dataclass __init__ and __post_init__: the entries are stored as given,
    with one write of the instance dict, and the element stays frozen."""
    g = object.__new__(GroupElement)
    object.__setattr__(g, "__dict__", {"a": a, "b": b, "c": c, "d": d})
    return g


def _residue(U: int, D: int, n: int, p: int) -> int | Fraction:
    """Canonical representative of U / D modulo p^n Z_p, for ints U and
    D != 0, not necessarily coprime: an int in [0, p^n) when U / D is
    p-integral.  With D = D' p^k, D' prime to p, (U D'^-1 mod p^(n+k)) / p^k
    is in [0, p^n) and congruent to U / D modulo p^n Z_p, which meets
    Z[1/p] in p^n Z; so it is the one representative."""
    k = _int_valuation(D, p)  # first, so that p < 2 is refused at D = 1 too
    if D == 1:
        return U % p ** n if n > 0 else 0
    if not U or _int_valuation(U, p) - k >= n:
        return 0
    modulus = p ** (n + k)
    r = U * pow(D // p ** k, -1, modulus) % modulus
    return r if k == 0 else _exact(Fraction(r, p ** k))


@dataclass(frozen=True)
class LatticeClassVertex:
    """Homothety class of lattices: column-reduced form [[p^n, u], [0, 1]],
    u held as an int when integral, else as a Fraction."""

    n: int
    u: int | Fraction

    def __post_init__(self):
        if type(self.u) is not int:
            object.__setattr__(self, "u", _exact(self.u))

    @functools.cached_property
    def int_form(self) -> tuple[int, int, int]:
        """(n, U, D) with u = U / D in lowest terms, D >= 1: the ints the
        distance, the fix test and the action read.  Computed on first use
        and kept in the instance dict, outside the fields that equality
        and hashing compare."""
        u = self.u
        return (self.n, u, 1) if type(u) is int else (self.n, u.numerator, u.denominator)


ROOT = LatticeClassVertex(0, 0)


def canonicalize(g: GroupElement, p: int) -> LatticeClassVertex:
    """The unique (n, u mod p^n) of g's class, from valuations alone.

    Right multiplication by GL(2, Z_p) realizes the column operations
    (swap, and adding a Z_p-multiple of one column to the other), and
    neither they nor scalars change the class.  Swap the columns so that
    d != 0 and v_p(c) >= v_p(d); then clearing c and dividing by d gives

        [[det g / d^2, b / d], [0, 1]]   (up to the sign of det),

    so n = v_p(det g) - 2 v_p(d) and u = b / d mod p^n.  Neither n nor
    b / d moves when g is scaled to integer entries (``_integral``).
    """
    return _canonical(*_integral(g), p)


def _canonical(a: int, b: int, c: int, d: int, p: int) -> LatticeClassVertex:
    """``canonicalize`` of the int matrix [[a, b], [c, d]]."""
    det = a * d - b * c
    if not det:
        raise ValueError("matrix is singular")
    if not d or (c and _int_valuation(c, p) < _int_valuation(d, p)):
        b, d = a, c
    n = _int_valuation(det, p) - 2 * _int_valuation(d, p)
    return LatticeClassVertex(n, _residue(b, d, n, p))


def act(g: GroupElement, v: LatticeClassVertex, p: int) -> LatticeClassVertex:
    """Left action on lattice classes: canonicalize(g . matrix(v)), in ints.

    With u = U / D and p^n = P / Q, matrix(v) is [[P D, U Q], [0, D Q]]
    divided by the scalar D Q, so g . matrix(v) is the same class as the
    int product of g, scaled to int entries (``_integral``), with that
    matrix; it goes to ``canonicalize``'s int core with no GroupElement
    built.  The product's determinant is det g times P Q D^2, so a
    singular g is refused there, as before.
    """
    a, b, c, d = _integral(g)
    n, U, D = v.int_form
    P, Q = p ** max(n, 0), p ** max(-n, 0)
    PD, UQ, DQ = P * D, U * Q, D * Q
    return _canonical(a * PD, a * UQ + b * DQ, c * PD, c * UQ + d * DQ, p)


def tree_distance(v: LatticeClassVertex, w: LatticeClassVertex, p: int) -> int:
    """|e1 - e2| for the elementary-divisor valuations e1 <= e2 of the
    relative position matrix(v)^-1 matrix(w), in closed form.

    With v = [[p^n1, u1], [0, 1]] and w = [[p^n2, u2], [0, 1]],

        matrix(v)^-1 matrix(w) = [[p^dn, (u2 - u1) / p^n1], [0, 1]],
        dn = n2 - n1.

    Its determinant has valuation e1 + e2 = dn, and e1 is the least
    entry valuation, min(dn, 0, v_p(u2 - u1) - n1), without the last term
    when u1 = u2.  So the distance is |dn - 2 e1|, where, with u_i =
    U_i / D_i from the classes' ``int_form``, v_p(u2 - u1) =
    v_p(U2 D1 - U1 D2) - v_p(D1 D2), in ints; the last term is taken only
    when D1 D2 != 1.
    """
    n1, U1, D1 = v.int_form
    n2, U2, D2 = w.int_form
    dn = n2 - n1
    e1 = dn if dn < 0 else 0
    x = U2 * D1 - U1 * D2
    if x:
        e = _int_valuation(x, p) - n1
        DD = D1 * D2
        if DD != 1:
            e -= _int_valuation(DD, p)
        if e < e1:
            e1 = e
    return abs(dn - 2 * e1)


def lattice_neighbors(v: LatticeClassVertex, p: int) -> list[LatticeClassVertex]:
    """The p+1 classes at distance 1: the p sublattices of index p, with
    u + t p^n = (U Q + t P D) / (D Q) modulo p^(n+1) for t in [0, p),
    u = U / D and p^n = P / Q; and the superlattice, u modulo p^(n-1)."""
    n, U, D = v.n, v.u.numerator, v.u.denominator
    P, Q = p ** max(n, 0), p ** max(-n, 0)
    down = [LatticeClassVertex(n + 1, _residue(U * Q + t * P * D, D * Q, n + 1, p))
            for t in range(p)]
    return down + [LatticeClassVertex(n - 1, _residue(U, D, n - 1, p))]


class BallEmbedding:
    """Distance-preserving bijection between an abstract ball and the set
    of lattice classes at distance <= R from the standard class."""

    def __init__(self, p: int, radius: int):
        self.p = p
        self.ball: TreeBall = build_ball(TreeParams(q=p, radius=radius))
        to_lattice: list[LatticeClassVertex | None] = [None] * self.ball.num_vertices
        to_lattice[0] = ROOT
        chains = self.ball.chains
        for v, children in enumerate(self.ball.children):
            if not children:
                continue
            parent = to_lattice[chains[v][1]] if v else None
            fresh = sorted((x for x in lattice_neighbors(to_lattice[v], p) if x != parent),
                           key=lambda x: (x.n, x.u))
            if len(children) != len(fresh):
                raise RuntimeError("lattice neighbor enumeration does not match the ball")
            to_lattice[children.start:children.stop] = fresh
        self.to_lattice: list[LatticeClassVertex] = to_lattice
        self.from_lattice = {lv: v for v, lv in enumerate(to_lattice)}
        if len(self.from_lattice) != len(to_lattice):
            raise RuntimeError("lattice neighbor enumeration repeats a class")

    def automorphism_from(self, g: GroupElement) -> BallAutomorphism:
        """The ball permutation induced by a group element that maps the
        ball onto itself (e.g. any element fixing the root class)."""
        perm = [self.from_lattice.get(act(g, lv, self.p)) for lv in self.to_lattice]
        if None in perm:
            raise ValueError("group element does not preserve the ball window")
        return BallAutomorphism(self.ball, perm)


def embed_ball(p: int, radius: int) -> BallEmbedding:
    return BallEmbedding(p, radius)


def in_gamma0(g: GroupElement, n: int, p: int) -> bool:
    """Membership in Gamma0(p^n) Q_p^*, the congruence subgroup with
    lower-left entries in p^n (diagonal entries units, upper-right
    integral), up to scalars; n = 0 means the maximal compact subgroup,
    image of GL(2, Z_p).

    That group is the pointwise stabilizer of the standard n-path, from
    the root class to diag(1, p^n) (Serre, *Trees*, II.1).  An element
    that fixes both ends of a geodesic fixes every vertex between them,
    since the geodesic is the only path of its length joining them; so
    the test is ``_fixes_all`` on the two ends.
    """
    if n < 0:
        raise ValueError("congruence level must be >= 0")
    return _fixes_all(g, (ROOT, LatticeClassVertex(-n, 0)), p)


def standard_path(emb: BallEmbedding, n: int) -> tuple[int, ...]:
    """The (n+1)-path from the root along the diagonal-torus apartment
    whose pointwise stabilizer is the level-(n+1) congruence subgroup.

    Returns ball vertex ids for the lattice classes diag(1, p^j),
    j = 0..n+1; usable as the distinguished edge of the level-n path
    graph over the embedded ball.
    """
    if emb.ball.params.radius < n + 1:
        raise ValueError(f"ball radius {emb.ball.params.radius} too small for level {n}")
    return tuple(emb.from_lattice[LatticeClassVertex(-j, 0)] for j in range(n + 2))


def fixes_vertex(g: GroupElement, lv: LatticeClassVertex, p: int) -> bool:
    """act(g, lv, p) == lv, without column reduction, in integers
    (``_fixes_all``)."""
    return _fixes_all(g, (lv,), p)


def fixes_path_pointwise(g: GroupElement, emb: BallEmbedding, path: tuple[int, ...]) -> bool:
    """Every vertex of the path is fixed by g; v_p(det g) is taken once."""
    return _fixes_all(g, [emb.to_lattice[v] for v in path], emb.p)


def _integral(g: GroupElement) -> tuple[int, int, int, int]:
    """g's entries times the lcm of their denominators: the same element
    of PGL(2), with int entries."""
    a, b, c, d = g.a, g.b, g.c, g.d
    if type(a) is type(b) is type(c) is type(d) is int:
        return a, b, c, d
    den = lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    return tuple(x.numerator * (den // x.denominator) for x in (a, b, c, d))


def _fixes_all(g: GroupElement, classes, p: int) -> bool:
    """g fixes every class, by a parity and divisibility test.

    With M = matrix(lv) = [[p^n, u], [0, 1]], g fixes the class [M]
    exactly when C = M^-1 g M lies in Q_p^* GL(2, Z_p).  For
    g = [[a, b], [c, d]],

        C = [[a - c u, (b + (a - d) u - c u^2) / p^n],
             [c p^n,   c u + d]],   det C = det g,

    so g fixes [M] exactly when v(det g) = 2 min v(C_ij).  Always
    v(det C) >= min(v(C11) + v(C22), v(C12) + v(C21)) >= 2 min v(C_ij), so
    that holds exactly when v(det g) is even and each v(C_ij) >= h =
    v(det g) / 2.  With u = U / D (the class's ``int_form``) and k =
    v_p(D), taken only when D != 1, the entries are x p^n, x / D, x / D
    and x / (D^2 p^n) for the ints x below, whose valuations
    must reach h - n, h + k, h + k and h + 2k + n: one divisibility test
    each, void at an exponent <= 0.  The first and last exponents grow
    with |n|; there a zero x passes, and a nonzero x fails with no power
    of p taken once e >= x.bit_length(), since then p^e >= 2^e > |x|.
    g is scaled to int entries first (``_integral``), which moves v(det)
    and each 2 v(C_ij) alike.  A singular g is given v_p(p) = 1, odd, so
    v_p(0) is never taken; an odd g fixes no class, and so every class of
    an empty list.
    """
    a, b, c, d = _integral(g)
    det = a * d - b * c
    vdet = _int_valuation(det or p, p)
    if vdet & 1:
        return not classes
    h = vdet >> 1
    for lv in classes:
        n, U, D = lv.int_form
        k = _int_valuation(D, p) if D != 1 else 0
        cU = c * U
        e = h - n
        if e > 0 and c and (e >= c.bit_length() or c % p ** e):
            return False
        e = h + k
        if e > 0 and ((a * D - cU) % p ** e or (cU + d * D) % p ** e):
            return False
        e += k + n
        if e > 0 and (x := (b * D + (a - d) * U) * D - cU * U) and (
                e >= x.bit_length() or x % p ** e):
            return False
    return True


def sample_gamma0(p: int, n: int, modulus_exp: int, count: int, seed: int) -> list[GroupElement]:
    """Seeded uniform sample, with replacement, of the level-n congruence
    subgroup modulo p^m, m = modulus_exp: the matrices [[a, b], [c, d]]
    with entries in [0, p^m), p^n | c and det a unit modulo p.

    At level n >= 1 these are a and d units, b any residue and c = p^n r,
    r in [0, p^(m-n)); at level 0, the full maximal compact, any four
    residues with a unit determinant.  Each attempt is one
    ``randrange(N)``, decoded in mixed radix (``_index_decoder``); only level 0
    rejects an attempt, when its determinant is 0 modulo p.
    """
    return _sample(p, n, modulus_exp, count, seed, exact=False)


def sample_with_exact_lower_valuation(p: int, n: int, modulus_exp: int,
                                      count: int, seed: int) -> list[GroupElement]:
    """Seeded uniform sample, with replacement, of the level-n elements
    whose lower-left valuation is exactly n (so they sit outside level
    n+1): a and d units in [0, p^m), b in [0, p^m), c = p^n r with r a
    unit in [0, p^(m-n)), and det a unit modulo p, which only level 0
    can miss.  One ``randrange(N)`` per attempt, as in ``sample_gamma0``.
    """
    return _sample(p, n, modulus_exp, count, seed, exact=True)


def _sample(p: int, n: int, modulus_exp: int, count: int, seed: int,
            exact: bool) -> list[GroupElement]:
    """The first ``count`` elements accepted from indices drawn by
    ``random.Random(seed).randrange(N)``, one draw per attempt."""
    _check_level(p, n, modulus_exp)
    size, decode = _index_decoder(p, n, modulus_exp, exact)
    draws = iter(functools.partial(random.Random(seed).randrange, size), None)
    return list(itertools.islice(decode(draws), max(count, 0)))


def _index_decoder(p: int, n: int, modulus_exp: int, exact: bool):
    """(N, decode): decode(indices) yields the sampled set's elements at
    the given indices in [0, N), skipping the rejected ones; ``exact``
    picks the movers of ``sample_with_exact_lower_valuation``.

    An index is read in mixed radix as (a, d, b, r), c = p^n r: b in
    [0, p^m); a and d among the units of [0, p^m), except for the
    level-0 fixers, where they are any residue; r in [0, p^(m-n)), or
    among its units for a mover.  The k-th unit is k + k // (p - 1) + 1,
    for p prime: from 1 up to it lie k units and k // (p - 1) multiples
    of p.  So the indices in [0, N) map one to one onto a set that, at
    levels >= 1, is exactly the sampled one, since a d - b c = a d mod p
    is a unit; at level 0 an index is rejected when a d - b c is 0 modulo
    p.  Every yielded det is thus a unit modulo p, so nonzero, and a
    uniform index gives a uniform element, in ints, with no table that
    grows with p.
    """
    pm, pr = p ** modulus_exp, p ** (modulus_exp - n)
    units, pn, q = bool(n or exact), p ** n, p - 1
    na = pm - pm // p if units else pm
    nr = pr - pr // p if exact else pr

    def decode(indices):
        for i in indices:
            i, a = divmod(i, na)
            i, d = divmod(i, na)
            r, b = divmod(i, pm)
            if units:
                a += a // q + 1
                d += d // q + 1
            if exact:
                r += r // q + 1
            c = pn * r
            if n or (a * d - b * c) % p:
                yield _element(a, b, c, d)

    return na * na * pm * nr, decode


def _check_level(p: int, n: int, modulus_exp: int) -> None:
    """The samplers need a congruence level 0 <= n < modulus_exp and a
    prime p: at p = 1 level 0 rejects every index, and at a composite p
    the k-th "unit" of ``_index_decoder`` need not be one."""
    if not 0 <= n < modulus_exp:
        raise ValueError(f"congruence level n = {n} must satisfy "
                         f"0 <= n < modulus exponent {modulus_exp}")
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")


def enumerate_unit_lifts(p: int, modulus_exp: int) -> list[GroupElement]:
    """Integer lifts of GL(2, Z/p^m): one representative per residue class
    with unit determinant, entries in [0, p^m).  All lie in GL(2, Z_p), so
    each fixes the root class and induces an automorphism of any embedded
    ball."""
    return [_element(a, b, c, d)
            for a, b, c, d in itertools.product(range(p ** modulus_exp), repeat=4)
            if (a * d - b * c) % p != 0]


@dataclass(frozen=True)
class TransitivityResult:
    """One side's orbit coverage; ``conclusive`` always equals ``covered``."""

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
    whole side.  Coverage is a positive certificate, returned as
    ``covered=True, conclusive=True``.  Every miss is returned as
    ``covered=False, conclusive=False``, whether a larger modulus could
    still cover the side or no modulus can.

    The stabilizer is found modulo p^d, d the depth of the path, and
    ``stabilizer_size`` counts its lifts modulo p^m (``_path_stabilizer``).
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
    # Every stabilizer element fixes the path and the root class, so it maps
    # an edge at s on this side to another: only the base edge's vertex off
    # the path moves (an edge into s starts with it, one out of s ends).
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
    """The p-adic digits that decide how a unit lift modulo p^m acts on the
    given ball vertices: their largest root distance, capped at m and floored
    at 1 (the order |GL(2, Z/p^m)| = p^(4(m-1)) (p^2 - 1)(p^2 - p) needs m >= 1)."""
    return min(modulus_exp, max(1, *(emb.ball.depths[v] for v in vertices)))


def _lifts(residues, j: int, p: int):
    """Every lift g + p^j X, X in [0, p)^4, of each residue g modulo p^j,
    one at a time."""
    step = range(0, p ** (j + 1), p ** j)
    for g in residues:
        for x, y, z, w in itertools.product(step, repeat=4):
            yield _element(g.a + x, g.b + y, g.c + z, g.d + w)


def _path_stabilizer(emb: BallEmbedding, path: tuple[int, ...],
                     modulus_exp: int) -> tuple[list[GroupElement], int]:
    """The pointwise stabilizer of a path of ball vertices among the unit
    lifts modulo p^m, m = modulus_exp: its residues modulo p^d, and its
    size.

    d is the largest root distance of a path vertex, capped at m and
    floored at 1 (``_digits``).  Two lifts that agree modulo p^j differ by
    an element of K(p^j) = 1 + p^j M_2(Z_p), which fixes the radius-j ball
    about the root class pointwise (Serre, *Trees*, II.1).  So K(p^d)
    fixes every path vertex at depth <= d, and each residue modulo p^d
    that fixes the path stands for the p^(4(m-d)) lifts modulo p^m above
    it (the kernel of GL(2, Z/p^m) -> GL(2, Z/p^d)).

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
