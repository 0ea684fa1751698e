"""Named verification suites.

Each suite builds its own objects from the run parameters, performs the
exact checks, and returns (passed, report) with a JSON-ready report; the
command line wraps these.  On failure the report carries a minimal
counterexample.

Truncation note for the transform-kills-coboundaries suite: on a finite
ball the apartment sum of df telescopes to f(last window) - f(first
window), so it vanishes exactly for f supported on vertices whose hull
avoids the leaves, and equals the telescoped difference otherwise.  The
suite verifies both statements; the unrestricted infinite-tree phrasing
is recovered in the leaf-avoiding scope.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from .cochains import (Cochain, adjoint, coboundary, h1c_dimension,
                       harmonic_space, incidence_rank, pairing)
from .padic import (GroupElement, embed_ball, fixes_path_pointwise, in_gamma0,
                    sample_gamma0, sample_with_exact_lower_valuation,
                    stabilizer_transitivity_check, standard_path, tree_distance)
from .radon import (MarginError, PathDependenceError, _primitive, enlarged_support,
                    exactness_check, fundamental_loops, interior_edges, interior_family,
                    interior_vertices, minimal_exact_margin, path_integral,
                    radon_kernel_interior, radon_transform, random_loops, span_check)
from .tower import PathGraph, apply_automorphism, build_path_graph, component_roots
from .tree import (TreeParams, build_ball, enumerate_oriented_diameters,
                   random_automorphism)


def _random_sparse(rng: random.Random, level: int, ids, size: int) -> Cochain:
    ids = list(ids)
    data = {}
    for _ in range(min(size, len(ids))):
        data[rng.choice(ids)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
    return Cochain(level, data)


def _tower(q: int, radius: int, k: int) -> PathGraph:
    """The level-k path graph over the radius-R ball of the (q+1)-tree (the
    ball is ``pg.ball``)."""
    return build_path_graph(build_ball(TreeParams(q, radius)), k)


def check_euler(q: int, radius: int, k: int) -> tuple[bool, dict]:
    """dim ker d* = E - V + C = dim C^1 - rank d, with rank d = V - C also
    witnessed without the forest's tree rows: the exact rank of the
    incidence rows, reported once the component indicators are checked to
    lie in ker d, where they bound it above by V - C."""
    pg = _tower(q, radius, k)
    basis = harmonic_space(pg)
    comp_of = component_roots(pg)
    ncomp = len(set(comp_of))
    euler = pg.num_edges - pg.num_vertices + ncomp
    h1 = h1c_dimension(pg)
    not_harmonic = sum(1 for w in basis if not adjoint(pg, w).is_zero())
    in_ker_d = all(comp_of[h] == comp_of[t] for h, t in zip(pg.head, pg.tail))
    witness = incidence_rank(pg) if in_ker_d else None
    passed = (len(basis) == euler == h1 and not_harmonic == 0
              and witness == pg.num_vertices - ncomp)
    return passed, {
        "suite": "euler", "q": q, "R": radius, "k": k,
        "vertices": pg.num_vertices, "edges": pg.num_edges, "components": ncomp,
        "harmonic_dim": len(basis), "euler_dim": euler, "h1c_dim": h1,
        "rank_d_witness": witness,
        "non_harmonic_basis_elements": not_harmonic, "passed": passed,
    }


def check_adjoint(q: int, radius: int, k: int, seed: int, samples: int = 100) -> tuple[bool, dict]:
    pg = _tower(q, radius, k)
    rng = random.Random(seed)
    counterexample = None
    for _ in range(samples):
        f = _random_sparse(rng, 0, range(pg.num_vertices), 4)
        w = _random_sparse(rng, 1, range(pg.num_edges), 4)
        if pairing(w, coboundary(pg, f)) != pairing(adjoint(pg, w), f):
            counterexample = {"f": {i: str(x) for i, x in f.data.items()},
                              "omega": {i: str(x) for i, x in w.data.items()}}
            break
    passed = counterexample is None
    return passed, {"suite": "adjoint", "q": q, "R": radius, "k": k,
                    "samples": samples, "counterexample": counterexample,
                    "passed": passed}


def check_radon_d(q: int, radius: int, k: int, seed: int, samples: int = 100) -> tuple[bool, dict]:
    """Transform of a coboundary: exhaustively zero on leaf-avoiding vertex
    indicators, and equal to the telescoped end-window difference on all
    other indicators; zero on random leaf-avoiding 0-cochains."""
    pg = _tower(q, radius, k)
    aps = interior_family(pg, 0)
    inner = set(interior_vertices(pg, 0))

    failures = []
    ends_at: dict[int, list[int]] = {}
    starts_at: dict[int, list[int]] = {}
    for ap in aps:
        ends_at.setdefault(pg.head[ap.edges[-1]], []).append(ap.id)
        starts_at.setdefault(pg.tail[ap.edges[0]], []).append(ap.id)
    for s in range(pg.num_vertices):
        image = radon_transform(pg, aps, coboundary(pg, Cochain.indicator(0, s)))
        predicted = Counter(ends_at.get(s, ()))
        predicted.subtract(starts_at.get(s, ()))
        predicted = {i: v for i, v in predicted.items() if v}
        if s in inner and predicted:
            failures.append({"vertex": s, "kind": "interior vertex is an apartment end"})
        if image != predicted:
            failures.append({"vertex": s, "kind": "telescoping mismatch"})

    rng = random.Random(seed)
    inner_ids = sorted(inner)
    random_failures = 0
    for _ in range(samples if inner_ids else 0):
        f = _random_sparse(rng, 0, inner_ids, 5)
        if radon_transform(pg, aps, coboundary(pg, f)):
            random_failures += 1
    passed = not failures and random_failures == 0
    return passed, {"suite": "radon-d", "q": q, "R": radius, "k": k,
                    "exhaustive_failures": failures[:5],
                    "random_failures": random_failures,
                    "interior_vertices": len(inner_ids),
                    "samples": samples, "passed": passed}


def check_exactness(q: int, radius: int, k: int, margin: int, scan: bool = False) -> tuple[bool, dict]:
    pg = _tower(q, radius, k)
    # The scan probes every margin up to this one, so it takes the whole family.
    aps = interior_family(pg, 0 if scan else margin)
    rep = exactness_check(pg, aps, margin)
    out = {"suite": "exactness", "q": q, "R": radius, "k": k, "margin": margin,
           "kernel_dim": rep.kernel_dim, "image_dim": rep.image_dim,
           "interior_edges": rep.interior_edge_count,
           "interior_vertices": rep.interior_vertex_count,
           "equal": rep.equal, "passed": rep.equal}
    if scan:
        out["minimal_passing_margin"] = minimal_exact_margin(pg, aps, margin)
    return rep.equal, out


def check_loops(q: int, radius: int, k: int, margin: int, seed: int,
                samples: int = 200) -> tuple[bool, dict]:
    pg = _tower(q, radius, k)
    inner = interior_edges(pg, margin)
    if not inner:
        return True, {"suite": "loops", "q": q, "R": radius, "k": k, "margin": margin,
                      "kernel_dim": 0, "loops": 0, "interior_edges": 0, "passed": True}
    basis = radon_kernel_interior(pg, interior_family(pg, margin), margin)
    loops = fundamental_loops(pg, inner) + random_loops(pg, inner, samples, seed)
    bad = None
    for w in basis:
        for i, loop in enumerate(loops):
            if path_integral(w, loop) != 0:
                bad = {"loop_index": i, "edges": list(loop.edges)}
                break
        if bad:
            break
    passed = bad is None
    return passed, {"suite": "loops", "q": q, "R": radius, "k": k, "margin": margin,
                    "kernel_dim": len(basis), "loops": len(loops),
                    "counterexample": bad, "passed": passed}


def check_primitive(q: int, radius: int, k: int, margin: int) -> tuple[bool, dict]:
    """Primitive reconstruction for every kernel-basis element, with
    df = w checked on every edge of the path graph, which fixes the
    primitive up to one constant per component."""
    pg = _tower(q, radius, k)
    inner = interior_edges(pg, margin)
    if not inner:
        return True, {"suite": "primitive", "q": q, "R": radius, "k": k,
                      "margin": margin, "kernel_dim": 0, "passed": True}
    aps = interior_family(pg, margin)
    basis = radon_kernel_interior(pg, aps, margin)

    failures = []
    for idx, w in enumerate(basis):
        enlarged = enlarged_support(pg, w)
        outside = [s for s in range(pg.num_vertices) if s not in enlarged]
        if not outside:
            failures.append({"basis": idx, "reason": "no base vertex available"})
            continue
        try:
            f = _primitive(pg, w, min(outside), enlarged)
        except (MarginError, PathDependenceError) as exc:
            failures.append({"basis": idx, "reason": str(exc)})
            continue
        for a in range(pg.num_edges):
            if f(pg.head[a]) - f(pg.tail[a]) != w(a):
                failures.append({"basis": idx, "reason": f"df mismatch at edge {a}"})
                break
    passed = not failures
    return passed, {"suite": "primitive", "q": q, "R": radius, "k": k, "margin": margin,
                    "kernel_dim": len(basis), "failures": failures[:5], "passed": passed}


def _by_ends(aps) -> dict[tuple[int, int], int]:
    """(first, last) base vertex -> id, for each apartment of the family."""
    return {(ap.base[0], ap.base[-1]): ap.id for ap in aps}


def _apartment_images(aps, by_ends: dict[tuple[int, int], int],
                      g) -> dict[int, int | None]:
    """id -> id of the image of each of the apartments ``aps`` (any
    iterable of a family's apartments, the family itself included) under
    the ball automorphism g, None where the image is not in the family.  A
    geodesic of a tree is fixed by its ends, and g carries the geodesic
    x -> y onto g(x) -> g(y), so the image is looked up by its ends in
    ``_by_ends`` of the family."""
    perm = g.perm
    return {ap.id: by_ends.get((perm[ap.base[0]], perm[ap.base[-1]])) for ap in aps}


def check_equivariance(q: int, radius: int, k: int, seed: int,
                       samples: int = 20) -> tuple[bool, dict]:
    """d, d*, and the transform commute with `samples` seeded ball
    automorphisms; head/tail maps (hence all incidence numbers) are
    preserved.  The head and tail maps are compared as whole lists, and
    only on a mismatch edge by edge, to name the first bad edge.

    The transform's values are carried to the image apartments by
    ``_apartment_images``, which maps only the apartments in the support
    of R(w).  The family is ``interior_family(pg, 0)``, the one complete
    family: it holds the apartment of every ordered pair of distinct
    leaves whose geodesic carries a window.  A validated
    ``BallAutomorphism`` is an edge-preserving bijection, so it maps
    leaves to leaves and each geodesic onto the geodesic between the
    images of its ends, of the same length (Serre, *Trees*, I.2).  So
    every lookup finds its apartment; one that misses is still reported
    as "apartment image missing".
    """
    pg = _tower(q, radius, k)
    aps = interior_family(pg, 0)
    by_ends = _by_ends(aps)
    apartment = {ap.id: ap for ap in aps}.__getitem__
    head, tail = pg.head, pg.tail
    rng = random.Random(seed)
    failures = []
    for i in range(samples):
        g = random_automorphism(pg.ball, seed + 7 * i)
        vmap, emap = apply_automorphism(pg, g)
        if (list(map(head.__getitem__, emap)) != list(map(vmap.__getitem__, head))
                or list(map(tail.__getitem__, emap)) != list(map(vmap.__getitem__, tail))):
            a = next(a for a, b in enumerate(emap)
                     if head[b] != vmap[head[a]] or tail[b] != vmap[tail[a]])
            failures.append({"auto": i, "kind": "incidence", "edge": a})
        for _ in range(3):
            f = _random_sparse(rng, 0, range(pg.num_vertices), 4)
            w = _random_sparse(rng, 1, range(pg.num_edges), 4)
            if coboundary(pg, f.permuted(vmap)) != coboundary(pg, f).permuted(emap):
                failures.append({"auto": i, "kind": "coboundary"})
            if adjoint(pg, w.permuted(emap)) != adjoint(pg, w).permuted(vmap):
                failures.append({"auto": i, "kind": "adjoint"})
            before = radon_transform(pg, aps, w)
            after = radon_transform(pg, aps, w.permuted(emap))
            images = _apartment_images(map(apartment, before), by_ends, g)
            if None in images.values():
                failures.append({"auto": i, "kind": "apartment image missing"})
                break
            if {images[j]: v for j, v in before.items()} != after:
                failures.append({"auto": i, "kind": "radon"})
    passed = not failures
    return passed, {"suite": "equivariance", "q": q, "R": radius, "k": k,
                    "automorphisms": samples, "failures": failures[:5],
                    "passed": passed}


def check_padic(p: int, radius: int) -> tuple[bool, dict]:
    emb = embed_ball(p, radius)
    n = emb.ball.num_vertices
    mismatches = 0
    for u in range(n):
        for v in range(n):
            if emb.ball.distance(u, v) != tree_distance(emb.to_lattice[u], emb.to_lattice[v], p):
                mismatches += 1
    passed = mismatches == 0
    return passed, {"suite": "padic", "p": p, "R": radius, "vertices": n,
                    "distance_mismatches": mismatches, "passed": passed}


def check_stabilizer(p: int, n: int, samples: int = 200, seed: int = 0,
                     modulus: int = 6) -> tuple[bool, dict]:
    """Sampled congruence-subgroup elements of level n+1, with entries
    modulo p^modulus, fix the standard (n+1)-path pointwise; elements with
    lower-left valuation exactly n move it."""
    emb = embed_ball(p, n + 1)
    path = standard_path(emb, n)
    fixers = sample_gamma0(p, n + 1, modulus, samples, seed)
    moved = [g for g in fixers if not fixes_path_pointwise(g, emb, path)]
    movers = sample_with_exact_lower_valuation(p, n, modulus, max(20, samples // 10), seed + 1)
    somebody_moved = any(not fixes_path_pointwise(g, emb, path) for g in movers)
    passed = not moved and somebody_moved
    return passed, {"suite": "stabilizer", "p": p, "n": n, "samples": samples,
                    "modulus_exp": modulus,
                    "fixers_that_moved": len(moved),
                    "boundary_mover_found": somebody_moved, "passed": passed}


def check_transitivity(p: int) -> tuple[bool, dict]:
    """Stabilizer orbit coverage on the root 0-path and the standard
    interior 1-path (positive certificates via unit-lift enumeration).
    The standard k-path is ``standard_path(emb, k - 1)``, (root,) at k = 0,
    checked on the radius-(k+2) ball."""
    sides = {}
    for name, k in (("root_0path", 0), ("standard_1path", 1)):
        emb = embed_ball(p, k + 2)
        pg = build_path_graph(emb.ball, k)
        s = pg.vert_index[standard_path(emb, k - 1)]
        sides[name] = [stabilizer_transitivity_check(emb, pg, s, side, k + 2) for side in "+-"]
    results = [r for pair in sides.values() for r in pair]
    passed = all(r.covered for r in results)
    return passed, {"suite": "transitivity", "p": p,
                    **{name: {"plus": plus.covered, "minus": minus.covered}
                       for name, (plus, minus) in sides.items()},
                    "conclusive": all(r.conclusive for r in results), "passed": passed}


def check_span(q: int, radius: int) -> tuple[bool, dict]:
    ball = build_ball(TreeParams(q, radius))
    diams = enumerate_oriented_diameters(ball)
    kmax = 2 * radius - 1
    pgs = [build_path_graph(ball, k) for k in range(kmax + 1)]
    full = span_check(pgs, diams)
    only0 = span_check(pgs[:1], diams)
    passed = full and not only0
    return passed, {"suite": "span", "q": q, "R": radius, "K": kmax,
                    "spans_at_K": full, "spans_at_0": only0,
                    "diameters": len(diams), "passed": passed}


def check_gamma0(matrix: GroupElement, n: int, p: int) -> tuple[bool, dict]:
    """Membership of one matrix in the level-n congruence subgroup."""
    passed = in_gamma0(matrix, n, p)
    return passed, {"check": "gamma0",
                    "params": {"matrix": matrix.to_json_dict(), "n": n, "p": p},
                    "samples": 1, "passed": passed}
