"""Acceptance suite: one criterion per test, one printed line per criterion.

Everything is exact rational arithmetic; a tolerance is never needed.  Run
with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.

Truncation scope of criterion 3: on a finite ball the apartment sum of a
coboundary telescopes to the difference of its values at the two end
windows, so it is identically zero exactly for cochains supported away
from the leaves.  The criterion is therefore checked exhaustively on
leaf-avoiding vertex indicators, with the telescoped value verified
exactly on all remaining indicators, and with random cochains drawn from
leaf-avoiding supports.
"""

import random
import time
from fractions import Fraction

from treeforms import _linalg
from treeforms.checks import check_equivariance, check_radon_d
from treeforms.cochains import (Cochain, adjoint, coboundary, h1c_dimension,
                                harmonic_space, incidence_rows,
                                intersect_harmonic_exact, pairing)
from treeforms.padic import (embed_ball, fixes_path_pointwise, sample_gamma0,
                             sample_with_exact_lower_valuation,
                             stabilizer_transitivity_check, standard_path,
                             tree_distance)
from treeforms.radon import (enlarged_support, exactness_check,
                             fundamental_loops, interior_edges, path_integral,
                             primitive, radon_kernel_interior, random_loops,
                             span_check)
from treeforms.tower import SpanningForest, components, num_components

from conftest import apartments, ball, tower

ZERO = Fraction(0)

GRID = [(q, radius, k)
        for q in (2, 3) for radius in (1, 2, 3, 4) for k in (0, 1, 2, 3)
        if k <= 2 * radius]

EXACTNESS_GRID = [(q, radius, k)
                  for (q, radius) in ((2, 3), (2, 4), (3, 3)) for k in (0, 1, 2)]


def announce(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:2d} ({name}): {status}{suffix}", flush=True)


def rand_sparse(rng, level, ids, size=4):
    ids = list(ids)
    if not ids:
        return Cochain.zero(level)
    return Cochain(level, {rng.choice(ids): Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                           for _ in range(size)})


def test_criterion_01_euler_harmonic_identity():
    t0 = time.time()
    failures = []
    for (q, radius, k) in GRID:
        pg = tower(q, radius, k)
        basis = harmonic_space(pg)
        euler = pg.num_edges - pg.num_vertices + num_components(pg)
        h1 = h1c_dimension(pg)
        # rank(d) by elimination, independent of the forest behind the other three.
        oracle = pg.num_edges - _linalg.rank_of_rows(incidence_rows(pg))
        if not (len(basis) == euler == h1 == oracle):
            failures.append((q, radius, k, len(basis), euler, h1, oracle))
        if any(not adjoint(pg, w).is_zero() for w in basis):
            failures.append((q, radius, k, "non-harmonic basis element"))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120
    announce(1, "Euler/harmonic identity", ok,
             f"{len(GRID)} instances, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120


def test_criterion_02_adjointness():
    failures = []
    for (q, radius, k) in GRID:
        pg = tower(q, radius, k)
        rng = random.Random(1000 * q + 100 * radius + k)
        for _ in range(100):
            f = rand_sparse(rng, 0, range(pg.num_vertices))
            w = rand_sparse(rng, 1, range(pg.num_edges))
            if pairing(w, coboundary(pg, f)) != pairing(adjoint(pg, w), f):
                failures.append((q, radius, k))
                break
    ok = not failures
    announce(2, "adjointness <w,df> = <d*w,f>", ok,
             f"{len(GRID)} instances x 100 pairs")
    assert not failures, failures


def test_criterion_03_radon_kills_coboundaries():
    failures = []
    for (q, radius, k) in GRID:
        passed, report = check_radon_d(q, radius, k, seed=17 + q + radius + k, samples=100)
        if not passed:
            failures.append(report)
    ok = not failures
    announce(3, "R(df) = 0", ok,
             "exhaustive leaf-avoiding indicators + boundary telescoping + 100 random")
    assert not failures, failures


def test_criterion_04_exactness():
    t0 = time.time()
    failures = []
    nonvacuous = 0
    for (q, radius, k) in EXACTNESS_GRID:
        pg = tower(q, radius, k)
        aps = apartments(q, radius, k)
        rep = exactness_check(pg, aps, k + 2)
        if not rep.equal:
            failures.append((q, radius, k, rep))
        if rep.kernel_dim > 0:
            nonvacuous += 1
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300
    announce(4, "exactness ker R = im d on interior", ok,
             f"{len(EXACTNESS_GRID)} cells, {nonvacuous} with nonzero kernel, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 300


def test_criterion_05_loop_integrals():
    failures = []
    checked = 0
    for (q, radius, k) in EXACTNESS_GRID:
        pg = tower(q, radius, k)
        aps = apartments(q, radius, k)
        inner = interior_edges(pg, k + 2)
        if not inner:
            continue
        basis = radon_kernel_interior(pg, aps, k + 2)
        loops = (fundamental_loops(pg, inner)
                 + random_loops(pg, inner, 200, seed=q * 100 + radius * 10 + k))
        for w in basis:
            checked += 1
            for loop in loops:
                if path_integral(w, loop) != 0:
                    failures.append((q, radius, k, loop.edges))
                    break
    ok = not failures
    announce(5, "loop integrals of kernel elements vanish", ok,
             f"{checked} kernel elements")
    assert not failures, failures


def test_criterion_06_primitive_reconstruction():
    failures = []
    checked = 0
    for (q, radius, k) in EXACTNESS_GRID:
        pg = tower(q, radius, k)
        aps = apartments(q, radius, k)
        if not interior_edges(pg, k + 2):
            continue
        comp_of = {}
        for ci, comp in enumerate(components(pg)):
            for s in comp:
                comp_of[s] = ci
        rows = list(incidence_rows(pg))
        for w in radon_kernel_interior(pg, aps, k + 2):
            checked += 1
            enlarged = enlarged_support(pg, w)
            candidates = [s for s in range(pg.num_vertices) if s not in enlarged]
            if not candidates:
                failures.append((q, radius, k, "no base"))
                continue
            f = primitive(pg, aps, w, max(candidates))
            if any(f(pg.head[a]) - f(pg.tail[a]) != w(a) for a in range(pg.num_edges)):
                failures.append((q, radius, k, "df != omega"))
                continue
            if any(s not in enlarged for s in f.support):
                failures.append((q, radius, k, "support escapes enlarged region"))
                continue
            sol = _linalg.solve(rows, [w(a) for a in range(pg.num_edges)], pg.num_vertices)
            if sol is None:
                failures.append((q, radius, k, "oracle inconsistent"))
                continue
            deltas = {}
            for s in range(pg.num_vertices):
                deltas.setdefault(comp_of[s], set()).add(f(s) - sol.get(s, ZERO))
            if any(len(vals) != 1 for vals in deltas.values()):
                failures.append((q, radius, k, "oracle mismatch"))
    ok = not failures
    announce(6, "primitive reconstruction df = omega", ok,
             f"{checked} kernel elements vs linear-solve oracle")
    assert not failures, failures


def test_criterion_07_harmonic_meets_coboundaries_trivially():
    failures = []
    for (q, radius, k) in GRID:
        pg = tower(q, radius, k)
        dim = intersect_harmonic_exact(pg)
        # The same dimension by exact rank.  B = im d is spanned by the rows
        # of d*; the harmonic basis spans A, inside ker d* (criterion 1), so
        # A = ker d* when dim A = E - dim B.  Then dim(A cap B) is
        # dim A + dim B - the rank of the stacked rows.  Columns
        # are permuted to put each cycle's own non-forest edge first, which
        # leaves every rank as it is and keeps the elimination's fill low.
        col = {a: i for i, a in enumerate(SpanningForest(pg).non_tree_edges)}
        for a in range(pg.num_edges):
            col.setdefault(a, len(col))
        cycles = [{col[a]: x for a, x in w.data.items()} for w in harmonic_space(pg)]
        dstar_rows = [{} for _ in range(pg.num_vertices)]
        for a, row in enumerate(incidence_rows(pg)):
            for s, x in row.items():
                dstar_rows[s][col[a]] = x
        dim_a, dim_b = _linalg.rank_of_rows(cycles), _linalg.rank_of_rows(dstar_rows)
        by_rank = dim_a + dim_b - _linalg.rank_of_rows(cycles + dstar_rows)
        if not (dim == by_rank == 0 and dim_a == pg.num_edges - dim_b):
            failures.append((q, radius, k, dim, by_rank, dim_a, dim_b))
    ok = not failures
    announce(7, "ker d* intersect im d = 0", ok, f"{len(GRID)} instances by exact rank")
    assert not failures, failures


def test_criterion_08_equivariance():
    failures = []
    for (q, radius, k) in GRID:
        passed, report = check_equivariance(q, radius, k, seed=q * 31 + radius * 7 + k,
                                            samples=20)
        if not passed:
            failures.append(report)
    ok = not failures
    announce(8, "equivariance of d, d*, R and incidence", ok,
             f"{len(GRID)} instances x 20 automorphisms")
    assert not failures, failures


def test_criterion_09_padic_distance_consistency():
    failures = []
    for (p, radius) in ((2, 3), (3, 2)):
        emb = embed_ball(p, radius)
        n = emb.ball.num_vertices
        for u in range(n):
            for v in range(n):
                if emb.ball.distance(u, v) != tree_distance(emb.to_lattice[u],
                                                            emb.to_lattice[v], p):
                    failures.append((p, radius, u, v))
    ok = not failures
    announce(9, "lattice-class distances match abstract ball", ok,
             "p=2 R=3 (22x22) and p=3 R=2 (17x17)")
    assert not failures, failures


def test_criterion_10_congruence_stabilizer():
    failures = []
    for p in (2, 3):
        for n in (0, 1, 2):
            emb = embed_ball(p, n + 1)
            path = standard_path(emb, n)
            fixers = sample_gamma0(p, n + 1, 6, 200, seed=29 + 11 * p + n)
            moved = sum(1 for g in fixers if not fixes_path_pointwise(g, emb, path))
            movers = sample_with_exact_lower_valuation(p, n, 6, 25, seed=43 + p + n)
            any_moved = any(not fixes_path_pointwise(g, emb, path) for g in movers)
            if moved or not any_moved:
                failures.append((p, n, moved, any_moved))
    ok = not failures
    announce(10, "level-(n+1) subgroup fixes the standard path", ok,
             "p in {2,3}, n in {0,1,2}, 200 samples mod p^6 each")
    assert not failures, failures


def test_criterion_11_stabilizer_transitivity():
    from treeforms.tower import build_path_graph
    results = []
    for p in (2, 3):
        emb2 = embed_ball(p, 2)
        pg0 = build_path_graph(emb2.ball, 0)
        root0 = pg0.vert_index[(0,)]
        results += [stabilizer_transitivity_check(emb2, pg0, root0, side, 2)
                    for side in ("+", "-")]
        emb3 = embed_ball(p, 3)
        pg1 = build_path_graph(emb3.ball, 1)
        s1 = pg1.vert_index[standard_path(emb3, 0)]
        results += [stabilizer_transitivity_check(emb3, pg1, s1, side, 3)
                    for side in ("+", "-")]
    ok = all(r.covered and r.conclusive for r in results)
    announce(11, "path stabilizer transitive on extensions", ok,
             "p in {2,3}: root 0-path mod p^2, standard 1-path mod p^3, both sides")
    assert ok, results


def test_criterion_12_span_of_characteristic_functions():
    from treeforms.tree import enumerate_oriented_diameters
    b = ball(2, 2)
    diams = enumerate_oriented_diameters(b)
    pgs = [tower(2, 2, k) for k in range(4)]
    full = span_check(pgs, diams)
    only0 = span_check(pgs[:1], diams)
    larger = {}
    for q, radius in ((2, 3), (2, 4), (3, 2), (3, 3)):
        d = enumerate_oriented_diameters(ball(q, radius))
        levels = [tower(q, radius, k) for k in range(2 * radius)]
        larger[q, radius] = (span_check(levels, d), span_check(levels[:1], d))
    ok = full and not only0 and all(v == (True, False) for v in larger.values())
    announce(12, "characteristic functions span at K=2R-1, not at K=0", ok,
             f"{len(diams)} oriented diameters at q2-R2; also q2 R3-4, q3 R2-3")
    assert full is True
    assert only0 is False
    assert larger == dict.fromkeys(larger, (True, False))
