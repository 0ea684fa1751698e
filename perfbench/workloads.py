"""The four benchmark workloads: instance grids, set-up and verification cases.

Every library call goes through `tr.call(name, fn, ...)` so that the
traced run can attribute time to the module that did the work; with
tracing off the call goes straight through.  Each case returns a dict
of exact, seed-independent answers that `golden.json` pins.  The seed
only drives the random cochains, loops, automorphisms and group samples
a case draws from its `rng`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction


def _iid(q: int, radius: int, k: int) -> str:
    return f"q{q}-R{radius}-k{k}"


def _seed(rng) -> int:
    return rng.randrange(2 ** 31)


def _random_cochain(tf, rng, level: int, ids, size: int):
    ids = list(ids)
    return tf.cochains.Cochain(level, {
        rng.choice(ids): Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        for _ in range(size)})


class Workload:
    """A named case list over fixed instances.

    `plan()` lists (case id, instance id, check) from constants alone, so
    the case list can be compared with `golden.json` before anything is
    built.  `setup` builds every object the cases use; `sizes` reports
    the pinned sizes of what it built.  A check is the method named after
    it, called as `check(tf, obj, tr, rng, ctx)` where `ctx` is a dict
    shared by the checks of one instance within one pass.
    """

    name = ""
    instances: list = []
    checks: tuple = ()

    def plan(self) -> list[tuple[str, str, str]]:
        return [(f"{_iid(*inst)}/{check}", _iid(*inst), check)
                for inst in self.instances for check in self.checks]

    def setup(self, tf, tr) -> dict:
        raise NotImplementedError

    def sizes(self, tf, objs) -> dict:
        raise NotImplementedError

    def run_case(self, tf, objs, iid: str, check: str, tr, rng, ctx) -> dict:
        return getattr(self, check.replace("-", "_"))(tf, objs[iid], tr, rng, ctx)


class HarmonicGrid(Workload):
    """Exact elimination (cochains -> _linalg) dominates, with no apartments
    and no p-adic calls, so a faster rank shows here."""

    name = "harmonic-grid"
    instances = [(q, r, k) for (q, r) in ((2, 3), (2, 4), (2, 5), (3, 3)) for k in range(4)]
    checks = ("euler", "intersect", "adjoint", "solve")

    def setup(self, tf, tr):
        balls, objs = {}, {}
        for q, r, k in self.instances:
            if (q, r) not in balls:
                balls[q, r] = tr.call("tree.build_ball", tf.tree.build_ball,
                                      tf.tree.TreeParams(q, r))
            pg = tr.call("tower.build_path_graph", tf.tower.build_path_graph, balls[q, r], k)
            tr.count("tower.vertex_count", pg.num_vertices)
            tr.count("tower.edge_count", pg.num_edges)
            objs[_iid(q, r, k)] = pg
        return objs

    def sizes(self, tf, objs):
        return {iid: {"V": pg.num_vertices, "E": pg.num_edges} for iid, pg in objs.items()}

    def euler(self, tf, pg, tr, rng, ctx):
        basis = tr.call("cochains.harmonic_space", tf.cochains.harmonic_space, pg)
        comps = tr.call("tower.num_components", tf.tower.num_components, pg)
        rank = tr.call("cochains.coboundary_rank", tf.cochains.coboundary_rank, pg)
        with tr.span("cochains.adjoint"):
            non_harmonic = sum(1 for w in basis if not tf.cochains.adjoint(pg, w).is_zero())
        tr.count("tower.component_count", comps)
        tr.count("linalg.rows_in", pg.num_edges)
        tr.count("linalg.rank_out", rank)
        ctx["harmonic_dim"], ctx["rank_d"] = len(basis), rank
        return {"components": comps, "harmonic_dim": len(basis), "rank_d": rank,
                "euler_dim": pg.num_edges - pg.num_vertices + comps,
                "non_harmonic": non_harmonic}

    def intersect(self, tf, pg, tr, rng, ctx):
        dim = tr.call("cochains.intersect_harmonic_exact", tf.cochains.intersect_harmonic_exact, pg)
        # The stacked system is the V vertex rows of d* plus one row per
        # harmonic basis vector; its rank is dim A + dim B - dim(A cap B).
        tr.count("linalg.rows_in", pg.num_vertices + ctx["harmonic_dim"])
        tr.count("linalg.rank_out", ctx["harmonic_dim"] + ctx["rank_d"] - dim)
        return {"intersection_dim": dim}

    def adjoint(self, tf, pg, tr, rng, ctx):
        c = tf.cochains
        pairs = [(_random_cochain(tf, rng, 0, range(pg.num_vertices), 4),
                  _random_cochain(tf, rng, 1, range(pg.num_edges), 4)) for _ in range(20)]
        with tr.span("cochains.pairing"):
            mismatches = sum(1 for f, w in pairs
                             if c.pairing(w, c.coboundary(pg, f)) != c.pairing(c.adjoint(pg, w), f))
        return {"pairs": len(pairs), "mismatches": mismatches}

    def solve(self, tf, pg, tr, rng, ctx):
        c = tf.cochains
        f = _random_cochain(tf, rng, 0, range(pg.num_vertices), 6)
        w = tr.call("cochains.coboundary", c.coboundary, pg, f)
        rows = tr.call("cochains.incidence_rows", list, c.incidence_rows(pg))
        rhs = [w(a) for a in range(pg.num_edges)]
        sol = tr.call("linalg.solve", tf.linalg.solve, rows, rhs, pg.num_vertices)
        tr.count("linalg.rows_in", len(rows))
        tr.count("linalg.rank_out", ctx["rank_d"])
        if sol is None:
            return {"consistent": False, "reproduces": False}
        df = tr.call("cochains.coboundary", c.coboundary, pg, c.Cochain(0, sol))
        return {"consistent": True, "reproduces": df == w}


class ApartmentsWide(Workload):
    """Few instances with thousands of apartments, so the transform, its
    kernel rows and tree enumeration dominate and elimination barely shows."""

    name = "apartments-wide"
    instances = [(2, 6, 0), (2, 6, 1), (3, 4, 0)]
    checks = ("exactness", "kernel", "loops", "primitive", "radon-d", "equivariance")

    def setup(self, tf, tr):
        balls, objs = {}, {}
        for q, r, k in self.instances:
            if (q, r) not in balls:
                ball = tr.call("tree.build_ball", tf.tree.build_ball, tf.tree.TreeParams(q, r))
                diams = tr.call("tree.enumerate_oriented_diameters",
                                tf.tree.enumerate_oriented_diameters, ball)
                tr.count("tree.diameter_count", len(diams))
                balls[q, r] = ball, diams
            ball, diams = balls[q, r]
            pg = tr.call("tower.build_path_graph", tf.tower.build_path_graph, ball, k)
            aps = tr.call("radon.induced_apartments", tf.radon.induced_apartments, pg, diams)
            tr.count("tower.vertex_count", pg.num_vertices)
            tr.count("tower.edge_count", pg.num_edges)
            tr.count("radon.apartment_count", len(aps))
            tr.count("radon.window_count", sum(len(ap.edges) for ap in aps))
            objs[_iid(q, r, k)] = (ball, pg, aps, k + 2)
        return objs

    def sizes(self, tf, objs):
        return {iid: {"V": pg.num_vertices, "E": pg.num_edges, "apartments": len(aps),
                      "interior_edges": len(tf.radon.interior_edges(pg, m)),
                      "interior_vertices": len(tf.radon.interior_vertices(pg, m))}
                for iid, (_ball, pg, aps, m) in objs.items()}

    def exactness(self, tf, obj, tr, rng, ctx):
        _ball, pg, aps, m = obj
        rep = tr.call("radon.exactness_check", tf.radon.exactness_check, pg, aps, m)
        return {"kernel_dim": rep.kernel_dim, "image_dim": rep.image_dim, "equal": rep.equal}

    def kernel(self, tf, obj, tr, rng, ctx):
        _ball, pg, aps, m = obj
        inner = tr.call("radon.interior_edges", tf.radon.interior_edges, pg, m)
        basis = tr.call("radon.radon_kernel_interior", tf.radon.radon_kernel_interior, pg, aps, m)
        # Distinct transform rows restricted to interior columns: the rows
        # the kernel computation has to eliminate.
        inner_set = set(inner)
        with tr.span("bench.distinct_rows"):
            rows = set()
            for ap in aps:
                row = tuple(sorted(a for a in ap.edges if a in inner_set))
                if row:
                    rows.add(row)
        tr.count("radon.kernel_rows_distinct", len(rows))
        tr.count("radon.kernel_dim", len(basis))
        ctx["inner"], ctx["basis"] = inner, basis
        return {"kernel_dim": len(basis), "kernel_rows_distinct": len(rows)}

    def loops(self, tf, obj, tr, rng, ctx):
        _ball, pg, aps, m = obj
        inner, basis = ctx["inner"], ctx["basis"]
        fundamental = tr.call("radon.fundamental_loops", tf.radon.fundamental_loops, pg, inner)
        walks = tr.call("radon.random_loops", tf.radon.random_loops, pg, inner, 200, _seed(rng))
        loops = fundamental + walks
        with tr.span("radon.path_integral"):
            nonzero = sum(1 for w in basis for loop in loops
                          if tf.radon.path_integral(w, loop) != 0)
        tr.count("radon.path_integral.calls", len(basis) * len(loops))
        return {"fundamental_loops": len(fundamental), "nonzero_integrals": nonzero}

    def primitive(self, tf, obj, tr, rng, ctx):
        _ball, pg, aps, m = obj
        mismatches = 0
        for w in ctx["basis"]:
            enlarged = tr.call("radon.enlarged_support", tf.radon.enlarged_support, pg, w)
            base = min(s for s in range(pg.num_vertices) if s not in enlarged)
            f = tr.call("radon.primitive", tf.radon.primitive, pg, aps, w, base)
            if tr.call("cochains.coboundary", tf.cochains.coboundary, pg, f) != w:
                mismatches += 1
        return {"primitives": len(ctx["basis"]), "mismatches": mismatches}

    def radon_d(self, tf, obj, tr, rng, ctx):
        _ball, pg, aps, m = obj
        c = tf.cochains
        leaf_avoiding = tr.call("radon.interior_vertices", tf.radon.interior_vertices, pg, 0)
        nonzero = 0
        for s in leaf_avoiding:
            df = tr.call("cochains.coboundary", c.coboundary, pg, c.Cochain.indicator(0, s))
            if tr.call("radon.radon_transform", tf.radon.radon_transform, pg, aps, df):
                nonzero += 1
        tr.count("radon.radon_transform.calls", len(leaf_avoiding))
        return {"vertices": len(leaf_avoiding), "nonzero": nonzero}

    def equivariance(self, tf, obj, tr, rng, ctx):
        ball, pg, aps, m = obj
        c = tf.cochains
        base_of = {ap.base: ap.id for ap in aps}
        failures = 0
        for _ in range(20):
            g = tr.call("tree.random_automorphism", tf.tree.random_automorphism, ball, _seed(rng))
            vmap, emap = tr.call("tower.apply_automorphism", tf.tower.apply_automorphism, pg, g)
            if any(pg.head[emap[a]] != vmap[pg.head[a]] or pg.tail[emap[a]] != vmap[pg.tail[a]]
                   for a in range(pg.num_edges)):
                failures += 1
                continue
            for _ in range(3):
                f = _random_cochain(tf, rng, 0, range(pg.num_vertices), 4)
                w = _random_cochain(tf, rng, 1, range(pg.num_edges), 4)
                with tr.span("cochains.coboundary"):
                    d_ok = c.coboundary(pg, f.permuted(vmap)) == c.coboundary(pg, f).permuted(emap)
                with tr.span("cochains.adjoint"):
                    dstar_ok = c.adjoint(pg, w.permuted(emap)) == c.adjoint(pg, w).permuted(vmap)
                before = tr.call("radon.radon_transform", tf.radon.radon_transform, pg, aps, w)
                after = tr.call("radon.radon_transform", tf.radon.radon_transform,
                                pg, aps, w.permuted(emap))
                tr.count("radon.radon_transform.calls", 2)
                # g maps apartment i to the apartment on g(i's geodesic);
                # only the apartments in the support need mapping.
                moved = {base_of[tuple(g.perm[v] for v in aps.apartments[i].base)]: x
                         for i, x in before.items()}
                failures += (not d_ok) + (not dstar_ok) + (moved != after)
        return {"automorphisms": 20, "failures": failures}


def _unit_lift_count(p: int, m: int) -> int:
    """|GL(2, Z/p^m)|: the number of lifts the transitivity check enumerates."""
    return p ** (4 * (m - 1)) * (p * p - 1) * (p * p - p)


class PadicLattice(Workload):
    """Lattice distances, congruence-stabilizer samples and orbit
    certificates use no path-graph algebra, so only p-adic changes move it."""

    name = "padic-lattice"
    distance_grid = [(2, 5), (3, 3), (5, 2)]
    stabilizer_grid = [(p, n) for p in (2, 3) for n in (0, 1, 2)]
    transitivity_grid = [("root0", "+"), ("root0", "-"), ("std1", "+"), ("std1", "-")]

    def plan(self):
        return ([(f"p{p}-R{r}/distance", f"p{p}-R{r}", "distance") for p, r in self.distance_grid]
                + [(f"p{p}-n{n}/stabilizer", f"p{p}-n{n}", "stabilizer")
                   for p, n in self.stabilizer_grid]
                + [(f"p2-{path}{side}/transitivity", f"p2-{path}{side}", "transitivity")
                   for path, side in self.transitivity_grid])

    def setup(self, tf, tr):
        pa = tf.padic
        objs = {}
        for p, r in self.distance_grid:
            objs[f"p{p}-R{r}"] = tr.call("padic.embed_ball", pa.embed_ball, p, r)
        for p, n in self.stabilizer_grid:
            emb = tr.call("padic.embed_ball", pa.embed_ball, p, n + 1)
            objs[f"p{p}-n{n}"] = (p, n, emb, pa.standard_path(emb, n))
        emb2 = tr.call("padic.embed_ball", pa.embed_ball, 2, 2)
        pg0 = tr.call("tower.build_path_graph", tf.tower.build_path_graph, emb2.ball, 0)
        emb3 = tr.call("padic.embed_ball", pa.embed_ball, 2, 3)
        pg1 = tr.call("tower.build_path_graph", tf.tower.build_path_graph, emb3.ball, 1)
        for path, side in self.transitivity_grid:
            if path == "root0":
                objs[f"p2-{path}{side}"] = (emb2, pg0, pg0.vert_index[(0,)], side, 2)
            else:
                s1 = pg1.vert_index[pa.standard_path(emb3, 0)]
                objs[f"p2-{path}{side}"] = (emb3, pg1, s1, side, 3)
        return objs

    def sizes(self, tf, objs):
        out = {}
        for iid, obj in objs.items():
            if iid.endswith(("+", "-")):
                emb, pg, _s, _side, _m = obj
                out[iid] = {"V": pg.num_vertices, "E": pg.num_edges}
            else:
                emb = obj if not isinstance(obj, tuple) else obj[2]
                out[iid] = {"V": emb.ball.num_vertices}
        return out

    def distance(self, tf, emb, tr, rng, ctx):
        n, p = emb.ball.num_vertices, emb.p
        with tr.span("tree.distance"):
            expected = [[emb.ball.distance(u, v) for v in range(n)] for u in range(n)]
        lattice = emb.to_lattice
        with tr.span("padic.tree_distance"):
            got = [[tf.padic.tree_distance(lattice[u], lattice[v], p) for v in range(n)]
                   for u in range(n)]
        tr.count("padic.tree_distance.calls", n * n)
        mismatches = sum(1 for u in range(n) for v in range(n) if expected[u][v] != got[u][v])
        return {"pairs": n * n, "distance_mismatches": mismatches}

    def stabilizer(self, tf, obj, tr, rng, ctx):
        p, n, emb, path = obj
        pa = tf.padic
        fixers = tr.call("padic.sample_gamma0", pa.sample_gamma0, p, n + 1, 6, 200, _seed(rng))
        movers = tr.call("padic.sample_with_exact_lower_valuation",
                         pa.sample_with_exact_lower_valuation, p, n, 6, 20, _seed(rng))
        with tr.span("padic.fixes_path_pointwise"):
            moved = sum(1 for g in fixers if not pa.fixes_path_pointwise(g, emb, path))
            stayed = sum(1 for g in movers if pa.fixes_path_pointwise(g, emb, path))
        tr.count("padic.fixes_path_pointwise.calls", len(fixers) + len(movers))
        return {"fixers_that_moved": moved, "movers_that_stayed": stayed}

    def transitivity(self, tf, obj, tr, rng, ctx):
        emb, pg, s, side, m = obj
        res = tr.call("padic.stabilizer_transitivity_check",
                      tf.padic.stabilizer_transitivity_check, emb, pg, s, side, m)
        tr.count("padic.lifts_enumerated", _unit_lift_count(emb.p, m))
        tr.count("padic.stabilizer_size", res.stabilizer_size)
        tr.count("padic.orbit_size", res.orbit_size)
        return {"covered": res.covered, "conclusive": res.conclusive,
                "orbit_size": res.orbit_size, "target_size": res.target_size,
                "stabilizer_size": res.stabilizer_size}


_MISSING = "<missing>"


def _find(report, key):
    """Value of `key` anywhere in a nested report, so that moving fields
    into sub-objects of a report envelope does not read as a failure."""
    if isinstance(report, dict):
        if key in report:
            return report[key]
        for value in report.values():
            found = _find(value, key)
            if found is not _MISSING:
                return found
    return _MISSING


class CliSuites(Workload):
    """Every check suite through cli.main, each call building its own objects,
    so work moved into constructors shows here; the only checks/cli workload."""

    name = "cli-suites"
    # command -> (argv, report fields whose exact values are pinned)
    commands = {
        "check-euler": ("check euler --q 2 --radius 5 --k 1",
                        ("vertices", "edges", "components", "harmonic_dim", "euler_dim",
                         "h1c_dim", "non_harmonic_basis_elements", "passed")),
        "check-adjoint": ("check adjoint --q 2 --radius 4 --k 1", ("counterexample", "passed")),
        "check-radon-d": ("check radon-d --q 2 --radius 4 --k 1",
                          ("exhaustive_failures", "random_failures", "interior_vertices",
                           "passed")),
        "check-exactness": ("check exactness --q 2 --radius 4 --k 0 --scan",
                            ("kernel_dim", "image_dim", "interior_edges", "interior_vertices",
                             "equal", "minimal_passing_margin", "passed")),
        "check-loops": ("check loops --q 2 --radius 4 --k 0",
                        ("kernel_dim", "counterexample", "passed")),
        "check-primitive": ("check primitive --q 2 --radius 4 --k 0",
                            ("kernel_dim", "failures", "passed")),
        "check-equivariance": ("check equivariance --q 2 --radius 4 --k 1",
                               ("automorphisms", "failures", "passed")),
        "check-padic": ("check padic --p 2 --radius 4",
                        ("vertices", "distance_mismatches", "passed")),
        "check-stabilizer": ("check stabilizer --p 3 --n 1",
                             ("fixers_that_moved", "boundary_mover_found", "passed")),
        "check-span": ("check span --q 2 --radius 3",
                       ("diameters", "spans_at_K", "spans_at_0", "passed")),
        "check-gamma0": ("check gamma0 --matrix 1,2;4,3 --n 1 --p 2", ("passed",)),
        "ball": ("ball --q 3 --radius 4", ()),
        "tower": ("tower --q 2 --radius 5 --k 2", ()),
        "export": ("export --what apartments --q 2 --radius 4 --k 1", ()),
    }

    def __init__(self, outdir: str):
        self.outdir = outdir

    def plan(self):
        return [(cmd, cmd, "main") for cmd in self.commands]

    def setup(self, tf, tr):
        return {cmd: argv for cmd, (argv, _fields) in self.commands.items()}

    def sizes(self, tf, objs):
        return {}

    def run_case(self, tf, objs, cmd, check, tr, rng, ctx):
        argv = objs[cmd].split()
        if argv[0] == "check" and argv[1] in ("adjoint", "radon-d", "loops",
                                              "equivariance", "stabilizer"):
            argv += ["--seed", str(_seed(rng))]
        if argv[0] == "export":
            os.makedirs(self.outdir, exist_ok=True)
            argv += ["--outdir", self.outdir]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tr.call(f"cli.main.{cmd}", tf.cli.main, argv)
        text = out.getvalue()
        answers = {"exit_code": code}
        if argv[0] == "check":
            report = json.loads(text)
            answers.update({key: _find(report, key) for key in self.commands[cmd][1]})
        elif argv[0] == "ball":
            ball = json.loads(text)
            answers.update(vertices=len(ball["vertices"]), edges=len(ball["edges"]),
                           leaves=len(ball["leaves"]))
        elif argv[0] == "tower":
            answers.update({key: int(val) for key, val in
                            (part.split("=") for part in text.split())})
        else:
            with open(text.strip()) as fh:
                manifest = json.load(fh)
            answers.update(apartments=len(manifest),
                           induced_edges=sum(len(ap["induced_edges"]) for ap in manifest))
        return answers


def all_workloads(root: str) -> dict[str, Workload]:
    out = os.path.join(root, "perfbench", "out", "export")
    return {w.name: w for w in (HarmonicGrid(), ApartmentsWide(), PadicLattice(),
                                CliSuites(out))}
