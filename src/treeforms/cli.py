"""Command-line front end.

Subcommands build objects, run the named verification suites, and write
the documented export formats.  All output is a deterministic function
of the arguments and seed; rationals are printed exactly, never as
floats.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 invalid arguments, 3 I/O error, 4 internal error (an unexpected
exception, reported as one stderr line without a traceback).
TREEFORMS_OUTDIR sets the default output directory for exports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checks
from .cochains import basis_manifest, cochain_to_csv, harmonic_space
from .padic import in_gamma0, is_prime
from .radon import induced_apartments
from .tower import build_path_graph, num_components
from .tree import TreeParams, build_ball, enumerate_oriented_diameters

# suite -> call(args, margin, samples) -> (passed, report)
SUITE_CALLS = {
    "euler": lambda a, margin, samples: checks.check_euler(a.q, a.radius, a.k),
    "adjoint": lambda a, margin, samples: checks.check_adjoint(a.q, a.radius, a.k,
                                                               a.seed, samples),
    "radon-d": lambda a, margin, samples: checks.check_radon_d(a.q, a.radius, a.k,
                                                               a.seed, samples),
    "exactness": lambda a, margin, samples: checks.check_exactness(a.q, a.radius, a.k,
                                                                   margin, scan=a.scan),
    "loops": lambda a, margin, samples: checks.check_loops(a.q, a.radius, a.k, margin,
                                                           a.seed, samples),
    "primitive": lambda a, margin, samples: checks.check_primitive(a.q, a.radius, a.k,
                                                                   margin),
    "equivariance": lambda a, margin, samples: checks.check_equivariance(
        a.q, a.radius, a.k, a.seed, samples),
    "padic": lambda a, margin, samples: checks.check_padic(a.p, a.radius),
    "stabilizer": lambda a, margin, samples: checks.check_stabilizer(a.p, a.n, samples,
                                                                     a.seed, a.modulus),
    "transitivity": lambda a, margin, samples: checks.check_transitivity(a.p, a.seed),
    "span": lambda a, margin, samples: checks.check_span(a.q, a.radius),
    "gamma0": lambda a, margin, samples: _check_gamma0(a),
}
SUITES = tuple(SUITE_CALLS)
K_SUITES = ("euler", "adjoint", "radon-d", "exactness", "loops", "primitive",
            "equivariance")
P_SUITES = ("padic", "stabilizer", "transitivity", "gamma0")
N_SUITES = ("stabilizer", "gamma0")
# --samples when the flag is omitted.
DEFAULT_SAMPLES = {"adjoint": 100, "radon-d": 100, "loops": 200, "equivariance": 20,
                   "stabilizer": 200}


def _check_k(k: int, radius: int) -> None:
    """The one k-range rule: a radius-R ball has k-paths for 0 <= k <= 2R."""
    if not 0 <= k <= 2 * radius:
        raise ValueError(f"no {k}-paths in a radius-{radius} ball "
                         f"(need 0 <= k <= {2 * radius})")


def parse_matrix(text: str):
    """Inline 2x2 matrix: entries are integers or num/den rationals,
    comma-separated within rows, rows separated by a semicolon."""
    from fractions import Fraction

    from .padic import GroupElement
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError("matrix must have two rows separated by ';'")
    entries = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise ValueError("each matrix row needs two comma-separated entries")
        for part in parts:
            try:
                entries.append(Fraction(part.strip()))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad matrix entry {part.strip()!r}") from None
    return GroupElement.of(*entries)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> _Parser:
    parser = _Parser(prog="treeforms",
                     description="Exact path-tower combinatorics over homogeneous tree balls")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ball = sub.add_parser("ball", help="build a tree ball and export it")
    p_ball.add_argument("--q", type=int, required=True)
    p_ball.add_argument("--radius", type=int, required=True)
    p_ball.add_argument("--format", choices=("json", "dot"), default="json")
    p_ball.add_argument("--output", help="file path (default: stdout)")

    p_tower = sub.add_parser("tower", help="build a level-k path graph")
    p_tower.add_argument("--q", type=int, required=True)
    p_tower.add_argument("--radius", type=int, required=True)
    p_tower.add_argument("--k", type=int, required=True)
    p_tower.add_argument("--format", choices=("json", "dot"), default="json")
    p_tower.add_argument("--output", help="file path (summary always on stdout)")

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=SUITES)
    p_check.add_argument("--q", type=int, default=2)
    p_check.add_argument("--radius", type=int, default=3)
    p_check.add_argument("--k", type=int, default=0)
    p_check.add_argument("--margin", type=int, default=None,
                         help="interior margin (default: k+2)")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--samples", type=int, default=None)
    p_check.add_argument("--p", type=int, default=2)
    p_check.add_argument("--n", type=int, default=0)
    p_check.add_argument("--modulus", type=int, default=6,
                         help="congruence sampling exponent m (entries mod p^m)")
    p_check.add_argument("--scan", action="store_true",
                         help="exactness: also report the minimal passing margin")
    p_check.add_argument("--matrix", help="gamma0: inline 2x2 matrix 'a,b;c,d' "
                                          "with integer or num/den entries")
    p_check.add_argument("--output", help="write the JSON report here as well")

    p_export = sub.add_parser("export", help="write export files")
    p_export.add_argument("--what", choices=("ball", "tower", "harmonic-basis", "apartments"),
                          required=True)
    p_export.add_argument("--q", type=int, required=True)
    p_export.add_argument("--radius", type=int, required=True)
    p_export.add_argument("--k", type=int, default=0)
    p_export.add_argument("--format", choices=("json", "dot"), default="json")
    p_export.add_argument("--outdir", default=None,
                          help="output directory (default: $TREEFORMS_OUTDIR or .)")
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _write_file(output, text)


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"treeforms: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(3)


def _cmd_ball(args) -> int:
    try:
        ball = build_ball(TreeParams(args.q, args.radius))
    except ValueError as exc:
        print(f"treeforms: {exc}", file=sys.stderr)
        return 2
    _emit(ball.to_json() if args.format == "json" else ball.to_dot(), args.output)
    return 0


def _cmd_tower(args) -> int:
    try:
        params = TreeParams(args.q, args.radius)
        _check_k(args.k, args.radius)
    except ValueError as exc:
        print(f"treeforms: {exc}", file=sys.stderr)
        return 2
    ball = build_ball(params)
    pg = build_path_graph(ball, args.k)
    print(f"V={pg.num_vertices} E={pg.num_edges} C={num_components(pg)}")
    if args.output:
        _write_file(args.output, pg.to_json() if args.format == "json" else pg.to_dot())
    return 0


def _check_gamma0(args) -> tuple[bool, dict]:
    if not args.matrix:
        raise ValueError("gamma0 requires --matrix")
    g = parse_matrix(args.matrix)
    passed = in_gamma0(g, args.n, args.p)
    return passed, {"check": "gamma0",
                    "params": {"matrix": g.to_json_dict(), "n": args.n, "p": args.p},
                    "samples": 1, "passed": passed}


def _cmd_check(args) -> int:
    margin = args.margin if args.margin is not None else args.k + 2
    samples = args.samples if args.samples is not None else DEFAULT_SAMPLES.get(args.suite)
    try:
        if args.samples is not None and args.samples < 1:
            raise ValueError(f"--samples must be >= 1, got {args.samples}")
        if args.suite in N_SUITES and args.n < 0:
            raise ValueError(f"--n must be >= 0, got {args.n}")
        if args.suite in K_SUITES:
            TreeParams(args.q, args.radius)
            _check_k(args.k, args.radius)
        if args.suite in P_SUITES and not is_prime(args.p):
            raise ValueError(f"p must be a prime, got {args.p}")
        passed, report = SUITE_CALLS[args.suite](args, margin, samples)
    except ValueError as exc:
        print(f"treeforms: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.output:
        _write_file(args.output, text)
    return 0 if passed else 1


def _cmd_export(args) -> int:
    outdir = args.outdir or os.environ.get("TREEFORMS_OUTDIR") or "."
    if not os.path.isdir(outdir):
        print(f"treeforms: output directory {outdir!r} does not exist", file=sys.stderr)
        return 3
    try:
        ball = build_ball(TreeParams(args.q, args.radius))
    except ValueError as exc:
        print(f"treeforms: {exc}", file=sys.stderr)
        return 2
    tag = f"q{args.q}r{args.radius}"
    if args.what == "ball":
        ext = args.format
        path = os.path.join(outdir, f"ball_{tag}.{ext}")
        _write_file(path, ball.to_json() if args.format == "json" else ball.to_dot())
        print(path)
        return 0
    try:
        _check_k(args.k, args.radius)
    except ValueError as exc:
        print(f"treeforms: {exc}", file=sys.stderr)
        return 2
    pg = build_path_graph(ball, args.k)
    if args.what == "tower":
        ext = args.format
        path = os.path.join(outdir, f"tower_{tag}k{args.k}.{ext}")
        _write_file(path, pg.to_json() if args.format == "json" else pg.to_dot())
        print(path)
        return 0
    if args.what == "harmonic-basis":
        basis = harmonic_space(pg)
        files = []
        for i, vec in enumerate(basis):
            name = f"harmonic_{tag}k{args.k}_{i:04d}.csv"
            _write_file(os.path.join(outdir, name), cochain_to_csv(vec))
            files.append(name)
        manifest = os.path.join(outdir, f"harmonic_{tag}k{args.k}_manifest.json")
        _write_file(manifest, basis_manifest(pg, basis, files))
        print(manifest)
        return 0
    aps = induced_apartments(pg, enumerate_oriented_diameters(ball))
    path = os.path.join(outdir, f"apartments_{tag}k{args.k}.json")
    _write_file(path, aps.to_manifest_json())
    print(path)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "ball":
            return _cmd_ball(args)
        if args.command == "tower":
            return _cmd_tower(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_export(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        # Anything else is a defect in treeforms, not a verdict or bad input.
        message = " ".join(str(exc).splitlines())
        print(f"treeforms: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
