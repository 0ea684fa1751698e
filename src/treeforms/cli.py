"""Command-line front end.

Subcommands build objects, run the named verification suites, and write
the documented export formats.  All output is a deterministic function
of the arguments and seed; rationals are printed exactly, never as
floats.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 invalid arguments (refused before anything is built), 3 I/O error,
4 internal error (any exception once the arguments are accepted, a
ValueError inside a suite included, reported as one stderr line without
a traceback).  Every refusal with exit 2 prints one stderr line and no
usage text, argparse's own (unknown command, suite or flag, missing
required flag, bad value or choice) included.
TREEFORMS_OUTDIR sets the default output directory for exports.

The argument parser is built once per process, on the first ``main``
call, and reused: argparse keeps no state between ``parse_args`` calls,
so a process that calls ``main`` many times, as the test suite does,
pays for one build.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from fractions import Fraction

from . import checks
from .cochains import basis_manifest, cochain_to_csv, harmonic_space
from .padic import GroupElement, is_prime
from .radon import interior_family
from .tower import build_path_graph, num_components
from .tree import TreeParams, build_ball

def _suite(name: str):
    """checks.check_<name>, looked up per call, so that a replaced suite
    function is the one run."""
    return getattr(checks, "check_" + name.replace("-", "_"))


# suite -> {run parameter of its checks.check_<suite>: its signature
# default, or None}.  The parameters are also the suite's check flags (for
# equivariance, --samples counts the automorphisms).  Read once at import,
# so that a suite function replaced later is still called with the same
# keywords.  A flag left out takes the suite's default, else the default
# instance's value (DEFAULT_INSTANCE), else --margin is k+2 and --matrix is
# refused.  The pre-flight checks the flags a suite reads and refuses any
# other check flag but --output.
SUITES = {suite: {name: None if param.default is param.empty else param.default
                  for name, param in inspect.signature(_suite(suite)).parameters.items()}
          for suite in ("euler", "adjoint", "radon-d", "exactness", "loops", "primitive",
                        "equivariance", "padic", "stabilizer", "transitivity", "span",
                        "gamma0")}

DEFAULT_INSTANCE = {"q": 2, "radius": 3, "k": 0, "seed": 0, "p": 2, "n": 0}


def parse_matrix(text: str) -> GroupElement:
    """Inline 2x2 matrix: entries are integers or num/den rationals,
    comma-separated within rows, rows separated by a semicolon."""
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
    # Not exit_on_error=False: argparse still sends "required" and
    # "unrecognized" refusals through error().
    def error(self, message):
        """Refuse as the pre-flight does: one ValueError line from main."""
        raise ValueError(message)


@functools.cache
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
    p_check.add_argument("--q", type=int)
    p_check.add_argument("--radius", type=int)
    p_check.add_argument("--k", type=int)
    p_check.add_argument("--margin", type=int, help="interior margin (default: k+2)")
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--samples", type=int)
    p_check.add_argument("--p", type=int)
    p_check.add_argument("--n", type=int)
    p_check.add_argument("--modulus", type=int,
                         help="congruence sampling exponent m (entries mod p^m)")
    p_check.add_argument("--scan", action="store_const", const=True,
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


def _render(obj, fmt: str) -> str:
    """A ball or path graph in the chosen export format."""
    return obj.to_json() if fmt == "json" else obj.to_dot()


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"treeforms: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(3)


def _preflight(args) -> None:
    """Every argument check of every command, before anything is built.

    The checks run in one fixed order, so that of two faults the same one
    is reported: a missing export directory (exit 3) first, then an
    export --format that the --what does not have, then other bad input,
    and last a check flag (other than --output) that the suite does not
    read, all three as a ValueError (exit 2).  Fills in each check flag
    left out (``SUITES``) and replaces --matrix by the matrix it parses to.
    """
    if args.command == "export":
        args.outdir = args.outdir or os.environ.get("TREEFORMS_OUTDIR") or "."
        if not os.path.isdir(args.outdir):
            print(f"treeforms: output directory {args.outdir!r} does not exist",
                  file=sys.stderr)
            raise SystemExit(3)
        if args.format != "json" and args.what not in ("ball", "tower"):
            raise ValueError(f"--format {args.format} applies only to --what ball or tower, "
                             f"not --what {args.what}")
    if args.command == "check":
        params = SUITES[args.suite]
        for flag, default in params.items():
            if getattr(args, flag) is None:
                setattr(args, flag, DEFAULT_INSTANCE.get(flag) if default is None else default)
    elif args.command == "tower" or (args.command == "export" and args.what != "ball"):
        params = ("q", "radius", "k")
    else:
        params = ("q", "radius")
    samples = getattr(args, "samples", None)
    if samples is not None and samples < 1:
        raise ValueError(f"--samples must be >= 1, got {samples}")
    if "n" in params and args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    if "p" in params and not is_prime(args.p):
        raise ValueError(f"p must be a prime, got {args.p}")
    if "radius" in params:  # padic's ball is the (p+1)-tree's
        TreeParams(args.q if "q" in params else args.p, args.radius)
    # The one k-range rule: a radius-R ball has k-paths for 0 <= k <= 2R.
    if "k" in params and not 0 <= args.k <= 2 * args.radius:
        raise ValueError(f"no {args.k}-paths in a radius-{args.radius} ball "
                         f"(need 0 <= k <= {2 * args.radius})")
    if "margin" in params:
        if args.margin is None:
            args.margin = args.k + 2
        if args.margin < 0:
            raise ValueError("margin must be >= 0")
    if "modulus" in params and args.modulus <= args.n + 1:
        raise ValueError(f"--modulus must be > --n + 1 = {args.n + 1}, got {args.modulus}")
    if "matrix" in params:
        if not args.matrix:
            raise ValueError("gamma0 requires --matrix")
        args.matrix = parse_matrix(args.matrix)
    if args.command == "check":
        # Every other flag is None unless given, since only params were filled.
        unread = sorted(flag for flag, value in vars(args).items() if value is not None
                        and flag not in (*params, "command", "suite", "output"))
        if unread:
            raise ValueError(f"check {args.suite} does not read "
                             + ", ".join("--" + flag for flag in unread))


def _cmd_ball(args) -> int:
    text = _render(build_ball(TreeParams(args.q, args.radius)), args.format)
    if args.output is None:
        sys.stdout.write(text)
    else:
        _write_file(args.output, text)
    return 0


def _cmd_tower(args) -> int:
    pg = build_path_graph(build_ball(TreeParams(args.q, args.radius)), args.k)
    print(f"V={pg.num_vertices} E={pg.num_edges} C={num_components(pg)}")
    if args.output:
        _write_file(args.output, _render(pg, args.format))
    return 0


def _cmd_check(args) -> int:
    passed, report = _suite(args.suite)(**{kw: getattr(args, kw) for kw in SUITES[args.suite]})
    text = json.dumps(report, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.output:
        _write_file(args.output, text)
    return 0 if passed else 1


def _cmd_export(args) -> int:
    ball = build_ball(TreeParams(args.q, args.radius))
    tag = f"q{args.q}r{args.radius}"
    if args.what == "ball":
        name, text = f"ball_{tag}.{args.format}", _render(ball, args.format)
    else:
        pg = build_path_graph(ball, args.k)
        tag += f"k{args.k}"
        if args.what == "tower":
            name, text = f"tower_{tag}.{args.format}", _render(pg, args.format)
        elif args.what == "apartments":
            name, text = f"apartments_{tag}.json", interior_family(pg, 0).to_manifest_json()
        else:
            basis = harmonic_space(pg)
            files = [f"harmonic_{tag}_{i:04d}.csv" for i in range(len(basis))]
            for file, vec in zip(files, basis):
                _write_file(os.path.join(args.outdir, file), cochain_to_csv(vec))
            name, text = f"harmonic_{tag}_manifest.json", basis_manifest(pg, basis, files)
    # args.outdir was resolved and checked by the pre-flight.
    path = os.path.join(args.outdir, name)
    _write_file(path, text)
    print(path)
    return 0


COMMANDS = {"ball": _cmd_ball, "tower": _cmd_tower, "check": _cmd_check,
            "export": _cmd_export}


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
            _preflight(args)
        except ValueError as exc:
            print(f"treeforms: {exc}", file=sys.stderr)
            return 2
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        # Anything else is a defect in treeforms, not a verdict or bad input.
        message = " ".join(str(exc).splitlines())
        print(f"treeforms: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
