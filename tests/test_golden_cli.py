"""Byte-identical CLI output on a golden grid.

Each case runs ``treeforms.cli.main`` in a fresh working directory and
hashes its exit code, stdout, stderr and every file it writes.  The
pinned hashes live in ``golden_cli.json`` next to this file; a change to
any export or JSON report shows up here as a hash mismatch.

To re-record after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden_cli.py --record``; it prints
one line per key whose hashes changed, or that was added or removed,
so the change can be stated where it is reviewed.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from treeforms import cli
from treeforms.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _cases() -> list[list[str]]:
    cases = []
    for q in (2, 3):
        for radius in (2, 3):
            for k in range(4):
                size = ["--q", str(q), "--radius", str(radius), "--k", str(k)]
                cases.append(["export", "--what", "harmonic-basis", *size, "--outdir", "."])
                cases.append(["tower", *size, "--output", "tower.json"])
                cases.append(["check", "euler", *size])
    for k in range(3):
        for margin in range(4):
            for suite in ("loops", "primitive"):
                cases.append(["check", suite, "--q", "2", "--radius", "3", "--k", str(k),
                              "--margin", str(margin)])
    for q, radius in ((3, 3), (2, 4)):
        for k in range(3):
            size = ["--q", str(q), "--radius", str(radius), "--k", str(k)]
            cases.append(["check", "primitive", *size])
            cases.append(["check", "primitive", *size, "--margin", "0"])
            cases.append(["export", "--what", "apartments", *size, "--outdir", "."])
    for q in (2, 3):
        for k in range(3):
            for margin in range(4):
                cases.append(["check", "exactness", "--q", str(q), "--radius", "3",
                              "--k", str(k), "--margin", str(margin)])
    for k in range(2):
        cases.append(["check", "exactness", "--q", "2", "--radius", "4", "--k", str(k),
                      "--scan"])
    cases += [line.split() for line in OTHER_COMMANDS + BAD_INPUT + TWO_FAULTS]
    # check exactness at margins 0 and k + 2, with and without --scan, where
    # no pin above holds the cell, under its explicit or its default margin.
    known = {" ".join(argv) for argv in cases}
    for q, radius in ((2, 2), (2, 4), (2, 5), (3, 2)):
        for k in range(2):
            for margin in (0, k + 2):
                for scan in ("", " --scan"):
                    size = f"check exactness --q {q} --radius {radius} --k {k}"
                    line = f"{size} --margin {margin}{scan}"
                    if line not in known and not (margin == k + 2 and size + scan in known):
                        cases.append(line.split())
    # check loops and check primitive at margins 0 and k + 2, under the same rule.
    for q, radius in ((2, 2), (2, 4), (2, 5), (3, 2), (3, 4)):
        for k in range(2):
            for margin in (0, k + 2):
                for suite in ("loops", "primitive"):
                    size = f"check {suite} --q {q} --radius {radius} --k {k}"
                    line = f"{size} --margin {margin}"
                    if line not in known and not (margin == k + 2 and size in known):
                        cases.append(line.split())
    return cases


# The remaining suites and commands, one or two sizes each.
OTHER_COMMANDS = [
    "check adjoint --q 2 --radius 3 --k 1",
    "check adjoint --q 3 --radius 2 --k 0 --seed 5 --samples 7",
    "check adjoint --q 2 --radius 1 --k 2",
    "check radon-d --q 2 --radius 3 --k 1 --seed 7",
    "check radon-d --q 2 --radius 2 --k 4 --samples 3",
    "check radon-d --q 2 --radius 6 --k 0 --seed 1",
    "check equivariance --q 2 --radius 2 --k 1",
    "check equivariance --q 3 --radius 2 --k 0 --seed 3 --samples 4",
    "check equivariance --q 2 --radius 6 --k 0 --seed 1",
    "check equivariance --q 3 --radius 4 --k 0 --seed 1",
    "check equivariance --q 2 --radius 1 --k 2",
    "check equivariance --q 2 --radius 4 --k 1 --seed 0",
    "check equivariance --q 2 --radius 3 --k 4 --seed 2",
    "check equivariance --q 3 --radius 2 --k 3 --seed 5",
    "check equivariance --q 2 --radius 5 --k 6 --seed 1",
    "check adjoint --q 3 --radius 3 --k 2 --seed 4",
    "check radon-d --q 2 --radius 3 --k 3 --seed 1",
    "check padic --p 2 --radius 3",
    "check padic --p 3 --radius 2",
    "check padic --p 5 --radius 2",
    "check padic --p 7 --radius 1",
    "check padic --p 2 --radius 5",
    "check padic --p 3 --radius 3",
    "check stabilizer --p 2 --n 1",
    "check stabilizer --p 3 --n 1",
    "check stabilizer --p 3 --n 0 --samples 20 --seed 4 --modulus 4",
    "check stabilizer --p 2 --n 0",
    "check stabilizer --p 5 --n 0 --seed 3",
    "check stabilizer --p 5 --n 1",
    "check stabilizer --p 2 --n 2",
    "check stabilizer --p 5 --n 1 --seed 9",
    "check stabilizer --p 3 --n 0 --modulus 3 --samples 50",
    "check stabilizer --p 7 --n 0",
    "check transitivity --p 2",
    "check transitivity --p 2 --seed 5",
    "check transitivity --p 3",
    "check transitivity --p 5",
    "check transitivity --p 7",
    "check span --q 2 --radius 2",
    "check span --q 2 --radius 3",
    "check span --q 3 --radius 2",
    "check span --q 2 --radius 1",
    "check span --q 3 --radius 1",
    "check span --q 4 --radius 2",
    "check span --q 2 --radius 4",
    "check span --q 3 --radius 3",
    "check span --q 2 --radius 5",
    "check gamma0 --p 2 --n 1 --matrix 1,0;2,1",
    "check gamma0 --p 2 --n 2 --matrix 1,0;2,1",
    "check gamma0 --p 2 --n 0 --matrix 1/3,0;0,1/3",
    "check gamma0 --matrix 1,2;4,3 --n 1 --p 2",
    "check gamma0 --p 3 --n 0 --matrix 2/3,1/3;1/3,1/3",
    "check gamma0 --p 3 --n 0 --matrix 1/5,3;9/2,1",
    "check gamma0 --p 3 --n 0 --matrix 1/3,0;0,1",
    "check gamma0 --p 3 --n 0 --matrix 1/2,1/3;0,1",
    "check gamma0 --p 3 --n 1 --matrix 1/9,1/5;1/3,4/9",
    "check gamma0 --p 3 --n 1 --matrix 2/5,1/3;3/7,1/2",
    "check gamma0 --p 2 --n 2 --matrix 3,6;12,9",
    "check gamma0 --p 2 --n 3 --matrix 3,6;12,9",
    "check gamma0 --p 2 --n 2 --matrix 2,4;8,6",
    "check gamma0 --p 2 --n 3 --matrix 2,4;8,6",
    "check gamma0 --p 5 --n 3 --matrix 2,1;250,3",
    "check gamma0 --p 5 --n 4 --matrix 2,1;250,3",
    "check gamma0 --p 7 --n 0 --matrix 0,1;1,0",
    "check gamma0 --p 7 --n 1 --matrix 0,1;1,0",
    "check gamma0 --p 3 --n 4 --matrix 1/2,0;0,1/2",
    "check gamma0 --p 2 --n 200 --matrix 1,0;0,1",
    "check euler --q 2 --radius 2 --k 1 --output report.json",
    "check euler --q 2 --radius 5 --k 1",
    "check euler --q 3 --radius 4 --k 2",
    "check euler --q 2 --radius 6 --k 1",
    "check euler --q 2 --radius 7 --k 1",
    "check exactness --q 3 --radius 4 --k 0 --margin 0 --scan",
    "check exactness --q 2 --radius 5 --k 1 --margin 3",
    "check exactness --q 3 --radius 4 --k 0 --margin 2",
    "check exactness --q 2 --radius 5 --k 1 --scan",
    "check loops --q 2 --radius 5 --k 0",
    "check loops --q 2 --radius 6 --k 1",
    "check loops --q 4 --radius 3 --k 1 --margin 1",
    "check primitive --q 2 --radius 5 --k 1",
    "check primitive --q 3 --radius 4 --k 0 --margin 1",
    "tower --q 2 --radius 2 --k 4 --output tower.json",
    "tower --q 3 --radius 1 --k 2 --output tower.json",
    "ball --q 2 --radius 2",
    "ball --q 3 --radius 2 --format dot",
    "ball --q 2 --radius 1 --output ball.json",
    "export --what ball --q 2 --radius 2 --outdir .",
    "export --what ball --q 2 --radius 2 --format dot --outdir .",
    "export --what ball --q 2 --radius 2 --k 99 --outdir .",
    "export --what tower --q 2 --radius 2 --k 1 --outdir .",
    "export --what tower --q 3 --radius 2 --k 2 --format dot --outdir .",
    "export --what apartments --q 2 --radius 2 --k 1 --outdir .",
    "export --what apartments --q 3 --radius 2 --k 0 --outdir .",
    "export --what apartments --q 2 --radius 3 --k 3 --outdir .",
    "export --what apartments --q 2 --radius 3 --k 4 --outdir .",
    "export --what apartments --q 2 --radius 3 --k 5 --outdir .",
    "export --what apartments --q 3 --radius 2 --k 2 --outdir .",
    "export --what apartments --q 3 --radius 2 --k 3 --outdir .",
]

# Refused input: exit 2 (bad argument) or 3 (I/O), with the message pinned.
BAD_INPUT = [
    "check gamma0 --matrix 1,2;4,3 --n 1 --p 1",
    "check gamma0 --matrix 1,2;4,3 --n 1 --p 0",
    "check gamma0 --matrix 1,2;4,3 --n 1 --p 4",
    "check gamma0 --matrix 1/0,0;0,1",
    "check gamma0 --p 2 --n 0 --matrix 1,2,3",
    "check gamma0 --p 2 --n 0 --matrix 1;2;3",
    "check gamma0 --p 2 --n 0 --matrix x,0;0,1",
    "check gamma0 --p 2 --n 0",
    "check gamma0 --p 2 --n 0 --matrix 1,2;2,4",
    "check padic --p 4",
    "check padic --radius 0",
    "check stabilizer --p 4 --n 1",
    "check euler --q 2 --radius 2 --k 9",
    "check euler --q 1 --radius 2",
    "check euler --q 2 --radius 0",
    "check stabilizer --p 2 --n 1 --samples 0",
    "check adjoint --q 2 --radius 3 --k 1 --samples -3",
    "check radon-d --q 2 --radius 3 --k 1 --samples 0",
    "check loops --q 2 --radius 3 --k 0 --samples 0",
    "check equivariance --q 2 --radius 2 --k 0 --samples 0",
    "check euler --samples 0",
    "check stabilizer --p 2 --n -1",
    "check gamma0 --p 2 --n -1 --matrix 1,0;2,1",
    "check exactness --margin -1",
    "check loops --margin -1",
    "check primitive --margin -1",
    "check stabilizer --n 5",
    "check stabilizer --p 3 --n 2 --modulus 3",
    "check span --q 1",
    "check span --radius 0",
    "check nonsense",
    "ball --q 1 --radius 2",
    "ball --q 2 --radius 1 --output /nonexistent-dir/x.json",
    "tower --q 2 --radius 1 --k 5",
    "tower --q 2 --radius 1 --k -1",
    "export --what ball --q 2 --radius 1 --outdir /no/such/dir",
    "export --what tower --q 2 --radius 1 --k 5 --outdir .",
    "export --what harmonic-basis --q 1 --radius 1 --outdir .",
    "export --what apartments --q 2 --radius 2 --k 1 --format dot --outdir .",
    "export --what harmonic-basis --q 2 --radius 1 --format dot --outdir .",
    "check euler --q 2 --radius 2 --samples 5 --p 4 --margin -3 --matrix zz --modulus 0",
    "check euler --seed 0",
    "check padic --p 2 --radius 2 --q 3",
    "check span --q 2 --radius 2 --k 1",
    "check transitivity --p 2 --scan",
    "check gamma0 --matrix 1,0;2,1 --radius 2",
    "check exactness --q 2 --radius 3 --samples 4",
    "check primitive --q 2 --radius 2 --seed 1",
]

# Two faults in one call: which error wins is part of the output.
TWO_FAULTS = [
    "export --what ball --q 1 --radius 1 --outdir /no/such",
    "export --what tower --q 2 --radius 1 --k 9 --outdir /no/such",
    "export --what tower --q 1 --radius 1 --k 9 --outdir .",
    "export --what apartments --q 2 --radius 2 --format dot --outdir /no/such",
    "export --what harmonic-basis --q 1 --radius 1 --format dot --outdir .",
    "check stabilizer --p 4 --n -1",
    "check stabilizer --p 4 --n 5",
    "check stabilizer --n -1 --samples 0",
    "check loops --margin -1 --samples 0",
    "check exactness --k 9 --margin -1",
    "check euler --q 1 --radius 0 --k 9",
    "check gamma0 --p 4",
    "check gamma0 --n -1",
    "check padic --p 4 --radius 0",
    "check span --q 1 --radius 0",
    "tower --q 1 --radius 1 --k 9",
    "check transitivity --p 4 --seed 5",
    "check euler --k 9 --p 3",
    "check span --q 2 --radius 2 --samples 0",
    "check gamma0 --p 2 --n 0 --matrix x,0;0,1 --seed 1",
]


CASES = _cases()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str]) -> dict:
    """Run one invocation in an empty directory and hash what it produced."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            listing = "".join(f"{name}\0{_sha(Path(name).read_bytes())}\n"
                              for name in sorted(os.listdir(".")))
        finally:
            os.chdir(cwd)
    return {"exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()),
            "files": _sha(listing.encode()), "nfiles": listing.count("\n")}


def _key(argv: list[str]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_grid_is_the_pinned_one(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in CASES)


def test_every_suite_is_pinned():
    pinned = {argv[1] for argv in CASES if argv[0] == "check"}
    assert set(cli.SUITES) <= pinned


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_cli_output_is_byte_identical(golden, argv):
    assert run_case(argv) == golden[_key(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --record")
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {_key(argv): run_case(argv) for argv in CASES}
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            print(f"removed: {key}")
        elif key not in old:
            print(f"added: {key}")
        elif old[key] != new[key]:
            print(f"changed: {key}")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
