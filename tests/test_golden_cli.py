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
    for q in (2, 3):
        for k in range(3):
            for margin in range(4):
                cases.append(["check", "exactness", "--q", str(q), "--radius", "3",
                              "--k", str(k), "--margin", str(margin)])
    for k in range(2):
        cases.append(["check", "exactness", "--q", "2", "--radius", "4", "--k", str(k),
                      "--scan"])
    return cases


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
