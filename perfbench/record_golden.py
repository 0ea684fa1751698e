"""Write golden.json: each workload's case list, instance sizes and answers.

    python3 perfbench/record_golden.py

Runs one untraced pass per workload against the library in `src/` and
records what it returns.  The answers are seed-independent, so any seed
gives the same file.  Re-record only when a case list changes on
purpose, and review the diff: the file is what makes a wrong answer or a
shrunken workload show.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import all_workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    golden = {}
    for name, wl in all_workloads(run.ROOT).items():
        tf = run.import_treeforms()
        objs = wl.setup(tf, run.NULL)
        errors: list[str] = []
        _intervals, _failed, answers = run.run_pass(wl, tf, objs, {}, run.NULL, 0, 0, errors)
        crashed = [cid for cid, got in answers.items() if got is None]
        if crashed:
            print("\n".join(errors), file=sys.stderr)
            return 1
        golden[name] = {"sizes": wl.sizes(tf, objs), "cases": answers}
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
