"""Benchmark for exact verification time in treeforms.

    python3 perfbench/run.py --workload harmonic-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
`src/` beside this directory, never from an installed copy.  One workload
runs in this process as a closed loop with one client: passes over the
workload's case list run back to back until `--seconds` have elapsed, and
every case starts only after the previous one has finished.  `all` runs
each workload in a fresh process, one after another.

With `--trace 0` the end-to-end metrics are measured (medians over passes
and set-ups), with times in reference seconds: wall time corrected for
the machine's speed, which `speed.py` samples during the run.  With `--trace 1` untraced and traced passes alternate and
the per-layer metrics come from the traced ones; spans are written to
`perfbench/out/` when the run ends.  Every answer is compared with
`golden.json`; the last line of stdout is one JSON object, and the exit
status is 1 if any case failed, 2 if the benchmark refused to run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types

from spans import NullTracer, Tracer, layer_of, self_times
from speed import REF_LOOP_S, Speed
from workloads import CliSuites, all_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
OUT = os.path.join(HERE, "out")

MODULES = ("tree", "tower", "cochains", "_linalg", "radon", "padic", "checks", "cli")
LAYERS = ("tree", "tower", "cochains", "linalg", "radon", "padic", "cli", "bench")

END_TO_END = (("verify_s", "s"), ("setup_s", "s"), ("worst_case_s", "s"), ("peak_rss_mb", "MB"))

TIMED_CALLS = (
    "cochains.intersect_harmonic_exact", "cochains.coboundary_rank", "cochains.harmonic_space",
    "linalg.solve",
    "radon.exactness_check", "radon.radon_kernel_interior", "radon.radon_transform",
    "radon.primitive", "radon.enlarged_support", "radon.fundamental_loops",
    "radon.random_loops", "radon.path_integral", "radon.induced_apartments",
    "tree.build_ball", "tree.enumerate_oriented_diameters", "tree.random_automorphism",
    "tower.build_path_graph", "tower.num_components", "tower.apply_automorphism",
    "padic.embed_ball", "padic.tree_distance", "padic.fixes_path_pointwise",
    "padic.sample_gamma0", "padic.stabilizer_transitivity_check",
) + tuple(f"cli.main.{cmd}" for cmd in CliSuites.commands)
COUNTS = (
    "radon.radon_transform.calls", "radon.path_integral.calls",
    "padic.tree_distance.calls", "padic.fixes_path_pointwise.calls",
    "linalg.rows_in", "linalg.rank_out",
    "radon.apartment_count", "radon.window_count", "radon.kernel_rows_distinct",
    "radon.kernel_dim", "tree.diameter_count",
    "tower.vertex_count", "tower.edge_count", "tower.component_count",
    "padic.lifts_enumerated", "padic.stabilizer_size", "padic.orbit_size",
)
# yield -> (numerator, denominator); both are reported as counts.
YIELDS = {
    "linalg.rank_yield": ("linalg.rank_out", "linalg.rows_in"),
    "radon.kernel_row_yield": ("radon.kernel_rows_distinct", "radon.apartment_count"),
    "padic.stabilizer_yield": ("padic.stabilizer_size", "padic.lifts_enumerated"),
}
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.verify_traced_s", "s"),
                 ("trace.verify_untraced_s", "s"), ("trace.spans", "count"))
PER_LAYER = (tuple((f"{name}.s", "s") for name in TIMED_CALLS)
             + tuple((name, "count") for name in COUNTS)
             + tuple((name, "ratio") for name in YIELDS)
             + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS)
             + TRACE_METRICS)

NULL = NullTracer()
SETUP_SHARE = 0.1  # set-up time spent after each pass, as a share of the pass


class Refused(Exception):
    """The benchmark cannot run as defined; nothing is measured."""


def import_treeforms():
    """Fresh import of every library module from the checkout's `src/`."""
    for name in [m for m in sys.modules if m == "treeforms" or m.startswith("treeforms.")]:
        del sys.modules[name]
    try:
        tf = types.SimpleNamespace(**{m.lstrip("_"): importlib.import_module(f"treeforms.{m}")
                                      for m in MODULES})
    except ImportError as exc:
        raise Refused(f"cannot import treeforms from {SRC}: {exc}") from exc
    if not os.path.abspath(tf.tree.__file__).startswith(SRC + os.sep):
        raise Refused(f"treeforms was imported from {tf.tree.__file__}, not from {SRC}")
    return tf


def check_definition(wl, golden: dict) -> None:
    pinned = golden.get(wl.name, {}).get("cases", {})
    planned = [cid for cid, _iid, _check in wl.plan()]
    if planned != list(pinned):
        raise Refused(f"{wl.name}: the case list differs from golden.json "
                      f"({len(planned)} cases planned, {len(pinned)} pinned)")


def check_sizes(wl, tf, objs, golden: dict) -> None:
    sizes = wl.sizes(tf, objs)
    if sizes != golden[wl.name]["sizes"]:
        raise Refused(f"{wl.name}: instance sizes differ from golden.json: {sizes}")


def run_pass(wl, tf, objs, expected: dict, tr, seed: int, pass_no: int, errors: list):
    """One pass over the case list; returns ((start, end) of each case,
    failures, answers)."""
    ctx: dict = {}
    intervals, answers, failed = [], {}, 0
    gc.collect()  # garbage left by earlier passes or set-ups is not this pass's cost
    with tr.span("pass"):
        for cid, iid, check in wl.plan():
            rng = random.Random(f"{seed}/{pass_no}/{cid}")
            t0 = time.perf_counter()
            try:
                with tr.span(f"case {cid}"):
                    got = wl.run_case(tf, objs, iid, check, tr, rng, ctx.setdefault(iid, {}))
            except Exception:
                got = None
                errors.append(f"{cid}: {traceback.format_exc()}")
            intervals.append((t0, time.perf_counter()))
            answers[cid] = got
            if got != expected.get(cid):
                failed += 1
                if got is not None:
                    errors.append(f"{cid}: got {got}, golden {expected.get(cid)}")
    return intervals, failed, answers


def _passes(seconds: float):
    """Pass numbers until `seconds` have elapsed; always at least one."""
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < seconds:
        yield n
        n += 1


def run_untraced(wl, golden: dict, seed: int, seconds: float, errors: list):
    """End-to-end metrics, in reference seconds (see speed.py)."""
    speed = Speed()
    setups: list[tuple[float, float]] = []

    def set_up():
        t0 = time.perf_counter()
        tf = import_treeforms()
        objs = wl.setup(tf, NULL)
        setups.append((t0, time.perf_counter()))
        return tf, objs

    speed.start()
    try:
        tf, objs = set_up()
        check_sizes(wl, tf, objs, golden)
        expected = golden[wl.name]["cases"]
        passes, attempted, failed = [], 0, 0
        for n in _passes(seconds):
            intervals, f, _answers = run_pass(wl, tf, objs, expected, NULL, seed, n, errors)
            passes.append(intervals)
            attempted += len(intervals)
            failed += f
            # Set-up repeats are spread over the run, between passes, so that
            # their median sees the same machine as the passes do.
            until = time.perf_counter() + SETUP_SHARE * (intervals[-1][1] - intervals[0][0])
            while True:
                tf = objs = None
                tf, objs = set_up()
                if time.perf_counter() >= until:
                    break
    finally:
        speed.stop()
    case_times = [[speed.seconds(a, b) for a, b in intervals] for intervals in passes]
    pass_times = [sum(times) for times in case_times]
    case_medians = [statistics.median(times) for times in zip(*case_times)]
    worst = max(case_medians)
    wall = statistics.median(sum(speed.busy(a, b) for a, b in intervals) for intervals in passes)
    metrics = {
        "verify_s": statistics.median(pass_times),
        "setup_s": statistics.median(speed.seconds(a, b) for a, b in setups),
        "worst_case_s": worst,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    loop_ms = 1000 * statistics.median(speed.durations)
    notes = {
        "verify_s": (f"median of {len(pass_times)} passes of {len(case_medians)} cases; "
                     f"{wall:.3f} s of wall time"),
        "setup_s": f"median of {len(setups)} set-ups",
        "worst_case_s": (f"slowest case by its median over {len(pass_times)} passes: "
                         f"{wl.plan()[case_medians.index(worst)][0]}"),
        "peak_rss_mb": "this process, ru_maxrss",
        "speed": (f"{len(speed.durations)} reference loops, median {loop_ms:.3f} ms "
                  f"(a reference second is {1000 * REF_LOOP_S:.3f} ms per loop)"),
    }
    return metrics, notes, attempted, failed


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-pass sums of span durations, layer self times and counts.

    A name recorded during the measured passes reports the median of its
    per-pass sums; a name recorded only during set-up reports the set-up
    value.  Names never recorded report 0.
    """
    selfs = self_times(tr.spans)
    by_pass: dict[str, dict[str, float]] = {}
    for sid, name, start, end, _parent, pid in tr.spans:
        sums = by_pass.setdefault(pid, {})
        for key, value in ((f"{name}.s", end - start),
                           (f"layer.{layer_of(name)}.self_s", selfs[sid]),
                           ("trace.spans", 1)):
            sums[key] = sums.get(key, 0) + value
    for (pid, name), n in tr.counts.items():
        sums = by_pass.setdefault(pid, {})
        sums[name] = sums.get(name, 0) + n
    measured = [sums for pid, sums in by_pass.items() if pid != "setup"]
    setup = by_pass.get("setup", {})
    out = {}
    for name, _unit in PER_LAYER:
        values = [sums[name] for sums in measured if name in sums]
        out[name] = statistics.median(values) if values else setup.get(name, 0)
    for name, (num, den) in YIELDS.items():
        out[name] = out[num] / out[den] if out[den] else 0
    return out


def run_traced(wl, golden: dict, seed: int, seconds: float, errors: list):
    tr = Tracer()
    tf = import_treeforms()
    objs = wl.setup(tf, tr)
    check_sizes(wl, tf, objs, golden)
    expected = golden[wl.name]["cases"]
    untraced, traced, attempted, failed = [], [], 0, 0
    for n in _passes(seconds):
        # Alternate which kind runs first, so warm-up favours neither.
        for traced_now in ((False, True) if n % 2 == 0 else (True, False)):
            tr.pass_id = f"pass{n}"
            intervals, f, _answers = run_pass(wl, tf, objs, expected,
                                              tr if traced_now else NULL, seed, n, errors)
            (traced if traced_now else untraced).append(sum(b - a for a, b in intervals))
            attempted += len(intervals)
            failed += f
    metrics = layer_metrics(tr)
    metrics["trace.verify_traced_s"] = statistics.median(traced)
    metrics["trace.verify_untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.verify_traced_s"] - metrics["trace.verify_untraced_s"]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{wl.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": wl.name, "seed": seed,
                   "span_fields": ["id", "name", "start", "end", "parent", "pass"],
                   "spans": tr.spans, "metrics": metrics}, fh)
    notes = {"trace.overhead_s": f"traced minus untraced verify_s, {len(traced)} passes each; "
                                 f"spans in {os.path.relpath(path, ROOT)}"}
    return metrics, notes, attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden: dict) -> int:
    wl = all_workloads(ROOT)[name]
    check_definition(wl, golden)
    errors: list[str] = []
    run = run_traced if trace else run_untraced
    metrics, notes, attempted, failed = run(wl, golden, seed, seconds, errors)
    for err in errors[:5]:
        print(f"FAILED {err}", file=sys.stderr)
    units = dict(PER_LAYER if trace else END_TO_END)
    print(f"{name} seed={seed} trace={int(trace)}: {attempted} cases attempted, {failed} failed")
    for key, value in metrics.items():
        if not trace or value or key in notes:
            note = f"  ({notes[key]})" if key in notes else ""
            print(f"  {key:42s} {value:14.6f} {units[key]}{note}")
    print(f"  {'failed_frac':42s} {failed / attempted:14.6f} ratio  ({failed} of {attempted} cases)")
    if "speed" in notes:
        print(f"  times in reference seconds: {notes['speed']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process, one after another."""
    status, attempted, failed = 0, 0, 0
    for name in all_workloads(ROOT):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        if proc.returncode in (0, 1) and lines:
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
    print(f"all workloads: {failed} of {attempted} cases failed, exit status {status}")
    return status


def main(argv=None, golden: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(all_workloads(ROOT)) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        if golden is None:
            with open(GOLDEN) as fh:
                golden = json.load(fh)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    except (Refused, OSError) as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
