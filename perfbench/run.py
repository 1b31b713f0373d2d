"""Benchmark of the spectacle CLI: one closed-loop client, no threads.

    python3 perfbench/run.py --workload lift-identity --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Each operation is one CLI invocation run in-process through
``spectacle.cli.main(argv)`` with ``--out`` pointing into ``.perfbench_run/``.
The operations of a workload are generated from ``--seed``
(``perfbench/workloads.py``); one pass runs all of them in a fresh
interpreter, so no cache survives from one pass to the next, and passes
repeat until ``--seconds`` have elapsed.  Every output is checked by a
second route outside the timed region (``perfbench/checks.py``); exact
outputs whose argv was run for the default seed must also match the SHA-256
digests frozen then.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untimed
pass under tracemalloc, then alternates untraced and traced passes, and
prints the per-layer metrics.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}.  The exit
code is non-zero when an exact output fails its check or its digest.
``--workload all`` runs every workload in turn, each with ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calibration import CAL_NOMINAL_S  # noqa: E402
from tracer import TARGETS, metric_name  # noqa: E402

DEFAULT_SEED = 1
DIGESTS = os.path.join(HERE, "digests.json")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_PROBES = 5  # at least, per untraced run
PROBES_PER_PASS = 2
PASS_TIMEOUT_S = 150
# What every CLI call does first, bracketed by the calibration loop; the
# loop's own time is printed so that it can be taken out of the wall time.
SETUP_CODE = f"""
import sys, time
sys.path.insert(0, {HERE!r})
from calibration import calibrate
t = time.perf_counter(); c0 = calibrate(); d = time.perf_counter() - t
import spectacle.cli
from spectacle import shintani_lift, theta11
shintani_lift.arbitrate_signs()
theta11.global_sign()
t = time.perf_counter(); c1 = calibrate(); d += time.perf_counter() - t
print(d, (c0 + c1) / 2)
"""
# Counted-only kernels report calls as well as time; the geometric side's
# self time and completed_L (timed in the checks) are reported apart.
REPORTED_APART = ("shintani_lift.lift_geometric_side", "periods.completed_L")
COUNTED = tuple(metric_name(m, a) for m, a, span in TARGETS if not span)
TIMED = tuple(name for name in (metric_name(m, a) for m, a, span in TARGETS if span)
              if name not in REPORTED_APART)
# Fitted over each workload's two sizes: (metric, traced function, self time?).
EXPONENTS = (
    ("shintani_lift.lift_geometric_side.exponent", "shintani_lift.lift_geometric_side", True),
    ("qseries.cohen_eisenstein.exponent", "qseries.cohen_eisenstein", False),
    ("qseries.first_mismatch.exponent", "qseries.first_mismatch", False),
)


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up probe")
    return p.parse_args()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("SPECTACLE_LOG", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def measure_setup() -> Tuple[float, float]:
    """(wall time of a fresh interpreter doing what every CLI call does first,
    mean calibration time on both sides of the set-up, in that interpreter)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                          check=True, timeout=PASS_TIMEOUT_S, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    loops, cal = map(float, proc.stdout.split())
    return seconds - loops, cal


def run_pass(ops: List[dict], trace: bool, probe: List[dict], tmpdir: str, heap: bool = False) -> dict:
    spec = {"root": ROOT, "ops": ops, "trace": trace, "heap": heap, "probe": probe, "tmpdir": tmpdir}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT,
                          env=child_env(), input=json.dumps(spec), capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def quartile_note(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def scale(op: dict) -> float:
    """Factor that turns the op's measured seconds into reference-speed seconds."""
    return CAL_NOMINAL_S / op["cal"]


def op_times(results: List[dict]) -> List[float]:
    """Each op's median over the passes of its time in reference-speed seconds.

    On a shared machine the speed of the same work drifts by tens of percent
    over seconds and minutes.  The worker times a fixed calibration loop
    between ops; dividing by it cancels the drift, which the op and the loop
    share, and multiplying by CAL_NOMINAL_S keeps the unit seconds.
    """
    return [statistics.median(op["s"] * scale(op) for op in ops)
            for ops in zip(*(res["ops"] for res in results))]


def traced_times(results: List[dict], key: str) -> List[Dict[str, List[float]]]:
    """Per op, {function: [calls, incl_s, self_s]}, times as in ``op_times``."""
    out = []
    for ops in zip(*(res["ops"] for res in results)):
        names = {name for op in ops for name in op.get(key, {})}
        out.append({
            name: [ops[0][key][name][0]] + [
                statistics.median(op[key][name][col] * scale(op) if name in op[key] else 0.0
                                  for op in ops)
                for col in (1, 2)]
            for name in names
        })
    return out


def exponent(times: List[Dict[str, List[float]]], sizes: List[object], fn: str, col: int) -> float:
    """log2 of (time at the large sizes / time at the small sizes); 0 if unused."""
    sums = {"small": 0.0, "large": 0.0}
    for rec, size in zip(times, sizes):
        if fn in rec and size in sums:
            sums[size] += rec[fn][col]
    if sums["small"] <= 0 or sums["large"] <= 0:
        return 0.0
    return math.log2(sums["large"] / sums["small"])


def rss_growth_mb(plain: List[dict]) -> float:
    """Largest growth of a pass's peak RSS above its RSS right after set-up.

    Nearly all of peak_rss_mb is the set-up (the scipy import); this is the
    part that the ops and their checks add.  It reads about 0 when they stay
    inside memory the set-up has already touched, so heap_peak_mb, which
    counts Python allocations, is where small caches and growing rationals
    show.
    """
    return max(res["maxrss_kb"] - res["setup_rss_kb"] for res in plain) / 1024


def op_counts(passes: List[Tuple[bool, dict]]) -> Tuple[int, int]:
    """(ops attempted, ops that raised or missed their reference) over all passes."""
    ops = [op for _, res in passes for op in res["ops"]]
    return len(ops), sum(not op["ok"] for op in ops)


def per_layer(passes: List[Tuple[bool, dict]], ops_meta: List[dict], heap: dict) -> Dict[str, Tuple[float, str, str]]:
    """Per-layer metrics from the traced passes: name -> (value, unit, note)."""
    traced = [res for t, res in passes if t]
    plain = [res for t, res in passes if not t]
    times = traced_times(traced, "trace")
    sizes = [meta.get("size") for meta in ops_meta]
    note = f"sum over ops of the median of {len(traced)} traced passes"

    def total(name: str, col: int, recs: List[Dict[str, List[float]]] = times) -> float:
        return sum(rec[name][col] for rec in recs if name in rec)

    out: Dict[str, Tuple[float, str, str]] = {}
    for name in COUNTED:
        counts = {sum(op.get("trace", {}).get(name, [0])[0] for op in res["ops"]) for res in traced}
        if len(counts) > 1:
            print(f"warning: {name} call counts differ between passes: {counts}", file=sys.stderr)
        out[f"{name}.calls"] = (total(name, 0), "count", "per pass")
        out[f"{name}.s"] = (total(name, 1), "s", note)
    for name in TIMED:
        out[f"{name}.s"] = (total(name, 1), "s", note)
    out["shintani_lift.lift_geometric_side.s"] = (
        total("shintani_lift.lift_geometric_side", 2), "s", note + "; self time, epsilon_sign excluded")
    out["periods.completed_L.s"] = (
        total("periods.completed_L", 1, traced_times(traced, "check_trace")), "s",
        note + "; reference side of the period check")
    for metric, fn, self_time in EXPONENTS:
        out[metric] = (exponent(times, sizes, fn, 2 if self_time else 1), "1",
                       "fitted over the two sizes a doubling apart; 0 when unused")
    first = traced[0]["ops"]
    out["qseries.max_num_bits"] = (max(op.get("num_bits", 0) for op in first), "bits",
                                   "largest numerator in any exact output")
    out["qseries.max_den_bits"] = (max(op.get("den_bits", 0) for op in first), "bits",
                                   "largest denominator in any exact output")
    count = sum(op.get("d_count", 0) for op in first)
    distinct = sum(op.get("d_distinct", 0) for op in first)
    out["qseries.cohen_eisenstein.d_share"] = (
        1 - distinct / count if count else 0.0, "ratio",
        f"{count - distinct} of {count} coefficients reuse an earlier fundamental D")
    rels = [op["rel_err"] for op in first if op.get("ok") and op.get("rel_err") is not None]
    out["periods.max_rel_err"] = (max(rels, default=0.0), "ratio",
                                  f"over {len(rels)} periods with a nonzero target")
    out["periods.probe_failed"] = (traced[0]["probe_failed"], "count",
                                   f"of {traced[0]['probe_attempted']} periods at T = "
                                   f"{workloads.PROBE_HEIGHTS}, weights {workloads.PROBE_WEIGHTS}")
    self_times = zip(*([op.get("cli_self_s", 0.0) * scale(op) for op in res["ops"]] for res in traced))
    out["cli.self_s"] = (sum(map(statistics.median, self_times)), "s",
                         note + "; parsing and JSON emission")
    out["cli.output_bytes"] = (sum(op.get("bytes", 0) for op in first), "bytes", "per pass")
    traced_wall, plain_wall = sum(op_times(traced)), sum(op_times(plain))
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s",
                               f"traced wall_s {traced_wall:.6g} minus untraced {plain_wall:.6g}, "
                               f"{len(traced)}+{len(plain)} passes")
    out["heap_peak_mb"] = (heap["heap_peak_bytes"] / 2**20, "MB",
                           "largest Python heap above the post-set-up heap during any op, "
                           "one pass under tracemalloc")
    attempted, failed = op_counts(passes)
    out["ops_failed_frac"] = (failed / attempted, "ratio", f"{failed} of {attempted} ops")
    return out


def end_to_end(passes: List[Tuple[bool, dict]], setup: List[Tuple[float, float]]) -> Dict[str, Tuple[float, str, str]]:
    plain = [res for t, res in passes if not t]
    times = op_times(plain)
    raw = [sum(op["s"] for op in res["ops"]) for res in plain]
    rss = [res["maxrss_kb"] / 1024 for res in plain]
    growth = rss_growth_mb(plain)
    setup_raw = [t for t, _ in setup]
    setup_scaled = [t * CAL_NOMINAL_S / cal for t, cal in setup]
    note = f"median of {len(plain)} passes per op, reference-speed seconds"
    return {
        "setup_s": (statistics.median(setup_scaled), "s",
                    f"median of {len(setup)} fresh interpreters, reference-speed seconds; "
                    f"measured {quartile_note(setup_raw)}"),
        "wall_s": (sum(times), "s", f"sum over {len(times)} ops, {note}; measured pass "
                                    f"{quartile_note(raw)}"),
        "op_p50_s": (statistics.median(times), "s",
                     f"median of {len(times)} ops, {note}, p90={statistics.quantiles(times, n=10)[-1]:.6g}"),
        "peak_rss_mb": (max(rss), "MB", f"max over {len(rss)} pass processes; "
                                        f"{growth:.3f} MB of it above the post-set-up RSS"),
    }


def verify(passes: List[Tuple[bool, dict]], workload: str) -> List[str]:
    """Problems with exact outputs: failed second routes and digest mismatches.

    Every op whose argv has a frozen digest is compared, whatever the seed:
    the lift and Cohen argv do not depend on the seed, so their outputs are
    pinned on every run.
    """
    problems = []
    with open(DIGESTS, encoding="utf-8") as fh:
        frozen = json.load(fh)[workload]
    for _, res in passes:
        for op in res["ops"]:
            if op["kind"] == "lvalue":
                continue
            if not op["ok"]:
                problems.append(f"{op['key']}: {op.get('error')}")
            elif frozen.get(op["key"], op["sha256"]) != op["sha256"]:
                problems.append(f"{op['key']}: output digest differs from the frozen one")
    return sorted(set(problems))


def run_workload(args: argparse.Namespace, workload: str) -> Tuple[List[str], dict]:
    """Run one workload, print its metric lines; returns (problems, result record)."""
    ops = workloads.build(workload, args.seed, smoke=args.smoke)
    probe = workloads.probe_ops()
    os.makedirs(RUN_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=RUN_DIR)
    try:
        # Untraced runs start set-up probes before each pass, which spreads
        # them over the run.
        setup: List[Tuple[float, float]] = []
        probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
        deadline = time.monotonic() + args.seconds
        passes: List[Tuple[bool, dict]] = []
        # heap_peak_mb comes from one more pass, under tracemalloc and untimed
        heap = run_pass(ops, False, [], tmpdir, heap=True) if args.trace else None
        while True:
            if probes:
                setup += [measure_setup() for _ in range(PROBES_PER_PASS)]
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append((traced, run_pass(ops, traced, probe if traced else [], tmpdir)))
            if time.monotonic() >= deadline and (not args.trace or len(passes) % 2 == 0):
                break
        while len(setup) < probes:
            setup.append(measure_setup())
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    problems = verify(passes + ([(False, heap)] if heap else []), workload)
    for line in problems:
        print(f"MISMATCH {line}", file=sys.stderr)
    metrics = per_layer(passes, ops, heap) if args.trace else end_to_end(passes, setup)
    if args.trace:
        path = os.path.join(RUN_DIR, f"spans-{workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([res["spans"] for t, res in passes if t], fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    for name, (value, unit, note) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    attempted, failed = op_counts(passes)
    return problems, {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def main() -> int:
    args = parse_args()
    if args.workload != "all":
        problems, result = run_workload(args, args.workload)
    else:
        # every workload in turn; metric names in the last line gain a prefix
        problems, result = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads.WORKLOADS:
            found, one = run_workload(args, workload)
            problems += found
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update({f"{workload}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
