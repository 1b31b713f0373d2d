"""One pass of a workload in a fresh interpreter.

Reads {"root", "ops", "trace", "heap", "probe", "tmpdir"} as JSON on stdin, runs
every op through ``spectacle.cli.main`` with ``--out`` in ``tmpdir``, checks
each output outside the timed region, and writes one JSON result to stdout.

The set-up a CLI user pays on every invocation (imports, sign arbitration,
theta calibration) happens before the first op and is measured separately
as ``setup_s``.  With ``trace`` the tracer's wrappers are installed first;
with ``heap`` the pass runs under ``tracemalloc`` and reports the largest
Python heap, above the post-set-up heap, reached during any op.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import tracemalloc

from calibration import calibrate


def _load_spectacle(root: str) -> None:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spectacle", "cli.py")):
        sys.exit(f"worker: no spectacle sources under {src}")
    sys.path.insert(0, src)
    import spectacle

    if not os.path.abspath(spectacle.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"worker: imported spectacle from {spectacle.__file__}, not from {src}")


def _rss_kb() -> int:
    """Current resident set size of this process, in KiB (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() // 1024


def _run_op(cli, argv, out_path):
    """Time one CLI invocation; returns (seconds, exit code, error or None)."""
    t0 = time.perf_counter()
    try:
        rc, err = cli.main(argv + ["--out", out_path]), None
    except SystemExit as exc:  # argparse rejects the argv
        rc, err = exc.code if isinstance(exc.code, int) else 2, f"SystemExit: {exc.code}"
    except Exception as exc:  # the op failed; recorded and counted, the pass goes on
        rc, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, err


def _check(checks, op, text, rc, reference, trace):
    """Outcome of the second route for one op's output."""
    res = {}
    payload = json.loads(text)
    kind, argv = op["kind"], op["argv"]
    if kind == "lvalue":
        ok, rel = checks.period_error(argv, payload, reference)
        res["ok"], res["rel_err"] = ok, rel
        return res
    err = checks.EXACT_CHECKS[kind](argv, payload, rc)
    res["ok"] = err is None
    if err:
        res["error"] = err
    if trace and kind != "intersect":
        res["num_bits"], res["den_bits"] = checks.rational_bits(payload)
    if trace and kind == "cohen":
        r, nmax = int(checks.arg_value(argv, "--r")), int(checks.arg_value(argv, "--nmax"))
        res["d_count"], res["d_distinct"] = checks.discriminant_sharing(r, nmax)
    return res


def main() -> None:
    spec = json.load(sys.stdin)
    _load_spectacle(spec["root"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import checks
    from spectacle import cli, shintani_lift, theta11
    from tracer import Tracer

    shintani_lift.arbitrate_signs()
    theta11.global_sign()
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    heap = bool(spec.get("heap"))
    reference = checks.PeriodReference()
    out_path = os.path.join(spec["tmpdir"], "op.json")
    results = []

    def run_and_check(op, label, cal_before=None):
        key = " ".join(op["argv"])
        if tracer:
            tracer.begin(f"{label}:{key}")
        if heap:
            tracemalloc.reset_peak()
        seconds, rc, err = _run_op(cli, op["argv"], out_path)
        res = {"key": key, "kind": op["kind"], "s": seconds, "rc": rc}
        if heap:
            res["heap_peak"] = tracemalloc.get_traced_memory()[1] - heap_base
        if tracer:
            res["trace"], res["cli_self_s"] = tracer.end()
        if cal_before is not None:
            res["cal_after"] = calibrate()
            # the machine's speed on both sides of the op
            res["cal"] = (cal_before + res["cal_after"]) / 2
        if err is None and op["kind"] != "lvalue" and rc not in (0, 1):
            err = f"exit code {rc}"
        if err is not None:
            res.update(ok=False, error=err)
            return res
        with open(out_path, "rb") as fh:
            data = fh.read()
        res["sha256"] = hashlib.sha256(data).hexdigest()
        res["bytes"] = len(data)
        if tracer:
            tracer.begin(f"check:{key}")
        res.update(_check(checks, op, data.decode("utf-8"), rc, reference, bool(tracer)))
        if tracer:
            res["check_trace"], _ = tracer.end()
        return res

    setup_rss_kb = _rss_kb()
    if heap:
        tracemalloc.start()
        heap_base = tracemalloc.get_traced_memory()[0]
    cal = calibrate()
    for op in spec["ops"]:
        res = run_and_check(op, "op", cal)
        cal = res.pop("cal_after")
        results.append(res)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe = [run_and_check(op, "probe") for op in spec.get("probe", [])]
    json.dump(
        {
            "ops": results,
            "maxrss_kb": rss_kb,
            "setup_rss_kb": setup_rss_kb,
            "heap_peak_bytes": max((op.get("heap_peak", 0) for op in results), default=0),
            "probe_attempted": len(probe),
            "probe_failed": sum(not p["ok"] for p in probe),
            "spans": tracer.spans if tracer else [],
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
