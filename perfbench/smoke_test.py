"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Checks, for every workload, that an untraced run prints exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly the per-layer
ones, each by name with its unit; that both runs pass their correctness
checks; and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics {sorted(units)} != {sorted(expected[trace])}")
            missing = [n for n in expected[trace] if f"{workload} {n} = " not in proc.stdout]
            if missing:
                failures.append(f"{label}: not printed by name: {missing}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['correct']=} {result['failed']=}")
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_run"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("ran without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    for line in failures:
        print(f"FAIL {line}")
    print("smoke test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
