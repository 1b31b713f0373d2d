"""Rewrite perfbench/digests.json: SHA-256 of every exact output for the default seed.

    python3 perfbench/freeze_digests.py

Run only when the output bytes are meant to change; the benchmark fails on
any default-seed output whose digest differs from the frozen one.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    frozen = {}
    os.makedirs(run.RUN_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=run.RUN_DIR)
    try:
        for name in workloads.WORKLOADS:
            ops = workloads.build(name, run.DEFAULT_SEED)
            res = run.run_pass(ops, False, [], tmpdir)
            bad = [op["key"] for op in res["ops"] if op["kind"] != "lvalue" and not op["ok"]]
            if bad:
                print(f"{name}: outputs fail their checks, not freezing: {bad}", file=sys.stderr)
                return 1
            frozen[name] = {op["key"]: op["sha256"] for op in res["ops"]
                            if op["kind"] in workloads.DIGESTED}
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, frozen.values()))} digests to {os.path.relpath(run.DIGESTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
