#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks
that exactly the metrics of ``BENCHMARK.json`` come out with their
units; that a deliberately corrupted answer is reported as a failed
operation and makes the run incorrect; and that in a directory holding
only ``BENCHMARK.json`` and this benchmark the command fails without
printing a result.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from common import HERE, ROOT, python
from run import WORKLOADS, load_spec


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [python(), os.path.join(cwd, "perfbench", "run.py"), "--seed", "3",
         "--seconds", "2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def main() -> int:
    spec = load_spec()
    for wl in WORKLOADS:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            res = result(run(ROOT, "--workload", wl, "--trace", trace,
                             "--tiny"))
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl} trace={trace}: result keys")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{wl} trace={trace}: metric names and units")
            check(all(isinstance(v["value"], (int, float))
                      for v in res["metrics"].values()),
                  f"{wl} trace={trace}: numeric values")
            check(res["correct"] and res["attempted"] >= 1,
                  f"{wl} trace={trace}: correct, {res['attempted']} attempted")
        bad = result(run(ROOT, "--workload", wl, "--tiny", "--corrupt"))
        check(not bad["correct"] and bad["failed"] >= 1,
              f"{wl}: corrupted answer counted as failed ({bad['failed']})")

    bare = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", WORKLOADS[0])
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without sources: nonzero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
