#!/usr/bin/env python3
"""Self-test of the Comma benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json: a one-second run with --trace 0 and
one with --trace 1 must exit 0, end with a JSON line that parses, report
"correct": true, and carry exactly the metrics BENCHMARK.json lists for that
mode, with their units. A run with a deliberately wrong pinned witness
(--expect-witness 0) must exit non-zero and report "correct": false.
Exits 1 on the first failed check.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} --trace {trace} passes")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, f"{workload} --trace {trace} reports the {kind} metrics")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{workload} --trace {trace} counts its sessions")
        code, result = run(workload, 0, "--expect-witness", "0")
        check(code != 0 and result is not None and not result["correct"],
              f"{workload} fails on a wrong pinned witness")
    print("selftest passed")


if __name__ == "__main__":
    main()
