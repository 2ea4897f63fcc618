#!/usr/bin/env python3
"""Builds the Comma benchmark from source and runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (and the repository's src/
libraries it links) under .bench_build/perfbench; later calls only rebuild
what changed. Build output goes to stderr. The benchmark's own output, whose
last line is the JSON result, goes to stdout, and its exit code is returned.
`--workload all` runs every workload in turn. With `--trace 1` the spans of
the run are written to .bench_build/perfbench/spans-<workload>.json.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build" / "perfbench"
WORKLOADS = ("bulk_snoop", "web_adapt", "multigw_pdes")


def build():
    if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def run(workload, args):
    command = [str(BUILD / "perfbench"), "--workload", workload, *args]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        command += ["--trace-out", str(BUILD / f"spans-{workload}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


def main(argv):
    args = list(argv)
    if "--workload" not in args or args.index("--workload") + 1 >= len(args):
        print(__doc__, file=sys.stderr)
        return 2
    at = args.index("--workload")
    workload = args[at + 1]
    del args[at:at + 2]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if workload != "all":
        return run(workload, args)
    return max(run(w, args) for w in WORKLOADS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
