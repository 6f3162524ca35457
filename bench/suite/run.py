#!/usr/bin/env python3
"""Builds bench_suite from source and runs one workload of it.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It configures and builds the suite with
CMake into .bench_build/suite (Release; a no-op when up to date), runs one
workload, and prints as the last line of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from trials
time-boxed to --seconds; --trace 1 reports its per-layer metrics from one
trial plus the traced pass.  Build logs and the suite's own output go to
standard error.  Everything written stays under .bench_build/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = Path(".bench_build")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "ffis" / "exp" / "engine.hpp").is_file():
        fail(f"no FFIS sources under {ROOT / 'src'}; run from a full checkout")
    build_dir = BUILD / "suite"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(SUITE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "bench_suite"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    tmp = BUILD / "tmp"
    results = BUILD / "results"
    tmp.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(out)]
    cmd += ["--trials", "1"] if args.trace else ["--no-trace", "--seconds", str(args.seconds)]
    env = dict(os.environ, TMPDIR=str(tmp.resolve()))
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        fail("bench_suite did not finish within 170 s")
    if not out.is_file():
        fail(f"bench_suite exited {proc.returncode} without a result file")

    doc = json.loads(out.read_text())
    result = doc["workloads"].get(args.workload)
    if result is None:
        fail(f"bench_suite produced no result for {args.workload}: {doc['errors']}")
    section = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in section:
            fail(f"bench_suite did not report {m['name']}")
        entry = section[m["name"]]
        if entry["unit"] != m["unit"]:
            fail(f"{m['name']} is in {entry['unit']}, BENCHMARK.json says {m['unit']}")
        value = entry["value"] if args.trace else entry["median"]
        metrics[m["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": bool(doc["correct"]) and proc.returncode == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
