#!/usr/bin/env python3
"""Repository benchmark: builds zlb_perfbench from the checkout's sources
and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); scratch files
(journals, checkpoint images, span logs) go to .bench_build/perfbench-work.
The last line of standard output is the result: `correct`, `attempted`,
`failed` and `metrics`, where the metrics are BENCHMARK.json's end_to_end
set with --trace 0 and its per_layer set with --trace 1. The line before it
records the host fingerprint and the run's details. Workloads and metrics
are described in perfbench/NOTES.md.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CATALOGUE = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
# The first run in a checkout builds; every run must end well inside the
# 180 s a run is allowed, build excluded.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(what + " failed")


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", "zlb_perfbench",
               "-j", jobs], "build")
    binary = os.path.join(build_dir, "zlb_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no zlb_perfbench")
    return binary


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(CATALOGUE) as f:
            catalogue = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (CATALOGUE, e))
    if args.workload not in {w["name"] for w in catalogue["workloads"]}:
        fail("unknown workload " + args.workload)
    wanted = catalogue["per_layer" if args.trace else "end_to_end"]

    binary = build()
    work_dir = os.path.join(".bench_build", "perfbench-work")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("zlb_perfbench exited with %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        fail("zlb_perfbench printed no result")
    details = json.loads(lines[-2])["details"]
    measured = json.loads(lines[-1])

    metrics = {}
    not_measured = []
    for m in wanted:
        got = measured["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            # A per-layer metric of a layer this workload does not run.
            not_measured.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s measured in %s, catalogue says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    build_info = details.pop("build", "unknown|unknown").split("|")
    host = {"cpu": cpu_model(), "nproc": os.cpu_count(),
            "kernel": platform.release(), "compiler": build_info[0],
            "build_type": build_info[-1]}
    print(json.dumps({"host": host, "details": details,
                      "not_measured": not_measured}))
    print(json.dumps({"correct": bool(measured["correct"]),
                      "attempted": int(measured["attempted"]),
                      "failed": int(measured["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
