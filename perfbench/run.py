#!/usr/bin/env python3
"""Build and run the fdqos repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the fdqos
libraries from src/) in Release mode under $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild incrementally. A run prints the program's
run record and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. Workloads and metrics: perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def build():
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                # A failed configure must not be mistaken for a usable cache.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail("build failed (log: %s)" % log_path)
    return out


def commit_id():
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(last_line, trace):
    try:
        result = json.loads(last_line)
    except json.JSONDecodeError:
        fail("the program printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(result))
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(result["metrics"]) ^ expected))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out = build()
    work_dir = out / "work"
    if args.selftest:
        sys.exit(subprocess.run([str(out / "perfbench_selftest"), "--work-dir",
                                 str(work_dir)]).returncode)

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir),
           "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode < 0:
        # An abort inside fdqos (a failed precondition) is a program fault,
        # not a benchmark one: its message is above on stderr.
        fail("the program was killed by %s"
             % signal.Signals(-proc.returncode).name)
    if proc.returncode != 0 or not lines:
        fail("the program exited with code %d" % proc.returncode)
    validate(lines[-1], args.trace == 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
