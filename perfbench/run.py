#!/usr/bin/env python3
"""End-to-end benchmark of dflp: builds dflp_perf, runs one workload, checks it.

Run from the repository root:

    python3 perfbench/run.py --workload lossy-reliable --seed 1 --seconds 60 --trace 0

The first run builds perfbench/CMakeLists.txt (the library from ../src plus
the dflp_perf program) into .bench_build/; later runs only re-check the build.
dflp_perf runs the workload in one process and checks every output; this
script adds the check against the fingerprints recorded in
perfbench/fingerprints.json, prints a readable summary, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. Exits non-zero, without a result line, when the benchmark cannot run.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what, timeout):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{what} failed with exit code {proc.returncode}")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "cmake configure", 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs], "build", 840)
    return BUILD / "dflp_perf"


def git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--record", action="store_true",
                    help="store this run's fingerprint for its seed in "
                         "fingerprints.json instead of checking it")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    fp_file = HERE / "fingerprints.json"
    recorded = json.loads(fp_file.read_text())

    binary = build()
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(WORK)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        (WORK / f"{args.workload}-{args.seed}.ufl").unlink(missing_ok=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"dflp_perf exited with code {proc.returncode}")
    rec = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    attempted, failed = rec["attempted"], rec["failed"]
    failures = list(rec["failures"])
    seen = {"fingerprint": rec["fingerprint"]}
    if args.trace and rec["trace_counters"]:
        seen["trace_counters"] = rec["trace_counters"]
    entry = recorded.setdefault(args.workload, {}).setdefault(str(args.seed), {})
    if args.record:
        entry.update(seen)
        fp_file.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        check = "recorded"
    elif not entry:
        check = "no recorded fingerprint for this seed"
    else:
        check = "matches the record"
        for key, value in seen.items():
            if key in entry and entry[key] != value:
                # dflp_perf checks that every repetition produced this
                # same value, so every operation's result is off the record.
                failed = attempted
                check = "MISMATCH"
                failures.append(f"{key} {value!r} != recorded {entry[key]!r}")

    values = rec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            failed = max(failed, 1)
            failures.append(f"metric {m['name']} missing")
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                              "unit": m["unit"]}

    stamp = rec["stamp"]
    print(f"stamp: nproc={stamp['nproc']} build={stamp['build_type']} "
          f"compiler=gcc {stamp['compiler']} git={git_sha()} "
          f"threads={rec['threads']} workload={args.workload} "
          f"seed={args.seed} trace={args.trace}")
    print("fingerprint:", *seen.values(), f"({check})")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(error_rate {failed / max(1, attempted):.4g}); latencies over "
          f"{rec['samples']} samples; run wall "
          f"{time.monotonic() - started:.1f} s")
    for why in failures:
        print(f"FAILED: {why}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
