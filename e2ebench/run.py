#!/usr/bin/env python3
"""Build and run the jsi end-to-end benchmark.

    python3 e2ebench/run.py --workload mc_sweep --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

Run from a checkout of the repository. The first call configures and
builds e2ebench/ (the jsi libraries from src/ plus jsi_e2e) as a
Release build in .bench_build/; later calls only re-check the build. The
program's standard output is passed through unchanged: its last line is the
result object {"correct", "attempted", "failed", "metrics"}.

--selftest runs every workload at tiny size with --trace 0 and 1 and
checks that the result line parses and names every metric of
BENCHMARK.json with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "jsi_e2e")
WORKLOADS = ["mc_sweep", "wide_bus_n64", "low_swing_mc", "serve_closed"]
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no jsi sources at src/: run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "jsi_e2e", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def jsi_e2e_cmd(args):
    return [BINARY, "--source-id", source_id()] + args


def run(args):
    try:
        return subprocess.run(jsi_e2e_cmd(args), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("jsi_e2e exceeded %d s" % RUN_TIMEOUT_S, 3)


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from jsi_e2e's", 1)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            before = len(problems)
            proc = subprocess.run(
                jsi_e2e_cmd(["--workload", workload, "--seed", "7", "--seconds",
                            "1", "--trace", str(trace), "--tiny"]),
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(label + ": last line is not JSON\n" + proc.stderr)
                continue
            if proc.returncode != 0 or result.get("correct") is not True:
                problems.append(label + ": gate failed\n" + proc.stdout)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(label + ": wrong result keys %s" % sorted(result))
            if not (isinstance(result.get("attempted"), int) and
                    result["attempted"] >= 1 and
                    isinstance(result.get("failed"), int)):
                problems.append(label + ": bad attempted/failed")
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != want[trace]:
                problems.append(label + ": metrics/units differ from "
                                "BENCHMARK.json: missing %s, extra %s" % (
                                    sorted(set(want[trace]) - set(got)),
                                    sorted(set(got) - set(want[trace]))))
            for name, m in result.get("metrics", {}).items():
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append("%s: %s is not a finite number" % (label, name))
            print("selftest %-28s %s" % (
                label, "ok" if len(problems) == before else "FAIL"))
    bad = subprocess.run(jsi_e2e_cmd(["--workload", "no_such_workload"]),
                         cwd=ROOT, capture_output=True, text=True)
    if bad.returncode == 0:
        problems.append("an unknown workload exited 0")
    for p in problems:
        print("selftest FAIL: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    build()
    if a.selftest:
        return selftest()
    return run(["--workload", a.workload, "--seed", a.seed, "--seconds",
                a.seconds, "--trace", a.trace])


if __name__ == "__main__":
    sys.exit(main())
