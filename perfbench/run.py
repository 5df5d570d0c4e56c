#!/usr/bin/env python3
"""Host-performance benchmark of the hydra simulator.

Builds the perfbench binary (Release) from this checkout into
.bench_build/, runs one workload in its own process and prints every
metric by name and unit, then, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics:

  python3 perfbench/run.py --workload paper_tcp --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --smoke     # the benchmark's own self-test

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. The exit status is non-zero if the build fails or any
output check fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Every measurement must end within this many seconds of host time (the
# build before it is not counted).
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources (src/) in this checkout")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def spec_errors(spec):
    """Checks BENCHMARK.json against the grammar the benchmark promises."""
    errors = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        errors.append("BENCHMARK.json has unexpected keys")
        return errors
    names = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            name = entry.get("name", "")
            if not NAME_RE.match(name) or name in names:
                errors.append("bad or repeated name: %r" % name)
            names.add(name)
            if section != "workloads":
                if not UNIT_RE.match(entry.get("unit", "")):
                    errors.append("bad unit for %s" % name)
                if entry.get("better") not in ("higher", "lower"):
                    errors.append("bad 'better' for %s" % name)
    for entry in spec["end_to_end"]:
        if not 0 < entry.get("bound", 0) <= 0.25:
            errors.append("bound out of range for %s" % entry["name"])
    if not any(e["name"] == "setup_s" and e["unit"] == "s"
               and e["better"] == "lower" for e in spec["end_to_end"]):
        errors.append("end_to_end lacks setup_s")
    return errors


def metric_errors(spec, metrics, trace):
    """The metrics must be exactly the section's names, units and numbers."""
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    errors = []
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append("metric names differ: missing %s, extra %s"
                      % (missing, extra))
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s is not a finite number" % name)
        if name in expected and m.get("unit") != expected[name]:
            errors.append("%s has unit %r, expected %r"
                          % (name, m.get("unit"), expected[name]))
    if trace and not errors:
        # The event classes and the stepping overhead split the traced
        # loop's wall time.
        parts = sum(metrics[n]["value"] for n in (
            "phy.tx_event_s", "mac.rx_event_s", "phy.cca_event_s",
            "phy.quiet_event_s", "sim.step_overhead_s"))
        loop = metrics["trace.loop_s"]["value"]
        if abs(parts - loop) > 1e-6 * max(1.0, loop):
            errors.append("traced classes sum to %.9f s, loop took %.9f s"
                          % (parts, loop))
    return errors


def run_binary(workload, seed, seconds, trace, size, deadline):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--size", size, "--commit", commit_id()]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    lines = out.stdout.strip().splitlines()
    if not lines:
        log("perfbench: %s exited %d without a result"
            % (workload, out.returncode))
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: unreadable result: " + lines[-1][:200])
        return None


def report(result, errors):
    meta = result["meta"]
    print("# perfbench %s seed=%s size=%s trace=%s reps=%s host_cpus=%s "
          "compiler=%r build=%s commit=%s" % (
              meta["workload"], meta["seed"], meta["size"], meta["trace"],
              meta["reps"], meta["host_cpus"], meta["compiler"],
              meta["build_type"], meta["commit"]))
    print("# flows attempted=%d failed=%d (all repetitions); failed flow "
          "indices of the first: %s" % (result["attempted"], result["failed"],
                                        meta["failed_flows"]))
    for name, m in result["metrics"].items():
        print("%-28s %.10g %s" % (name, m["value"], m["unit"]))
    for e in errors:
        print("# CHECK FAILED: " + e)


def measure(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload %r" % args.workload)
        return 2
    if not build():
        return 1
    result = run_binary(args.workload, args.seed, args.seconds, args.trace,
                        "full", time.monotonic() + RUN_LIMIT_S)
    if result is None:
        return 1
    errors = result["errors"] + metric_errors(spec, result["metrics"],
                                              args.trace)
    correct = bool(result["correct"]) and not errors
    report(result, errors)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)
    return 0 if correct else 1


def smoke():
    """Runs every workload at a tiny size through the whole pipeline."""
    spec = load_spec()
    failures = ["BENCHMARK.json: " + e for e in spec_errors(spec)]
    if not build():
        return 1
    for w in spec["workloads"]:
        for trace in (False, True):
            result = run_binary(w["name"], 1, 0, trace, "smoke",
                                time.monotonic() + RUN_LIMIT_S)
            if result is None:
                failures.append("%s trace=%d: no result" % (w["name"], trace))
                continue
            errors = result["errors"] + metric_errors(
                spec, result["metrics"], trace)
            if not result["correct"]:
                errors.append("correct is false")
            if result["attempted"] < 1:
                errors.append("no flow attempted")
            failures += ["%s trace=%d: %s" % (w["name"], trace, e)
                         for e in errors]
            log("smoke %-10s trace=%d: %s" % (w["name"], trace,
                                             "ok" if not errors else "FAIL"))
    for f in failures:
        log("FAIL " + f)
    print(json.dumps({"smoke": "pass" if not failures else "fail",
                      "failures": len(failures)}))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at a tiny size")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
