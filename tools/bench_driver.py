#!/usr/bin/env python3
"""Runs every paper-reproduction bench in parallel and aggregates their
per-bench BENCH_*.json reports into one BENCH_REPORT.json.

Each bench binary mirrors its tables — and its free-form commentary
(the "Paper: ..." comparison footers and expected-shape notes, recorded
by bench::comment into the report's "comments" array) — to
BENCH_<id>.json in its working directory (see bench/bench_common.h);
this driver gives every binary a private scratch directory so
concurrent runs cannot collide, then folds the collected reports — plus
run metadata (wall time, exit status, worker-thread count, host core
count) — into a single document, ready for figure regeneration. The aggregate is self-describing: tables,
paper comparisons and commentary all ride in the JSON, so nothing of
the bench output lives only on stdout.

Usage:
    tools/bench_driver.py [--build-dir build] [--jobs N] [--output PATH]
                          [--baseline PATH] [--update-baseline PATH]
                          [--threshold PCT] [--allow-removed NAME ...]

The benches run are the ones the build configured, as listed in
<build-dir>/bench/bench_targets.txt; a stale bench_* binary whose source
was deleted is not run. The aggregate lands in
<build-dir>/bench/BENCH_REPORT.json by default.
bench_micro (google-benchmark) is skipped: it has no JSON report and
measures wall-clock, which a saturated machine would distort.

With --baseline, every numeric table cell (leading number of each cell,
so "0.275 Mbps" and "10.9%" count) except machine-dependent wall-clock
columns is compared against the checked-in baseline, and the run fails
when any metric shifts by more than --threshold percent (default 15) in
either direction. The simulations are seeded and deterministic, so on
identical code the comparison is exact; any larger shift is a behaviour
change — either a regression to fix or an intentional improvement, in
which case --update-baseline regenerates the baseline file from the run
just made (commit it and say so in the PR).
"""

import argparse
import concurrent.futures
import functools
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SKIP = {"bench_micro"}

# Written by bench/CMakeLists.txt into <build-dir>/bench: the configured
# bench targets, one per line.
MANIFEST = "bench_targets.txt"

# Columns whose values depend on the host machine rather than on the
# (deterministic) simulation — the only cells not worth pinning. Wall
# clock and peak RSS both vary with the host (RSS with allocator, page
# size and whatever ran earlier in the process).
EXCLUDE_HEADER = re.compile(r"wall|rss", re.IGNORECASE)

# Leading number of a cell: "0.275 Mbps" -> 0.275, "10.9%" -> 10.9,
# "chain-8" / "DBA" -> no match (labels are not metrics).
NUMBER_RE = re.compile(r"^-?\d+(?:\.\d+)?")


def cell_value(cell: str) -> float | None:
    match = NUMBER_RE.match(cell.strip())
    return float(match.group(0)) if match else None


def extract_metrics(results: list[dict]) -> dict[str, float]:
    """Flattens every guarded numeric cell out of the table reports.

    Key shape: "<bench id>/t<table#>/<row label>/c<col#>:<column header>";
    the row label is the row's first cell (the sweep variable), which the
    benches keep unique within a table, and the column index disambiguates
    tables that reuse a header (e.g. two "gain" columns).
    """
    metrics: dict[str, float] = {}
    for result in results:
        for report in result.get("reports", []):
            bench_id = report.get("bench", result["binary"])
            for ti, table in enumerate(report.get("tables", [])):
                headers = table.get("headers", [])
                for row in table.get("rows", []):
                    label = row[0] if row else ""
                    # Column 0 is the row label itself, not a result.
                    for ci, (header, cell) in enumerate(
                            zip(headers[1:], row[1:]), start=1):
                        if EXCLUDE_HEADER.search(header):
                            continue
                        value = cell_value(cell)
                        if value is None:
                            continue
                        key = f"{bench_id}/t{ti}/{label}/c{ci}:{header}"
                        if key in metrics:
                            # Silently overwriting would shrink baseline
                            # coverage; make the bench fix its row labels.
                            sys.exit(f"bench_driver: duplicate metric key "
                                     f"{key!r} — rows of one table need "
                                     "unique first cells")
                        metrics[key] = value
    return metrics


def check_baseline(metrics: dict[str, float], baseline: dict,
                   threshold_pct: float,
                   allow_removed: list[str] | None = None) -> list[str]:
    """Returns a list of failure messages (empty = within budget).

    A baseline metric with no counterpart in the run is normally a hard
    failure (a silently vanished metric would shrink coverage forever);
    names in `allow_removed` — exact metric keys or prefixes, as printed
    in the failure message — downgrade that to an audited notice for the
    run where a bench intentionally dropped or renamed a table.
    """
    reference: dict[str, float] = baseline["metrics"]
    allowed = tuple(allow_removed or [])
    failures = []
    for key, old in reference.items():
        new = metrics.get(key)
        if new is None:
            if allowed and (key in allowed or key.startswith(allowed)):
                print(f"bench_driver: allowed removed metric "
                      f"(was {old:g}): {key}")
                continue
            failures.append(f"missing metric (was {old:g}): {key}")
            continue
        if old == 0.0:
            if new != 0.0:
                failures.append(f"changed from 0: {key} -> {new:g}")
            continue
        shift_pct = abs(new - old) / abs(old) * 100.0
        if shift_pct > threshold_pct:
            failures.append(
                f"shifted {shift_pct:.1f}% (> {threshold_pct:g}%): {key} "
                f"{old:g} -> {new:g}")
    new_keys = sorted(set(metrics) - set(reference))
    if new_keys:
        print(f"bench_driver: {len(new_keys)} metric(s) not in baseline "
              "(new benches?); run --update-baseline to adopt them")
    return failures


def discover(bench_dir: Path) -> list[Path]:
    """The benches to run: the targets bench/CMakeLists.txt lists in
    <build-dir>/bench/bench_targets.txt, minus SKIP. Globbing the build
    tree instead would also run stale binaries whose source is gone."""
    manifest = bench_dir / MANIFEST
    if not manifest.is_file():
        sys.exit(f"bench_driver: no {MANIFEST} under {bench_dir} "
                 "(configure with -DHYDRA_BUILD_BENCH=ON and build first)")
    names = sorted({line.strip() for line in manifest.read_text().splitlines()
                    if line.strip()} - SKIP)
    # Resolved to absolute paths: each bench runs with cwd set to a
    # scratch directory, where a relative --build-dir would not resolve.
    benches = [(bench_dir / name).resolve() for name in names]
    missing = [path.name for path in benches
               if not (path.is_file() and os.access(path, os.X_OK))]
    if missing:
        sys.exit(f"bench_driver: listed in {manifest} but not built: "
                 f"{', '.join(missing)} (build them first: cmake --build "
                 "<build-dir>)")
    if not benches:
        sys.exit(f"bench_driver: {manifest} lists no benches")
    return benches


def source_tree_hash(repo_root: Path) -> str:
    """Content fingerprint of the C++ sources under src/ and bench/ —
    everything that can change a simulation's outcome. Keys the
    persistent sweep-cache directory, so a code change starts from an
    empty cache and stale results can never leak into a regenerated
    figure. Only .cc/.h files count: hashing data files too would let
    `bench_baseline` rewriting bench/baseline.json invalidate the cache
    it just warmed."""
    digest = hashlib.sha256()
    for top in ("src", "bench"):
        base = repo_root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h"):
                digest.update(str(path.relative_to(repo_root)).encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
    return digest.hexdigest()[:16]


def prepare_sweep_cache_dir(build_dir: Path, repo_root: Path) -> Path:
    """Creates <build>/bench/sweep_cache/<tree-hash> and prunes sibling
    directories keyed on older trees (their results are dead weight)."""
    cache_root = build_dir / "bench" / "sweep_cache"
    cache_dir = cache_root / source_tree_hash(repo_root)
    if cache_root.is_dir():
        for old in cache_root.iterdir():
            if old != cache_dir:
                shutil.rmtree(old, ignore_errors=True)
    cache_dir.mkdir(parents=True, exist_ok=True)
    return cache_dir


def run_one(binary: Path, env: dict[str, str]) -> dict:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=f"{binary.name}.") as scratch:
        try:
            proc = subprocess.run(
                [str(binary)],
                cwd=scratch,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            exit_code = proc.returncode
            output = proc.stdout
        except OSError as err:
            exit_code = -1
            output = str(err)
        reports = []
        for report_path in sorted(Path(scratch).glob("BENCH_*.json")):
            try:
                reports.append(json.loads(report_path.read_text()))
            except json.JSONDecodeError as err:
                exit_code = exit_code or 1
                output += f"\nbad JSON in {report_path.name}: {err}"
    return {
        "binary": binary.name,
        "exit_code": exit_code,
        "seconds": round(time.monotonic() - started, 3),
        # Worker threads the bench's parallel sections used (recorded by
        # bench::record_threads; 1 = serial). Wall columns are already
        # excluded from baseline diffs, but a human comparing reports
        # across machines needs to know which walls were parallel.
        "threads": max((r.get("threads", 1) for r in reports), default=1),
        "reports": reports,
        # stdout is the rendered tables and commentary (both already in
        # the JSON report); keep a tail for diagnosing failures without
        # bloating the file.
        "output_tail": output.splitlines()[-20:] if exit_code != 0 else [],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build", type=Path)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    parser.add_argument("--output", type=Path, default=None,
                        help="default: <build-dir>/bench/BENCH_REPORT.json")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="compare throughput metrics against this "
                             "baseline JSON and fail on regression")
    parser.add_argument("--update-baseline", type=Path, default=None,
                        help="write the extracted metrics as a new baseline")
    parser.add_argument("--threshold", type=float, default=None,
                        help="max allowed metric shift in either direction, "
                             "percent (default: the baseline's recorded "
                             "threshold_pct, else 15)")
    parser.add_argument("--allow-removed", action="append", default=[],
                        metavar="NAME",
                        help="baseline metric key (or key prefix) that may "
                             "be absent from this run without failing the "
                             "gate; repeatable. For intentionally dropped "
                             "or renamed tables — follow up with "
                             "--update-baseline and commit it.")
    args = parser.parse_args()

    bench_dir = args.build_dir / "bench"
    benches = discover(bench_dir)
    output = args.output or bench_dir / "BENCH_REPORT.json"

    # Sweep-capable benches persist their SweepCache here, keyed on the
    # source tree, so rerunning the driver on unchanged code serves those
    # points from disk instead of re-simulating. An explicit
    # HYDRA_SWEEP_CACHE_DIR in the environment wins (set it to "" to
    # disable persistence for a timing run).
    env = dict(os.environ)
    if "HYDRA_SWEEP_CACHE_DIR" not in env:
        repo_root = Path(__file__).resolve().parent.parent
        env["HYDRA_SWEEP_CACHE_DIR"] = str(
            prepare_sweep_cache_dir(args.build_dir, repo_root))

    print(f"bench_driver: {len(benches)} benches, {args.jobs} in parallel")
    started = time.monotonic()
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        results = list(pool.map(functools.partial(run_one, env=env), benches))
    elapsed = time.monotonic() - started

    failed = [r["binary"] for r in results if r["exit_code"] != 0]
    # Fold the per-bench sweep-cache counters (bench::record_sweep_cache)
    # into one summary: how much of this run was served from the
    # persistent cache versus simulated from scratch.
    cache_totals = {"memory_hits": 0, "disk_hits": 0, "disk_stores": 0,
                    "misses": 0}
    cache_benches = 0
    for r in results:
        for rep in r["reports"]:
            counters = rep.get("sweep_cache")
            if counters:
                cache_benches += 1
                for key in cache_totals:
                    cache_totals[key] += counters.get(key, 0)
    report = {
        "total_seconds": round(elapsed, 3),
        "bench_count": len(results),
        # The host's core count: the denominator for interpreting the
        # per-bench "threads" metadata (a 4-thread bench on a 1-core
        # container cannot show a speedup).
        "host_cpus": os.cpu_count(),
        "failed": failed,
        "sweep_cache": {
            "dir": env.get("HYDRA_SWEEP_CACHE_DIR", ""),
            "benches": cache_benches,
            **cache_totals,
        },
        "benches": results,
    }
    output.write_text(json.dumps(report, indent=1) + "\n")
    if cache_benches:
        print(f"bench_driver: sweep cache served {cache_totals['disk_hits']} "
              f"point(s) from disk, simulated {cache_totals['misses']}, "
              f"stored {cache_totals['disk_stores']}")

    for r in results:
        status = "ok" if r["exit_code"] == 0 else f"FAILED ({r['exit_code']})"
        print(f"  {r['binary']:<32} {r['seconds']:>8.1f}s  {status}")
    print(f"bench_driver: wrote {output} in {elapsed:.1f}s")
    if failed:
        print(f"bench_driver: {len(failed)} bench(es) failed: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1

    metrics = extract_metrics(results)
    if args.update_baseline:
        args.update_baseline.write_text(json.dumps(
            {"threshold_pct": args.threshold if args.threshold is not None
                              else 15.0,
             "metrics": metrics},
            indent=1, sort_keys=True) + "\n")
        print(f"bench_driver: wrote baseline ({len(metrics)} metrics) "
              f"to {args.update_baseline}")
    if args.baseline:
        baseline = json.loads(args.baseline.read_text())
        threshold = (args.threshold if args.threshold is not None
                     else baseline.get("threshold_pct", 15.0))
        regressions = check_baseline(metrics, baseline, threshold,
                                     args.allow_removed)
        if regressions:
            print(f"bench_driver: {len(regressions)} metric shift(s) "
                  "vs baseline:", file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"bench_driver: all {len(metrics)} metrics within "
              f"{threshold:g}% of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
