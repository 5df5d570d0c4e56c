#!/usr/bin/env python3
"""Paired A/B runs of perfbench between two checkouts.

Runs perfbench/run.py from a base checkout and a change checkout in
pairs, alternating which side runs first, and prints for each workload
and end-to-end metric of BENCHMARK.json: each side's median with its
first and third quartiles, how many pairs the change won, and the ratio
of the change's median to the base's. A gain is "clear" when the change
wins at least 9 of 10 pairs (the same share for any pair count) and its
median beats the base's by more than the base's interquartile range.
Back-to-back runs on a shared host can swing by tens of percent, so one
run per side proves nothing; pairs do.

  git worktree add ../base HEAD~1
  python3 tools/perf_ab.py --base ../base --change . \\
      --workload flood_4k --seeds 1-10 --seconds 30

  python3 tools/perf_ab.py --self-test     # canned result lines, no runs

Seeds give one pair each; --pairs cycles through them when larger.
--save writes every raw result line (JSON, one per run), the record of
every run made. Nothing under perfbench/ is modified.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

CLEAR_WIN_SHARE = 0.9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_seeds(text):
    """'1-10,1009' -> [1, ..., 10, 1009]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def end_to_end(checkout):
    """{metric: 'higher'|'lower'} from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run (tracing slows the loop, which would
    skew wall-clock metrics); returns its result object (the last JSON
    line)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s: no output from %s" % (checkout, " ".join(cmd)))
    return json.loads(lines[-1])


def quartiles(values):
    """(Q1, median, Q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def analyse(records, better):
    """Summarises paired runs.

    records: dicts {workload, pair, side ('base'|'change'), result}.
    better: {metric: 'higher'|'lower'}.
    Returns rows, one per (workload, metric) found on both sides.
    """
    by_pair = {}
    for r in records:
        by_pair.setdefault((r["workload"], r["pair"]), {})[r["side"]] = \
            r["result"]
    rows = []
    for workload in sorted({w for w, _ in by_pair}):
        pairs = [p for (w, _), p in sorted(by_pair.items())
                 if w == workload and "base" in p and "change" in p]
        for metric, direction in better.items():
            vals = [(p["base"]["metrics"][metric]["value"],
                     p["change"]["metrics"][metric]["value"])
                    for p in pairs
                    if metric in p["base"]["metrics"]
                    and metric in p["change"]["metrics"]]
            if not vals:
                continue
            sign = 1.0 if direction == "higher" else -1.0
            base = [b for b, _ in vals]
            change = [c for _, c in vals]
            bq = quartiles(base)
            cq = quartiles(change)
            won = sum(1 for b, c in vals if sign * (c - b) > 0)
            gain = sign * (cq[1] - bq[1])
            rows.append({
                "workload": workload, "metric": metric,
                "better": direction, "pairs": len(vals),
                "base": bq, "change": cq, "won": won,
                "ratio": cq[1] / bq[1] if bq[1] else float("inf"),
                "gain": gain, "base_iqr": bq[2] - bq[0],
                "clear": (won >= CLEAR_WIN_SHARE * len(vals)
                          and gain > bq[2] - bq[0]),
            })
    return rows


def failed_shares(records):
    """{(workload, side): sorted set of failed/attempted shares}."""
    shares = {}
    for r in records:
        res = r["result"]
        share = res["failed"] / res["attempted"] if res["attempted"] else 0.0
        shares.setdefault((r["workload"], r["side"]), set()).add(share)
    return {k: sorted(v) for k, v in shares.items()}


def render(rows, records):
    out = []
    for row in rows:
        b, c = row["base"], row["change"]
        out.append(
            "%-10s %-13s %-6s base %.6g [%.6g, %.6g]  change %.6g "
            "[%.6g, %.6g]  won %d/%d  ratio %.3f  gain %.6g vs base IQR "
            "%.6g%s" % (row["workload"], row["metric"], row["better"],
                        b[1], b[0], b[2], c[1], c[0], c[2], row["won"],
                        row["pairs"], row["ratio"], row["gain"],
                        row["base_iqr"], "  CLEAR" if row["clear"] else ""))
    for (workload, side), shares in sorted(failed_shares(records).items()):
        out.append("%-10s failed share (%s): %s" % (
            workload, side, ", ".join("%.4g" % s for s in shares)))
    wrong = sorted({(r["workload"], r["side"]) for r in records
                    if not r["result"].get("correct", False)})
    for workload, side in wrong:
        out.append("%-10s %s: a run reported correct=false" % (workload, side))
    return "\n".join(out)


def collect(args):
    seeds = parse_seeds(args.seeds)
    pairs = max(args.pairs, len(seeds))
    sides = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    records = []
    save = open(args.save, "w") if args.save else None
    for workload in args.workload:
        for i in range(pairs):
            seed = seeds[i % len(seeds)]
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                result = run_once(sides[side], workload, seed, args.seconds)
                rec = {"workload": workload, "pair": i, "seed": seed,
                       "side": side, "result": result}
                records.append(rec)
                if save:
                    save.write(json.dumps(rec) + "\n")
                    save.flush()
                log("%s pair %d seed %d %s: %s" % (
                    workload, i, seed, side, ", ".join(
                        "%s=%.6g" % (k, v["value"])
                        for k, v in result["metrics"].items())))
    if save:
        save.close()
    return records


# ---------------------------------------------------------------- self-test

def _canned(workload, pair, side, fps, rss, failed=0):
    return json.dumps({"workload": workload, "pair": pair, "seed": pair + 1,
                       "side": side, "result": {
                           "correct": True, "attempted": 16,
                           "failed": failed, "metrics": {
                               "frames_per_s": {"value": fps,
                                                "unit": "frames/s"},
                               "peak_rss_mb": {"value": rss, "unit": "MB"}}}})


def self_test():
    better = {"frames_per_s": "higher", "peak_rss_mb": "lower",
              "setup_s": "lower"}
    base_fps = [100, 110, 90, 105, 95, 120, 80, 100, 102, 98]
    change_fps = [150, 160, 140, 100, 150, 170, 130, 150, 152, 148]
    lines = []
    for i in range(10):
        lines.append(_canned("flood_4k", i, "base", base_fps[i], 10.0, 13))
        lines.append(_canned("flood_4k", i, "change", change_fps[i],
                             10.0 + (0.1 if i % 2 else -0.1), 13))
    # A second workload where the change is not a clear win.
    for i in range(10):
        lines.append(_canned("paper_tcp", i, "base", 100 + i, 5.0))
        lines.append(_canned("paper_tcp", i, "change", 101 + i, 5.0))
    records = [json.loads(line) for line in lines]
    rows = {(r["workload"], r["metric"]): r for r in analyse(records, better)}
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    check(("flood_4k", "setup_s") not in rows, "absent metric reported")
    fps = rows[("flood_4k", "frames_per_s")]
    check(fps["pairs"] == 10, "pair count")
    # Pair 3 (105 -> 100) is the one loss.
    check(fps["won"] == 9, "flood_4k wins %d != 9" % fps["won"])
    check(abs(fps["base"][1] - 100.0) < 1e-9, "base median")
    check(abs(fps["change"][1] - 150.0) < 1e-9, "change median")
    # Inclusive quartiles of the sorted base: 80 90 95 98 100 100 102 105
    # 110 120 -> Q1 = 95 + 0.25 * 3 = 95.75, Q3 = 104.25.
    check(abs(fps["base"][0] - 95.75) < 1e-9, "base Q1 %r" % fps["base"][0])
    check(abs(fps["base"][2] - 104.25) < 1e-9, "base Q3 %r" % fps["base"][2])
    check(abs(fps["ratio"] - 1.5) < 1e-9, "ratio")
    check(fps["clear"], "flood_4k gain should be clear")
    rss = rows[("flood_4k", "peak_rss_mb")]
    check(rss["won"] == 5 and not rss["clear"], "lower-is-better wins")
    slow = rows[("paper_tcp", "frames_per_s")]
    check(slow["won"] == 10 and not slow["clear"],
          "a 1%% gain inside the base IQR must not be clear")
    check(failed_shares(records)[("flood_4k", "change")] == [13 / 16],
          "failed share")
    text = render(analyse(records, better), records)
    check("won 9/10" in text and "CLEAR" in text, "rendering")
    check(parse_seeds("1-3,1009") == [1, 2, 3, 1009], "seed parsing")
    for f in failures:
        log("perf_ab self-test FAIL: " + f)
    print("perf_ab self-test: %s" % ("pass" if not failures else "fail"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--base", help="checkout of the base (parent)")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        help="workload name; repeat for several")
    parser.add_argument("--seeds", default="1-10",
                        help="seeds, e.g. 1-10 or 1-10,1009 (one pair each)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="minimum number of pairs (seeds are cycled)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--save", help="write raw result lines here")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.base and args.change and args.workload):
        parser.error("--base, --change and --workload are required")
    better = end_to_end(args.base)
    records = collect(args)
    print(render(analyse(records, better), records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
