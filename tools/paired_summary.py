#!/usr/bin/env python3
"""Summarizes a paired benchmark log (tools/paired_bench.sh) by the rules
BENCHMARK.json's end-to-end metrics are judged by. Usage:

    tools/paired_summary.py <runs.jsonl> <BENCHMARK.json> <rev>

Each line of runs.jsonl is one perfbench result with its coordinates:
side ("base" or "change"), workload, pair, plus the result's metrics,
attempted, failed and correct fields. <rev> only labels the base.

Printed per workload and end-to-end metric: each side's median, first and
third quartiles (inclusive method) and IQR; the ratio of the change median
to the base median (the base is the denominator); how many pairs the change
won (ties count for neither side); and the median gap in units of the base
IQR. A row is labelled
  WORSE THAN BOUND  the change median is worse than the base median by more
                    than the metric's bound (a fraction of the base median);
  GAIN              the change won at least 9/10 of the pairs and its median
                    is better than the base median by more than the base IQR;
  UNRESOLVED        either side's IQR is wider than bound x its median, and
                    not every change run beats every base run.
Per workload it also prints each side's failed-operation share, failed over
attempted summed over its runs. Shares, not counts, are compared: the
faster side attempts more operations. Last, it prints each side's host:
the `nproc` values and the median and range of the 1-minute load average
its runs recorded (host_nproc, host_load1), or "not recorded" for a log
written before those fields existed. They are shown, not judged.

Exit status: 1 when a row is WORSE THAN BOUND or the change's failed share
is higher than the base's; 0 otherwise.
"""

import json
import statistics
import sys


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def share(failed, attempted):
    return failed / attempted if attempted > 0 else 0.0


def host(runs):
    recorded = [r for r in runs if "host_nproc" in r and "host_load1" in r]
    if not recorded:
        return "not recorded"
    cores = "/".join(str(n) for n in sorted({r["host_nproc"] for r in recorded}))
    loads = [r["host_load1"] for r in recorded]
    return (f"nproc {cores}, load1 median {statistics.median(loads):.2f} "
            f"[{min(loads):.2f}, {max(loads):.2f}] over {len(recorded)} runs")


def main(log, spec_path, rev):
    runs = [json.loads(line) for line in open(log)]
    spec = json.load(open(spec_path))
    bad = []

    for workload in dict.fromkeys(r["workload"] for r in runs):
        rows = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in rows})
        side = {(r["side"], r["pair"]): r for r in rows}
        print(f"\n{workload}: {len(pairs)} pairs; ratio = change median / base median "
              f"(base = {rev}); wins = pairs where the change is better")
        print(f"  {'metric':<20} {'base median [q1, q3] IQR':>36}   "
              f"{'change median [q1, q3] IQR':>36}   {'ratio':>7} {'wins':>6} "
              f"{'gap/IQR':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
            base = [side["base", p]["metrics"][name]["value"] for p in pairs]
            change = [side["change", p]["metrics"][name]["value"] for p in pairs]
            bm, cm = statistics.median(base), statistics.median(change)
            (b1, b3), (c1, c3) = quartiles(base), quartiles(change)
            wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
            iqr = b3 - b1
            gap = abs(cm - bm) / iqr if iqr > 0 else float("inf") if cm != bm else 0.0
            ratio = cm / bm if bm != 0 else float("nan")
            worse = (cm - bm) if lower else (bm - cm)
            regressed = worse > bound * abs(bm) if bm != 0 else worse > 0
            gain = wins >= 0.9 * len(pairs) and -worse > iqr
            every_run_better = (max(change) < min(base)) if lower else (min(change) > max(base))
            noisy = b3 - b1 > bound * abs(bm) or c3 - c1 > bound * abs(cm)
            label = ("  WORSE THAN BOUND" if regressed else "  GAIN" if gain
                     else "  UNRESOLVED" if noisy and not every_run_better else "")
            print(f"  {name:<20} {bm:>11.5g} [{b1:.5g}, {b3:.5g}] {iqr:<8.3g}   "
                  f"{cm:>11.5g} [{c1:.5g}, {c3:.5g}] {c3 - c1:<8.3g}   {ratio:>7.4f} "
                  f"{wins:>3}/{len(pairs):<2} {gap:>8.2f} {bound:>6.2f}" + label)
            if regressed:
                bad.append(f"{workload} {name}: median {cm:.5g} vs base {bm:.5g}")
        failed = {s: sum(side[s, p]["failed"] for p in pairs) for s in ("base", "change")}
        attempted = {s: sum(side[s, p]["attempted"] for p in pairs) for s in ("base", "change")}
        shares = {s: share(failed[s], attempted[s]) for s in ("base", "change")}
        incorrect = {s: sum(not side[s, p]["correct"] for p in pairs) for s in ("base", "change")}
        print(f"  operations failed: base {failed['base']}/{attempted['base']} "
              f"({shares['base']:.3%}), change {failed['change']}/{attempted['change']} "
              f"({shares['change']:.3%}); runs with problems: "
              f"base {incorrect['base']}, change {incorrect['change']}")
        print(f"  host: base {host([side['base', p] for p in pairs])}; "
              f"change {host([side['change', p] for p in pairs])}")
        if shares["change"] > shares["base"]:
            bad.append(f"{workload}: failed-operation share rose "
                       f"{shares['base']:.3%} -> {shares['change']:.3%}")

    print()
    for line in bad:
        print("paired_bench: FAIL " + line)
    if bad:
        return 1
    print("paired_bench: no end-to-end metric worse than its bound, "
          "failed-operation share did not rise")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    sys.exit(main(*sys.argv[1:]))
