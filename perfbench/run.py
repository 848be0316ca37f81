#!/usr/bin/env python3
"""The repository benchmark: builds centbench in Release, runs one workload
in its own process, checks every report and prints the metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; paths resolve from this file. The build goes to
.bench_build/ at the repository root (configured from the root, so the
binary carries the checkout's build stamp). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (see BENCHMARK.json for why each was chosen):
  fifty_year       the §4 two-path experiment, 2 replicas per
                   EnsembleRunner<FiftyYearExperiment> call on 2 workers
  district         the 1M-site district rollout on the default engine
  century_sampled  the 1M-site Ship-of-Theseus century, sampled engine

--trace 0 prints the end-to-end metrics:
  wall_s              median host time of one experiment call
  device_years_per_s  devices x simulated years x replicas per call / wall_s
  peak_rss_mb         VmHWM of the process that ran only this workload
  setup_s             median host time of the same call cut to one
                      simulated day (model build before time advances)
  max_rel_err         largest relative error of the workload's coarse level
                      against its detailed level on the reference seed:
                      the sampled engine's availability, failures and
                      replacements per device-year against the default
                      engine (century_sampled on its own config, district
                      at 100k sites with its density and policies;
                      detailed values recorded in reference.json), and
                      for fifty_year,
                      which has no sampled engine, the coarse models the
                      sampled engines would substitute in its layers
                      (energy fast-forward grants, survival-table lives).
--trace 1 prints the per-layer ledger (every layer measured on the
workload that exercises it) plus the named workload's scheduler metrics
and tracing overhead, and writes Chrome-trace spans under .bench_build/.

An operation is one ensemble replica or one district or century run. It
fails when its report breaks an invariant, its digest differs between
identical calls, or a 1M-site statistic leaves its band in reference.json.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench" / "centbench"
WORKLOADS = ("fifty_year", "district", "century_sampled")
SOURCES = ("CMakeLists.txt", "hook.cmake", "centbench.cc", "probes.cc", "probes.h",
           "spans.cc", "spans.h", "workloads.cc", "workloads.h", "reference.json", "run.py")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def self_check():
    """Every file the benchmark reads exists and, in a git checkout, is
    tracked: an untracked baseline would silently vanish from a clone."""
    read = [BENCH_DIR / name for name in SOURCES] + [ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in read if not p.is_file()]
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        missing.append("CMakeLists.txt and src/ (the program's sources)")
    if missing:
        fail("missing " + ", ".join(missing))
    try:
        inside = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--is-inside-work-tree"],
                                capture_output=True, text=True)
    except FileNotFoundError:
        return  # No git: a plain checkout holds only tracked files.
    if inside.returncode == 0 and inside.stdout.strip() == "true":
        names = [str(p.relative_to(ROOT)) for p in read]
        tracked = subprocess.run(["git", "-C", str(ROOT), "ls-files", "--error-unmatch", *names],
                                 capture_output=True, text=True)
        if tracked.returncode != 0:
            fail("benchmark files are not tracked by git: " + tracked.stderr.strip())


def build():
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    with open(log, "a") as out:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release",
                         f"-DCMAKE_PROJECT_centsim_INCLUDE={BENCH_DIR / 'hook.cmake'}"]
            if subprocess.run(configure, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"configure failed; see {log}", 1)
        jobs = str(min(4, os.cpu_count() or 1))
        command = ["cmake", "--build", str(BUILD_DIR), "--target", "centbench", "-j", jobs]
        if subprocess.run(command, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            fail(f"build failed; see {log}", 1)


def run_binary(args, *extra):
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=175)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"centbench exited with {proc.returncode}", 1)
    out = json.loads(lines[-1])
    if out.get("build_type") != "Release":
        fail(f"refusing to report a {out.get('build_type')!r} build", 1)
    return out


def rel_err(coarse, detailed):
    return max(abs(coarse[k] - detailed[k]) / abs(detailed[k]) for k in detailed)


def within(band, value):
    return abs(value - band["value"]) <= band["tolerance"] * abs(band["value"])


def measure(args, reference):
    out = run_binary(args)
    problems = []
    bands = reference.get(args.workload, {}).get("bands", {})
    first = out["calls"][0]["results"]
    attempted = failed = 0
    for call in out["calls"]:
        for i, result in enumerate(call["results"]):
            attempted += 1
            errors = list(result["errors"])
            if result["digest"] != first[i]["digest"]:
                errors.append(f"digest {result['digest']} differs from {first[i]['digest']}")
            for stats in call["stats"]:
                errors += [f"{k} = {stats[k]} outside {band}" for k, band in bands.items()
                           if not within(band, stats[k])]
            if errors:
                failed += 1
                problems += errors
    for call in out["setup"]:
        for result in call["results"]:
            problems += ["one-day run: " + e for e in result["errors"]]
    if out.get("workers_agree") is False:
        problems.append("the ensemble differs between 1 and 2 workers")

    accuracy = out["accuracy"]
    detailed = accuracy.get("detailed") or reference[args.workload]["detailed"]
    wall_s = statistics.median(c["wall_s"] for c in out["calls"])
    metrics = {
        "wall_s": (wall_s, "s"),
        "device_years_per_s": (out["device_years_per_op"] / wall_s, "1/s"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.median(c["wall_s"] for c in out["setup"]), "s"),
        "max_rel_err": (rel_err(accuracy["coarse"], detailed), "fraction"),
    }
    print(f"workload {args.workload}  seed {args.seed}  build {out['build_type']} "
          f"{out['git_sha']}  {len(out['calls'])} calls in {out['measured_s']:.1f} s")
    print("digests: " + " ".join(r["digest"] for r in first))
    print(f"operations attempted {attempted}, failed {failed}")
    for problem in problems:
        print("  problem: " + problem)
    return problems, attempted, failed, metrics


def trace(args, reference, per_layer):
    spans_path = BUILD_DIR / f"spans_{args.workload}.json"
    out = run_binary(args, "--spans", str(spans_path))
    problems = []
    attempted = len(out["calls"])
    failed = 0
    for call in out["calls"]:
        if call["result"]["errors"]:
            failed += 1
            problems += [call["name"] + ": " + e for e in call["result"]["errors"]]
    # The traced run recomputes the recorded detailed references.
    for workload in ("district", "century_sampled"):
        live = out["reference"][workload]
        recorded = reference[workload]["detailed"]
        if any(not math.isclose(live["detailed"][k], recorded[k], rel_tol=1e-12) for k in recorded):
            problems.append(f"{workload}: the recorded reference in reference.json is stale: "
                            f"live {live['detailed']}")
        print(f"{workload}: max_rel_err recomputed {rel_err(live['coarse'], live['detailed']):.6g}")
    try:
        with open(out["spans_path"]) as f:
            spans = len(json.load(f)["traceEvents"])
        print(f"spans: {spans} events in {out['spans_path']}")
    except (OSError, ValueError, KeyError) as e:
        problems.append(f"span file does not load as JSON: {e}")
    print("ledger: " + out["ledger"].strip())
    metrics = {name: (m["value"], m["unit"]) for name, m in out["metrics"].items()}
    for name in per_layer:
        if name not in metrics:
            problems.append(f"per-layer metric {name} missing")
    print(f"operations attempted {attempted}, failed {failed}")
    for problem in problems:
        print("  problem: " + problem)
    return problems, attempted, failed, {n: metrics[n] for n in per_layer if n in metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    self_check()
    with open(BENCH_DIR / "reference.json") as f:
        reference = json.load(f)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    build()

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        problems, attempted, failed, metrics = trace(args, reference, names)
    else:
        problems, attempted, failed, metrics = measure(args, reference)
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
