#!/usr/bin/env python3
"""Feeds tools/paired_summary.py synthetic paired logs and checks its labels
and exit status. Usage: paired_summary_test.py <path to paired_summary.py>"""

import json
import os
import subprocess
import sys
import tempfile

SUMMARY = sys.argv[1]
SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "device_years_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


def summarize(base_walls, change_walls, base_failed=(0, 20), change_failed=(0, 20),
              hosts=None):
    """Runs the summary on one workload whose pairs have these wall times.
    Throughput is 100 / wall. The failed/attempted totals go on pair 0, and
    the other pairs attempt nothing. `hosts` maps a side to its runs'
    (nproc, load1); without it the log has no host fields."""
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "runs.jsonl")
        spec = os.path.join(tmp, "BENCHMARK.json")
        with open(spec, "w") as f:
            json.dump(SPEC, f)
        with open(log, "w") as f:
            for side, walls, (failed, attempted) in (("base", base_walls, base_failed),
                                                    ("change", change_walls, change_failed)):
                for pair, wall in enumerate(walls):
                    result = {
                        "side": side, "workload": "synthetic", "pair": pair,
                        "correct": True,
                        "failed": failed if pair == 0 else 0,
                        "attempted": attempted if pair == 0 else 0,
                        "metrics": {"wall_s": {"value": wall},
                                    "device_years_per_s": {"value": 100.0 / wall}},
                    }
                    if hosts is not None:
                        nproc, load1 = hosts[side]
                        result.update(host_nproc=nproc, host_load1=load1 + 0.1 * pair)
                    f.write(json.dumps(result) + "\n")
        done = subprocess.run([sys.executable, SUMMARY, log, spec, "base"],
                              capture_output=True, text=True)
        return done.returncode, done.stdout


def row(output, metric):
    return next(line for line in output.splitlines() if line.strip().startswith(metric))


errors = []


def check(name, condition, output):
    if not condition:
        errors.append(f"{name}:\n{output}")


steady = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.05, 9.95]

code, out = summarize(steady, [w * 1.33 for w in steady])
check("a 33% slower change exits 1", code == 1 and "WORSE THAN BOUND" in row(out, "wall_s"), out)

code, out = summarize(steady, [w * 0.6 for w in steady])
check("a clear gain prints GAIN and exits 0",
      code == 0 and row(out, "wall_s").endswith("GAIN")
      and row(out, "device_years_per_s").endswith("GAIN"), out)

code, out = summarize(steady, steady, base_failed=(1, 20), change_failed=(1, 40))
check("base 1/20 failed against change 1/40 exits 0", code == 0, out)

code, out = summarize(steady, steady, base_failed=(1, 20), change_failed=(2, 80))
check("base 1/20 failed against change 2/80 (more failures, lower share) exits 0",
      code == 0, out)

code, out = summarize(steady, steady, base_failed=(0, 20), change_failed=(1, 40))
check("base 0/20 failed against change 1/40 exits 1",
      code == 1 and "failed-operation share rose" in out, out)

noisy_base = [6.0, 14.0, 7.0, 13.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0]
noisy_change = [13.0, 7.0, 12.0, 6.0, 10.0, 12.0, 8.0, 11.0, 9.0, 10.5]
code, out = summarize(noisy_base, noisy_change)
check("a noisy tie prints UNRESOLVED",
      code == 0 and row(out, "wall_s").endswith("UNRESOLVED"), out)

code, out = summarize(steady, steady)
check("a log without host fields prints them as not recorded",
      code == 0 and row(out, "host:").strip() == "host: base not recorded; change not recorded",
      out)

code, out = summarize(steady, steady, hosts={"base": (4, 0.5), "change": (4, 2.0)})
check("a log with host fields prints each side's nproc and load range",
      code == 0 and row(out, "host:").strip() ==
      "host: base nproc 4, load1 median 0.95 [0.50, 1.40] over 10 runs; "
      "change nproc 4, load1 median 2.45 [2.00, 2.90] over 10 runs", out)

for error in errors:
    print("FAIL " + error)
sys.exit(1 if errors else 0)
