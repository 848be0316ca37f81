#!/usr/bin/env bash
# Build the engine benchmark in Release and guard against performance
# regressions: every throughput record in the freshly-written
# BENCH_p1_engine.json must be within 20% of the checked-in baseline
# (bench/BENCH_p1_engine.json), and the steady-state allocation count
# must not grow. Usage:
#
#   tools/bench_smoke.sh              # build, run, compare
#   TOLERANCE=0.3 tools/bench_smoke.sh
#
# Runs in a dedicated build-release/ tree so the default RelWithDebInfo
# build/ stays untouched. The comparison uses the paired-round medians the
# benchmark binary itself records, which are far more stable on a noisy
# machine than single google-benchmark runs.
#
# Each bench below is one section. A section stops at its first failing
# command (build, bench binary or checker), and the script goes on to the
# next section; at the end it lists every failed section and exits 1.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="build-release"
BASELINE="bench/BENCH_p1_engine.json"
TOLERANCE="${TOLERANCE:-0.2}"

SECTIONS=()
FAILED=()

# Runs section_<name> in a subshell with errexit on, so the section still
# stops at its first failure, and records the outcome instead of exiting.
run_section() {
  local name="$1"
  local status=0
  SECTIONS+=("${name}")
  echo "=== bench_smoke: ${name}"
  set +e
  (set -e; "section_${name}")
  status=$?
  set -e
  if (( status != 0 )); then
    echo "=== bench_smoke: ${name} FAILED (exit ${status})" >&2
    FAILED+=("${name}")
  fi
}

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

section_p1_engine() {
[[ -f "${BASELINE}" ]] || { echo "missing baseline ${BASELINE}" >&2; exit 1; }

cmake --build "${BUILD_DIR}" --target bench_p1_engine -j "$(nproc)"

# The google-benchmark pass is a smoke signal only (and this benchmark
# version wants a bare double for --benchmark_min_time); the JSON record
# written afterwards carries the numbers we actually compare.
(cd "${BUILD_DIR}/bench" && ./bench_p1_engine \
    --benchmark_filter='BM_Scheduler' --benchmark_min_time=0.05)

python3 - "${BASELINE}" "${BUILD_DIR}/bench/BENCH_p1_engine.json" "${TOLERANCE}" <<'EOF'
import json, sys

baseline_path, fresh_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
def records(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f)["records"]}

base, fresh = records(baseline_path), records(fresh_path)
failures = []
for name, rec in sorted(base.items()):
    if name.endswith("_seed_baseline"):
        continue  # The replica of the old scheduler isn't under guard.
    if name not in fresh:
        failures.append(f"{name}: missing from fresh run")
        continue
    old, new = rec["value"], fresh[name]["value"]
    if rec["unit"] == "1/s" and old > 0:
        if new < old * (1.0 - tol):
            failures.append(f"{name}: {new:.0f}/s < {1-tol:.0%} of baseline {old:.0f}/s")
        else:
            print(f"  ok {name}: {new:.3g}/s vs baseline {old:.3g}/s")
    elif name == "scheduler_steady_allocs_per_event":
        # -1 means the allocation probe was compiled out (sanitizer build).
        if new > max(old, 0.0) and new >= 0 and old >= 0:
            failures.append(f"{name}: {new} allocs/event > baseline {old}")
        else:
            print(f"  ok {name}: {new} allocs/event (baseline {old})")

# Absolute ceiling from the run-control acceptance criteria: the heartbeat
# stack (flight recorder + progress publishing on top of the profiler it
# piggybacks on) must cost <= 5% regardless of what the baseline recorded.
rc = fresh.get("runcontrol_overhead_pct")
if rc is None:
    failures.append("runcontrol_overhead_pct: missing from fresh run")
elif rc["value"] > 5.0:
    failures.append(f"runcontrol_overhead_pct: {rc['value']:.1f}% > 5% ceiling")
else:
    print(f"  ok runcontrol_overhead_pct: {rc['value']:.1f}% (ceiling 5%)")

if failures:
    print("bench_smoke: REGRESSION", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_smoke: within tolerance")
EOF
}
run_section p1_engine

# --- District fleet-core scale gate -----------------------------------
# bench_district_scale re-runs the 50-year district at 10k/100k/1M sites,
# checks report parity against the object-graph replica, and records
# throughput + memory. Guarded here: throughput within the same tolerance,
# the 100k end-to-end speedup floor, and the per-device memory budget.
section_district_scale() {
DISTRICT_BASELINE="bench/BENCH_district_scale.json"
[[ -f "${DISTRICT_BASELINE}" ]] || { echo "missing baseline ${DISTRICT_BASELINE}" >&2; exit 1; }

cmake --build "${BUILD_DIR}" --target bench_district_scale -j "$(nproc)"
(cd "${BUILD_DIR}/bench" && ./bench_district_scale)

python3 - "${DISTRICT_BASELINE}" "${BUILD_DIR}/bench/BENCH_district_scale.json" "${TOLERANCE}" <<'EOF'
import json, sys

baseline_path, fresh_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
def records(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f)["records"]}

base, fresh = records(baseline_path), records(fresh_path)
failures = []
for name, rec in sorted(base.items()):
    if name.endswith("_seed_baseline"):
        continue  # The object-graph replica isn't under guard.
    if name.endswith("_10k"):
        continue  # Millisecond-scale phases: recorded, but too noisy to gate.
    if name not in fresh:
        failures.append(f"{name}: missing from fresh run")
        continue
    old, new = rec["value"], fresh[name]["value"]
    if rec["unit"] == "1/s" and old > 0:
        if new < old * (1.0 - tol):
            failures.append(f"{name}: {new:.0f}/s < {1-tol:.0%} of baseline {old:.0f}/s")
        else:
            print(f"  ok {name}: {new:.3g}/s vs baseline {old:.3g}/s")

# Absolute floors from the fleet-core acceptance criteria, independent of
# the recorded baseline.
speedup = fresh.get("speedup_vs_object_graph_100k", {"value": 0.0})["value"]
if speedup < 3.0:
    failures.append(f"speedup_vs_object_graph_100k: {speedup:.2f}x < 3x floor")
else:
    print(f"  ok speedup_vs_object_graph_100k: {speedup:.2f}x (floor 3x)")
bytes_1m = fresh.get("fleet_bytes_per_device_1m", {"value": 1e9})["value"]
if bytes_1m > 64.0:
    failures.append(f"fleet_bytes_per_device_1m: {bytes_1m:.1f} B > 64 B budget")
else:
    print(f"  ok fleet_bytes_per_device_1m: {bytes_1m:.1f} B (budget 64 B)")
parity = fresh.get("parity_checks_passed", {"value": 0.0})["value"]
if parity < 2:
    failures.append(f"parity_checks_passed: {parity:.0f} < 2")
else:
    print(f"  ok parity_checks_passed: {parity:.0f}")

if failures:
    print("bench_smoke: REGRESSION (district scale)", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_smoke: district scale within tolerance")
EOF
}
run_section district_scale

# --- Snapshot save/restore gate ----------------------------------------
# bench_snapshot checkpoints the 1M-device district at year 25, resumes a
# second run from that file, and fails itself if the resumed report is not
# bit-identical to the straight run. Gated here: save/restore throughput
# within tolerance, both wall times under the O(seconds) acceptance
# ceiling, and the per-device snapshot size budget.
section_snapshot() {
SNAPSHOT_BASELINE="bench/BENCH_snapshot.json"
[[ -f "${SNAPSHOT_BASELINE}" ]] || { echo "missing baseline ${SNAPSHOT_BASELINE}" >&2; exit 1; }

cmake --build "${BUILD_DIR}" --target bench_snapshot -j "$(nproc)"
(cd "${BUILD_DIR}/bench" && ./bench_snapshot)

python3 - "${SNAPSHOT_BASELINE}" "${BUILD_DIR}/bench/BENCH_snapshot.json" "${TOLERANCE}" <<'EOF'
import json, sys

baseline_path, fresh_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
def records(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f)["records"]}

base, fresh = records(baseline_path), records(fresh_path)
failures = []
for name, rec in sorted(base.items()):
    if name not in fresh:
        failures.append(f"{name}: missing from fresh run")
        continue
    old, new = rec["value"], fresh[name]["value"]
    if rec["unit"] == "1/s" and old > 0:
        if new < old * (1.0 - tol):
            failures.append(f"{name}: {new:.0f}/s < {1-tol:.0%} of baseline {old:.0f}/s")
        else:
            print(f"  ok {name}: {new:.3g}/s vs baseline {old:.3g}/s")

# Absolute ceilings from the snapshot acceptance criteria, independent of
# the recorded baseline: saving and restoring a million-device district
# must each stay O(seconds), and the file must stay lean.
for name, ceiling, unit in [("save_seconds_1m", 10.0, "s"),
                            ("restore_seconds_1m", 10.0, "s"),
                            ("snapshot_bytes_per_device_1m", 200.0, "B")]:
    val = fresh.get(name, {"value": 1e9})["value"]
    if val > ceiling:
        failures.append(f"{name}: {val:.2f} {unit} > {ceiling:.0f} {unit} ceiling")
    else:
        print(f"  ok {name}: {val:.2f} {unit} (ceiling {ceiling:.0f} {unit})")
parity = fresh.get("parity_checks_passed", {"value": 0.0})["value"]
if parity < 1:
    failures.append("parity_checks_passed: resumed run did not match the straight run")
else:
    print(f"  ok parity_checks_passed: {parity:.0f}")

if failures:
    print("bench_smoke: REGRESSION (snapshot)", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_smoke: snapshot within tolerance")
EOF
}
run_section snapshot

# --- Radio medium scale gate -------------------------------------------
# bench_radio_scale runs the grid-bucketed contention resolver over 10k,
# 100k and 1M transmitters at constant density (positions straight from
# DeviceFleet columns), checks the grid path against the all-pairs oracle
# bit for bit at 10k, and fits the log-log scaling exponent. Gated here:
# throughput within tolerance, exponent <= 1.2 (near-linear), parity.
section_radio_scale() {
RADIO_BASELINE="bench/BENCH_radio_scale.json"
[[ -f "${RADIO_BASELINE}" ]] || { echo "missing baseline ${RADIO_BASELINE}" >&2; exit 1; }

cmake --build "${BUILD_DIR}" --target bench_radio_scale -j "$(nproc)"
(cd "${BUILD_DIR}/bench" && ./bench_radio_scale)

python3 - "${RADIO_BASELINE}" "${BUILD_DIR}/bench/BENCH_radio_scale.json" "${TOLERANCE}" <<'EOF'
import json, sys

baseline_path, fresh_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
def records(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f)["records"]}

base, fresh = records(baseline_path), records(fresh_path)
failures = []
for name, rec in sorted(base.items()):
    if name.endswith("_10k"):
        continue  # Millisecond-scale rounds: recorded, but too noisy to gate.
    if name not in fresh:
        failures.append(f"{name}: missing from fresh run")
        continue
    old, new = rec["value"], fresh[name]["value"]
    if rec["unit"] == "1/s" and old > 0:
        if new < old * (1.0 - tol):
            failures.append(f"{name}: {new:.0f}/s < {1-tol:.0%} of baseline {old:.0f}/s")
        else:
            print(f"  ok {name}: {new:.3g}/s vs baseline {old:.3g}/s")
    elif name.startswith("delivered_round0"):
        # Deterministic counter-hash draws: the delivery count at a given
        # size is a fixed number, and any drift means the model changed.
        if new != old:
            failures.append(f"{name}: {new:.0f} != baseline {old:.0f} (model drift)")
        else:
            print(f"  ok {name}: {new:.0f} delivered (exact)")

# Absolute gates from the radio-medium acceptance criteria, independent of
# the recorded baseline.
exponent = fresh.get("scaling_exponent", {"value": 99.0})["value"]
if exponent > 1.2:
    failures.append(f"scaling_exponent: {exponent:.3f} > 1.2 ceiling (not near-linear)")
else:
    print(f"  ok scaling_exponent: {exponent:.3f} (ceiling 1.2)")
parity = fresh.get("parity_checks_passed", {"value": 0.0})["value"]
if parity < 1:
    failures.append("parity_checks_passed: grid did not match the all-pairs oracle")
else:
    print(f"  ok parity_checks_passed: {parity:.0f}")

if failures:
    print("bench_smoke: REGRESSION (radio scale)", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_smoke: radio scale within tolerance")
EOF
}
run_section radio_scale

# --- Ensemble engine + live-run-control gate ---------------------------
# bench_e5_ensemble runs the 50-year experiment as a parallel ensemble:
# once per pool width, and once more with live run control (status_dir +
# heartbeat + flight recorders) attached. Gated on replica throughput vs
# the checked-in baseline, on the cross-thread determinism flag, and on
# the run-control point not falling behind the plain full-width point by
# more than the tolerance. The replica/thread counts must match how the
# baseline was generated.
section_e5_ensemble() {
E5_BASELINE="bench/BENCH_e5_ensemble.json"
E5_REPLICAS=4
E5_THREADS=2
[[ -f "${E5_BASELINE}" ]] || { echo "missing baseline ${E5_BASELINE}" >&2; exit 1; }

cmake --build "${BUILD_DIR}" --target bench_e5_ensemble -j "$(nproc)"
(cd "${BUILD_DIR}/bench" && ./bench_e5_ensemble \
    --replicas="${E5_REPLICAS}" --threads="${E5_THREADS}")

python3 - "${E5_BASELINE}" "${BUILD_DIR}/bench/BENCH_e5_ensemble.json" "${TOLERANCE}" <<'EOF'
import json, sys

baseline_path, fresh_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
def records(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f)["records"]}

base, fresh = records(baseline_path), records(fresh_path)
failures = []
for name, rec in sorted(base.items()):
    if name not in fresh:
        failures.append(f"{name}: missing from fresh run")
        continue
    old, new = rec["value"], fresh[name]["value"]
    if rec["unit"] == "1/s" and old > 0:
        if new < old * (1.0 - tol):
            failures.append(f"{name}: {new:.3f}/s < {1-tol:.0%} of baseline {old:.3f}/s")
        else:
            print(f"  ok {name}: {new:.3g}/s vs baseline {old:.3g}/s")

# Hard invariants, independent of the baseline numbers.
det = fresh.get("deterministic_across_threads", {"value": 0.0})["value"]
if det != 1.0:
    failures.append("deterministic_across_threads: merged statistics differ across pool widths")
else:
    print("  ok deterministic_across_threads: 1")
stalled = fresh.get("stalled_replicas", {"value": 1.0})["value"]
if stalled != 0.0:
    failures.append(f"stalled_replicas: {stalled:.0f} replicas tripped the watchdog")
else:
    print("  ok stalled_replicas: 0")
# Run control must keep pace with the plain full-width point.
import re
widths = [int(m.group(1)) for name in fresh for m in [re.match(r"replicas_per_sec_t(\d+)$", name)] if m]
if widths:
    full = fresh["replicas_per_sec_t%d" % max(widths)]["value"]
    rc = fresh.get("replicas_per_sec_run_control", {"value": 0.0})["value"]
    if full > 0 and rc < full * (1.0 - tol):
        failures.append(f"replicas_per_sec_run_control: {rc:.3f}/s < {1-tol:.0%} of plain {full:.3f}/s")
    else:
        print(f"  ok replicas_per_sec_run_control: {rc:.3g}/s vs plain {full:.3g}/s")

if failures:
    print("bench_smoke: REGRESSION (e5 ensemble)", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_smoke: e5 ensemble within tolerance")
EOF
}
run_section e5_ensemble

# --- Sharded-engine scale gate -----------------------------------------
# bench_shard_scale runs one city across 1 / 2 / half / all cores and
# fails ITSELF if any shard or worker count changes the report digest, so
# the determinism gates below hold on every machine. The >= 4x speedup
# floor is applied only when the box actually has >= 8 hardware threads —
# a single-core CI runner still proves correctness, just not scaling.
section_shard_scale() {
SHARD_BASELINE="bench/BENCH_shard_scale.json"
[[ -f "${SHARD_BASELINE}" ]] || { echo "missing baseline ${SHARD_BASELINE}" >&2; exit 1; }

cmake --build "${BUILD_DIR}" --target bench_shard_scale -j "$(nproc)"
(cd "${BUILD_DIR}/bench" && ./bench_shard_scale)

python3 - "${SHARD_BASELINE}" "${BUILD_DIR}/bench/BENCH_shard_scale.json" "${TOLERANCE}" <<'EOF'
import json, sys

baseline_path, fresh_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
def records(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f)["records"]}

base, fresh = records(baseline_path), records(fresh_path)
failures = []

# Determinism gates: unconditional — these are the acceptance criteria that
# hold regardless of core count.
for name in ("shard_determinism_ok", "worker_determinism_ok"):
    val = fresh.get(name, {"value": 0.0})["value"]
    if val < 1.0:
        failures.append(f"{name}: digests diverged across shard/worker counts")
    else:
        print(f"  ok {name}")

# Single-lane throughput regression vs the checked-in baseline (the only
# throughput record that is comparable across machines with different core
# counts).
name = "events_per_sec_shards_1"
if name in base and name in fresh:
    old, new = base[name]["value"], fresh[name]["value"]
    if old > 0 and new < old * (1.0 - tol):
        failures.append(f"{name}: {new:.0f}/s < {1-tol:.0%} of baseline {old:.0f}/s")
    else:
        print(f"  ok {name}: {new:.3g}/s vs baseline {old:.3g}/s")

# Speedup floor: only meaningful where the cores exist.
hw = fresh.get("hardware_threads", {"value": 1.0})["value"]
speedup = fresh.get("speedup_full_cores", {"value": 0.0})["value"]
if hw >= 8:
    if speedup < 4.0:
        failures.append(f"speedup_full_cores: {speedup:.2f}x < 4x floor on {hw:.0f} threads")
    else:
        print(f"  ok speedup_full_cores: {speedup:.2f}x (floor 4x, {hw:.0f} threads)")
else:
    print(f"  skip speedup floor: only {hw:.0f} hardware threads (< 8); "
          f"recorded {speedup:.2f}x")

if failures:
    print("bench_smoke: REGRESSION (shard scale)", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_smoke: shard scale within tolerance")
EOF
}
run_section shard_scale

# --- Sampled-engine speedup + fidelity gate ----------------------------
# bench_sampling runs the 200k-site century once under the serial detailed
# engine and once under the sampled engine (measured windows + walked
# fast-forward), and fails ITSELF if the speedup drops below 10x or any
# paper metric drifts more than 1% — those floors are the acceptance
# criteria, so they are re-applied here unconditionally. The detailed
# engine's event throughput is additionally guarded against the checked-in
# baseline like every other bench.
section_sampling() {
SAMPLING_BASELINE="bench/BENCH_sampling.json"
[[ -f "${SAMPLING_BASELINE}" ]] || { echo "missing baseline ${SAMPLING_BASELINE}" >&2; exit 1; }

cmake --build "${BUILD_DIR}" --target bench_sampling -j "$(nproc)"
(cd "${BUILD_DIR}/bench" && ./bench_sampling)

python3 - "${SAMPLING_BASELINE}" "${BUILD_DIR}/bench/BENCH_sampling.json" "${TOLERANCE}" <<'EOF'
import json, sys

baseline_path, fresh_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
def records(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f)["records"]}

base, fresh = records(baseline_path), records(fresh_path)
failures = []
for name, rec in sorted(base.items()):
    if name not in fresh:
        failures.append(f"{name}: missing from fresh run")
        continue
    old, new = rec["value"], fresh[name]["value"]
    if rec["unit"] == "1/s" and old > 0:
        if new < old * (1.0 - tol):
            failures.append(f"{name}: {new:.0f}/s < {1-tol:.0%} of baseline {old:.0f}/s")
        else:
            print(f"  ok {name}: {new:.3g}/s vs baseline {old:.3g}/s")

# Absolute floors from the sampled-engine acceptance criteria, independent
# of the recorded baseline: >= 10x wall-clock speedup over detailed, and
# every headline metric within 1% of the detailed run.
speedup = fresh.get("speedup_sampled", {"value": 0.0})["value"]
if speedup < 10.0:
    failures.append(f"speedup_sampled: {speedup:.2f}x < 10x floor")
else:
    print(f"  ok speedup_sampled: {speedup:.2f}x (floor 10x)")
for name in ("availability_rel_err", "failure_rate_rel_err",
             "replacement_rate_rel_err"):
    err = fresh.get(name, {"value": 1.0})["value"]
    if err > 0.01:
        failures.append(f"{name}: {err:.4f} > 1% ceiling")
    else:
        print(f"  ok {name}: {100.0 * err:.3f}% (ceiling 1%)")

if failures:
    print("bench_smoke: REGRESSION (sampling)", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_smoke: sampling within tolerance")
EOF
}
run_section sampling

echo "=== bench_smoke: $(( ${#SECTIONS[@]} - ${#FAILED[@]} )) of ${#SECTIONS[@]} sections passed"
if (( ${#FAILED[@]} > 0 )); then
  echo "bench_smoke: failed sections: ${FAILED[*]}" >&2
  exit 1
fi
