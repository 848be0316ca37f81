#!/usr/bin/env bash
# Paired benchmark against a base revision: runs the repository benchmark
# (perfbench/run.py, unchanged) on the base and on this checkout in
# alternating pairs on fresh seeds, and compares the end-to-end metrics
# with the bounds BENCHMARK.json declares. Usage:
#
#   tools/paired_bench.sh <rev> [pairs] [workload...]
#
#   <rev>      the base: any git revision, exported with `git archive`
#   pairs      pairs per workload (default 10)
#   workload   perfbench workloads (default: every one in BENCHMARK.json)
#
# Environment:
#   PAIRED_WORKDIR  directory for the base tree and the run log (default:
#                   a new mktemp -d directory)
#
# Every run lasts BENCHMARK.json's run_seconds. Pair i runs seed
# <seed base> + i on both sides; the seed base is drawn from the clock and
# printed, so each invocation runs fresh seeds.
#
# The change side is this checkout's working tree, uncommitted edits
# included. Each side builds its own Release tree through its own run.py
# (.bench_build/ at the tree's root); one warm-up run per side does that
# before the first measured pair. Pair i runs the base first when i is
# even and the change first when i is odd. Every run's result line goes to
# <workdir>/runs.jsonl, with the host's `nproc` and 1-minute load average
# read just before the run (host_nproc, host_load1): a gain from parallel
# work depends on idle cores.
#
# tools/paired_summary.py then prints, per workload and end-to-end metric,
# each side's median, quartiles and IQR, the change/base ratio, the pairs
# the change won and a GAIN, UNRESOLVED or WORSE THAN BOUND label, and each
# side's failed-operation share and host load (see its header for the
# rules).
#
# Exit status: 0 when no end-to-end median is worse than the base's by more
# than its bound and the change's failed-operation share is no higher than
# the base's; 1 otherwise; 2 on a usage error or a run that did not
# complete.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"

if [[ $# -lt 1 ]]; then
  awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0"
  exit 2
fi
REV="$1"
PAIRS="${2:-10}"
shift $(( $# >= 2 ? 2 : 1 ))
WORKLOADS=("$@")
if [[ ${#WORKLOADS[@]} -eq 0 ]]; then
  mapfile -t WORKLOADS < <(python3 -c \
    'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
if ! [[ "${PAIRS}" =~ ^[1-9][0-9]*$ ]]; then
  echo "paired_bench: pairs must be a positive integer, got '${PAIRS}'" >&2
  exit 2
fi
BASE_SHA="$(git rev-parse --verify "${REV}^{commit}")" || {
  echo "paired_bench: unknown revision '${REV}'" >&2
  exit 2
}
RUN_SECONDS="$(python3 -c \
  'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
SEED_BASE="$(( $(date +%s) % 900000 + 100000 ))"
WORKDIR="${PAIRED_WORKDIR:-$(mktemp -d)}"
mkdir -p "${WORKDIR}"
BASE_TREE="${WORKDIR}/base"
LOG="${WORKDIR}/runs.jsonl"
: > "${LOG}"

echo "paired_bench: base ${REV} (${BASE_SHA}) vs this working tree"
echo "paired_bench: ${PAIRS} pairs of ${WORKLOADS[*]}, seeds ${SEED_BASE}..$(( SEED_BASE + PAIRS - 1 )), ${RUN_SECONDS} s per run"
echo "paired_bench: work directory ${WORKDIR}"

rm -rf "${BASE_TREE}"
mkdir -p "${BASE_TREE}"
git archive "${BASE_SHA}" | tar -x -C "${BASE_TREE}"

# run <side> <tree> <workload> <seed> <pair> <order>: one run.py call. Its
# last output line (the result JSON) is logged with the run's coordinates.
run() {
  local side="$1" tree="$2" workload="$3" seed="$4" pair="$5" order="$6"
  local out="${WORKDIR}/last_${side}.txt"
  local cores load1
  cores="$(nproc)"
  read -r load1 _ < /proc/loadavg
  if ! python3 "${tree}/perfbench/run.py" --workload "${workload}" --seed "${seed}" \
      --seconds "${RUN_SECONDS}" --trace 0 > "${out}" 2> "${out}.err"; then
    echo "paired_bench: ${side} run of ${workload} seed ${seed} failed:" >&2
    tail -n 20 "${out}" "${out}.err" >&2
    exit 2
  fi
  python3 - "${out}" "${LOG}" "${side}" "${workload}" "${seed}" "${pair}" "${order}" \
      "${cores}" "${load1}" <<'EOF'
import json, sys
path, log, side, workload, seed, pair, order, cores, load1 = sys.argv[1:]
result = json.loads(open(path).read().strip().splitlines()[-1])
result.update(side=side, workload=workload, seed=int(seed), pair=int(pair), order=int(order),
              host_nproc=int(cores), host_load1=float(load1))
with open(log, "a") as f:
    f.write(json.dumps(result) + "\n")
values = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
print(f"  {side:<6} {values}  failed={result['failed']}  load1={float(load1):.2f}")
EOF
}

echo "=== warm-up: builds both trees"
for tree in "${BASE_TREE}" "${ROOT}"; do
  if ! python3 "${tree}/perfbench/run.py" --workload "${WORKLOADS[0]}" --seed 1 \
      --seconds 1 --trace 0 > /dev/null 2> "${WORKDIR}/warmup.err"; then
    echo "paired_bench: warm-up in ${tree} failed:" >&2
    tail -n 20 "${WORKDIR}/warmup.err" >&2
    exit 2
  fi
done

for workload in "${WORKLOADS[@]}"; do
  for (( i = 0; i < PAIRS; ++i )); do
    seed=$(( SEED_BASE + i ))
    echo "=== ${workload} pair $(( i + 1 ))/${PAIRS} seed ${seed}"
    if (( i % 2 == 0 )); then
      run base "${BASE_TREE}" "${workload}" "${seed}" "${i}" 0
      run change "${ROOT}" "${workload}" "${seed}" "${i}" 1
    else
      run change "${ROOT}" "${workload}" "${seed}" "${i}" 0
      run base "${BASE_TREE}" "${workload}" "${seed}" "${i}" 1
    fi
  done
done

python3 tools/paired_summary.py "${LOG}" BENCHMARK.json "${REV}"
