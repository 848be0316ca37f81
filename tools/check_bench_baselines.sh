#!/usr/bin/env bash
# Fails when a baseline that tools/bench_smoke.sh compares against is
# missing from bench/ or not tracked by git: a gate whose baseline is gone
# cannot run. Registered as the BenchBaselinesTracked ctest; also runnable
# by hand from anywhere:
#
#   tools/check_bench_baselines.sh
#
# Outside a git checkout (e.g. an exported source tree) only presence can be
# checked; the script then exits 77, which ctest reports as skipped.
set -euo pipefail

cd "$(dirname "$0")/.."

baselines=$(grep -o 'bench/BENCH_[A-Za-z0-9_]*\.json' tools/bench_smoke.sh | sort -u)
if [[ -z "${baselines}" ]]; then
  echo "no baselines found in tools/bench_smoke.sh" >&2
  exit 1
fi

status=0
for baseline in ${baselines}; do
  if [[ ! -f "${baseline}" ]]; then
    echo "missing baseline ${baseline}" >&2
    status=1
  fi
done
[[ ${status} -eq 0 ]] || exit 1

if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  echo "not a git checkout: baselines present, tracking not checked"
  exit 77
fi
for baseline in ${baselines}; do
  if ! git ls-files --error-unmatch "${baseline}" >/dev/null 2>&1; then
    echo "baseline ${baseline} is not tracked by git" >&2
    status=1
  fi
done
[[ ${status} -eq 0 ]] || exit 1
echo "all $(wc -w <<<"${baselines}") bench_smoke.sh baselines present and tracked"
