#!/usr/bin/env bash
# Build the whole tree under a sanitizer and run the tier-1 test suite.
# Usage:
#
#   tools/sanitize.sh                 # address,undefined (default)
#   tools/sanitize.sh undefined       # UBSan only
#   tools/sanitize.sh thread          # ThreadSanitizer (CENTSIM_TSAN)
#   CTEST_ARGS="-R Ensemble" tools/sanitize.sh thread
#
# Uses a dedicated build tree per sanitizer family (build-asan/ or
# build-tsan/) so it never poisons the regular build/ objects with
# instrumented ones. TSan cannot be combined with ASan, so `thread` routes
# through the CENTSIM_TSAN CMake option instead of CENTSIM_SANITIZE.
#
# The `thread` run is the proof obligation for the sharded engine: the
# tier-1 suite includes DistrictShardTest and
# EnginePinTest.ShardedDistrictDrainsOnTheCaller, which drive multi-lane
# district runs on the caller and real worker threads, any of which may
# drain a lane at any barrier — the lanes, the barriers and the caller's
# checkpoint and progress reads at them must come out clean here, not just
# "passes in practice"; DistrictShardTest.ProgressRowCountsCalendarFailures
# also reads the progress row from another thread while the run
# publishes it. It also proves the serial
# district's draw batches: EnginePinTest.SerialDistrictBatchedDraws and
# SeriesSystemTest.SampleLivesEqualsOneDrawPerKey draw lives on pool
# workers while the caller draws its own chunk. And it proves the sampled
# century's block walk: EnginePinTest.SampledCenturyBlocks and the
# 140,000-site CenturySampledTest cases roll out, walk and censor three
# blocks on pool workers and the caller, while the window hooks arm and run
# each block's visits and failures on the main thread between walks. And
# it proves the lanes' failure calendars: every lane drains its model's
# calendar (src/core/failure_calendar.h) on whichever thread claims it, and
# the caller reads its pending count and earliest failure at each barrier,
# which the DistrictShardParity sweep (DigestEqualsEveryLaneCount,
# TwoLaneCheckpointResumesAtThreeLanes) and DistrictShardTest exercise.
# And it proves the progress row's seqlock:
# ProgressCellTest.LoadedRowsNeverMixTwoPublishes loads rows on one
# thread while another publishes a million of them.
#
# The default address,undefined run likewise covers the sampled engine:
# SamplingControllerTest / CenturySampledTest / DistrictSampledTest /
# SurvivalTableTest exercise the fast-forward walk, the transition
# calendar, and checkpoint restore into both modes under ASan/UBSan. It
# covers the failure calendar of both detailed engines too:
# DistrictDrainTest and CenturyDrainTest arm failures by hand around
# visits, barriers, the horizon, the bucket being drained and a proactive
# refresh; DistrictShardParity.SerialCheckpointResumesAtYearFour (24
# configs) and CenturyEngineParity.SerialCheckpointResumesAtYearTwenty (16
# configs) restore serial checkpoints into the calendar; and
# DistrictTest/CenturyTest.ProgressRowCountsPendingFailures read its
# counts into the progress row. It covers the fleet's split into a
# lifecycle core and an edge group: DeviceFleetTest's
# LifecycleOnlySitesStayUnder64BytesPerSlot,
# LifecycleOnlySlotSavesAsAnUntouchedEdgeSlot,
# MixingLifecycleOnlyAndEdgeAddsAborts and
# DistrictAndCenturyFleetsStayUnder64BytesPerSite; and the packed
# Kaplan-Meier words: KaplanMeierTest.PackedObservationsRoundTrip and
# TiedFailuresAndCensoringsKeepTheCurve. And it covers the checkpoints as
# fleet state: DistrictGatewayRecordTest feeds every district reader
# gateway records and cursors that name a gateway outside the plan, twice
# or not at all, against its saved state or before the barrier (a record
# for gateway 1,000,000 once read past ServiceCounts' gateway column);
# DistrictSnapshotTest/CenturySnapshotTest.DeadlineBeforeTheBarrierRefusedNamingTheSite
# give all five readers an alive slot that fails before its barrier;
# DistrictSnapshotTest.VisitOrDeviceFailureRecordRefused carries the
# records earlier formats held; and the three *CheckpointOnAVisit* tests
# of CenturySampledTest and DistrictSampledTest resume across engines at a
# barrier that falls on a zone visit.
#
# Both trees are built without NDEBUG, so every assert() in src/ runs
# here. The regular RelWithDebInfo and Release builds compile them out.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="${1:-address,undefined}"

# RelWithDebInfo's stock flags are "-O2 -g -DNDEBUG"; keep the optimizer
# and debug info, drop NDEBUG.
ASSERT_FLAGS=(-DCMAKE_BUILD_TYPE=RelWithDebInfo "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O2 -g")

if [[ "${SANITIZERS}" == "thread" ]]; then
  BUILD_DIR="build-tsan"
  cmake -B "${BUILD_DIR}" -S . "${ASSERT_FLAGS[@]}" \
    -DCENTSIM_TSAN=ON
else
  BUILD_DIR="build-asan"
  cmake -B "${BUILD_DIR}" -S . "${ASSERT_FLAGS[@]}" \
    -DCENTSIM_SANITIZE="${SANITIZERS}"
fi
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# halt_on_error keeps CI signal crisp: first report fails the run.
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" ${CTEST_ARGS:-}
echo "sanitize(${SANITIZERS}): all tests passed"
