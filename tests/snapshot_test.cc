// Snapshot subsystem tests: byte codec hardening, container corruption
// fuzzing, timer-table re-arm semantics, and the restore-parity contract —
// a run resumed from a checkpoint (including in a freshly forked process)
// must reproduce the straight-through run bit for bit.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/century_model.h"
#include "src/core/district.h"
#include "src/core/district_model.h"
#include "src/core/experiment_api.h"
#include "src/core/fleet_codec.h"
#include "src/core/theseus.h"
#include "src/sim/ensemble.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/snapshot/branch.h"
#include "src/snapshot/bytes.h"
#include "src/snapshot/codec.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/timer_table.h"
#include "src/telemetry/atomic_file.h"
#include "src/telemetry/run_manifest.h"
#include "src/telemetry/run_status.h"

namespace centsim {
namespace {

namespace fs = std::filesystem;

// Unique scratch directory per test, removed on teardown.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) : path_(testing::TempDir() + name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- Byte codec ------------------------------------------------------------

TEST(BytesTest, RoundTripAllTypes) {
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFULL);
  w.I64(-42);
  const unsigned __int128 wide = (static_cast<unsigned __int128>(0x0123456789ABCDEFULL) << 64) | 7;
  w.U128(wide);
  w.I128(-static_cast<__int128>(wide >> 8));
  w.F64(-0.0);  // Signed zero must survive.
  w.Str("hello");
  w.F64Vec({1.5, -2.25});
  w.U64Vec({7, 8, 9});

  ByteReader r(w.bytes().data(), w.size());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_TRUE(r.U128() == wide);
  EXPECT_TRUE(r.I128() == -static_cast<__int128>(wide >> 8));
  const double z = r.F64();
  EXPECT_EQ(z, 0.0);
  EXPECT_TRUE(std::signbit(z));
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.F64Vec(), (std::vector<double>{1.5, -2.25}));
  EXPECT_EQ(r.U64Vec(), (std::vector<uint64_t>{7, 8, 9}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, TruncatedReadFailsSticky) {
  ByteWriter w;
  w.U32(7);
  ByteReader r(w.bytes().data(), w.size());
  (void)r.U64();  // 8 bytes wanted, 4 present.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // Sticky: nothing reads after a failure.
}

TEST(BytesTest, CorruptVectorLengthClampedBeforeAllocation) {
  // A declared element count far beyond the remaining bytes must fail
  // cleanly instead of sizing an allocation.
  ByteWriter w;
  w.U64(UINT64_C(1) << 60);
  w.F64(1.0);
  ByteReader r(w.bytes().data(), w.size());
  EXPECT_TRUE(r.F64Vec().empty());
  EXPECT_FALSE(r.ok());
}

// --- RNG state -------------------------------------------------------------

TEST(RngSnapshotTest, SaveRestoreContinuesSequenceExactly) {
  RandomStream stream = RandomStream(987654321).Derive(17);
  for (int i = 0; i < 100; ++i) {
    (void)stream.NextDouble();
  }
  const RandomStream::State state = stream.SaveState();
  std::vector<double> expected;
  for (int i = 0; i < 50; ++i) {
    expected.push_back(stream.NextDouble());
  }

  RandomStream resumed = RandomStream::FromState(state);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(resumed.NextDouble(), expected[i]) << "draw " << i;
  }
}

TEST(RngSnapshotTest, CodecRoundTripPreservesDerivation) {
  RandomStream stream = RandomStream(11).Derive(3);
  (void)stream.NextUint64();
  ByteWriter w;
  EncodeRngState(stream.SaveState(), w);
  ByteReader r(w.bytes().data(), w.size());
  RandomStream decoded = RandomStream::FromState(DecodeRngState(r));
  ASSERT_TRUE(r.ok());
  // Same future draws AND same derived child streams.
  EXPECT_EQ(decoded.NextUint64(), stream.NextUint64());
  RandomStream a = stream.Derive(99);
  RandomStream b = decoded.Derive(99);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

// --- Stats / metrics codecs -------------------------------------------------

TEST(StatsCodecTest, SummaryStatsRoundTripBitExact) {
  SummaryStats stats;
  for (double v : {3.0, -7.5, 0.25, 1e-9, 4e12}) {
    stats.Add(v);
  }
  ByteWriter w;
  EncodeSummaryStats(stats, w);
  ByteReader r(w.bytes().data(), w.size());
  const SummaryStats back = DecodeSummaryStats(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(back.count(), stats.count());
  EXPECT_EQ(back.mean(), stats.mean());
  EXPECT_EQ(back.m2(), stats.m2());
  EXPECT_EQ(back.raw_min(), stats.raw_min());
  EXPECT_EQ(back.raw_max(), stats.raw_max());
  // Welford must CONTINUE identically: add the same value to both.
  SummaryStats expect_cont = stats;
  expect_cont.Add(2.5);
  SummaryStats back_cont = back;
  back_cont.Add(2.5);
  EXPECT_EQ(back_cont.m2(), expect_cont.m2());
}

TEST(StatsCodecTest, EmptySummaryStatsSentinelsSurvive) {
  SummaryStats empty;
  ByteWriter w;
  EncodeSummaryStats(empty, w);
  ByteReader r(w.bytes().data(), w.size());
  SummaryStats back = DecodeSummaryStats(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(back.count(), 0u);
  // The +/-inf min/max sentinels round-tripped: the first Add behaves as
  // on a genuinely fresh accumulator.
  back.Add(5.0);
  EXPECT_EQ(back.min(), 5.0);
  EXPECT_EQ(back.max(), 5.0);
}

TEST(MetricsCodecTest, OverlayRestoresEveryInstrumentExactly) {
  MetricsRegistry saved;
  saved.GetCounter("events", {{"kind", "failure"}})->Increment(12345.5);
  saved.GetGauge("alive")->Set(-3.25);
  HistogramMetric* h = saved.GetHistogram("latency", {}, 0.0, 10.0, 20);
  for (double v : {0.5, 2.5, 9.99, 3.14}) {
    h->Observe(v);
  }
  ByteWriter w;
  EncodeMetrics(saved, w);

  // The restoring driver re-creates instruments (with their bin shapes)
  // before overlaying, as the district driver does via its constructor.
  MetricsRegistry restored;
  restored.GetCounter("events", {{"kind", "failure"}});
  restored.GetGauge("alive");
  restored.GetHistogram("latency", {}, 0.0, 10.0, 20);
  ByteReader r(w.bytes().data(), w.size());
  EXPECT_EQ(DecodeMetricsOverlay(r, restored), 0u);

  // Byte-level equality of re-encoded contents == exact restore.
  ByteWriter w2;
  EncodeMetrics(restored, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(MetricsCodecTest, BinShapeMismatchCountedNotFatal) {
  MetricsRegistry saved;
  HistogramMetric* h = saved.GetHistogram("latency", {}, 0.0, 10.0, 20);
  h->Observe(1.0);
  ByteWriter w;
  EncodeMetrics(saved, w);

  MetricsRegistry restored;
  restored.GetHistogram("latency", {}, 0.0, 10.0, 5);  // Different bin count.
  ByteReader r(w.bytes().data(), w.size());
  EXPECT_EQ(DecodeMetricsOverlay(r, restored), 1u);  // Mismatch counted.
  // Summary stats still restored.
  EXPECT_EQ(restored.FindHistogram("latency")->count(), 1u);
}

TEST(MetricsCodecTest, MalformedStreamYieldsSizeMax) {
  ByteWriter w;
  w.U64(1u << 20);  // Claims 2^20 counters in a few bytes.
  ByteReader r(w.bytes().data(), w.size());
  MetricsRegistry registry;
  EXPECT_EQ(DecodeMetricsOverlay(r, registry), SIZE_MAX);
}

// --- Atomic file writes -----------------------------------------------------

TEST(AtomicWriteBytesTest, WritesAndAtomicallyReplaces) {
  ScratchDir dir("snapshot_atomic_test");
  const std::string path = dir.path() + "/blob.bin";
  const std::vector<uint8_t> first = {1, 2, 3};
  const std::vector<uint8_t> second = {9, 8, 7, 6};
  ASSERT_TRUE(AtomicWriteFileBytes(first.data(), first.size(), path, /*durable=*/true));
  ASSERT_TRUE(AtomicWriteFileBytes(second.data(), second.size(), path, /*durable=*/true));
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> got((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(got, second);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicWriteBytesTest, FailurePathLeavesTargetUntouched) {
  ScratchDir dir("snapshot_atomic_fail_test");
  const std::string path = dir.path() + "/keep.bin";
  const std::vector<uint8_t> original = {42};
  ASSERT_TRUE(AtomicWriteFileBytes(original.data(), original.size(), path, true));

  // Writing into a nonexistent directory fails with a diagnostic...
  std::string error;
  const std::vector<uint8_t> next = {1, 2};
  EXPECT_FALSE(AtomicWriteFileBytes(next.data(), next.size(),
                                    dir.path() + "/no_such_dir/x.bin", true, &error));
  EXPECT_FALSE(error.empty());

  // ...and the existing target of a successful earlier write is untouched.
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> got((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(got, original);
}

// --- Snapshot container -----------------------------------------------------

SnapshotMeta TestMeta() {
  SnapshotMeta meta;
  meta.experiment = "unit";
  meta.library_version = kCentsimVersion;
  meta.structural_digest = "0123456789abcdef";
  meta.barrier_us = 123456789;
  meta.seed = 42;
  return meta;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

TEST(SnapshotContainerTest, WriteReadRoundTrip) {
  ScratchDir dir("snapshot_container_test");
  const std::string path = dir.path() + "/a.snap";
  SnapshotWriter writer(TestMeta());
  ByteWriter payload;
  payload.U64(777);
  payload.Str("chunky");
  writer.Add(SnapshotTag('t', 'e', 's', 't'), payload);
  std::string error;
  ASSERT_GT(writer.Write(path, &error), 0u) << error;

  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  EXPECT_EQ(reader.meta().experiment, "unit");
  EXPECT_EQ(reader.meta().structural_digest, "0123456789abcdef");
  EXPECT_EQ(reader.meta().barrier_us, 123456789);
  EXPECT_EQ(reader.meta().seed, 42u);
  ASSERT_TRUE(reader.HasChunk(SnapshotTag('t', 'e', 's', 't')));
  ByteReader chunk = reader.Chunk(SnapshotTag('t', 'e', 's', 't'));
  EXPECT_EQ(chunk.U64(), 777u);
  EXPECT_EQ(chunk.Str(), "chunky");
  EXPECT_TRUE(chunk.ok());
  EXPECT_FALSE(reader.HasChunk(SnapshotTag('n', 'o', 'p', 'e')));
  ByteReader missing = reader.Chunk(SnapshotTag('n', 'o', 'p', 'e'));
  (void)missing.U8();
  EXPECT_FALSE(missing.ok());  // Missing chunk reads fail, never crash.
}

TEST(SnapshotContainerTest, RejectsEveryPossibleTruncation) {
  ScratchDir dir("snapshot_trunc_test");
  const std::string path = dir.path() + "/t.snap";
  SnapshotWriter writer(TestMeta());
  ByteWriter payload;
  payload.U64(1);
  writer.Add(SnapshotTag('d', 'a', 't', 'a'), payload);
  ASSERT_GT(writer.Write(path), 0u);
  const std::vector<uint8_t> image = FileBytes(path);
  ASSERT_GT(image.size(), 0u);

  for (size_t len = 0; len < image.size(); ++len) {
    SnapshotReader reader;
    std::string error;
    EXPECT_FALSE(reader.OpenBytes(
        std::vector<uint8_t>(image.begin(), image.begin() + len), &error))
        << "truncation to " << len << " bytes accepted";
    EXPECT_FALSE(error.empty());
  }
}

TEST(SnapshotContainerTest, RejectsEverySingleBitFlip) {
  // A meta-only snapshot makes every byte load-bearing (magic, version,
  // count, the meta chunk's tag/reserved/len/checksum, payload), so any
  // single-bit corruption anywhere in the file must be rejected.
  ScratchDir dir("snapshot_bitflip_test");
  const std::string path = dir.path() + "/b.snap";
  SnapshotWriter writer(TestMeta());
  ASSERT_GT(writer.Write(path), 0u);
  const std::vector<uint8_t> image = FileBytes(path);

  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = image;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      SnapshotReader reader;
      EXPECT_FALSE(reader.OpenBytes(std::move(flipped)))
          << "bit " << bit << " of byte " << byte << " flipped and accepted";
    }
  }
}

TEST(SnapshotContainerTest, RejectsOversizedDeclaredLength) {
  ScratchDir dir("snapshot_len_test");
  const std::string path = dir.path() + "/l.snap";
  SnapshotWriter writer(TestMeta());
  ASSERT_GT(writer.Write(path), 0u);
  std::vector<uint8_t> image = FileBytes(path);
  // First chunk header starts at byte 16; its length field is at +8 and the
  // reader must bounds-check it before any allocation or payload access.
  image[16 + 8 + 7] = 0x7F;  // Declared length now ~2^63.
  SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(reader.OpenBytes(std::move(image), &error));
  EXPECT_NE(error.find("declares"), std::string::npos) << error;
}

TEST(SnapshotContainerTest, RejectsVersionMismatch) {
  ScratchDir dir("snapshot_ver_test");
  const std::string path = dir.path() + "/v.snap";
  SnapshotWriter writer(TestMeta());
  ASSERT_GT(writer.Write(path), 0u);
  std::vector<uint8_t> image = FileBytes(path);
  image[8] = 0xEE;  // Version field (bytes 8..11).
  SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(reader.OpenBytes(std::move(image), &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SnapshotContainerTest, RejectsDuplicateTagsAndTrailingBytes) {
  ScratchDir dir("snapshot_dup_test");
  const std::string path = dir.path() + "/d.snap";
  SnapshotWriter writer(TestMeta());
  ByteWriter payload;
  payload.U8(1);
  writer.Add(SnapshotTag('d', 'u', 'p', 'e'), payload);
  writer.Add(SnapshotTag('d', 'u', 'p', 'e'), payload);  // Writer doesn't police.
  ASSERT_GT(writer.Write(path), 0u);
  SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;

  // Trailing garbage after the last declared chunk is corruption too.
  SnapshotWriter clean(TestMeta());
  ASSERT_GT(clean.Write(path), 0u);
  std::vector<uint8_t> image = FileBytes(path);
  image.push_back(0x00);
  EXPECT_FALSE(reader.OpenBytes(std::move(image), &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(SnapshotContainerTest, GarbageAndEmptyFilesRejected) {
  SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(reader.OpenBytes({}, &error));
  EXPECT_FALSE(reader.Open("/no/such/file.snap", &error));
  std::vector<uint8_t> garbage(300, 0x5A);
  EXPECT_FALSE(reader.OpenBytes(std::move(garbage), &error));
}

TEST(LatestMarkerTest, FindsMarkerThenFallsBackToScan) {
  ScratchDir dir("snapshot_latest_test");
  EXPECT_EQ(FindLatestValidSnapshot(dir.path()), "");  // Empty dir: nothing.

  // Two checkpoints; the marker names the newer one.
  SnapshotMeta meta1 = TestMeta();
  meta1.barrier_us = 1000;
  const std::string p1 = dir.path() + "/" + CheckpointFileName(1000);
  ASSERT_GT(SnapshotWriter(meta1).Write(p1), 0u);
  SnapshotMeta meta2 = TestMeta();
  meta2.barrier_us = 2000;
  const std::string p2 = dir.path() + "/" + CheckpointFileName(2000);
  ASSERT_GT(SnapshotWriter(meta2).Write(p2), 0u);
  ASSERT_TRUE(WriteLatestMarker(dir.path(), p2, 2000));

  SnapshotMeta found;
  EXPECT_EQ(FindLatestValidSnapshot(dir.path(), &found), p2);
  EXPECT_EQ(found.barrier_us, 2000);

  // Corrupt the marker's target: the scan must recover the older valid one.
  std::ofstream(p2, std::ios::binary | std::ios::trunc) << "junk";
  EXPECT_EQ(FindLatestValidSnapshot(dir.path(), &found), p1);
  EXPECT_EQ(found.barrier_us, 1000);
}

// --- Timer table ------------------------------------------------------------

TEST(TimerTableTest, SaveSeesOnlyPendingSortedByAtSeq) {
  Simulation sim(1);
  TimerTable timers(sim.scheduler());
  int fired = 0;
  timers.Schedule(SimTime::Hours(3), /*tag=*/7, 30, 0, 0.5, [&] { ++fired; });
  timers.Schedule(SimTime::Hours(1), /*tag=*/7, 10, 0, 0.0, [&] { ++fired; });
  timers.Schedule(SimTime::Hours(2), /*tag=*/8, 20, 0, 0.0, [&] { ++fired; });
  EXPECT_EQ(timers.live_count(), 3u);

  sim.RunUntil(SimTime::Hours(1));  // First timer fires and releases itself.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(timers.live_count(), 2u);

  const std::vector<TimerRecord> saved = timers.Save();
  ASSERT_EQ(saved.size(), 2u);
  EXPECT_EQ(saved[0].a, 20u);  // Sorted by fire time.
  EXPECT_EQ(saved[1].a, 30u);
  EXPECT_EQ(saved[1].x, 0.5);
}

TEST(TimerTableTest, CancelReleasesRecord) {
  Simulation sim(1);
  TimerTable timers(sim.scheduler());
  bool fired = false;
  const EventId id = timers.Schedule(SimTime::Hours(1), 1, 0, 0, 0.0, [&] { fired = true; });
  EXPECT_TRUE(timers.Cancel(id));
  EXPECT_EQ(timers.live_count(), 0u);
  EXPECT_FALSE(timers.Cancel(id));  // Already gone.
  sim.RunUntil(SimTime::Hours(2));
  EXPECT_FALSE(fired);
  EXPECT_TRUE(timers.Save().empty());
}

// Untracked tables (runs that will never save a checkpoint) pass closures
// straight through: timers fire and cancel identically, but no records are
// kept — the zero-overhead mode the district/century drivers use when
// checkpoint_every is 0.
TEST(TimerTableTest, UntrackedTableFiresAndCancelsWithoutRecords) {
  Simulation sim(1);
  TimerTable timers(sim.scheduler(), /*track=*/false);
  EXPECT_FALSE(timers.tracking());
  int fired = 0;
  timers.Schedule(SimTime::Hours(1), 7, 1, 0, 0.0, [&] { ++fired; });
  const EventId id = timers.Schedule(SimTime::Hours(2), 7, 2, 0, 0.0, [&] { ++fired; });
  EXPECT_EQ(timers.live_count(), 0u);  // No bookkeeping.
  EXPECT_TRUE(timers.Save().empty());

  EXPECT_TRUE(timers.Cancel(id));
  EXPECT_FALSE(timers.Cancel(id));  // Already cancelled at the scheduler.
  sim.RunUntil(SimTime::Hours(3));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(timers.Save().empty());
}

TEST(TimerTableTest, RestoreReArmsThroughRegisteredTags) {
  Simulation sim(1);
  TimerTable timers(sim.scheduler());
  std::vector<uint64_t> fired_operands;
  timers.Register(5, [&](const TimerRecord& r) {
    timers.Schedule(SimTime::Micros(r.at_us), r.tag, r.a, r.b, r.x,
                    [&fired_operands, a = r.a] { fired_operands.push_back(a); });
  });

  std::vector<TimerRecord> records;
  TimerRecord rec;
  rec.tag = 5;
  rec.at_us = SimTime::Hours(2).micros();
  rec.seq = 11;
  rec.a = 2;
  records.push_back(rec);
  rec.at_us = SimTime::Hours(1).micros();
  rec.seq = 4;
  rec.a = 1;
  records.push_back(rec);

  EXPECT_EQ(timers.Restore(records), 0u);
  EXPECT_EQ(timers.live_count(), 2u);
  sim.RunUntil(SimTime::Hours(3));
  EXPECT_EQ(fired_operands, (std::vector<uint64_t>{1, 2}));

  // Unregistered tags are counted, not silently dropped.
  rec.tag = 99;
  EXPECT_EQ(timers.Restore({rec}), 1u);
}

TEST(TimerTableTest, CodecRoundTripAndCorruptCountClamped) {
  std::vector<TimerRecord> records(3);
  records[0] = {1, 1000, 5, 10, 20, 0.5};
  records[1] = {2, 2000, 6, 11, 21, -1.5};
  records[2] = {3, 3000, 7, 12, 22, 0.0};
  ByteWriter w;
  TimerTable::Encode(records, w);
  ByteReader r(w.bytes().data(), w.size());
  const std::vector<TimerRecord> back = TimerTable::Decode(r);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[1].tag, 2u);
  EXPECT_EQ(back[1].at_us, 2000);
  EXPECT_EQ(back[1].x, -1.5);

  ByteWriter bad;
  bad.U64(UINT64_C(1) << 50);  // Claims 2^50 records.
  ByteReader br(bad.bytes().data(), bad.size());
  EXPECT_TRUE(TimerTable::Decode(br).empty());
  EXPECT_FALSE(br.ok());
}

// --- Snapshot plan validation ------------------------------------------------

TEST(SnapshotPlanTest, ValidationCatchesInconsistentPlans) {
  DistrictConfig cfg;
  cfg.snapshot.checkpoint_every = SimTime::Years(1);  // No directory.
  EXPECT_FALSE(cfg.Validate().empty());

  CenturyConfig century;
  century.snapshot.resume_latest = true;  // No directory to scan.
  EXPECT_FALSE(century.Validate().empty());

  century.snapshot.checkpoint_dir = "/tmp/x";
  century.snapshot.resume_from = "/tmp/x/a.snap";  // Both resume sources.
  EXPECT_FALSE(century.Validate().empty());
}

// --- Restore parity: district ------------------------------------------------

// The same report digests the fleet golden pins use (tests/core_fleet_test.cc);
// checkpoint accounting fields are deliberately excluded.
std::string DistrictDigest(const DistrictReport& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << r.gateway_count << '|' << r.initial_coverage << '|' << r.mean_device_availability
      << '|' << r.mean_service_availability << '|' << r.min_yearly_service << '|'
      << r.device_failures << '|' << r.device_replacements << '|' << r.gateway_failures
      << '|' << r.gateway_repairs;
  for (double v : r.yearly_service) {
    out << '|' << v;
  }
  return ConfigDigest(out.str());
}

std::string CenturyDigest(const CenturyReport& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << r.mean_availability << '|' << r.min_yearly_availability << '|' << r.total_failures
      << '|' << r.total_replacements << '|' << r.proactive_replacements << '|'
      << r.units_deployed << '|' << r.max_unit_generations;
  for (double v : r.yearly_availability) {
    out << '|' << v;
  }
  return ConfigDigest(out.str());
}

// Golden pins from tests/core_fleet_test.cc (seed-scheduler parity digests).
constexpr const char* kGoldenDistrictDigest = "4e1001a7cba2ca13";
constexpr const char* kGoldenCenturyDigest = "01f81cad8cd9b9ed";

DistrictConfig GoldenDistrictConfig() {
  DistrictConfig cfg;
  cfg.seed = 20260806;
  cfg.device_count = 1500;
  cfg.area_km2 = 9.0;
  cfg.zone_grid = 3;
  cfg.horizon = SimTime::Years(50);
  return cfg;
}

TEST(DistrictSnapshotTest, SaveAtYear25RestoreInFreshProcessMatchesGolden) {
  ScratchDir dir("district_snapshot_parity");

  // Leg 1: the golden run WITH checkpointing enabled. The barrier drains
  // must not perturb the simulation: same digest as the straight run.
  DistrictConfig save_cfg = GoldenDistrictConfig();
  save_cfg.snapshot.checkpoint_every = SimTime::Years(25);
  save_cfg.snapshot.checkpoint_dir = dir.path();
  const DistrictReport saved_run = RunDistrictScenario(save_cfg);
  EXPECT_EQ(DistrictDigest(saved_run), kGoldenDistrictDigest);
  EXPECT_EQ(saved_run.checkpoints_written, 1u);  // Year 25 only (50 is the horizon).
  EXPECT_GT(saved_run.last_checkpoint_bytes, 0u);
  ASSERT_FALSE(saved_run.last_checkpoint_path.empty());
  SnapshotMeta meta;
  ASSERT_TRUE(ProbeSnapshot(saved_run.last_checkpoint_path, &meta));
  EXPECT_EQ(meta.experiment, "district");
  EXPECT_EQ(meta.barrier_us, SimTime::Years(25).micros());

  // Leg 2: restore in a FRESH PROCESS (fork) — nothing incidental from the
  // saving process (allocator layout, static state) can leak into parity.
  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(pipe_fds[0]);
    DistrictConfig resume_cfg = GoldenDistrictConfig();
    resume_cfg.snapshot.resume_from = saved_run.last_checkpoint_path;
    const DistrictReport restored = RunDistrictScenario(resume_cfg);
    const std::string digest = DistrictDigest(restored);
    const char ok = restored.restore_seconds > 0.0 ? '1' : '0';
    (void)!write(pipe_fds[1], digest.data(), digest.size());
    (void)!write(pipe_fds[1], &ok, 1);
    close(pipe_fds[1]);
    _exit(0);
  }
  close(pipe_fds[1]);
  char buf[64] = {0};
  size_t got = 0;
  ssize_t n;
  while ((n = read(pipe_fds[0], buf + got, sizeof(buf) - 1 - got)) > 0) {
    got += static_cast<size_t>(n);
  }
  close(pipe_fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "restore child died";
  ASSERT_EQ(WEXITSTATUS(status), 0);
  ASSERT_EQ(got, 17u) << "child wrote: " << std::string(buf, got);
  EXPECT_EQ(std::string(buf, 16), kGoldenDistrictDigest);
  EXPECT_EQ(buf[16], '1');  // restore_seconds was populated.
}

TEST(DistrictSnapshotTest, ResumeLatestRecoversAndStructuralMismatchRefused) {
  ScratchDir dir("district_resume_latest");
  DistrictConfig cfg;
  cfg.seed = 4;
  cfg.device_count = 400;
  cfg.area_km2 = 4.0;
  cfg.zone_grid = 2;
  cfg.horizon = SimTime::Years(20);
  cfg.batch_cycle = SimTime::Years(6);

  // Straight run for the expected digest.
  const std::string straight = DistrictDigest(RunDistrictScenario(cfg));

  // Crash-recovery semantics: with resume_latest set and no checkpoint on
  // disk, the run starts fresh (and writes checkpoints); re-running the
  // identical command then resumes from the last checkpoint. Both attempts
  // produce the straight-run digest.
  DistrictConfig recover = cfg;
  recover.snapshot.checkpoint_every = SimTime::Years(8);
  recover.snapshot.checkpoint_dir = dir.path();
  recover.snapshot.resume_latest = true;
  const DistrictReport first = RunDistrictScenario(recover);
  EXPECT_EQ(DistrictDigest(first), straight);
  EXPECT_EQ(first.restore_seconds, 0.0);  // Nothing to resume from yet.
  EXPECT_EQ(first.checkpoints_written, 2u);  // Years 8 and 16.

  const DistrictReport second = RunDistrictScenario(recover);
  EXPECT_EQ(DistrictDigest(second), straight);
  EXPECT_GT(second.restore_seconds, 0.0);  // Resumed from year 16.

  // A structurally different config must refuse the snapshot (fork: the
  // refusal is CheckConfigOrDie, which aborts).
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    DistrictConfig wrong = recover;
    wrong.device_count = 401;
    // Aborts with a structural-digest diagnostic; reaching _exit(7) means
    // the mismatched snapshot was wrongly accepted.
    (void)RunDistrictScenario(wrong);
    _exit(7);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status) || (WIFEXITED(status) && WEXITSTATUS(status) != 0))
      << "structurally mismatched snapshot was accepted";
}

// A snapshot whose content is wrong but whose checksums are right: the
// chunks `tags` of `path` copied into a fresh SnapshotWriter, each passed
// through the edits below that apply to it.
struct Edits {
  // Each slot of a fleet chunk, by site.
  std::function<void(uint64_t site, DeviceFleet::SlotState&)> slot = nullptr;
  // A `district` integral chunk's leading in-service count, one too high.
  bool bump_in_service = false;
  // A timer chunk's records.
  std::function<void(std::vector<TimerRecord>&)> timers = nullptr;
  // Each gateway of a `district-shard` gateway chunk: its saved up flag and
  // its cursor's next transition.
  std::function<void(uint32_t g, uint8_t up, uint8_t& next_is_down, int64_t& next_at_us)> cursor =
      nullptr;
  // The barrier a scheduler chunk, or a `district-shard` accumulator
  // chunk, leads with.
  std::function<void(int64_t& barrier_us)> barrier = nullptr;
};

std::string ResealEdited(const std::string& path, const std::string& out_path,
                         const std::vector<uint32_t>& tags, const Edits& edits = {}) {
  SnapshotReader reader;
  std::string error;
  EXPECT_TRUE(reader.Open(path, &error)) << error;
  SnapshotWriter writer(reader.meta());
  for (uint32_t tag : tags) {
    ByteReader in = reader.Chunk(tag);
    ByteWriter out;
    if (tag == SnapshotTag('f', 'l', 'e', 't') && edits.slot) {
      const uint64_t slots = in.U64();
      out.U64(slots);
      for (uint64_t d = 0; d < slots; ++d) {
        DeviceFleet::SlotState slot = DecodeFleetSlot(in);
        edits.slot(d, slot);
        EncodeFleetSlot(slot, out);
      }
    }
    if (tag == SnapshotTag('i', 'n', 't', 'g') && edits.bump_in_service) {
      out.U64(in.U64() + 1);
    }
    if (tag == SnapshotTag('t', 'i', 'm', 'r') && edits.timers) {
      std::vector<TimerRecord> records = TimerTable::Decode(in);
      EXPECT_TRUE(in.ok());
      edits.timers(records);
      TimerTable::Encode(records, out);
    }
    if ((tag == SnapshotTag('s', 'c', 'h', 'd') || tag == SnapshotTag('a', 'c', 'c', 'u')) &&
        edits.barrier) {
      int64_t barrier_us = in.I64();
      edits.barrier(barrier_us);
      out.I64(barrier_us);
    }
    if (tag == SnapshotTag('g', 'w', 'r', 'c') && edits.cursor) {
      const uint64_t gateways = in.U64();
      out.U64(gateways);
      for (uint32_t g = 0; g < gateways; ++g) {
        const uint8_t up = in.U8();
        uint8_t next_is_down = in.U8();
        const uint32_t ordinal = in.U32();
        int64_t next_at_us = in.I64();
        edits.cursor(g, up, next_is_down, next_at_us);
        out.U8(up);
        out.U8(next_is_down);
        out.U32(ordinal);
        out.I64(next_at_us);
      }
    }
    if (in.remaining() > 0) {
      std::vector<uint8_t> rest(in.remaining());
      EXPECT_TRUE(in.ReadBytes(rest.data(), rest.size()));
      out.Bytes(rest.data(), rest.size());
    }
    writer.Add(tag, out);
  }
  EXPECT_GT(writer.Write(out_path, &error), 0u) << error;
  EXPECT_TRUE(ProbeSnapshot(out_path)) << "re-sealed snapshot must pass its checksums";
  return out_path;
}

// Every chunk of each format (a `district` file of a run without metrics).
const std::vector<uint32_t> kDistrictChunks = {
    SnapshotTag('f', 'l', 'e', 't'), SnapshotTag('g', 'w', 's', 't'),
    SnapshotTag('i', 'n', 't', 'g'), SnapshotTag('t', 'i', 'm', 'r'),
    SnapshotTag('s', 'c', 'h', 'd')};
const std::vector<uint32_t> kShardChunks = {SnapshotTag('f', 'l', 'e', 't'),
                                            SnapshotTag('g', 'w', 'r', 'c'),
                                            SnapshotTag('a', 'c', 'c', 'u')};
const std::vector<uint32_t> kCenturyChunks = {
    SnapshotTag('f', 'l', 'e', 't'), SnapshotTag('a', 'l', 'i', 'v'),
    SnapshotTag('s', 'u', 'r', 'v'), SnapshotTag('s', 'c', 'h', 'd')};

SimTime BarrierOf(const std::string& path) {
  SnapshotMeta meta;
  EXPECT_TRUE(ProbeSnapshot(path, &meta));
  return SimTime::Micros(meta.barrier_us);
}

// Saves site 137 one operational gateway more covered than it was.
Edits BumpCovering() {
  return {.slot = [](uint64_t site, DeviceFleet::SlotState& s) {
    if (site == 137) {
      ++s.covering;
    }
  }};
}

// Moves the pending failure of the first alive site at or after 137 to
// 1 us before `barrier`, and names that site in `*site`.
Edits ExpireDeadline(SimTime barrier, uint64_t* site) {
  *site = UINT64_MAX;
  return {.slot = [barrier, site](uint64_t d, DeviceFleet::SlotState& s) {
    if (*site == UINT64_MAX && d >= 137 && s.alive != 0) {
      s.deadline_us = barrier.micros() - 1;
      *site = d;
    }
  }};
}

// A checkpoint's per-slot `covering` must agree with its own gateway
// states: the serial and the sharded engines both refuse a snapshot where
// it does not, and name the site.
TEST(DistrictSnapshotTest, CoveringMismatchRefusedNamingTheSite) {
  ScratchDir dir("district_covering_mismatch");
  DistrictConfig cfg;
  cfg.seed = 9;
  cfg.device_count = 500;
  cfg.area_km2 = 4.0;
  cfg.zone_grid = 2;
  cfg.horizon = SimTime::Years(12);
  cfg.batch_cycle = SimTime::Years(4);
  cfg.snapshot.checkpoint_every = SimTime::Years(6);

  DistrictConfig serial = cfg;
  serial.snapshot.checkpoint_dir = dir.path() + "/serial";
  const DistrictReport serial_run = RunDistrictScenario(serial);
  ASSERT_EQ(serial_run.checkpoints_written, 1u);
  DistrictConfig sharded = cfg;
  sharded.shard.shards = 2;
  sharded.snapshot.checkpoint_dir = dir.path() + "/sharded";
  const DistrictReport sharded_run = RunDistrictScenario(sharded);
  ASSERT_EQ(sharded_run.checkpoints_written, 1u);

  const std::string serial_bad = ResealEdited(serial_run.last_checkpoint_path,
                                              dir.path() + "/serial_bad.snap", kDistrictChunks,
                                              BumpCovering());
  const std::string sharded_bad = ResealEdited(sharded_run.last_checkpoint_path,
                                               dir.path() + "/sharded_bad.snap", kShardChunks,
                                               BumpCovering());

  DistrictConfig resume_serial = cfg;
  resume_serial.snapshot = SnapshotPlan{};
  resume_serial.snapshot.resume_from = serial_bad;
  EXPECT_DEATH(RunDistrictScenario(resume_serial), "site 137 was saved covered by");
  DistrictConfig resume_sharded = resume_serial;
  resume_sharded.shard.shards = 3;
  resume_sharded.snapshot.resume_from = sharded_bad;
  EXPECT_DEATH(RunDistrictScenario(resume_sharded), "site 137 was saved covered by");

  // The serial format also stores the in-service count the fleet and
  // gateway states imply; a disagreeing one is refused too.
  resume_serial.snapshot.resume_from =
      ResealEdited(serial_run.last_checkpoint_path, dir.path() + "/serial_bad_service.snap",
                   kDistrictChunks, {.bump_in_service = true});
  EXPECT_DEATH(RunDistrictScenario(resume_serial), "in-service count");

  // The untouched checkpoints still resume.
  resume_serial.snapshot.resume_from = serial_run.last_checkpoint_path;
  EXPECT_GT(RunDistrictScenario(resume_serial).restore_seconds, 0.0);
  resume_sharded.snapshot.resume_from = sharded_run.last_checkpoint_path;
  EXPECT_GT(RunDistrictScenario(resume_sharded).restore_seconds, 0.0);
}

// A serial `district` checkpoint keeps its availability integrals as exact
// integer site-microseconds in the 'intg' chunk. A file without it, such as
// one whose integrals are the earlier format's doubles in an 'accu' chunk,
// is refused by the serial and the sampled reader with an error that names
// the chunk, not misread.
TEST(DistrictSnapshotTest, CheckpointWithoutIntegerChunkRefused) {
  ScratchDir dir("district_no_integer_chunk");
  DistrictConfig cfg;
  cfg.seed = 9;
  cfg.device_count = 300;
  cfg.area_km2 = 4.0;
  cfg.zone_grid = 2;
  cfg.horizon = SimTime::Years(12);
  cfg.batch_cycle = SimTime::Years(4);
  cfg.snapshot.checkpoint_every = SimTime::Years(6);
  cfg.snapshot.checkpoint_dir = dir.path();
  const DistrictReport saved = RunDistrictScenario(cfg);
  ASSERT_EQ(saved.checkpoints_written, 1u);
  const std::string no_integral = ResealEdited(
      saved.last_checkpoint_path, dir.path() + "/no_integral.snap",
      {SnapshotTag('f', 'l', 'e', 't'), SnapshotTag('g', 'w', 's', 't'),
       SnapshotTag('t', 'i', 'm', 'r'), SnapshotTag('s', 'c', 'h', 'd')});

  DistrictConfig serial = cfg;
  serial.snapshot = SnapshotPlan{};
  DistrictConfig sampled = serial;
  sampled.sampling.mode = SimMode::kSampled;
  for (DistrictConfig* resume : {&serial, &sampled}) {
    resume->snapshot.resume_from = no_integral;
    EXPECT_DEATH(RunDistrictScenario(*resume), "no 'intg' chunk");
    // The untouched checkpoint still resumes.
    resume->snapshot.resume_from = saved.last_checkpoint_path;
    EXPECT_GT(RunDistrictScenario(*resume).restore_seconds, 0.0);
  }
}

// An alive slot's deadline is its unit's pending failure, and a run drained
// to the barrier has none before it. The serial, the sampled and the
// sharded district readers refuse a file whose alive slot fails 1 us
// before its barrier, naming the site, and resume the untouched files.
TEST(DistrictSnapshotTest, DeadlineBeforeTheBarrierRefusedNamingTheSite) {
  ScratchDir dir("district_deadline_before_barrier");
  DistrictConfig cfg;
  cfg.seed = 9;
  cfg.device_count = 500;
  cfg.area_km2 = 4.0;
  cfg.zone_grid = 2;
  cfg.horizon = SimTime::Years(12);
  cfg.batch_cycle = SimTime::Years(4);
  cfg.snapshot.checkpoint_every = SimTime::Years(6);

  DistrictConfig serial_save = cfg;
  serial_save.snapshot.checkpoint_dir = dir.path() + "/serial";
  const std::string serial_file = RunDistrictScenario(serial_save).last_checkpoint_path;
  DistrictConfig sharded_save = serial_save;
  sharded_save.shard.shards = 2;
  sharded_save.snapshot.checkpoint_dir = dir.path() + "/sharded";
  const std::string sharded_file = RunDistrictScenario(sharded_save).last_checkpoint_path;
  ASSERT_FALSE(serial_file.empty());
  ASSERT_FALSE(sharded_file.empty());

  uint64_t serial_site = 0;
  const std::string serial_bad =
      ResealEdited(serial_file, dir.path() + "/serial_bad.snap", kDistrictChunks,
                   ExpireDeadline(BarrierOf(serial_file), &serial_site));
  uint64_t sharded_site = 0;
  const std::string sharded_bad =
      ResealEdited(sharded_file, dir.path() + "/sharded_bad.snap", kShardChunks,
                   ExpireDeadline(BarrierOf(sharded_file), &sharded_site));
  ASSERT_NE(serial_site, UINT64_MAX);
  ASSERT_NE(sharded_site, UINT64_MAX);

  DistrictConfig serial = cfg;
  serial.snapshot = SnapshotPlan{};
  DistrictConfig sampled = serial;
  sampled.sampling.mode = SimMode::kSampled;
  DistrictConfig sharded = serial;
  sharded.shard.shards = 3;
  const auto message = [](uint64_t site) {
    return "site " + std::to_string(site) + " is alive with its pending failure at";
  };
  for (DistrictConfig* resume : {&serial, &sampled}) {
    resume->snapshot.resume_from = serial_bad;
    EXPECT_DEATH(RunDistrictScenario(*resume), message(serial_site));
    resume->snapshot.resume_from = serial_file;
    EXPECT_GT(RunDistrictScenario(*resume).restore_seconds, 0.0);
  }
  sharded.snapshot.resume_from = sharded_bad;
  EXPECT_DEATH(RunDistrictScenario(sharded), message(sharded_site));
  sharded.snapshot.resume_from = sharded_file;
  EXPECT_GT(RunDistrictScenario(sharded).restore_seconds, 0.0);
}

// Every district reader refuses a file whose barrier lies outside the run
// it would resume, before it does arithmetic with it.
TEST(DistrictSnapshotTest, BarrierOutsideTheRunRefused) {
  ScratchDir dir("district_barrier_outside_run");
  DistrictConfig cfg;
  cfg.seed = 9;
  cfg.device_count = 300;
  cfg.area_km2 = 4.0;
  cfg.zone_grid = 2;
  cfg.horizon = SimTime::Years(12);
  cfg.batch_cycle = SimTime::Years(4);
  cfg.snapshot.checkpoint_every = SimTime::Years(6);
  DistrictConfig serial_save = cfg;
  serial_save.snapshot.checkpoint_dir = dir.path() + "/serial";
  const std::string serial_file = RunDistrictScenario(serial_save).last_checkpoint_path;
  DistrictConfig sharded_save = serial_save;
  sharded_save.shard.shards = 2;
  sharded_save.snapshot.checkpoint_dir = dir.path() + "/sharded";
  const std::string sharded_file = RunDistrictScenario(sharded_save).last_checkpoint_path;
  const Edits past_the_end = {.barrier = [](int64_t& barrier_us) { barrier_us = INT64_MAX; }};
  const std::string message = "barrier at " + std::to_string(INT64_MAX) + " us is outside the run";

  DistrictConfig serial = cfg;
  serial.snapshot = SnapshotPlan{};
  serial.snapshot.resume_from =
      ResealEdited(serial_file, dir.path() + "/serial_bad.snap", kDistrictChunks, past_the_end);
  EXPECT_DEATH(RunDistrictScenario(serial), message);
  DistrictConfig sampled = serial;
  sampled.sampling.mode = SimMode::kSampled;
  EXPECT_DEATH(RunDistrictScenario(sampled), message);
  DistrictConfig sharded = cfg;
  sharded.snapshot = SnapshotPlan{};
  sharded.shard.shards = 3;
  sharded.snapshot.resume_from =
      ResealEdited(sharded_file, dir.path() + "/sharded_bad.snap", kShardChunks, past_the_end);
  EXPECT_DEATH(RunDistrictScenario(sharded), message);
}

// A `district` checkpoint's timer records are its gateways' pending
// transitions, nothing else: the zone visits follow from the config and
// the unit failures are deadlines. A file carrying a visit or a device
// failure record under the tags earlier formats gave them (1 and 4) is
// refused by both readers.
TEST(DistrictSnapshotTest, VisitOrDeviceFailureRecordRefused) {
  ScratchDir dir("district_visit_or_device_record");
  DistrictConfig cfg;
  cfg.seed = 9;
  cfg.device_count = 300;
  cfg.area_km2 = 4.0;
  cfg.zone_grid = 2;
  cfg.horizon = SimTime::Years(12);
  cfg.batch_cycle = SimTime::Years(4);
  cfg.snapshot.checkpoint_every = SimTime::Years(6);
  cfg.snapshot.checkpoint_dir = dir.path();
  const std::string saved = RunDistrictScenario(cfg).last_checkpoint_path;
  ASSERT_FALSE(saved.empty());
  const int64_t after_barrier = BarrierOf(saved).micros() + 1;

  DistrictConfig serial = cfg;
  serial.snapshot = SnapshotPlan{};
  DistrictConfig sampled = serial;
  sampled.sampling.mode = SimMode::kSampled;
  for (const uint64_t tag : {uint64_t{1}, uint64_t{4}}) {
    const std::string bad = ResealEdited(
        saved, dir.path() + "/tag_" + std::to_string(tag) + ".snap", kDistrictChunks,
        {.timers = [tag, after_barrier](std::vector<TimerRecord>& records) {
          records.push_back({tag, after_barrier, 0, 0, 0, 0.0});
        }});
    for (DistrictConfig* resume : {&serial, &sampled}) {
      resume->snapshot.resume_from = bad;
      EXPECT_DEATH(RunDistrictScenario(*resume), "timer tags this driver does not register");
    }
  }
}

// The serial district's gateway records: every reader of the `district`
// format (serial and sampled, through DistrictModel's restore) refuses one
// for a gateway outside the plan, two for one gateway or none for another,
// one that disagrees with its gateway's saved state, and one timed before
// the barrier, naming the gateway; the sharded reader refuses the same
// faults in a `district-shard` gateway cursor.
class DistrictGatewayRecordTest : public ::testing::Test {
 protected:
  static DistrictConfig Config() {
    DistrictConfig cfg;
    cfg.seed = 9;
    cfg.device_count = 500;
    cfg.area_km2 = 4.0;
    cfg.zone_grid = 2;
    cfg.horizon = SimTime::Years(12);
    cfg.batch_cycle = SimTime::Years(4);
    // A policy field: a long repair leaves gateways down at the barrier.
    cfg.gateway_repair_delay = SimTime::Years(1);
    return cfg;
  }

  static void SetUpTestSuite() {
    // Per process: ctest runs each test of the suite in its own.
    dir_ = new ScratchDir("district_gateway_records_" + std::to_string(getpid()));
    DistrictConfig serial = Config();
    serial.snapshot.checkpoint_every = SimTime::Years(6);
    serial.snapshot.checkpoint_dir = dir_->path() + "/serial";
    serial_file_ = new std::string(RunDistrictScenario(serial).last_checkpoint_path);
    DistrictConfig sharded = serial;
    sharded.shard.shards = 2;
    sharded.snapshot.checkpoint_dir = dir_->path() + "/sharded";
    sharded_file_ = new std::string(RunDistrictScenario(sharded).last_checkpoint_path);
  }
  static void TearDownTestSuite() {
    delete serial_file_;
    delete sharded_file_;
    delete dir_;
  }

  // The serial file's gateway records, as saved.
  static std::vector<TimerRecord> Records() {
    SnapshotReader reader;
    std::string error;
    EXPECT_TRUE(reader.Open(*serial_file_, &error)) << error;
    ByteReader chunk = reader.Chunk(SnapshotTag('t', 'i', 'm', 'r'));
    return TimerTable::Decode(chunk);
  }
  // The first saved record with `tag`: a gateway saved up has its failure
  // pending, one saved down its repair.
  static TimerRecord First(uint64_t tag) {
    for (const TimerRecord& r : Records()) {
      if (r.tag == tag) {
        return r;
      }
    }
    ADD_FAILURE() << "no gateway has a pending record with tag " << tag;
    return {};
  }
  static int64_t barrier_us() { return BarrierOf(*serial_file_).micros(); }

  // The serial file with its records passed through `edit` dies in the
  // serial and the sampled reader with `message`.
  void ExpectRecordsRefused(const std::function<void(std::vector<TimerRecord>&)>& edit,
                            const std::string& message) {
    const std::string bad = ResealEdited(*serial_file_, dir_->path() + "/serial_bad.snap",
                                         kDistrictChunks, {.timers = edit});
    DistrictConfig serial = Config();
    serial.snapshot.resume_from = bad;
    EXPECT_DEATH(RunDistrictScenario(serial), message);
    DistrictConfig sampled = serial;
    sampled.sampling.mode = SimMode::kSampled;
    EXPECT_DEATH(RunDistrictScenario(sampled), message);
  }

  // The sharded file with its cursors passed through `edit` dies in the
  // sharded reader with `message`.
  void ExpectCursorsRefused(
      const std::function<void(uint32_t, uint8_t, uint8_t&, int64_t&)>& edit,
      const std::string& message) {
    const std::string bad = ResealEdited(*sharded_file_, dir_->path() + "/sharded_bad.snap",
                                         kShardChunks, {.cursor = edit});
    DistrictConfig sharded = Config();
    sharded.shard.shards = 3;
    sharded.snapshot.resume_from = bad;
    EXPECT_DEATH(RunDistrictScenario(sharded), message);
  }

  static ScratchDir* dir_;
  static std::string* serial_file_;
  static std::string* sharded_file_;
};

ScratchDir* DistrictGatewayRecordTest::dir_ = nullptr;
std::string* DistrictGatewayRecordTest::serial_file_ = nullptr;
std::string* DistrictGatewayRecordTest::sharded_file_ = nullptr;

TEST_F(DistrictGatewayRecordTest, UntouchedFilesResume) {
  DistrictConfig serial = Config();
  serial.snapshot.resume_from = *serial_file_;
  EXPECT_GT(RunDistrictScenario(serial).restore_seconds, 0.0);
  DistrictConfig sampled = serial;
  sampled.sampling.mode = SimMode::kSampled;
  EXPECT_GT(RunDistrictScenario(sampled).restore_seconds, 0.0);
  DistrictConfig sharded = Config();
  sharded.shard.shards = 3;
  sharded.snapshot.resume_from = *sharded_file_;
  EXPECT_GT(RunDistrictScenario(sharded).restore_seconds, 0.0);
}

TEST_F(DistrictGatewayRecordTest, GatewayOutsideThePlanRefused) {
  ExpectRecordsRefused([](std::vector<TimerRecord>& records) { records.front().a = 1000000; },
                       "gateway 1000000 has a pending transition but the plan has");
}

TEST_F(DistrictGatewayRecordTest, SecondRecordForAGatewayRefused) {
  const uint64_t g = Records().back().a;
  ExpectRecordsRefused(
      [](std::vector<TimerRecord>& records) { records.push_back(records.back()); },
      "gateway " + std::to_string(g) + " has more than one pending transition");
}

TEST_F(DistrictGatewayRecordTest, GatewayWithoutARecordRefused) {
  const uint64_t g = Records().back().a;
  ExpectRecordsRefused([](std::vector<TimerRecord>& records) { records.pop_back(); },
                       "gateway " + std::to_string(g) + " has no pending transition");
}

TEST_F(DistrictGatewayRecordTest, FailureRecordForAGatewaySavedDownRefused) {
  const TimerRecord repair = First(kDistrictTimerGatewayRepair);
  ASSERT_EQ(repair.tag, kDistrictTimerGatewayRepair);
  ExpectRecordsRefused(
      [g = repair.a](std::vector<TimerRecord>& records) {
        for (TimerRecord& r : records) {
          if (r.a == g) {
            r.tag = kDistrictTimerGatewayFail;
          }
        }
      },
      "gateway " + std::to_string(repair.a) +
          " was saved down but its next transition is a failure");
}

TEST_F(DistrictGatewayRecordTest, RepairRecordForAGatewaySavedUpRefused) {
  const TimerRecord failure = First(kDistrictTimerGatewayFail);
  ASSERT_EQ(failure.tag, kDistrictTimerGatewayFail);
  ExpectRecordsRefused(
      [g = failure.a](std::vector<TimerRecord>& records) {
        for (TimerRecord& r : records) {
          if (r.a == g) {
            r.tag = kDistrictTimerGatewayRepair;
          }
        }
      },
      "gateway " + std::to_string(failure.a) +
          " was saved up but its next transition is a repair");
}

TEST_F(DistrictGatewayRecordTest, RecordBeforeTheBarrierRefused) {
  const uint64_t g = Records().front().a;
  ExpectRecordsRefused(
      [at = barrier_us() - 1](std::vector<TimerRecord>& records) { records.front().at_us = at; },
      "gateway " + std::to_string(g) + "'s next transition at [0-9]+ us is before the barrier");
}

TEST_F(DistrictGatewayRecordTest, CursorBeforeTheBarrierRefused) {
  ExpectCursorsRefused(
      [at = barrier_us() - 1](uint32_t g, uint8_t, uint8_t&, int64_t& next_at_us) {
        if (g == 1) {
          next_at_us = at;
        }
      },
      "gateway 1's next transition at [0-9]+ us is before the barrier");
}

TEST_F(DistrictGatewayRecordTest, CursorDisagreeingWithTheSavedStateRefused) {
  ExpectCursorsRefused(
      [](uint32_t g, uint8_t, uint8_t& next_is_down, int64_t&) {
        if (g == 1) {
          next_is_down = next_is_down != 0 ? 0 : 1;
        }
      },
      "gateway 1 was saved (up|down) but its next transition is a");
}

// --- Restore parity: century -------------------------------------------------

// A `century` checkpoint holds no timer chunk: an alive slot's deadline is
// its unit's pending failure, and a run drained to the barrier has none
// before it. The serial and the sampled reader both refuse a file whose
// alive slot fails 1 us before its barrier, naming the site, and resume
// the untouched file.
TEST(CenturySnapshotTest, DeadlineBeforeTheBarrierRefusedNamingTheSite) {
  ScratchDir dir("century_deadline_before_barrier");
  CenturyConfig cfg;
  cfg.seed = 20260806;
  cfg.fleet_size = 300;
  cfg.horizon = SimTime::Years(40);
  cfg.batch.zone_count = 6;
  cfg.batch.cycle_period = SimTime::Years(5);
  cfg.snapshot.checkpoint_every = SimTime::Years(20);
  cfg.snapshot.checkpoint_dir = dir.path() + "/serial";
  const CenturyReport saved = RunCenturyScenario(cfg);
  ASSERT_EQ(saved.checkpoints_written, 1u);
  CenturyConfig sampled_save = cfg;
  sampled_save.sampling.mode = SimMode::kSampled;
  sampled_save.snapshot.checkpoint_dir = dir.path() + "/sampled";
  const CenturyReport sampled_saved = RunCenturyScenario(sampled_save);
  ASSERT_GE(sampled_saved.checkpoints_written, 1u);
  for (const std::string& path : {saved.last_checkpoint_path, sampled_saved.last_checkpoint_path}) {
    SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(reader.Open(path, &error)) << error;
    EXPECT_FALSE(reader.HasChunk(SnapshotTag('t', 'i', 'm', 'r'))) << path;
  }

  uint64_t site = 0;
  const std::string bad =
      ResealEdited(saved.last_checkpoint_path, dir.path() + "/bad.snap", kCenturyChunks,
                   ExpireDeadline(BarrierOf(saved.last_checkpoint_path), &site));
  ASSERT_NE(site, UINT64_MAX);

  CenturyConfig serial = cfg;
  serial.snapshot = SnapshotPlan{};
  CenturyConfig sampled = serial;
  sampled.sampling.mode = SimMode::kSampled;
  const std::string message = "site " + std::to_string(site) + " is alive with its pending failure at";
  for (CenturyConfig* resume : {&serial, &sampled}) {
    resume->snapshot.resume_from = bad;
    EXPECT_DEATH(RunCenturyScenario(*resume), message);
    // The untouched checkpoint still resumes.
    resume->snapshot.resume_from = saved.last_checkpoint_path;
    EXPECT_GT(RunCenturyScenario(*resume).restore_seconds, 0.0);
  }
}

// Both century readers refuse a file whose barrier lies outside the run it
// would resume, or whose visits are pending from neither its barrier nor
// 1 us after it.
TEST(CenturySnapshotTest, BarrierOutsideTheRunRefused) {
  ScratchDir dir("century_barrier_outside_run");
  CenturyConfig cfg;
  cfg.seed = 3;
  cfg.fleet_size = 100;
  cfg.horizon = SimTime::Years(20);
  cfg.batch.zone_count = 4;
  cfg.batch.cycle_period = SimTime::Years(5);
  cfg.snapshot.checkpoint_every = SimTime::Years(10);
  cfg.snapshot.checkpoint_dir = dir.path();
  const CenturyReport saved = RunCenturyScenario(cfg);
  ASSERT_EQ(saved.checkpoints_written, 1u);
  const std::string past_the_end =
      ResealEdited(saved.last_checkpoint_path, dir.path() + "/past_the_end.snap", kCenturyChunks,
                   {.barrier = [](int64_t& barrier_us) { barrier_us = INT64_MAX; }});
  // The barrier 2 us earlier leaves the file's visits pending from 3 us
  // after it.
  const std::string visits_later =
      ResealEdited(saved.last_checkpoint_path, dir.path() + "/visits_later.snap", kCenturyChunks,
                   {.barrier = [](int64_t& barrier_us) { barrier_us -= 2; }});

  CenturyConfig serial = cfg;
  serial.snapshot = SnapshotPlan{};
  CenturyConfig sampled = serial;
  sampled.sampling.mode = SimMode::kSampled;
  for (CenturyConfig* resume : {&serial, &sampled}) {
    resume->snapshot.resume_from = past_the_end;
    EXPECT_DEATH(RunCenturyScenario(*resume),
                 "barrier at " + std::to_string(INT64_MAX) + " us is outside the run");
    resume->snapshot.resume_from = visits_later;
    EXPECT_DEATH(RunCenturyScenario(*resume),
                 "zone visits pending from neither the barrier nor 1 us after it");
  }
}

// A `century` checkpoint keeps its availability integral as exact integer
// site-microseconds in the 'aliv' chunk. A file without it, such as one
// whose integral is the earlier format's double 'accu' chunk, is refused by
// both readers with an error that names the chunk, not misread.
TEST(CenturySnapshotTest, CheckpointWithoutIntegerChunkRefused) {
  ScratchDir dir("century_no_integer_chunk");
  CenturyConfig cfg;
  cfg.seed = 3;
  cfg.fleet_size = 100;
  cfg.horizon = SimTime::Years(20);
  cfg.batch.zone_count = 4;
  cfg.batch.cycle_period = SimTime::Years(5);
  cfg.snapshot.checkpoint_every = SimTime::Years(10);
  cfg.snapshot.checkpoint_dir = dir.path();
  const CenturyReport saved = RunCenturyScenario(cfg);
  ASSERT_EQ(saved.checkpoints_written, 1u);
  const std::string no_integral = ResealEdited(
      saved.last_checkpoint_path, dir.path() + "/no_integral.snap",
      {SnapshotTag('f', 'l', 'e', 't'), SnapshotTag('s', 'u', 'r', 'v'),
       SnapshotTag('s', 'c', 'h', 'd')});

  CenturyConfig serial = cfg;
  serial.snapshot = SnapshotPlan{};
  CenturyConfig sampled = serial;
  sampled.sampling.mode = SimMode::kSampled;
  for (CenturyConfig* resume : {&serial, &sampled}) {
    resume->snapshot.resume_from = no_integral;
    EXPECT_DEATH(RunCenturyScenario(*resume), "no 'aliv' chunk");
  }
}

TEST(CenturySnapshotTest, SaveAtYear50RestoreMatchesGolden) {
  ScratchDir dir("century_snapshot_parity");
  CenturyConfig cfg;
  cfg.seed = 20260806;
  cfg.fleet_size = 800;
  cfg.horizon = SimTime::Years(100);
  cfg.proactive_refresh_age = SimTime::Years(25);
  cfg.life_improvement_per_decade = 1.05;
  cfg.snapshot.checkpoint_every = SimTime::Years(50);
  cfg.snapshot.checkpoint_dir = dir.path();

  const CenturyReport saved_run = RunCenturyScenario(cfg);
  EXPECT_EQ(CenturyDigest(saved_run), kGoldenCenturyDigest);
  EXPECT_EQ(saved_run.checkpoints_written, 1u);
  ASSERT_FALSE(saved_run.last_checkpoint_path.empty());

  CenturyConfig resume_cfg = cfg;
  resume_cfg.snapshot = {};
  resume_cfg.snapshot.resume_from = saved_run.last_checkpoint_path;
  const CenturyReport restored = RunCenturyScenario(resume_cfg);
  EXPECT_EQ(CenturyDigest(restored), kGoldenCenturyDigest);
  EXPECT_GT(restored.restore_seconds, 0.0);
}

// --- Branching what-if runs --------------------------------------------------

TEST(BranchRunnerTest, BranchesBitIdenticalAtAnyThreadCountWithoutReplay) {
  ScratchDir dir("branch_what_if");
  DistrictConfig base;
  base.seed = 4;
  base.device_count = 800;
  base.area_km2 = 9.0;
  base.horizon = SimTime::Years(40);
  base.batch_cycle = SimTime::Years(6);

  const std::string straight = DistrictDigest(RunDistrictScenario(base));

  DistrictConfig save_cfg = base;
  save_cfg.snapshot.checkpoint_every = SimTime::Years(20);
  save_cfg.snapshot.checkpoint_dir = dir.path();
  const DistrictReport parent = RunDistrictScenario(save_cfg);
  ASSERT_FALSE(parent.last_checkpoint_path.empty());

  using Runner = BranchRunner<DistrictExperiment>;
  std::vector<Runner::Branch> branches;
  branches.push_back({"baseline", base});
  DistrictConfig fast = base;
  fast.gateway_repair_delay = SimTime::Days(3);
  branches.push_back({"fast_repairs", fast});
  DistrictConfig slow = base;
  slow.gateway_repair_delay = SimTime::Days(120);
  branches.push_back({"slow_repairs", slow});

  BranchOptions serial;
  serial.threads = 1;
  const auto runs1 = Runner::Run(parent.last_checkpoint_path, branches, serial);
  BranchOptions wide;
  wide.threads = 4;
  const auto runs4 = Runner::Run(parent.last_checkpoint_path, branches, wide);
  ASSERT_EQ(runs1.size(), 3u);
  ASSERT_EQ(runs4.size(), 3u);

  for (size_t i = 0; i < runs1.size(); ++i) {
    EXPECT_EQ(runs1[i].name, branches[i].name);
    // Thread-count independence: bit-identical reports.
    EXPECT_EQ(DistrictDigest(runs1[i].report), DistrictDigest(runs4[i].report));
    // The cumulative executed counter is restored from the snapshot, so a
    // branch that simulates only the remaining years lands exactly on the
    // straight run's total; restoring AND replaying history would overshoot
    // it, and restore_seconds > 0 rules out a silent fresh replay.
    EXPECT_EQ(runs1[0].report.events_executed, parent.events_executed);
    EXPECT_GT(runs1[i].report.restore_seconds, 0.0);
  }

  // Common random numbers: the identity branch IS the parent run.
  EXPECT_EQ(DistrictDigest(runs1[0].report), straight);
  // Policy deltas diverge only through their causal effect.
  EXPECT_NE(DistrictDigest(runs1[1].report), straight);
  EXPECT_GT(runs1[1].report.mean_service_availability,
            runs1[2].report.mean_service_availability);

  // Reseeded branches draw a different future even with identical policy.
  BranchOptions reseed;
  reseed.threads = 2;
  reseed.reseed = true;
  reseed.salt_seed = 99;
  const auto decorrelated =
      Runner::Run(parent.last_checkpoint_path, {branches[0]}, reseed);
  ASSERT_EQ(decorrelated.size(), 1u);
  EXPECT_NE(decorrelated[0].branch_salt, 0u);
  EXPECT_NE(DistrictDigest(decorrelated[0].report), straight);
}

// --- Ensemble checkpoint/resume ----------------------------------------------

TEST(EnsembleSnapshotTest, ResumedEnsembleReproducesFreshRun) {
  ScratchDir dir("ensemble_resume");
  DistrictConfig base;
  base.seed = 21;
  base.device_count = 400;
  base.area_km2 = 4.0;
  base.zone_grid = 2;
  base.horizon = SimTime::Years(20);
  base.batch_cycle = SimTime::Years(6);

  EnsembleOptions plain;
  plain.replicas = 2;
  plain.threads = 2;
  plain.collect_metrics = true;
  const auto fresh = EnsembleRunner<DistrictExperiment>::Run(base, plain);

  EnsembleOptions checkpointed = plain;
  checkpointed.checkpoint_every = SimTime::Years(8);
  checkpointed.checkpoint_dir = dir.path() + "/ckpt";
  const auto first = EnsembleRunner<DistrictExperiment>::Run(base, checkpointed);

  // Re-running with resume picks up each replica's year-16 checkpoint and
  // simulates only the remaining years — to identical reports and metrics.
  EnsembleOptions resume = checkpointed;
  resume.resume_from_checkpoint = true;
  const auto resumed = EnsembleRunner<DistrictExperiment>::Run(base, resume);

  ASSERT_EQ(resumed.replicas.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(DistrictDigest(resumed.replicas[i].report),
              DistrictDigest(fresh.replicas[i].report));
    EXPECT_GT(resumed.replicas[i].restore_seconds, 0.0);
    // Cumulative counter continuity (see BranchRunnerTest): restored tail
    // lands exactly on the fresh run's total.
    EXPECT_EQ(resumed.replicas[i].events_executed, fresh.replicas[i].events_executed);
    EXPECT_EQ(first.manifest.replica_runs[i].restore_seconds, 0.0);
    EXPECT_GT(resumed.manifest.replica_runs[i].restore_seconds, 0.0);
  }
  // Merged metrics restored exactly: byte-identical re-encoding.
  ASSERT_NE(fresh.metrics, nullptr);
  ASSERT_NE(resumed.metrics, nullptr);
  ByteWriter fresh_bytes, resumed_bytes;
  EncodeMetrics(*fresh.metrics, fresh_bytes);
  EncodeMetrics(*resumed.metrics, resumed_bytes);
  EXPECT_EQ(fresh_bytes.bytes(), resumed_bytes.bytes());
  // The manifest records restore_seconds for custodians.
  EXPECT_NE(resumed.manifest.ToJson().find("restore_seconds"), std::string::npos);
}

// --- Wedged-replica recovery note ---------------------------------------------

TEST(RunStatusRecoveryTest, StallDumpNamesLatestCheckpoint) {
  ScratchDir status("wedged_status");
  ScratchDir ckpt("wedged_ckpt");

  // A real durable checkpoint + marker, as a checkpointing replica leaves.
  SnapshotMeta meta = TestMeta();
  meta.barrier_us = SimTime::Years(3).micros();
  const std::string snap_path = ckpt.path() + "/" + CheckpointFileName(meta.barrier_us);
  ASSERT_GT(SnapshotWriter(meta).Write(snap_path), 0u);
  ASSERT_TRUE(WriteLatestMarker(ckpt.path(), snap_path, meta.barrier_us));

  ProgressCell cell;
  cell.Publish(1000, 1100, 50, 5, 7);  // Publishes once, then wedges.
  RunStatusMonitor::Options options;
  options.status_dir = status.path();
  options.heartbeat_seconds = 0.02;
  options.stall_deadline_seconds = 0.05;
  options.deep_stall_snapshot = false;
  options.run_name = "wedged";
  options.experiment = "unit";
  options.horizon_us = SimTime::Years(10).micros();
  RunStatusMonitor::ReplicaHooks hooks;
  hooks.cell = &cell;
  hooks.seed = 9;
  hooks.checkpoint_dir = ckpt.path();
  RunStatusMonitor monitor(options, {hooks});
  monitor.Start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (monitor.stalled_count() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  monitor.Stop();
  ASSERT_TRUE(monitor.WasStalled(0));

  // The recovery note names the checkpoint an operator resumes from.
  const std::string note_path = status.path() + "/replica_0_recovery.json";
  ASSERT_TRUE(fs::exists(note_path));
  std::ifstream in(note_path);
  std::string note((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(note.find(snap_path), std::string::npos) << note;
  EXPECT_NE(note.find("resume_hint"), std::string::npos);

  // The status row carries it too.
  const RunStatus built = monitor.BuildStatus();
  ASSERT_EQ(built.replicas.size(), 1u);
  EXPECT_EQ(built.replicas[0].latest_checkpoint, snap_path);
}

}  // namespace
}  // namespace centsim
