// Versioned binary checkpoint container (ROADMAP item 4).
//
// File layout (all integers little-endian):
//
//   [0..7]   magic  "centsnap"
//   [8..11]  format version (u32, kSnapshotFormatVersion)
//   [12..15] chunk count (u32)
//   then, per chunk:
//   [0..3]   tag (u32 fourcc, e.g. 'meta', 'flet')
//   [4..7]   reserved (u32, 0)
//   [8..15]  payload length in bytes (u64)
//   [16..23] SipHash-2-4 of the payload under kSnapshotHashKey (u64)
//   [24..]   payload
//
// The checksum is an integrity check against bit rot and truncation, not
// authentication — the key is a published format constant. The reader
// validates the header, walks the chunk table checking every declared
// length against the bytes actually present BEFORE touching a payload,
// and verifies every checksum up front; a corrupted, truncated, or
// version-mismatched file yields `false` + a diagnostic, never UB or an
// attacker-sized allocation.
//
// What goes in the chunks is the experiment driver's business (the codecs
// in src/snapshot/codec.h and the drivers' own save/restore members); this
// layer only moves tagged, checksummed byte spans. The `meta` chunk is
// special-cased just enough for ProbeSnapshot to answer "is this a valid
// snapshot of experiment X at barrier T" without a driver.

#ifndef SRC_SNAPSHOT_SNAPSHOT_H_
#define SRC_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/snapshot/bytes.h"
#include "src/snapshot/snapshot_plan.h"

namespace centsim {

inline constexpr uint32_t kSnapshotFormatVersion = 1;

// Four-character chunk tags.
constexpr uint32_t SnapshotTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
         static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24;
}

// The well-known `meta` chunk every snapshot carries: enough to identify
// what was snapshotted without the owning driver.
inline constexpr uint32_t kMetaChunk = SnapshotTag('m', 'e', 't', 'a');
struct SnapshotMeta {
  std::string experiment;        // Driver id ("district", "century", ...).
  std::string library_version;   // kCentsimVersion at save time.
  std::string structural_digest; // Driver's digest of rebuild-from-config state.
  int64_t barrier_us = 0;        // Quiescent barrier the snapshot was taken at.
  uint64_t seed = 0;
};

class SnapshotWriter {
 public:
  explicit SnapshotWriter(SnapshotMeta meta);

  // Adds one chunk. Tags must be unique per snapshot (the reader indexes
  // by tag); the meta chunk is added by the constructor.
  void Add(uint32_t tag, const ByteWriter& payload);

  // Assembles the file image and atomically writes it (durable grade:
  // fsync before rename — see src/telemetry/atomic_file.h). Returns the
  // byte count written, or 0 with `error` set.
  uint64_t Write(const std::string& path, std::string* error = nullptr) const;

 private:
  struct Chunk {
    uint32_t tag;
    std::vector<uint8_t> payload;
  };
  std::vector<Chunk> chunks_;
};

class SnapshotReader {
 public:
  // Loads and fully validates `path` (header, chunk table bounds, every
  // checksum, meta chunk decode). False + `error` on any defect.
  bool Open(const std::string& path, std::string* error = nullptr);
  // Same validation over an in-memory image (corruption tests).
  bool OpenBytes(std::vector<uint8_t> image, std::string* error = nullptr);

  const SnapshotMeta& meta() const { return meta_; }

  bool HasChunk(uint32_t tag) const;
  // Reader over a chunk's payload; a missing tag yields an empty reader
  // that immediately fails, so drivers can decode unconditionally and
  // check ok() once. Spans point into this object — keep it alive.
  ByteReader Chunk(uint32_t tag) const;

 private:
  struct ChunkSpan {
    uint32_t tag;
    size_t offset;
    size_t size;
  };

  std::vector<uint8_t> image_;
  std::vector<ChunkSpan> chunks_;
  SnapshotMeta meta_;
};

// Order-sensitive 64-bit digest of a canonical byte encoding, as a fixed
// 16-hex-digit string. Drivers encode their structural (rebuilt-from-
// config) fields through a ByteWriter and pin the digest in SnapshotMeta;
// a restoring run recomputes it and refuses a mismatched snapshot.
std::string StructuralDigestHex(const ByteWriter& encoded);

// Cheap validity probe: Open + meta extraction. True iff `path` is a
// well-formed snapshot; fills `meta` when given.
bool ProbeSnapshot(const std::string& path, SnapshotMeta* meta = nullptr,
                   std::string* error = nullptr);

// --- Latest-checkpoint marker ----------------------------------------------
//
// After each successful checkpoint write, drivers publish
// `<dir>/LATEST.json` ({"path":..., "barrier_us":...}) with the same
// durable atomic write. Because the marker is only written after the
// snapshot it names is safely on disk, anything that reads it — the
// run-status watchdog noting where an operator can resume a stalled
// replica, or a resuming driver — gets a path to a complete checkpoint.
inline constexpr const char* kLatestMarkerFile = "LATEST.json";

bool WriteLatestMarker(const std::string& dir, const std::string& snapshot_path,
                       int64_t barrier_us, std::string* error = nullptr);

// Resolves the directory's latest VALID checkpoint: the marker's path if
// it probes clean, else the newest-barrier `*.snap` in `dir` that does
// (the marker write itself could have been lost in a crash). Empty string
// when the directory holds no usable snapshot.
std::string FindLatestValidSnapshot(const std::string& dir, SnapshotMeta* meta = nullptr);

// Canonical checkpoint file name for a barrier time.
std::string CheckpointFileName(int64_t barrier_us);

// --- Checkpointing-driver steps -----------------------------------------
//
// The file bookkeeping every checkpointing driver shares; what goes in
// the chunks stays the driver's business.

// The snapshot a run resumes from: plan.resume_from, else (resume_latest)
// the checkpoint directory's latest valid snapshot. Empty = fresh start.
std::string ResolveResumePath(const SnapshotPlan& plan);

// Opens `path` and refuses it unless it was written by `experiment` with
// the same structural digest. False + `error` on any defect.
bool OpenCheckpoint(SnapshotReader& reader, const std::string& path,
                    const std::string& experiment, const std::string& structural_digest,
                    std::string* error);

// Writes `writer` as <dir>/CheckpointFileName(barrier_us) (creating the
// directory), then publishes the LATEST marker naming it. Returns the bytes
// written and the file's path, or 0 after reporting the failure on stderr.
uint64_t WriteCheckpoint(const SnapshotWriter& writer, const std::string& dir,
                         int64_t barrier_us, std::string* path);

}  // namespace centsim

#endif  // SRC_SNAPSHOT_SNAPSHOT_H_
