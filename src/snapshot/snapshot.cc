#include "src/snapshot/snapshot.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/security/siphash.h"
#include "src/telemetry/atomic_file.h"

namespace centsim {
namespace {

constexpr char kMagic[8] = {'c', 'e', 'n', 't', 's', 'n', 'a', 'p'};
constexpr size_t kFileHeaderSize = 8 + 4 + 4;
constexpr size_t kChunkHeaderSize = 4 + 4 + 8 + 8;

// Published format constant: integrity, not authentication.
constexpr SipHashKey kSnapshotHashKey = {'c', 'e', 'n', 't', 's', 'i', 'm', '-',
                                         's', 'n', 'a', 'p', 'k', 'e', 'y', '1'};

void SetError(std::string* error, std::string what) {
  if (error != nullptr) {
    *error = std::move(what);
  }
}

void EncodeMeta(const SnapshotMeta& meta, ByteWriter& w) {
  w.Str(meta.experiment);
  w.Str(meta.library_version);
  w.Str(meta.structural_digest);
  w.I64(meta.barrier_us);
  w.U64(meta.seed);
}

bool DecodeMeta(ByteReader r, SnapshotMeta& meta) {
  meta.experiment = r.Str();
  meta.library_version = r.Str();
  meta.structural_digest = r.Str();
  meta.barrier_us = r.I64();
  meta.seed = r.U64();
  return r.ok();
}

}  // namespace

SnapshotWriter::SnapshotWriter(SnapshotMeta meta) {
  ByteWriter w;
  EncodeMeta(meta, w);
  Add(kMetaChunk, w);
}

void SnapshotWriter::Add(uint32_t tag, const ByteWriter& payload) {
  chunks_.push_back({tag, payload.bytes()});
}

uint64_t SnapshotWriter::Write(const std::string& path, std::string* error) const {
  ByteWriter out;
  out.Bytes(kMagic, sizeof(kMagic));
  out.U32(kSnapshotFormatVersion);
  out.U32(static_cast<uint32_t>(chunks_.size()));
  for (const Chunk& c : chunks_) {
    out.U32(c.tag);
    out.U32(0);  // Reserved.
    out.U64(c.payload.size());
    out.U64(SipHash24(kSnapshotHashKey, c.payload.data(), c.payload.size()));
    out.Bytes(c.payload.data(), c.payload.size());
  }
  if (!AtomicWriteFileBytes(out.bytes().data(), out.size(), path, /*durable=*/true, error)) {
    return 0;
  }
  return out.size();
}

bool SnapshotReader::Open(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetError(error, "cannot open " + path);
    return false;
  }
  std::vector<uint8_t> image((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    SetError(error, "read failed for " + path);
    return false;
  }
  return OpenBytes(std::move(image), error);
}

bool SnapshotReader::OpenBytes(std::vector<uint8_t> image, std::string* error) {
  image_ = std::move(image);
  chunks_.clear();
  if (image_.size() < kFileHeaderSize) {
    SetError(error, "snapshot truncated: no file header");
    return false;
  }
  if (std::memcmp(image_.data(), kMagic, sizeof(kMagic)) != 0) {
    SetError(error, "not a snapshot file (bad magic)");
    return false;
  }
  ByteReader header(image_.data() + sizeof(kMagic), kFileHeaderSize - sizeof(kMagic));
  const uint32_t version = header.U32();
  if (version != kSnapshotFormatVersion) {
    SetError(error, "unsupported snapshot format version " + std::to_string(version) +
                        " (expected " + std::to_string(kSnapshotFormatVersion) + ")");
    return false;
  }
  const uint32_t chunk_count = header.U32();

  size_t pos = kFileHeaderSize;
  for (uint32_t i = 0; i < chunk_count; ++i) {
    if (image_.size() - pos < kChunkHeaderSize) {
      SetError(error, "snapshot truncated in chunk header " + std::to_string(i));
      return false;
    }
    ByteReader ch(image_.data() + pos, kChunkHeaderSize);
    const uint32_t tag = ch.U32();
    // Reserved must be zero: rejecting nonzero keeps every header bit
    // load-bearing (a flipped bit can never yield a "valid" file) and the
    // field free for a future format revision.
    if (ch.U32() != 0) {
      SetError(error, "snapshot chunk " + std::to_string(i) + " has nonzero reserved field");
      return false;
    }
    const uint64_t len = ch.U64();
    const uint64_t sum = ch.U64();
    pos += kChunkHeaderSize;
    // Length validated against the file BEFORE any payload access: an
    // oversized declared length fails here instead of sizing a read or an
    // allocation.
    if (len > image_.size() - pos) {
      SetError(error, "snapshot chunk " + std::to_string(i) + " declares " +
                          std::to_string(len) + " bytes but only " +
                          std::to_string(image_.size() - pos) + " remain");
      return false;
    }
    if (SipHash24(kSnapshotHashKey, image_.data() + pos, len) != sum) {
      SetError(error, "snapshot chunk " + std::to_string(i) + " failed its checksum");
      return false;
    }
    for (const ChunkSpan& existing : chunks_) {
      if (existing.tag == tag) {
        SetError(error, "snapshot has duplicate chunk tag " + std::to_string(tag));
        return false;
      }
    }
    chunks_.push_back({tag, pos, static_cast<size_t>(len)});
    pos += len;
  }
  if (pos != image_.size()) {
    SetError(error, "snapshot has " + std::to_string(image_.size() - pos) +
                        " trailing bytes after the last chunk");
    return false;
  }
  if (!HasChunk(kMetaChunk) || !DecodeMeta(Chunk(kMetaChunk), meta_)) {
    SetError(error, "snapshot meta chunk missing or undecodable");
    return false;
  }
  return true;
}

bool SnapshotReader::HasChunk(uint32_t tag) const {
  for (const ChunkSpan& c : chunks_) {
    if (c.tag == tag) {
      return true;
    }
  }
  return false;
}

ByteReader SnapshotReader::Chunk(uint32_t tag) const {
  for (const ChunkSpan& c : chunks_) {
    if (c.tag == tag) {
      return ByteReader(image_.data() + c.offset, c.size);
    }
  }
  // Missing chunk: an empty reader whose first read fails.
  ByteReader r(nullptr, 0);
  r.Fail();
  return r;
}

std::string StructuralDigestHex(const ByteWriter& encoded) {
  const uint64_t digest = SipHash24(kSnapshotHashKey, encoded.bytes().data(), encoded.size());
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

bool ProbeSnapshot(const std::string& path, SnapshotMeta* meta, std::string* error) {
  SnapshotReader reader;
  if (!reader.Open(path, error)) {
    return false;
  }
  if (meta != nullptr) {
    *meta = reader.meta();
  }
  return true;
}

bool WriteLatestMarker(const std::string& dir, const std::string& snapshot_path,
                       int64_t barrier_us, std::string* error) {
  char buf[640];
  // Paths land in JSON; checkpoint paths are machine-generated (no quotes
  // or control characters), so plain interpolation is safe here.
  const int n =
      std::snprintf(buf, sizeof(buf), "{\"path\": \"%s\", \"barrier_us\": %" PRId64 "}\n",
                    snapshot_path.c_str(), barrier_us);
  if (n < 0 || static_cast<size_t>(n) >= sizeof(buf)) {
    SetError(error, "checkpoint path too long for LATEST marker");
    return false;
  }
  return AtomicWriteFileBytes(buf, static_cast<size_t>(n), dir + "/" + kLatestMarkerFile,
                              /*durable=*/true, error);
}

std::string FindLatestValidSnapshot(const std::string& dir, SnapshotMeta* meta) {
  namespace fs = std::filesystem;
  // First choice: the marker, written only after its snapshot was durable.
  std::ifstream marker(dir + "/" + kLatestMarkerFile);
  if (marker) {
    std::string text((std::istreambuf_iterator<char>(marker)),
                     std::istreambuf_iterator<char>());
    const std::string key = "\"path\": \"";
    const size_t start = text.find(key);
    if (start != std::string::npos) {
      const size_t from = start + key.size();
      const size_t end = text.find('"', from);
      if (end != std::string::npos) {
        const std::string path = text.substr(from, end - from);
        if (ProbeSnapshot(path, meta)) {
          return path;
        }
      }
    }
  }
  // Fallback: scan for the newest-barrier snapshot that validates (the
  // marker itself may be stale or lost).
  std::string best;
  int64_t best_barrier = INT64_MIN;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".snap") {
      continue;
    }
    SnapshotMeta m;
    if (ProbeSnapshot(entry.path().string(), &m) && m.barrier_us > best_barrier) {
      best = entry.path().string();
      best_barrier = m.barrier_us;
      if (meta != nullptr) {
        *meta = m;
      }
    }
  }
  return best;
}

std::string CheckpointFileName(int64_t barrier_us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "checkpoint_%020" PRId64 ".snap", barrier_us);
  return buf;
}

std::string ResolveResumePath(const SnapshotPlan& plan) {
  if (plan.resume_from.empty() && plan.resume_latest) {
    return FindLatestValidSnapshot(plan.checkpoint_dir);
  }
  return plan.resume_from;
}

bool OpenCheckpoint(SnapshotReader& reader, const std::string& path,
                    const std::string& experiment, const std::string& structural_digest,
                    std::string* error) {
  if (!reader.Open(path, error)) {
    return false;
  }
  if (reader.meta().experiment != experiment) {
    SetError(error, "snapshot is for experiment '" + reader.meta().experiment + "', not " +
                        experiment);
    return false;
  }
  if (reader.meta().structural_digest != structural_digest) {
    SetError(error, "structural config mismatch (snapshot " + reader.meta().structural_digest +
                        ", this run " + structural_digest +
                        "): seed, geometry and horizon must match the saving run; only "
                        "policy fields may differ");
    return false;
  }
  return true;
}

uint64_t WriteCheckpoint(const SnapshotWriter& writer, const std::string& dir,
                         int64_t barrier_us, std::string* path) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  *path = dir + "/" + CheckpointFileName(barrier_us);
  std::string error;
  const uint64_t bytes = writer.Write(*path, &error);
  if (bytes == 0) {
    std::fprintf(stderr, "checkpoint write failed: %s\n", error.c_str());
    return 0;
  }
  // Marker only after the snapshot is durable: readers of LATEST.json
  // (resume, the run-status watchdog) always see a complete checkpoint.
  WriteLatestMarker(dir, *path, barrier_us);
  return bytes;
}

}  // namespace centsim
