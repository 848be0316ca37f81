// Little-endian byte codec for the snapshot format.
//
// ByteWriter appends into an owned buffer; ByteReader walks a borrowed
// span with strict bounds checking. The reader NEVER trusts an embedded
// length: every Read* checks the remaining byte count first and latches a
// sticky failure flag instead of reading past the end, so a truncated or
// bit-flipped snapshot degrades to `ok() == false`, not UB. Sized reads
// (strings, vectors) additionally clamp the declared element count against
// the bytes actually remaining BEFORE allocating, so a corrupted length
// field cannot trigger a multi-gigabyte allocation.
//
// Doubles travel as their IEEE-754 bit patterns (bit_cast), so a
// save/restore round trip reproduces every value bit-for-bit — including
// the signed zeros, infinities, and accumulated-rounding states that the
// restore-parity digests depend on.

#ifndef SRC_SNAPSHOT_BYTES_H_
#define SRC_SNAPSHOT_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace centsim {

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  // 128-bit integers travel as two u64s, low half first.
  void U128(unsigned __int128 v) {
    U64(static_cast<uint64_t>(v));
    U64(static_cast<uint64_t>(v >> 64));
  }
  void I128(__int128 v) { U128(static_cast<unsigned __int128>(v)); }
  void F64(double v) { AppendLe(std::bit_cast<uint64_t>(v)); }

  void Bytes(const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }
  // Length-prefixed string (u32 length, no terminator).
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void F64Vec(const std::vector<double>& v) {
    U64(v.size());
    for (const double x : v) {
      F64(x);
    }
  }
  void U64Vec(const std::vector<uint64_t>& v) {
    U64(v.size());
    for (const uint64_t x : v) {
      U64(x);
    }
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void AppendLe(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() { return Take(1) ? data_[pos_++] : 0; }
  uint32_t U32() { return static_cast<uint32_t>(TakeLe(4)); }
  uint64_t U64() { return TakeLe(8); }
  int64_t I64() { return static_cast<int64_t>(TakeLe(8)); }
  unsigned __int128 U128() {
    const uint64_t lo = U64();
    const uint64_t hi = U64();
    return (static_cast<unsigned __int128>(hi) << 64) | lo;
  }
  __int128 I128() { return static_cast<__int128>(U128()); }
  double F64() { return std::bit_cast<double>(TakeLe(8)); }

  std::string Str() {
    const uint32_t len = U32();
    if (!Take(len)) {
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }
  std::vector<double> F64Vec() {
    const uint64_t count = U64();
    // Clamp BEFORE allocating: 8 bytes per element must fit in what's left.
    if (failed_ || count > remaining() / 8) {
      failed_ = true;
      return {};
    }
    std::vector<double> v(count);
    for (auto& x : v) {
      x = F64();
    }
    return v;
  }
  std::vector<uint64_t> U64Vec() {
    const uint64_t count = U64();
    if (failed_ || count > remaining() / 8) {
      failed_ = true;
      return {};
    }
    std::vector<uint64_t> v(count);
    for (auto& x : v) {
      x = U64();
    }
    return v;
  }
  bool ReadBytes(void* out, size_t size) {
    if (!Take(size)) {
      std::memset(out, 0, size);
      return false;
    }
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return true;
  }

  size_t remaining() const { return size_ - pos_; }
  bool ok() const { return !failed_; }
  // Marks the stream failed (callers finding semantic nonsense use this so
  // one `ok()` check at the end covers both syntax and semantics).
  void Fail() { failed_ = true; }

 private:
  // True iff `n` more bytes exist; latches failure otherwise.
  bool Take(size_t n) {
    if (failed_ || n > size_ - pos_) {
      failed_ = true;
      return false;
    }
    return true;
  }
  uint64_t TakeLe(size_t n) {
    if (!Take(n)) {
      return 0;
    }
    uint64_t v = 0;
    for (size_t i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace centsim

#endif  // SRC_SNAPSHOT_BYTES_H_
