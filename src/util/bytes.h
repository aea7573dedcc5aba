#pragma once

// Binary serialization primitives.
//
// Fixed-width little-endian encoding plus varint and length-prefixed strings;
// used by the DFS block format, the message-queue log, and the LSM store's
// SSTable/WAL records.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace metro {

/// Append-only encoder.
class ByteWriter {
 public:
  void PutU8(std::uint8_t v) { buf_.push_back(char(v)); }
  void PutU32(std::uint32_t v);
  void PutU64(std::uint64_t v);
  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }
  void PutF32(float v);
  void PutF64(double v);
  void PutVarint(std::uint64_t v);
  /// Length-prefixed (varint) byte string.
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix.
  void PutRaw(std::string_view s) { buf_.append(s); }

  const std::string& data() const& { return buf_; }
  std::string&& data() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Sequential decoder over a borrowed buffer; all reads are bounds-checked
/// and fail with kCorruption on truncation.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<std::uint8_t> GetU8();
  Result<std::uint32_t> GetU32();
  Result<std::uint64_t> GetU64();
  Result<std::int64_t> GetI64();
  Result<float> GetF32();
  Result<double> GetF64();
  Result<std::uint64_t> GetVarint();
  /// Length-prefixed byte string (copies out).
  Result<std::string> GetString();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return remaining() == 0; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// CRC32 (Castagnoli polynomial, table-driven) for record checksums.
std::uint32_t Crc32c(std::string_view data);

/// FNV-1a 64-bit hash — partitioners and bloom filters.
std::uint64_t Fnv1a64(std::string_view data);

}  // namespace metro
