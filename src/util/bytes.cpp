#include "util/bytes.h"

#include <array>

namespace metro {

void ByteWriter::PutU32(std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = char((v >> (8 * i)) & 0xff);
  buf_.append(b, 4);
}

void ByteWriter::PutU64(std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = char((v >> (8 * i)) & 0xff);
  buf_.append(b, 8);
}

void ByteWriter::PutF32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  PutU32(bits);
}

void ByteWriter::PutF64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(bits);
}

void ByteWriter::PutVarint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(char((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf_.push_back(char(v));
}

void ByteWriter::PutString(std::string_view s) {
  PutVarint(s.size());
  buf_.append(s);
}

Result<std::uint8_t> ByteReader::GetU8() {
  if (remaining() < 1) return CorruptionError("truncated u8");
  return static_cast<std::uint8_t>(data_[pos_++]);
}

Result<std::uint32_t> ByteReader::GetU32() {
  if (remaining() < 4) return CorruptionError("truncated u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t(std::uint8_t(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::GetU64() {
  if (remaining() < 8) return CorruptionError("truncated u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t(std::uint8_t(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<std::int64_t> ByteReader::GetI64() {
  METRO_ASSIGN_OR_RETURN(const std::uint64_t v, GetU64());
  return static_cast<std::int64_t>(v);
}

Result<float> ByteReader::GetF32() {
  METRO_ASSIGN_OR_RETURN(const std::uint32_t bits, GetU32());
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

Result<double> ByteReader::GetF64() {
  METRO_ASSIGN_OR_RETURN(const std::uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

Result<std::uint64_t> ByteReader::GetVarint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (remaining() < 1) return CorruptionError("truncated varint");
    const auto byte = std::uint8_t(data_[pos_++]);
    if (shift >= 63 && byte > 1) return CorruptionError("varint overflow");
    v |= std::uint64_t(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return v;
    shift += 7;
  }
}

Result<std::string> ByteReader::GetString() {
  METRO_ASSIGN_OR_RETURN(const std::uint64_t n, GetVarint());
  if (remaining() < n) return CorruptionError("truncated string body");
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

namespace {

std::array<std::uint32_t, 256> MakeCrc32cTable() {
  std::array<std::uint32_t, 256> table{};
  constexpr std::uint32_t kPoly = 0x82f63b78;  // reflected Castagnoli
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

std::uint32_t Crc32c(std::string_view data) {
  static const auto table = MakeCrc32cTable();
  std::uint32_t crc = 0xffffffff;
  for (const char c : data) {
    crc = table[(crc ^ std::uint8_t(c)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffff;
}

std::uint64_t Fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= std::uint8_t(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace metro
