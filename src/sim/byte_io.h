// Little-endian bytes for durable machine checkpoints.
//
// ByteWriter appends fixed-width little-endian values to a growable
// buffer; ByteReader consumes them with a sticky failure flag instead of
// per-call error returns, so a caller checks ok() once per section and
// rejects the whole file, never a partial restore. The archives in
// src/sim/archive.h map typed fields onto these two.
//
// Encodings are explicit shifts, not memcpy of host structs: the file must
// mean the same bytes on any host, and no padding or struct layout may
// leak into the format.
#ifndef SRC_SIM_BYTE_IO_H_
#define SRC_SIM_BYTE_IO_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

namespace graysim {

class ByteWriter {
 public:
  // Appends the low `width` bytes of v, least significant first.
  void Le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : p_(data), end_(data + size) {}

  // Reads a `width`-byte little-endian value; 0 once anything has failed.
  [[nodiscard]] std::uint64_t Le(int width) {
    if (!Need(static_cast<std::size_t>(width))) {
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(*p_++) << (8 * i);
    }
    return v;
  }

  [[nodiscard]] bool Bytes(void* out, std::size_t n) {
    if (!Need(n)) {
      return false;
    }
    std::memcpy(out, p_, n);
    p_ += n;
    return true;
  }

  // Advances past n bytes (fails when fewer remain).
  bool Skip(std::size_t n) {
    if (!Need(n)) {
      return false;
    }
    p_ += n;
    return true;
  }

  // Reads a u64 element count whose elements occupy at least
  // `min_elem_bytes` each; fails (rather than letting a caller size a
  // container from it) when the remaining input cannot hold that many.
  [[nodiscard]] std::uint64_t Count(std::size_t min_elem_bytes) {
    const std::uint64_t n = Le(8);
    if (n > remaining() / min_elem_bytes) {
      failed_ = true;
      return 0;
    }
    return n;
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  // A fully-consumed, error-free read: the shape of a successful section.
  [[nodiscard]] bool Done() const { return !failed_ && p_ == end_; }

 private:
  [[nodiscard]] bool Need(std::size_t n) {
    if (failed_ || remaining() < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool failed_ = false;
};

// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), one table lookup
// per byte. The per-section checksum of checkpoint files: a bitwise loop
// spent about as long on a 1.9 MB image as the rest of the encoding.
inline constexpr std::array<std::uint32_t, 256> kCrc32Table = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    table[i] = c;
  }
  return table;
}();

[[nodiscard]] inline std::uint32_t Crc32(const std::uint8_t* data, std::size_t size,
                                         std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kCrc32Table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace graysim

#endif  // SRC_SIM_BYTE_IO_H_
