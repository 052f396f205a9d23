// Symmetric archives: one field list per state struct, run in both
// directions.
//
// Every checkpointed struct describes its encoding exactly once, as
//
//   template <typename Ar> void Transfer(Ar& ar, Foo& x) { ar(x.a, x.b, x.c); }
//
// (a public member template `void Transfer(Ar& ar)` where the state is
// private). WriteArchive runs it over a ByteWriter and ReadArchive over a
// ByteReader, so a field cannot be saved and forgotten on load, or loaded
// in a different order. A Transfer branches on `Ar::kReading` only where
// the bytes really differ between the directions (a count the writer
// derives and the reader validates, a container the reader must build
// before filling it). The writer never modifies what it is handed.
//
// Wire types follow the C++ type: bool and uint8 are one byte, uint32 four,
// uint64 and double eight, and every signed integer widens to 64-bit two's
// complement. Strings and sequences carry a u64 count, fixed arrays and
// spans do not, and std::vector<bool> packs eight flags per byte. Enums go
// through Enum(), which names the last valid enumerator.
//
// ReadArchive rejects hostile input instead of trusting it: a count larger
// than the remaining bytes could hold, a bool byte other than 0 or 1, an
// enum byte past its last enumerator, a signed value that does not fit its
// field, and whatever a Transfer's own Check() calls reject. The first
// failure is sticky: later fields read as zero and the caller rejects the
// whole section.
#ifndef SRC_SIM_ARCHIVE_H_
#define SRC_SIM_ARCHIVE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/sim/byte_io.h"

namespace graysim {

namespace archive_detail {

template <typename T>
inline constexpr bool kIsSequence = false;
template <typename T, typename A>
inline constexpr bool kIsSequence<std::vector<T, A>> = !std::is_same_v<T, bool>;
template <typename T, typename A>
inline constexpr bool kIsSequence<std::deque<T, A>> = true;

template <typename T>
inline constexpr bool kIsFixedRange = std::is_array_v<T>;
template <typename T, std::size_t N>
inline constexpr bool kIsFixedRange<std::array<T, N>> = true;
template <typename T, std::size_t N>
inline constexpr bool kIsFixedRange<std::span<T, N>> = true;

// Wire width of a scalar; 1 (a lower bound for counts) for anything else.
template <typename T>
constexpr int WireBytes() {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::uint8_t>) {
    return 1;
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return 4;
  } else if constexpr (std::is_arithmetic_v<T>) {
    static_assert(sizeof(T) == 8 || std::is_signed_v<T>, "no wire encoding for this type");
    return 8;
  } else {
    return 1;
  }
}

}  // namespace archive_detail

// Transfers one field of any supported kind.
template <typename Ar, typename T>
void TransferField(Ar& ar, T& x) {
  static_assert(!std::is_enum_v<T>, "encode enums with ar.Enum(x, last)");
  if constexpr (std::is_arithmetic_v<T>) {
    ar.Scalar(x);
  } else if constexpr (std::is_same_v<T, std::string> || std::is_same_v<T, std::vector<bool>>) {
    ar.Packed(x);
  } else if constexpr (archive_detail::kIsFixedRange<T>) {
    for (auto& e : x) {
      TransferField(ar, e);
    }
  } else if constexpr (archive_detail::kIsSequence<T>) {
    using E = typename T::value_type;
    std::uint64_t n = x.size();
    ar.Count(n, archive_detail::WireBytes<E>());
    if constexpr (Ar::kReading) {
      // Grown element by element: a count the input cannot back fails at
      // the end of the input rather than allocating up front.
      x.clear();
      for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
        TransferField(ar, x.emplace_back());
      }
    } else {
      for (E& e : x) {
        TransferField(ar, e);
      }
    }
  } else if constexpr (requires { x.Transfer(ar); }) {
    x.Transfer(ar);
  } else {
    Transfer(ar, x);
  }
}

class WriteArchive {
 public:
  static constexpr bool kReading = false;

  template <typename... Ts>
  void operator()(const Ts&... xs) {
    // Transfer functions take mutable references so that one list serves
    // both directions; the writing side only reads through them.
    (TransferField(*this, const_cast<Ts&>(xs)), ...);
  }

  template <typename E>
  void Enum(const E& e, E /*last*/) {
    w_.Le(static_cast<std::uint64_t>(e), 1);
  }
  // A count the reader validates against the bytes left.
  void Count(std::uint64_t n, std::size_t /*min_elem_bytes*/) { w_.Le(n, 8); }
  // Reader-side validation; the writer trusts in-memory state.
  void Check(bool /*cond*/) {}
  [[nodiscard]] bool ok() const { return true; }

  template <typename T>
  void Scalar(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      w_.Le(std::bit_cast<std::uint64_t>(v), 8);
    } else {
      w_.Le(static_cast<std::uint64_t>(v), archive_detail::WireBytes<T>());
    }
  }

  void Packed(const std::string& s) {
    w_.Le(s.size(), 8);
    w_.Bytes(s.data(), s.size());
  }

  void Packed(const std::vector<bool>& bits) {
    w_.Le(bits.size(), 8);
    for (std::size_t i = 0; i < bits.size(); i += 8) {
      std::uint8_t byte = 0;
      for (std::size_t k = 0; k < 8 && i + k < bits.size(); ++k) {
        byte |= static_cast<std::uint8_t>(bits[i + k] ? 1 : 0) << k;
      }
      w_.Le(byte, 1);
    }
  }

  [[nodiscard]] std::vector<std::uint8_t> Take() { return w_.Take(); }

 private:
  ByteWriter w_;
};

class ReadArchive {
 public:
  static constexpr bool kReading = true;

  ReadArchive(const std::uint8_t* data, std::size_t size) : r_(data, size) {}

  // Forwarding references, so a span over a member can be passed inline.
  template <typename... Ts>
  void operator()(Ts&&... xs) {
    (TransferField(*this, xs), ...);
  }

  template <typename E>
  void Enum(E& e, E last) {
    const std::uint64_t v = r_.Le(1);
    Check(v <= static_cast<std::uint64_t>(last));
    e = ok() ? static_cast<E>(v) : E{};
  }
  // Reads a count of elements occupying at least `min_elem_bytes` each.
  void Count(std::uint64_t& n, std::size_t min_elem_bytes) { n = r_.Count(min_elem_bytes); }
  void Check(bool cond) { failed_ = failed_ || !cond; }
  [[nodiscard]] bool ok() const { return !failed_ && r_.ok(); }
  // The whole input consumed without a failure: a well-formed section.
  [[nodiscard]] bool Done() const { return !failed_ && r_.Done(); }

  template <typename T>
  void Scalar(T& v) {
    const std::uint64_t raw = r_.Le(archive_detail::WireBytes<T>());
    if constexpr (std::is_same_v<T, bool>) {
      Check(raw <= 1);
      v = raw == 1;
    } else if constexpr (std::is_floating_point_v<T>) {
      v = std::bit_cast<double>(raw);
    } else if constexpr (std::is_signed_v<T> && sizeof(T) < sizeof(std::int64_t)) {
      const auto wide = static_cast<std::int64_t>(raw);
      Check(wide >= std::numeric_limits<T>::min() && wide <= std::numeric_limits<T>::max());
      v = static_cast<T>(wide);
    } else {
      v = static_cast<T>(raw);
    }
  }

  void Packed(std::string& s) {
    s.resize(r_.Count(1));
    if (!r_.Bytes(s.data(), s.size())) {
      s.clear();
    }
  }

  void Packed(std::vector<bool>& bits) {
    const std::uint64_t n = r_.Le(8);
    Check(n / 8 + (n % 8 != 0 ? 1 : 0) <= r_.remaining());
    bits.assign(ok() ? n : 0, false);
    for (std::size_t i = 0; i < bits.size(); i += 8) {
      const std::uint64_t byte = r_.Le(1);
      for (std::size_t k = 0; k < 8 && i + k < bits.size(); ++k) {
        bits[i + k] = ((byte >> k) & 1) != 0;
      }
    }
  }

 private:
  ByteReader r_;
  bool failed_ = false;
};

}  // namespace graysim

#endif  // SRC_SIM_ARCHIVE_H_
