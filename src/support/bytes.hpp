// Byte buffers with explicit endianness control.
//
// The simulated machines in surgeon::net have different native byte orders;
// the abstract state format is always big-endian ("network order", as the
// POLYLITH bus would marshal it). These helpers make every conversion
// explicit so a raw memcpy can never silently cross an architecture
// boundary.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "support/diag.hpp"

namespace surgeon::support {

enum class ByteOrder { kLittle, kBig };

/// Appends scalar values to a byte vector in a chosen byte order.
class ByteWriter {
 public:
  explicit ByteWriter(ByteOrder order = ByteOrder::kBig) : order_(order) {}

  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u16(std::uint16_t v) { put_uint(v, 2); }
  void put_u32(std::uint32_t v) { put_uint(v, 4); }
  void put_u64(std::uint64_t v) { put_uint(v, 8); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);
  /// Length-prefixed (u32) byte string.
  void put_string(std::string_view s);
  void put_raw(std::span<const std::uint8_t> raw);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(bytes_); }
  [[nodiscard]] ByteOrder order() const noexcept { return order_; }

 private:
  void put_uint(std::uint64_t v, int width);

  ByteOrder order_;
  std::vector<std::uint8_t> bytes_;
};

/// Reads scalar values back out of a byte span. Throws VmError on underrun,
/// because a short read always indicates a corrupted state buffer.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes,
             ByteOrder order = ByteOrder::kBig)
      : bytes_(bytes), order_(order) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint16_t get_u16() {
    return static_cast<std::uint16_t>(get_uint(2));
  }
  [[nodiscard]] std::uint32_t get_u32() {
    return static_cast<std::uint32_t>(get_uint(4));
  }
  [[nodiscard]] std::uint64_t get_u64() { return get_uint(8); }
  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::string get_string();
  /// The next `n` bytes, as they are.
  [[nodiscard]] std::span<const std::uint8_t> get_raw(std::size_t n);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool at_end() const noexcept { return remaining() == 0; }

 private:
  [[nodiscard]] std::uint64_t get_uint(int width);
  void require(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  ByteOrder order_;
  std::size_t pos_ = 0;
};

/// Host-independent scalar store/load used for VM frame slots: the value is
/// laid out in `order` byte order at `dst`, which must have 8 bytes.
void store_u64(std::uint8_t* dst, std::uint64_t v, ByteOrder order) noexcept;
[[nodiscard]] std::uint64_t load_u64(const std::uint8_t* src,
                                     ByteOrder order) noexcept;

}  // namespace surgeon::support
