#include "support/bytes.hpp"

#include <bit>

namespace surgeon::support {

void ByteWriter::put_uint(std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    int shift = (order_ == ByteOrder::kBig) ? (width - 1 - i) * 8 : i * 8;
    bytes_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void ByteWriter::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void ByteWriter::put_raw(std::span<const std::uint8_t> raw) {
  bytes_.insert(bytes_.end(), raw.begin(), raw.end());
}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw VmError("byte buffer underrun: need " + std::to_string(n) +
                  " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::get_u8() {
  require(1);
  return bytes_[pos_++];
}

std::uint64_t ByteReader::get_uint(int width) {
  require(static_cast<std::size_t>(width));
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    int shift = (order_ == ByteOrder::kBig) ? (width - 1 - i) * 8 : i * 8;
    v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
         << shift;
  }
  pos_ += static_cast<std::size_t>(width);
  return v;
}

double ByteReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string ByteReader::get_string() {
  std::uint32_t n = get_u32();
  require(n);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::span<const std::uint8_t> ByteReader::get_raw(std::size_t n) {
  require(n);
  const std::span<const std::uint8_t> raw = bytes_.subspan(pos_, n);
  pos_ += n;
  return raw;
}

void store_u64(std::uint8_t* dst, std::uint64_t v, ByteOrder order) noexcept {
  for (int i = 0; i < 8; ++i) {
    int shift = (order == ByteOrder::kBig) ? (7 - i) * 8 : i * 8;
    dst[i] = static_cast<std::uint8_t>((v >> shift) & 0xff);
  }
}

std::uint64_t load_u64(const std::uint8_t* src, ByteOrder order) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    int shift = (order == ByteOrder::kBig) ? (7 - i) * 8 : i * 8;
    v |= static_cast<std::uint64_t>(src[i]) << shift;
  }
  return v;
}

}  // namespace surgeon::support
