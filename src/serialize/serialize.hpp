// Binary serialization: the wire format shared by the RPC layer, the .ipd
// dataset file format and AIDA histogram snapshots.
//
// Encoding rules (little-endian):
//   u8/u16/u32/u64  - fixed width
//   varint          - LEB128 unsigned; zigzag for signed
//   f64             - IEEE-754 bit pattern, fixed 8 bytes
//   string/bytes    - varint length + payload
//   vector<T>       - varint count + elements
//
// Readers are bounds-checked and return Status on truncated or oversized
// input; a malformed peer message can never crash a service.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace ipa::ser {

using Bytes = std::vector<std::uint8_t>;

class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    append_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// LEB128 unsigned varint.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zigzag-encoded signed varint.
  void svarint(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

  void string(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Bulk fixed-width doubles (columnar payloads); count is NOT written —
  /// pair with f64_array() reads framed by an external count.
  void f64_array(const double* data, std::size_t n) {
    if constexpr (std::endian::native == std::endian::little) {
      // IEEE-754 doubles already match the wire byte order on little-endian
      // targets; one insert replaces 8 shift-and-push steps per element.
      const auto* p = reinterpret_cast<const std::uint8_t*>(data);
      buf_.insert(buf_.end(), p, p + n * sizeof(double));
    } else {
      for (std::size_t i = 0; i < n; ++i) f64(data[i]);
    }
  }

  void bytes(const Bytes& b) {
    varint(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  template <typename T, typename Fn>
  void vector(const std::vector<T>& items, Fn&& write_one) {
    varint(items.size());
    for (const T& item : items) write_one(*this, item);
  }

  void string_map(const std::map<std::string, std::string>& m) {
    varint(m.size());
    for (const auto& [k, v] : m) {
      string(k);
      string(v);
    }
  }

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  /// Sanity cap for length-prefixed fields: a corrupt length can't trigger
  /// a multi-gigabyte allocation.
  static constexpr std::uint64_t kMaxFieldLen = 1ULL << 30;

  Result<std::uint8_t> u8() {
    IPA_RETURN_IF_ERROR(need(1));
    return data_[pos_++];
  }
  Result<std::uint16_t> u16() { return read_le<std::uint16_t>(); }
  Result<std::uint32_t> u32() { return read_le<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return read_le<std::uint64_t>(); }

  Result<double> f64() {
    IPA_ASSIGN_OR_RETURN(const std::uint64_t bits, read_le<std::uint64_t>());
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  Result<bool> boolean() {
    IPA_ASSIGN_OR_RETURN(const std::uint8_t b, u8());
    if (b > 1) return data_loss("bool byte out of range");
    return b == 1;
  }

  Result<std::uint64_t> varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      IPA_RETURN_IF_ERROR(need(1));
      const std::uint8_t byte = data_[pos_++];
      if (shift >= 64 || (shift == 63 && (byte & 0x7e) != 0)) {
        return data_loss("varint overflow");
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  Result<std::int64_t> svarint() {
    IPA_ASSIGN_OR_RETURN(const std::uint64_t z, varint());
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  Result<std::string> string() {
    IPA_ASSIGN_OR_RETURN(const std::uint64_t len, varint());
    if (len > kMaxFieldLen) return data_loss("string length too large");
    IPA_RETURN_IF_ERROR(need(len));
    std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return out;
  }

  /// Zero-copy string read: the view aliases the reader's buffer and is
  /// valid only while the underlying bytes live. Used by the columnar batch
  /// decoder to intern field names without a per-record allocation.
  Result<std::string_view> string_view() {
    IPA_ASSIGN_OR_RETURN(const std::uint64_t len, varint());
    if (len > kMaxFieldLen) return data_loss("string length too large");
    IPA_RETURN_IF_ERROR(need(len));
    std::string_view out(reinterpret_cast<const char*>(data_ + pos_),
                         static_cast<std::size_t>(len));
    pos_ += len;
    return out;
  }

  /// Bulk fixed-width doubles into caller storage (columnar payloads).
  Status f64_array(double* out, std::size_t n) {
    IPA_RETURN_IF_ERROR(need(n * sizeof(double)));
    if (n == 0) return Status::ok();  // `out` may be null: memcpy forbids that even for 0 bytes
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, data_ + pos_, n * sizeof(double));
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits = 0;
        for (std::size_t b = 0; b < sizeof(double); ++b) {
          bits |= static_cast<std::uint64_t>(data_[pos_ + i * sizeof(double) + b]) << (8 * b);
        }
        std::memcpy(&out[i], &bits, sizeof(double));
      }
    }
    pos_ += n * sizeof(double);
    return Status::ok();
  }

  Result<Bytes> bytes() {
    IPA_ASSIGN_OR_RETURN(const std::uint64_t len, varint());
    if (len > kMaxFieldLen) return data_loss("bytes length too large");
    IPA_RETURN_IF_ERROR(need(len));
    Bytes out(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return out;
  }

  template <typename T, typename Fn>
  Result<std::vector<T>> vector(Fn&& read_one) {
    IPA_ASSIGN_OR_RETURN(const std::uint64_t count, varint());
    if (count > kMaxFieldLen) return data_loss("vector count too large");
    std::vector<T> out;
    // Every element takes at least one byte, so the input bounds the reserve.
    out.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(count, remaining())));
    for (std::uint64_t i = 0; i < count; ++i) {
      Result<T> item = read_one(*this);
      IPA_RETURN_IF_ERROR(item.status());
      out.push_back(std::move(item).value());
    }
    return out;
  }

  Result<std::map<std::string, std::string>> string_map() {
    IPA_ASSIGN_OR_RETURN(const std::uint64_t count, varint());
    if (count > kMaxFieldLen) return data_loss("map count too large");
    std::map<std::string, std::string> out;
    for (std::uint64_t i = 0; i < count; ++i) {
      IPA_ASSIGN_OR_RETURN(std::string key, string());
      IPA_ASSIGN_OR_RETURN(std::string value, string());
      out.emplace(std::move(key), std::move(value));
    }
    return out;
  }

  Status skip(std::size_t n) {
    IPA_RETURN_IF_ERROR(need(n));
    pos_ += n;
    return Status::ok();
  }

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  Status need(std::uint64_t n) const {
    if (pos_ + n > size_ || pos_ + n < pos_) {
      return data_loss("truncated input: need " + std::to_string(n) + " bytes at offset " +
                       std::to_string(pos_) + " of " + std::to_string(size_));
    }
    return Status::ok();
  }

  template <typename T>
  Result<T> read_le() {
    IPA_RETURN_IF_ERROR(need(sizeof(T)));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace ipa::ser
