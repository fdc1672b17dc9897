#include "data/value.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace ipa::data {
namespace {

constexpr std::uint8_t kTagInt = 0;
constexpr std::uint8_t kTagReal = 1;
constexpr std::uint8_t kTagStr = 2;
constexpr std::uint8_t kTagVec = 3;

}  // namespace

Result<double> Value::to_number() const {
  if (is_real()) return as_real();
  if (is_int()) return static_cast<double>(as_int());
  return invalid_argument("value: not numeric (" + to_string() + ")");
}

std::string Value::to_string() const {
  if (is_int()) return std::to_string(as_int());
  if (is_real()) return strings::format("%g", as_real());
  if (is_str()) return "\"" + as_str() + "\"";
  std::string out = "[";
  const RealVec& vec = as_vec();
  for (std::size_t i = 0; i < vec.size(); ++i) {
    if (i) out += ", ";
    out += strings::format("%g", vec[i]);
  }
  out += "]";
  return out;
}

void Value::encode(ser::Writer& w) const {
  if (is_int()) {
    w.u8(kTagInt);
    w.svarint(as_int());
  } else if (is_real()) {
    w.u8(kTagReal);
    w.f64(as_real());
  } else if (is_str()) {
    w.u8(kTagStr);
    w.string(as_str());
  } else {
    w.u8(kTagVec);
    const RealVec& vec = as_vec();
    w.varint(vec.size());
    for (const double x : vec) w.f64(x);
  }
}

Result<Value> Value::decode(ser::Reader& r) {
  IPA_ASSIGN_OR_RETURN(const std::uint8_t tag, r.u8());
  switch (tag) {
    case kTagInt: {
      IPA_ASSIGN_OR_RETURN(const std::int64_t v, r.svarint());
      return Value(v);
    }
    case kTagReal: {
      IPA_ASSIGN_OR_RETURN(const double v, r.f64());
      return Value(v);
    }
    case kTagStr: {
      IPA_ASSIGN_OR_RETURN(std::string v, r.string());
      return Value(std::move(v));
    }
    case kTagVec: {
      IPA_ASSIGN_OR_RETURN(const std::uint64_t count, r.varint());
      if (count > ser::Reader::kMaxFieldLen / sizeof(double)) {
        return data_loss("value: vector too large");
      }
      RealVec vec;
      vec.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(count, r.remaining() / sizeof(double))));
      for (std::uint64_t i = 0; i < count; ++i) {
        IPA_ASSIGN_OR_RETURN(const double x, r.f64());
        vec.push_back(x);
      }
      return Value(std::move(vec));
    }
    default:
      return data_loss("value: unknown tag " + std::to_string(tag));
  }
}

}  // namespace ipa::data
