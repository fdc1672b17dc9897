#include "data/record.hpp"

#include <algorithm>

namespace ipa::data {

void Record::set(std::string name, Value value) {
  for (auto& [key, existing] : fields_) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  // Most records carry a handful of fields; one up-front reservation avoids
  // the doubling reallocations of growing from zero.
  if (fields_.empty()) fields_.reserve(kLinearLookupMax);
  fields_.emplace_back(std::move(name), std::move(value));
  sorted_.clear();  // appended name invalidates the sorted view
}

const Value* Record::find(std::string_view name) const {
  if (fields_.size() <= kLinearLookupMax) {
    for (const auto& [key, value] : fields_) {
      if (key == name) return &value;
    }
    return nullptr;
  }
  return find_sorted(name);
}

const Value* Record::find_sorted(std::string_view name) const {
  if (sorted_.size() != fields_.size()) {
    sorted_.resize(fields_.size());
    for (std::uint32_t i = 0; i < sorted_.size(); ++i) sorted_[i] = i;
    // Stable tie-break on position so duplicate names (possible via
    // decode()) resolve to the first occurrence, matching the linear scan.
    std::sort(sorted_.begin(), sorted_.end(), [this](std::uint32_t a, std::uint32_t b) {
      const int cmp = fields_[a].first.compare(fields_[b].first);
      return cmp != 0 ? cmp < 0 : a < b;
    });
  }
  const auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), name,
      [this](std::uint32_t i, std::string_view key) { return fields_[i].first < key; });
  if (it == sorted_.end() || fields_[*it].first != name) return nullptr;
  return &fields_[*it].second;
}

double Record::real_or(std::string_view name, double fallback) const {
  const Value* v = find(name);
  if (v == nullptr) return fallback;
  const auto num = v->to_number();
  return num.is_ok() ? *num : fallback;
}

std::int64_t Record::int_or(std::string_view name, std::int64_t fallback) const {
  const Value* v = find(name);
  if (v == nullptr || !v->is_int()) return fallback;
  return v->as_int();
}

std::string Record::str_or(std::string_view name, std::string fallback) const {
  const Value* v = find(name);
  if (v == nullptr || !v->is_str()) return fallback;
  return v->as_str();
}

const Value::RealVec* Record::vec_or_null(std::string_view name) const {
  const Value* v = find(name);
  if (v == nullptr || !v->is_vec()) return nullptr;
  return &v->as_vec();
}

void Record::encode(ser::Writer& w) const {
  w.varint(index_);
  w.varint(fields_.size());
  for (const auto& [name, value] : fields_) {
    w.string(name);
    value.encode(w);
  }
}

Result<Record> Record::decode(ser::Reader& r) {
  Record record;
  IPA_ASSIGN_OR_RETURN(const std::uint64_t index, r.varint());
  record.index_ = index;
  IPA_ASSIGN_OR_RETURN(const std::uint64_t count, r.varint());
  if (count > 4096) return data_loss("record: implausible field count");
  // A field is at least a name length and a tag: two bytes.
  record.fields_.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(count, r.remaining() / 2)));
  for (std::uint64_t i = 0; i < count; ++i) {
    IPA_ASSIGN_OR_RETURN(std::string name, r.string());
    auto value = Value::decode(r);
    IPA_RETURN_IF_ERROR(value.status());
    record.fields_.emplace_back(std::move(name), std::move(*value));
  }
  return record;
}

std::size_t Record::encoded_size_hint() const {
  std::size_t size = 10;
  for (const auto& [name, value] : fields_) {
    size += name.size() + 2;
    if (value.is_str()) {
      size += value.as_str().size() + 2;
    } else if (value.is_vec()) {
      size += value.as_vec().size() * 8 + 2;
    } else {
      size += 9;
    }
  }
  return size;
}

}  // namespace ipa::data
