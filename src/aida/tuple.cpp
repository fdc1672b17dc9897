#include "aida/tuple.hpp"

#include <algorithm>

namespace ipa::aida {

Tuple::Tuple(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

Status Tuple::fill(std::vector<double> row) {
  // A row without columns carries nothing, and decode() refuses the shape.
  if (columns_.empty()) return failed_precondition("tuple: '" + title_ + "' has no columns");
  if (row.size() != columns_.size()) {
    return invalid_argument("tuple: row width " + std::to_string(row.size()) +
                            " != column count " + std::to_string(columns_.size()));
  }
  rows_.push_back(std::move(row));
  return Status::ok();
}

Result<std::size_t> Tuple::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  return not_found("tuple: no column '" + std::string(name) + "'");
}

Result<std::vector<double>> Tuple::column(std::string_view name) const {
  IPA_ASSIGN_OR_RETURN(const std::size_t index, column_index(name));
  std::vector<double> out;
  out.reserve(rows_.size());
  for (const auto& row : rows_) out.push_back(row[index]);
  return out;
}

Status Tuple::merge(const Tuple& other) {
  if (columns_ != other.columns_) {
    return failed_precondition("tuple: column schema mismatch for '" + title_ + "'");
  }
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
  return Status::ok();
}

void Tuple::encode(ser::Writer& w) const {
  w.string(title_);
  w.vector(columns_, [](ser::Writer& ww, const std::string& c) { ww.string(c); });
  w.string_map(annotation_);
  w.varint(rows_.size());
  for (const auto& row : rows_) {
    for (const double v : row) w.f64(v);
  }
}

Result<Tuple> Tuple::decode(ser::Reader& r) {
  Tuple tuple;
  IPA_ASSIGN_OR_RETURN(tuple.title_, r.string());
  {
    auto columns = r.vector<std::string>([](ser::Reader& rr) { return rr.string(); });
    IPA_RETURN_IF_ERROR(columns.status());
    tuple.columns_ = std::move(*columns);
  }
  IPA_ASSIGN_OR_RETURN(tuple.annotation_, r.string_map());
  IPA_ASSIGN_OR_RETURN(const std::uint64_t row_count, r.varint());
  const std::size_t width = tuple.columns_.size();
  // Empty rows cost no input bytes but a vector each: refuse the shape
  // fill() never produces rather than allocate for it.
  if (width == 0 && row_count > 0) return data_loss("tuple: rows without columns");
  if (row_count > ser::Reader::kMaxFieldLen / (width ? width : 1)) {
    return data_loss("tuple: implausible row count");
  }
  // A row is `width` doubles, so the input bounds the reserve.
  const std::size_t row_bytes = width * sizeof(double);
  tuple.rows_.reserve(static_cast<std::size_t>(
      row_bytes ? std::min<std::uint64_t>(row_count, r.remaining() / row_bytes) : 0));
  for (std::uint64_t i = 0; i < row_count; ++i) {
    std::vector<double> row(width);
    for (double& v : row) {
      IPA_ASSIGN_OR_RETURN(v, r.f64());
    }
    tuple.rows_.push_back(std::move(row));
  }
  return tuple;
}

}  // namespace ipa::aida
