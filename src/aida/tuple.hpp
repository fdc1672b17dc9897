// N-column numeric tuple (AIDA ITuple analogue): per-event rows the analyst
// wants to keep raw, e.g. for later re-binning on the client.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "serialize/serialize.hpp"

namespace ipa::aida {

class Tuple {
 public:
  Tuple() = default;
  Tuple(std::string title, std::vector<std::string> columns);

  const std::string& title() const { return title_; }
  const std::vector<std::string>& columns() const { return columns_; }
  std::map<std::string, std::string>& annotation() { return annotation_; }
  const std::map<std::string, std::string>& annotation() const { return annotation_; }

  /// Append a row; its width must equal the column count, and a tuple
  /// without columns takes no rows (kFailedPrecondition).
  Status fill(std::vector<double> row);

  std::size_t rows() const { return rows_.size(); }
  const std::vector<double>& row(std::size_t i) const { return rows_[i]; }

  /// Column index by name; kNotFound for unknown names.
  Result<std::size_t> column_index(std::string_view name) const;

  /// Extract one column as a vector.
  Result<std::vector<double>> column(std::string_view name) const;

  /// Merge: rows concatenate; column schemas must match exactly.
  Status merge(const Tuple& other);

  void encode(ser::Writer& w) const;
  static Result<Tuple> decode(ser::Reader& r);

  friend bool operator==(const Tuple& a, const Tuple& b) = default;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::map<std::string, std::string> annotation_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace ipa::aida
