// Host bindings: expose dataset record batches and the AIDA tree to
// PawScript.
//
// This is the contract analysis scripts are written against (mirrors the
// paper's Java AIDA API used from PNUTS):
//
//   func begin(tree)          - book objects, once per (re)start
//   func process(event, tree) - called for every record, in dataset order
//   func end(tree)            - optional final hook
//
//   event.get("field")  -> number | string | list   (kNotFound if absent)
//   event.num("field", fallback) / event.str("field", fallback)
//   event.has("field") -> bool
//   event.index() -> number (record index in the parent dataset)
//
//   tree.book_h1(path, bins, lo, hi [, title])
//   tree.book_h2(path, xbins, xlo, xhi, ybins, ylo, yhi [, title])
//   tree.book_prof(path, bins, lo, hi [, title])
//   tree.book_cloud(path [, title])
//   tree.book_tuple(path, [columns...])
//   tree.fill(path, x [, weight])       - Histogram1D or Cloud1D
//   tree.fill2(path, x, y [, weight])   - Histogram2D or Profile1D
//   tree.fill_row(path, [values...])    - Tuple
#pragma once

#include <cstddef>
#include <memory>

#include "aida/tree.hpp"
#include "data/record_batch.hpp"
#include "script/value.hpp"

namespace ipa::script {

/// The `event` object: a cursor over one RecordBatch. The analyzer moves it
/// with set_row() between process() calls. Each method looks its field up
/// in the batch's schema and reads that row's cell by slot id; a call site
/// with a literal field name keeps the slot until the schema or its
/// version changes. The batch must outlive the cursor.
class EventCursor final : public NativeObject {
 public:
  explicit EventCursor(const data::RecordBatch* batch) : batch_(batch) {}

  void set_row(std::size_t row) { row_ = row; }

  std::string_view type_name() const override { return "event"; }
  Method find_method(std::string_view name) const override;

 private:
  static Result<Value> get(NativeObject& self, std::span<const Value> args, CallSiteCache* cache);
  static Result<Value> num(NativeObject& self, std::span<const Value> args, CallSiteCache* cache);
  static Result<Value> str(NativeObject& self, std::span<const Value> args, CallSiteCache* cache);
  static Result<Value> has(NativeObject& self, std::span<const Value> args, CallSiteCache* cache);
  static Result<Value> index(NativeObject& self, std::span<const Value> args, CallSiteCache*);

  /// The slot of the field named by args[0] (kNoSlot when absent), from
  /// `cache` while it matches this batch's schema and version.
  int slot(const std::string& name, CallSiteCache* cache) const;

  const data::RecordBatch* batch_;
  std::size_t row_ = 0;
};

/// Wrap a tree for script access. The tree must outlive the value. A fill
/// call site with a literal path keeps the object's handle until the
/// tree's generation changes (a booking, removal, clear or merge).
std::shared_ptr<NativeObject> make_tree_object(aida::Tree* tree);

}  // namespace ipa::script
