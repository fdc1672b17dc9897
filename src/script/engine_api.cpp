#include "script/engine_api.hpp"

#include <climits>
#include <utility>

#include "common/strings.hpp"

namespace ipa::script {

namespace {

using CellKind = data::RecordBatch::CellKind;

/// A method table entry: the name a script calls and its implementation.
using MethodEntry = std::pair<std::string_view, NativeObject::Method>;

template <std::size_t N>
NativeObject::Method lookup(const MethodEntry (&table)[N], std::string_view name) {
  for (const auto& [method_name, method] : table) {
    if (method_name == name) return method;
  }
  return nullptr;
}

/// args[i] when it is a string, else null (arg_string then gives the error
/// without the hot path copying the name).
const std::string* string_arg(std::span<const Value> args, std::size_t i) {
  return i < args.size() && args[i].is_string() ? &args[i].string() : nullptr;
}

/// A bin count from args[i]. A NaN, an infinity or a count outside int
/// fails before the conversion; the axis rejects counts below 1.
Result<int> arg_bins(std::span<const Value> args, std::size_t i, const char* what) {
  IPA_ASSIGN_OR_RETURN(const double bins, arg_number(args, i, what));
  if (!(bins > static_cast<double>(INT_MIN) - 1.0 && bins < static_cast<double>(INT_MAX) + 1.0)) {
    return invalid_argument(strings::format("%s: bin count %g out of range", what, bins));
  }
  return static_cast<int>(bins);
}

}  // namespace

NativeObject::Method EventCursor::find_method(std::string_view name) const {
  static constexpr MethodEntry kMethods[] = {
      {"get", &EventCursor::get}, {"num", &EventCursor::num}, {"str", &EventCursor::str},
      {"has", &EventCursor::has}, {"index", &EventCursor::index},
  };
  return lookup(kMethods, name);
}

int EventCursor::slot(const std::string& name, CallSiteCache* cache) const {
  const data::Schema& schema = batch_->schema();
  if (cache != nullptr && cache->owner == &schema && cache->version == schema.version()) {
    return cache->slot;
  }
  const int slot = schema.slot_of(name);
  if (cache != nullptr) {
    cache->owner = &schema;
    cache->version = schema.version();
    cache->slot = slot;
    cache->pin = batch_->schema_ptr();
  }
  return slot;
}

Result<Value> EventCursor::get(NativeObject& self, std::span<const Value> args,
                               CallSiteCache* cache) {
  const auto& event = static_cast<const EventCursor&>(self);
  IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, "event.get"));
  const std::string* name = string_arg(args, 0);
  if (name == nullptr) return arg_string(args, 0, "event.get").status();
  const data::RecordBatch& batch = *event.batch_;
  const std::size_t row = event.row_;
  const int slot = event.slot(*name, cache);
  const auto kind = slot == data::Schema::kNoSlot ? CellKind::kNull : batch.cell_kind(slot, row);
  switch (kind) {
    case CellKind::kNull:
      return not_found("event.get: no field '" + *name + "'");
    case CellKind::kInt:
      return Value(static_cast<double>(batch.cell_int(slot, row)));
    case CellKind::kReal:
      return Value(batch.cell_real(slot, row));
    case CellKind::kStr:
      return Value(batch.cell_str(slot, row));
    case CellKind::kVec: {
      const auto vec = batch.cell_vec(slot, row);
      List items;
      items.reserve(vec.size());
      for (const double x : vec) items.push_back(Value(x));
      return Value::list(std::move(items));
    }
  }
  return internal_error("event.get: unreachable cell kind");
}

Result<Value> EventCursor::num(NativeObject& self, std::span<const Value> args,
                               CallSiteCache* cache) {
  const auto& event = static_cast<const EventCursor&>(self);
  IPA_RETURN_IF_ERROR(check_arity(args, 1, 2, "event.num"));
  const std::string* name = string_arg(args, 0);
  if (name == nullptr) return arg_string(args, 0, "event.num").status();
  double fallback = 0;
  if (args.size() == 2) {
    IPA_ASSIGN_OR_RETURN(fallback, arg_number(args, 1, "event.num"));
  }
  const int slot = event.slot(*name, cache);
  double out = fallback;
  if (slot != data::Schema::kNoSlot && event.batch_->cell_number(slot, event.row_, &out)) {
    return Value(out);
  }
  return Value(fallback);
}

Result<Value> EventCursor::str(NativeObject& self, std::span<const Value> args,
                               CallSiteCache* cache) {
  const auto& event = static_cast<const EventCursor&>(self);
  IPA_RETURN_IF_ERROR(check_arity(args, 1, 2, "event.str"));
  const std::string* name = string_arg(args, 0);
  if (name == nullptr) return arg_string(args, 0, "event.str").status();
  std::string fallback;
  if (args.size() == 2) {
    IPA_ASSIGN_OR_RETURN(fallback, arg_string(args, 1, "event.str"));
  }
  const int slot = event.slot(*name, cache);
  if (slot != data::Schema::kNoSlot &&
      event.batch_->cell_kind(slot, event.row_) == CellKind::kStr) {
    return Value(event.batch_->cell_str(slot, event.row_));
  }
  return Value(std::move(fallback));
}

Result<Value> EventCursor::has(NativeObject& self, std::span<const Value> args,
                               CallSiteCache* cache) {
  const auto& event = static_cast<const EventCursor&>(self);
  IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, "event.has"));
  const std::string* name = string_arg(args, 0);
  if (name == nullptr) return arg_string(args, 0, "event.has").status();
  const int slot = event.slot(*name, cache);
  return Value(slot != data::Schema::kNoSlot &&
               event.batch_->cell_kind(slot, event.row_) != CellKind::kNull);
}

Result<Value> EventCursor::index(NativeObject& self, std::span<const Value> args,
                                 CallSiteCache*) {
  const auto& event = static_cast<const EventCursor&>(self);
  IPA_RETURN_IF_ERROR(check_arity(args, 0, 0, "event.index"));
  return Value(static_cast<double>(event.batch_->index(event.row_)));
}

namespace {

class TreeObject final : public NativeObject {
 public:
  explicit TreeObject(aida::Tree* tree) : tree_(tree) {}

  std::string_view type_name() const override { return "tree"; }

  Method find_method(std::string_view name) const override {
    static constexpr MethodEntry kMethods[] = {
        {"book_h1", &TreeObject::book_h1},       {"book_h2", &TreeObject::book_h2},
        {"book_prof", &TreeObject::book_prof},   {"book_cloud", &TreeObject::book_cloud},
        {"book_tuple", &TreeObject::book_tuple}, {"fill", &TreeObject::fill},
        {"fill2", &TreeObject::fill2},           {"fill_row", &TreeObject::fill_row},
    };
    return lookup(kMethods, name);
  }

 private:
  static aida::Tree& tree(NativeObject& self) { return *static_cast<TreeObject&>(self).tree_; }

  /// The object at `path`, from `cache` while the tree is still in the
  /// generation it was found in. Generations are unique across trees, so a
  /// new tree at a freed tree's address never matches.
  static Result<aida::Object*> object(aida::Tree& tree, const std::string& path,
                                      CallSiteCache* cache) {
    if (cache != nullptr && cache->owner == &tree && cache->version == tree.generation()) {
      return static_cast<aida::Object*>(cache->handle);
    }
    IPA_ASSIGN_OR_RETURN(aida::Object* found, tree.find(path));
    if (cache != nullptr) {
      cache->owner = &tree;
      cache->version = tree.generation();
      cache->handle = found;
    }
    return found;
  }

  static Result<Value> book_h1(NativeObject& self, std::span<const Value> args, CallSiteCache*) {
    IPA_RETURN_IF_ERROR(check_arity(args, 4, 5, "tree.book_h1"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.book_h1"));
    IPA_ASSIGN_OR_RETURN(const int bins, arg_bins(args, 1, "tree.book_h1"));
    IPA_ASSIGN_OR_RETURN(const double lo, arg_number(args, 2, "tree.book_h1"));
    IPA_ASSIGN_OR_RETURN(const double hi, arg_number(args, 3, "tree.book_h1"));
    std::string title = path;
    if (args.size() == 5) {
      IPA_ASSIGN_OR_RETURN(title, arg_string(args, 4, "tree.book_h1"));
    }
    auto hist = aida::Histogram1D::create(title, bins, lo, hi);
    IPA_RETURN_IF_ERROR(hist.status());
    tree(self).put(path, std::move(*hist));
    return Value::nil();
  }

  static Result<Value> book_h2(NativeObject& self, std::span<const Value> args, CallSiteCache*) {
    IPA_RETURN_IF_ERROR(check_arity(args, 7, 8, "tree.book_h2"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.book_h2"));
    IPA_ASSIGN_OR_RETURN(const int xbins, arg_bins(args, 1, "tree.book_h2"));
    IPA_ASSIGN_OR_RETURN(const double xlo, arg_number(args, 2, "tree.book_h2"));
    IPA_ASSIGN_OR_RETURN(const double xhi, arg_number(args, 3, "tree.book_h2"));
    IPA_ASSIGN_OR_RETURN(const int ybins, arg_bins(args, 4, "tree.book_h2"));
    IPA_ASSIGN_OR_RETURN(const double ylo, arg_number(args, 5, "tree.book_h2"));
    IPA_ASSIGN_OR_RETURN(const double yhi, arg_number(args, 6, "tree.book_h2"));
    std::string title = path;
    if (args.size() == 8) {
      IPA_ASSIGN_OR_RETURN(title, arg_string(args, 7, "tree.book_h2"));
    }
    auto hist = aida::Histogram2D::create(title, xbins, xlo, xhi, ybins, ylo, yhi);
    IPA_RETURN_IF_ERROR(hist.status());
    tree(self).put(path, std::move(*hist));
    return Value::nil();
  }

  static Result<Value> book_prof(NativeObject& self, std::span<const Value> args,
                                 CallSiteCache*) {
    IPA_RETURN_IF_ERROR(check_arity(args, 4, 5, "tree.book_prof"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.book_prof"));
    IPA_ASSIGN_OR_RETURN(const int bins, arg_bins(args, 1, "tree.book_prof"));
    IPA_ASSIGN_OR_RETURN(const double lo, arg_number(args, 2, "tree.book_prof"));
    IPA_ASSIGN_OR_RETURN(const double hi, arg_number(args, 3, "tree.book_prof"));
    std::string title = path;
    if (args.size() == 5) {
      IPA_ASSIGN_OR_RETURN(title, arg_string(args, 4, "tree.book_prof"));
    }
    auto profile = aida::Profile1D::create(title, bins, lo, hi);
    IPA_RETURN_IF_ERROR(profile.status());
    tree(self).put(path, std::move(*profile));
    return Value::nil();
  }

  static Result<Value> book_cloud(NativeObject& self, std::span<const Value> args,
                                  CallSiteCache*) {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 2, "tree.book_cloud"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.book_cloud"));
    std::string title = path;
    if (args.size() == 2) {
      IPA_ASSIGN_OR_RETURN(title, arg_string(args, 1, "tree.book_cloud"));
    }
    tree(self).put(path, aida::Cloud1D(title));
    return Value::nil();
  }

  static Result<Value> book_tuple(NativeObject& self, std::span<const Value> args,
                                  CallSiteCache*) {
    IPA_RETURN_IF_ERROR(check_arity(args, 2, 2, "tree.book_tuple"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.book_tuple"));
    IPA_ASSIGN_OR_RETURN(const auto columns, arg_list(args, 1, "tree.book_tuple"));
    std::vector<std::string> names;
    names.reserve(columns->size());
    for (const Value& c : *columns) {
      if (!c.is_string()) return invalid_argument("tree.book_tuple: columns must be strings");
      names.push_back(c.string());
    }
    tree(self).put(path, aida::Tuple(path, std::move(names)));
    return Value::nil();
  }

  static Result<Value> fill(NativeObject& self, std::span<const Value> args,
                            CallSiteCache* cache) {
    IPA_RETURN_IF_ERROR(check_arity(args, 2, 3, "tree.fill"));
    const std::string* path = string_arg(args, 0);
    if (path == nullptr) return arg_string(args, 0, "tree.fill").status();
    IPA_ASSIGN_OR_RETURN(const double x, arg_number(args, 1, "tree.fill"));
    double weight = 1.0;
    if (args.size() == 3) {
      IPA_ASSIGN_OR_RETURN(weight, arg_number(args, 2, "tree.fill"));
    }
    IPA_ASSIGN_OR_RETURN(aida::Object* object, TreeObject::object(tree(self), *path, cache));
    if (auto* hist = std::get_if<aida::Histogram1D>(object)) {
      hist->fill(x, weight);
      return Value::nil();
    }
    if (auto* cloud = std::get_if<aida::Cloud1D>(object)) {
      cloud->fill(x, weight);
      return Value::nil();
    }
    return failed_precondition("tree.fill: '" + *path + "' is " +
                               std::string(aida::object_kind(*object)) +
                               ", need Histogram1D or Cloud1D");
  }

  static Result<Value> fill2(NativeObject& self, std::span<const Value> args,
                             CallSiteCache* cache) {
    IPA_RETURN_IF_ERROR(check_arity(args, 3, 4, "tree.fill2"));
    const std::string* path = string_arg(args, 0);
    if (path == nullptr) return arg_string(args, 0, "tree.fill2").status();
    IPA_ASSIGN_OR_RETURN(const double x, arg_number(args, 1, "tree.fill2"));
    IPA_ASSIGN_OR_RETURN(const double y, arg_number(args, 2, "tree.fill2"));
    double weight = 1.0;
    if (args.size() == 4) {
      IPA_ASSIGN_OR_RETURN(weight, arg_number(args, 3, "tree.fill2"));
    }
    IPA_ASSIGN_OR_RETURN(aida::Object* object, TreeObject::object(tree(self), *path, cache));
    if (auto* hist = std::get_if<aida::Histogram2D>(object)) {
      hist->fill(x, y, weight);
      return Value::nil();
    }
    if (auto* profile = std::get_if<aida::Profile1D>(object)) {
      profile->fill(x, y, weight);
      return Value::nil();
    }
    return failed_precondition("tree.fill2: '" + *path + "' is " +
                               std::string(aida::object_kind(*object)) +
                               ", need Histogram2D or Profile1D");
  }

  static Result<Value> fill_row(NativeObject& self, std::span<const Value> args,
                                CallSiteCache*) {
    IPA_RETURN_IF_ERROR(check_arity(args, 2, 2, "tree.fill_row"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.fill_row"));
    IPA_ASSIGN_OR_RETURN(const auto values, arg_list(args, 1, "tree.fill_row"));
    auto tuple = tree(self).tuple(path);
    IPA_RETURN_IF_ERROR(tuple.status());
    std::vector<double> row;
    row.reserve(values->size());
    for (const Value& v : *values) {
      if (!v.is_number()) return invalid_argument("tree.fill_row: values must be numbers");
      row.push_back(v.number());
    }
    IPA_RETURN_IF_ERROR((*tuple)->fill(std::move(row)));
    return Value::nil();
  }

  aida::Tree* tree_;
};

}  // namespace

std::shared_ptr<NativeObject> make_tree_object(aida::Tree* tree) {
  return std::make_shared<TreeObject>(tree);
}

}  // namespace ipa::script
