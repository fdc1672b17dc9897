#include "script/engine_api.hpp"

namespace ipa::script {

Result<Value> EventCursor::call_method(std::string_view method, std::vector<Value>& args) {
  using CellKind = data::RecordBatch::CellKind;
  if (method == "get") {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, "event.get"));
    IPA_ASSIGN_OR_RETURN(const std::string name, arg_string(args, 0, "event.get"));
    const int slot = batch_->schema().slot_of(name);
    const auto kind =
        slot == data::Schema::kNoSlot ? CellKind::kNull : batch_->cell_kind(slot, row_);
    switch (kind) {
      case CellKind::kNull:
        return not_found("event.get: no field '" + name + "'");
      case CellKind::kInt:
        return Value(static_cast<double>(batch_->cell_int(slot, row_)));
      case CellKind::kReal:
        return Value(batch_->cell_real(slot, row_));
      case CellKind::kStr:
        return Value(batch_->cell_str(slot, row_));
      case CellKind::kVec: {
        const auto vec = batch_->cell_vec(slot, row_);
        List items;
        items.reserve(vec.size());
        for (const double x : vec) items.push_back(Value(x));
        return Value::list(std::move(items));
      }
    }
    return internal_error("event.get: unreachable cell kind");
  }
  if (method == "num") {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 2, "event.num"));
    IPA_ASSIGN_OR_RETURN(const std::string name, arg_string(args, 0, "event.num"));
    double fallback = 0;
    if (args.size() == 2) {
      IPA_ASSIGN_OR_RETURN(fallback, arg_number(args, 1, "event.num"));
    }
    const int slot = batch_->schema().slot_of(name);
    double out = fallback;
    if (slot != data::Schema::kNoSlot && batch_->cell_number(slot, row_, &out)) {
      return Value(out);
    }
    return Value(fallback);
  }
  if (method == "str") {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 2, "event.str"));
    IPA_ASSIGN_OR_RETURN(const std::string name, arg_string(args, 0, "event.str"));
    std::string fallback;
    if (args.size() == 2) {
      IPA_ASSIGN_OR_RETURN(fallback, arg_string(args, 1, "event.str"));
    }
    const int slot = batch_->schema().slot_of(name);
    if (slot != data::Schema::kNoSlot && batch_->cell_kind(slot, row_) == CellKind::kStr) {
      return Value(batch_->cell_str(slot, row_));
    }
    return Value(std::move(fallback));
  }
  if (method == "has") {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, "event.has"));
    IPA_ASSIGN_OR_RETURN(const std::string name, arg_string(args, 0, "event.has"));
    const int slot = batch_->schema().slot_of(name);
    return Value(slot != data::Schema::kNoSlot &&
                 batch_->cell_kind(slot, row_) != CellKind::kNull);
  }
  if (method == "index") {
    IPA_RETURN_IF_ERROR(check_arity(args, 0, 0, "event.index"));
    return Value(static_cast<double>(batch_->index(row_)));
  }
  return unimplemented("event: no method '" + std::string(method) + "'");
}

namespace {

class TreeObject final : public NativeObject {
 public:
  explicit TreeObject(aida::Tree* tree) : tree_(tree) {}

  std::string_view type_name() const override { return "tree"; }

  Result<Value> call_method(std::string_view method, std::vector<Value>& args) override {
    if (method == "book_h1") return book_h1(args);
    if (method == "book_h2") return book_h2(args);
    if (method == "book_prof") return book_prof(args);
    if (method == "book_cloud") return book_cloud(args);
    if (method == "book_tuple") return book_tuple(args);
    if (method == "fill") return fill(args);
    if (method == "fill2") return fill2(args);
    if (method == "fill_row") return fill_row(args);
    return unimplemented("tree: no method '" + std::string(method) + "'");
  }

 private:
  Result<Value> book_h1(std::vector<Value>& args) {
    IPA_RETURN_IF_ERROR(check_arity(args, 4, 5, "tree.book_h1"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.book_h1"));
    IPA_ASSIGN_OR_RETURN(const double bins, arg_number(args, 1, "tree.book_h1"));
    IPA_ASSIGN_OR_RETURN(const double lo, arg_number(args, 2, "tree.book_h1"));
    IPA_ASSIGN_OR_RETURN(const double hi, arg_number(args, 3, "tree.book_h1"));
    std::string title = path;
    if (args.size() == 5) {
      IPA_ASSIGN_OR_RETURN(title, arg_string(args, 4, "tree.book_h1"));
    }
    auto hist = aida::Histogram1D::create(title, static_cast<int>(bins), lo, hi);
    IPA_RETURN_IF_ERROR(hist.status());
    tree_->put(path, std::move(*hist));
    return Value::nil();
  }

  Result<Value> book_h2(std::vector<Value>& args) {
    IPA_RETURN_IF_ERROR(check_arity(args, 7, 8, "tree.book_h2"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.book_h2"));
    double nums[6];
    for (int i = 0; i < 6; ++i) {
      IPA_ASSIGN_OR_RETURN(nums[i], arg_number(args, static_cast<std::size_t>(i + 1), "tree.book_h2"));
    }
    std::string title = path;
    if (args.size() == 8) {
      IPA_ASSIGN_OR_RETURN(title, arg_string(args, 7, "tree.book_h2"));
    }
    auto hist = aida::Histogram2D::create(title, static_cast<int>(nums[0]), nums[1], nums[2],
                                          static_cast<int>(nums[3]), nums[4], nums[5]);
    IPA_RETURN_IF_ERROR(hist.status());
    tree_->put(path, std::move(*hist));
    return Value::nil();
  }

  Result<Value> book_prof(std::vector<Value>& args) {
    IPA_RETURN_IF_ERROR(check_arity(args, 4, 5, "tree.book_prof"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.book_prof"));
    IPA_ASSIGN_OR_RETURN(const double bins, arg_number(args, 1, "tree.book_prof"));
    IPA_ASSIGN_OR_RETURN(const double lo, arg_number(args, 2, "tree.book_prof"));
    IPA_ASSIGN_OR_RETURN(const double hi, arg_number(args, 3, "tree.book_prof"));
    std::string title = path;
    if (args.size() == 5) {
      IPA_ASSIGN_OR_RETURN(title, arg_string(args, 4, "tree.book_prof"));
    }
    auto profile = aida::Profile1D::create(title, static_cast<int>(bins), lo, hi);
    IPA_RETURN_IF_ERROR(profile.status());
    tree_->put(path, std::move(*profile));
    return Value::nil();
  }

  Result<Value> book_cloud(std::vector<Value>& args) {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 2, "tree.book_cloud"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.book_cloud"));
    std::string title = path;
    if (args.size() == 2) {
      IPA_ASSIGN_OR_RETURN(title, arg_string(args, 1, "tree.book_cloud"));
    }
    tree_->put(path, aida::Cloud1D(title));
    return Value::nil();
  }

  Result<Value> book_tuple(std::vector<Value>& args) {
    IPA_RETURN_IF_ERROR(check_arity(args, 2, 2, "tree.book_tuple"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.book_tuple"));
    IPA_ASSIGN_OR_RETURN(const auto columns, arg_list(args, 1, "tree.book_tuple"));
    std::vector<std::string> names;
    names.reserve(columns->size());
    for (const Value& c : *columns) {
      if (!c.is_string()) return invalid_argument("tree.book_tuple: columns must be strings");
      names.push_back(c.string());
    }
    tree_->put(path, aida::Tuple(path, std::move(names)));
    return Value::nil();
  }

  Result<Value> fill(std::vector<Value>& args) {
    IPA_RETURN_IF_ERROR(check_arity(args, 2, 3, "tree.fill"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.fill"));
    IPA_ASSIGN_OR_RETURN(const double x, arg_number(args, 1, "tree.fill"));
    double weight = 1.0;
    if (args.size() == 3) {
      IPA_ASSIGN_OR_RETURN(weight, arg_number(args, 2, "tree.fill"));
    }
    auto object = tree_->find(path);
    IPA_RETURN_IF_ERROR(object.status());
    if (auto* hist = std::get_if<aida::Histogram1D>(*object)) {
      hist->fill(x, weight);
      return Value::nil();
    }
    if (auto* cloud = std::get_if<aida::Cloud1D>(*object)) {
      cloud->fill(x, weight);
      return Value::nil();
    }
    return failed_precondition("tree.fill: '" + path + "' is " +
                               std::string(aida::object_kind(**object)) +
                               ", need Histogram1D or Cloud1D");
  }

  Result<Value> fill2(std::vector<Value>& args) {
    IPA_RETURN_IF_ERROR(check_arity(args, 3, 4, "tree.fill2"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.fill2"));
    IPA_ASSIGN_OR_RETURN(const double x, arg_number(args, 1, "tree.fill2"));
    IPA_ASSIGN_OR_RETURN(const double y, arg_number(args, 2, "tree.fill2"));
    double weight = 1.0;
    if (args.size() == 4) {
      IPA_ASSIGN_OR_RETURN(weight, arg_number(args, 3, "tree.fill2"));
    }
    auto object = tree_->find(path);
    IPA_RETURN_IF_ERROR(object.status());
    if (auto* hist = std::get_if<aida::Histogram2D>(*object)) {
      hist->fill(x, y, weight);
      return Value::nil();
    }
    if (auto* profile = std::get_if<aida::Profile1D>(*object)) {
      profile->fill(x, y, weight);
      return Value::nil();
    }
    return failed_precondition("tree.fill2: '" + path + "' is " +
                               std::string(aida::object_kind(**object)) +
                               ", need Histogram2D or Profile1D");
  }

  Result<Value> fill_row(std::vector<Value>& args) {
    IPA_RETURN_IF_ERROR(check_arity(args, 2, 2, "tree.fill_row"));
    IPA_ASSIGN_OR_RETURN(const std::string path, arg_string(args, 0, "tree.fill_row"));
    IPA_ASSIGN_OR_RETURN(const auto values, arg_list(args, 1, "tree.fill_row"));
    auto tuple = tree_->tuple(path);
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
