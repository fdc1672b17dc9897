#include "script/value.hpp"

#include "common/strings.hpp"

namespace ipa::script {

bool Value::truthy() const {
  switch (type_) {
    case Type::kNil: return false;
    case Type::kBool: return boolean();
    case Type::kNumber: return number() != 0.0;
    case Type::kString: return !string().empty();
    default: return true;
  }
}

std::string_view Value::type_name() const {
  switch (type_) {
    case Type::kNil: return "nil";
    case Type::kNumber: return "number";
    case Type::kBool: return "bool";
    case Type::kString: return "string";
    case Type::kList: return "list";
    case Type::kNative:
    case Type::kFunction: return "function";
    case Type::kObject: return object()->type_name();
  }
  return "?";
}

std::string Value::to_display() const {
  if (is_nil()) return "nil";
  if (is_bool()) return boolean() ? "true" : "false";
  if (is_number()) {
    const double v = number();
    if (v == static_cast<long long>(v) && std::abs(v) < 1e15) {
      return std::to_string(static_cast<long long>(v));
    }
    return strings::format("%g", v);
  }
  if (is_string()) return string();
  if (is_list()) {
    std::string out = "[";
    const List& items = list();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i) out += ", ";
      if (items[i].is_string()) {
        out += "\"" + items[i].string() + "\"";
      } else {
        out += items[i].to_display();
      }
    }
    return out + "]";
  }
  std::string out = "<";
  out += type_name();
  return out + ">";
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Value::Type::kNil: return true;
    case Value::Type::kNumber:
    case Value::Type::kBool: return a.number_ == b.number_;
    case Value::Type::kString: return a.string() == b.string();
    case Value::Type::kList: {
      const List& la = a.list();
      const List& lb = b.list();
      if (la.size() != lb.size()) return false;
      for (std::size_t i = 0; i < la.size(); ++i) {
        if (!(la[i] == lb[i])) return false;
      }
      return true;
    }
    default: return a.ref_ == b.ref_;  // functions / objects: identity
  }
}

Status check_arity(std::span<const Value> args, std::size_t min_args, std::size_t max_args,
                   const char* what) {
  if (args.size() < min_args || args.size() > max_args) {
    if (min_args == max_args) {
      return invalid_argument(strings::format("%s: expected %zu argument(s), got %zu", what,
                                              min_args, args.size()));
    }
    return invalid_argument(strings::format("%s: expected %zu..%zu arguments, got %zu", what,
                                            min_args, max_args, args.size()));
  }
  return Status::ok();
}

Result<double> arg_number(std::span<const Value> args, std::size_t i, const char* what) {
  if (i >= args.size() || !args[i].is_number()) {
    return invalid_argument(strings::format("%s: argument %zu must be a number", what, i + 1));
  }
  return args[i].number();
}

Result<std::string> arg_string(std::span<const Value> args, std::size_t i, const char* what) {
  if (i >= args.size() || !args[i].is_string()) {
    return invalid_argument(strings::format("%s: argument %zu must be a string", what, i + 1));
  }
  return args[i].string();
}

Result<std::shared_ptr<List>> arg_list(std::span<const Value> args, std::size_t i,
                                       const char* what) {
  if (i >= args.size() || !args[i].is_list()) {
    return invalid_argument(strings::format("%s: argument %zu must be a list", what, i + 1));
  }
  return args[i].list_ptr();
}

}  // namespace ipa::script
