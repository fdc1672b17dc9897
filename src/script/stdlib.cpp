// PawScript standard library: math, lists, strings, output.
#include <algorithm>
#include <cmath>

#include "common/strings.hpp"
#include "script/interp.hpp"

namespace ipa::script {
namespace {

NativeFn unary_math(const char* name, double (*fn)(double)) {
  return [name, fn](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, name));
    IPA_ASSIGN_OR_RETURN(const double x, arg_number(args, 0, name));
    return Value(fn(x));
  };
}

NativeFn binary_math(const char* name, double (*fn)(double, double)) {
  return [name, fn](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 2, 2, name));
    IPA_ASSIGN_OR_RETURN(const double a, arg_number(args, 0, name));
    IPA_ASSIGN_OR_RETURN(const double b, arg_number(args, 1, name));
    return Value(fn(a, b));
  };
}

}  // namespace

void install_stdlib(Interp& interp) {
  // --- math -----------------------------------------------------------------
  interp.register_native("sqrt", unary_math("sqrt", std::sqrt));
  interp.register_native("abs", unary_math("abs", std::fabs));
  interp.register_native("floor", unary_math("floor", std::floor));
  interp.register_native("ceil", unary_math("ceil", std::ceil));
  interp.register_native("exp", unary_math("exp", std::exp));
  interp.register_native("log", unary_math("log", std::log));
  interp.register_native("sin", unary_math("sin", std::sin));
  interp.register_native("cos", unary_math("cos", std::cos));
  interp.register_native("tan", unary_math("tan", std::tan));
  interp.register_native("pow", binary_math("pow", std::pow));
  interp.register_native("atan2", binary_math("atan2", std::atan2));
  interp.register_native("min", binary_math("min", [](double a, double b) {
    return a < b ? a : b;
  }));
  interp.register_native("max", binary_math("max", [](double a, double b) {
    return a > b ? a : b;
  }));
  interp.set_global("PI", Value(3.14159265358979323846));

  // --- lists ------------------------------------------------------------------
  interp.register_native("len", [](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, "len"));
    if (args[0].is_list()) return Value(static_cast<double>(args[0].list().size()));
    if (args[0].is_string()) return Value(static_cast<double>(args[0].string().size()));
    return invalid_argument("len: argument must be a list or string");
  });
  interp.register_native("push", [](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 2, 2, "push"));
    IPA_ASSIGN_OR_RETURN(const auto list, arg_list(args, 0, "push"));
    list->push_back(args[1]);
    return args[0];
  });
  interp.register_native("pop", [](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, "pop"));
    IPA_ASSIGN_OR_RETURN(const auto list, arg_list(args, 0, "pop"));
    if (list->empty()) return out_of_range("pop: empty list");
    Value back = std::move(list->back());
    list->pop_back();
    return back;
  });
  interp.register_native("range", [](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 2, "range"));
    IPA_ASSIGN_OR_RETURN(const double first, arg_number(args, 0, "range"));
    double lo = 0, hi = first;
    if (args.size() == 2) {
      IPA_ASSIGN_OR_RETURN(hi, arg_number(args, 1, "range"));
      lo = first;
    }
    // Count the items first: stepping a double by 1 stalls once it passes
    // 2^53, and a NaN bound gives no items.
    const double span = hi - lo;
    if (!(span > 0)) return Value::list({});
    if (span > 10'000'000) return resource_exhausted("range: too large");
    const auto count = static_cast<std::size_t>(std::ceil(span));
    List items;
    items.reserve(count);
    for (std::size_t i = 0; i < count; ++i) items.push_back(Value(lo + static_cast<double>(i)));
    return Value::list(std::move(items));
  });
  interp.register_native("sort", [](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, "sort"));
    IPA_ASSIGN_OR_RETURN(const auto list, arg_list(args, 0, "sort"));
    for (const Value& v : *list) {
      if (!v.is_number()) return invalid_argument("sort: list must be all numbers");
    }
    std::sort(list->begin(), list->end(),
              [](const Value& a, const Value& b) { return a.number() < b.number(); });
    return args[0];
  });
  interp.register_native("sum", [](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, "sum"));
    IPA_ASSIGN_OR_RETURN(const auto list, arg_list(args, 0, "sum"));
    double total = 0;
    for (const Value& v : *list) {
      if (!v.is_number()) return invalid_argument("sum: list must be all numbers");
      total += v.number();
    }
    return Value(total);
  });

  // --- strings ----------------------------------------------------------------
  interp.register_native("str", [](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, "str"));
    return Value(args[0].to_display());
  });
  interp.register_native("num", [](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, "num"));
    if (args[0].is_number()) return args[0];
    IPA_ASSIGN_OR_RETURN(const std::string text, arg_string(args, 0, "num"));
    double v = 0;
    if (!strings::parse_f64(text, v)) {
      return invalid_argument("num: cannot parse '" + text + "'");
    }
    return Value(v);
  });
  interp.register_native("substr", [](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 2, 3, "substr"));
    IPA_ASSIGN_OR_RETURN(const std::string text, arg_string(args, 0, "substr"));
    IPA_ASSIGN_OR_RETURN(const double start, arg_number(args, 1, "substr"));
    double count = static_cast<double>(text.size());
    if (args.size() == 3) {
      IPA_ASSIGN_OR_RETURN(count, arg_number(args, 2, "substr"));
    }
    // Written so that a NaN fails the check before any integer conversion.
    if (!(start >= 0 && start <= static_cast<double>(text.size()) && count >= 0)) {
      return out_of_range("substr: bad range");
    }
    return Value(text.substr(static_cast<std::size_t>(start),
                             static_cast<std::size_t>(
                                 std::min(count, static_cast<double>(text.size())))));
  });
  interp.register_native("contains", [](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 2, 2, "contains"));
    IPA_ASSIGN_OR_RETURN(const std::string text, arg_string(args, 0, "contains"));
    IPA_ASSIGN_OR_RETURN(const std::string needle, arg_string(args, 1, "contains"));
    return Value(text.find(needle) != std::string::npos);
  });
  interp.register_native("upper", [](std::span<const Value> args) -> Result<Value> {
    IPA_RETURN_IF_ERROR(check_arity(args, 1, 1, "upper"));
    IPA_ASSIGN_OR_RETURN(const std::string text, arg_string(args, 0, "upper"));
    return Value(strings::to_upper(text));
  });

  // --- output -----------------------------------------------------------------
  auto* sink = &interp.output();
  interp.register_native("print", [sink](std::span<const Value> args) -> Result<Value> {
    std::string line;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i) line += " ";
      line += args[i].to_display();
    }
    sink->push_back(std::move(line));
    return Value::nil();
  });
}

}  // namespace ipa::script
