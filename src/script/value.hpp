// PawScript runtime values.
//
// Dynamically typed: nil, number (double), bool, string, list (shared,
// reference semantics like Python), native function, user function, and
// native object (host-provided receiver with methods — how the engine
// exposes the current event and the AIDA tree to scripts). Strings are
// immutable and shared. A user function value shares ownership of the
// compiled program it was loaded from, so it stays callable after a
// hot-reload replaces that program.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace ipa::script {

struct Value;
struct Function;  // a compiled script function (interp.cpp)
using List = std::vector<Value>;
using FunctionRef = std::shared_ptr<const Function>;

/// What a native method may keep between the calls from one call site: a
/// schema slot, a histogram handle. A site hands its cache only to calls
/// whose first argument is the same string literal every time, and resets
/// it when the receiver's type changes.
struct CallSiteCache {
  const void* owner = nullptr;      // what `version`, `slot` and `handle` belong to
  std::uint64_t version = 0;        // the owner's version when they were resolved
  int slot = -1;
  void* handle = nullptr;
  std::shared_ptr<const void> pin;  // keeps a shared owner's address from being reused
};

/// Host object exposed to scripts (event, tree, ...). Methods are invoked
/// as `obj.method(args)`.
class NativeObject {
 public:
  /// A method, looked up by name once per call site and receiver type.
  /// `cache` is null when the call site cannot keep one.
  using Method = Result<Value> (*)(NativeObject& self, std::span<const Value> args,
                                   CallSiteCache* cache);

  virtual ~NativeObject() = default;
  virtual std::string_view type_name() const = 0;
  /// The method called `name`, or null when this type has none.
  virtual Method find_method(std::string_view name) const = 0;
};

using NativeFn = std::function<Result<Value>(std::span<const Value>)>;

struct Value {
  enum class Type : std::uint8_t {
    kNil, kNumber, kBool, kString, kList, kNative, kFunction, kObject
  };

  Value() = default;
  Value(double v) : type_(Type::kNumber), number_(v) {}            // NOLINT(google-explicit-constructor)
  Value(bool v) : type_(Type::kBool), number_(v ? 1.0 : 0.0) {}    // NOLINT
  Value(std::string v)                                             // NOLINT
      : type_(Type::kString), ref_(std::make_shared<const std::string>(std::move(v))) {}
  Value(const char* v) : Value(std::string(v)) {}                  // NOLINT
  Value(std::shared_ptr<List> v) : type_(Type::kList), ref_(std::move(v)) {}          // NOLINT
  Value(std::shared_ptr<NativeFn> v) : type_(Type::kNative), ref_(std::move(v)) {}    // NOLINT
  Value(FunctionRef v) : type_(Type::kFunction), ref_(std::move(v)) {}                // NOLINT
  Value(std::shared_ptr<NativeObject> v) : type_(Type::kObject), ref_(std::move(v)) {}  // NOLINT

  static Value nil() { return Value(); }
  static Value list(List items) { return Value(std::make_shared<List>(std::move(items))); }

  Type type() const { return type_; }
  bool is_nil() const { return type_ == Type::kNil; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_list() const { return type_ == Type::kList; }
  bool is_callable() const { return type_ == Type::kNative || type_ == Type::kFunction; }
  bool is_object() const { return type_ == Type::kObject; }

  // Accessors; each requires the matching is_*().
  double number() const { return number_; }
  bool boolean() const { return number_ != 0.0; }
  const std::string& string() const { return *static_cast<const std::string*>(ref_.get()); }
  List& list() const { return *static_cast<List*>(mutable_ref()); }
  std::shared_ptr<List> list_ptr() const {
    return std::static_pointer_cast<List>(std::const_pointer_cast<void>(ref_));
  }
  NativeFn& native() const { return *static_cast<NativeFn*>(mutable_ref()); }
  const Function& function() const { return *static_cast<const Function*>(ref_.get()); }
  NativeObject* object() const { return static_cast<NativeObject*>(mutable_ref()); }

  /// nil/false → false; 0 and "" → false; everything else → true.
  bool truthy() const;

  /// "number", "string", "list", ...
  std::string_view type_name() const;

  /// Display form ("3.5", "\"x\"" inside lists, "[1, 2]", "<tree>").
  std::string to_display() const;

  /// Structural equality (lists compare element-wise; objects by identity).
  friend bool operator==(const Value& a, const Value& b);

 private:
  void* mutable_ref() const { return const_cast<void*>(ref_.get()); }

  // A tag, an inline number (bools as 0/1) and one shared reference for the
  // rest: copying a number is plain word copies, with no type dispatch.
  Type type_ = Type::kNil;
  double number_ = 0;
  std::shared_ptr<const void> ref_;  // string, list, function or object
};

/// Argument helpers for native functions and methods.
Result<double> arg_number(std::span<const Value> args, std::size_t i, const char* what);
Result<std::string> arg_string(std::span<const Value> args, std::size_t i, const char* what);
Result<std::shared_ptr<List>> arg_list(std::span<const Value> args, std::size_t i,
                                       const char* what);
Status check_arity(std::span<const Value> args, std::size_t min_args, std::size_t max_args,
                   const char* what);

}  // namespace ipa::script
