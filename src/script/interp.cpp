#include "script/interp.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/strings.hpp"
#include "script/parser.hpp"

namespace ipa::script {

/// A global binding. The resolver interns every name a script reads as a
/// global, defined or not, and stores a pointer to its entry in the AST;
/// std::map nodes never move, so that pointer stays valid for the
/// interpreter's lifetime and a later set_global() fills the same entry.
struct Global {
  Value value;
  bool defined = false;
  Value function;  // the loaded program's function of this name, or nil
};

namespace {

using Globals = std::map<std::string, Global, std::less<>>;

struct ScriptError {
  Status status;
};

[[noreturn]] void fail(StatusCode code, const std::string& msg, int line) {
  throw ScriptError{Status(code, msg + " (line " + std::to_string(line) + ")")};
}

/// How a statement finished; a `return` leaves its value in Impl::result.
enum class Flow { kNormal, kReturn, kBreak, kContinue };

/// The error for a `return`, `break` or `continue` that left its context.
Status stray(Flow flow) {
  if (flow == Flow::kReturn) return invalid_argument("script: 'return' outside a function");
  return invalid_argument(std::string("script: '") +
                          (flow == Flow::kBreak ? "break" : "continue") + "' outside a loop");
}

/// The resolver pass: binds every parameter and block-local `let` to a frame
/// slot and every other name to an interned Global, annotating the AST.
class Resolver {
 public:
  explicit Resolver(Globals& globals) : globals_(globals) {}

  void resolve(Program& program) {
    for (FunctionDecl& fn : program.functions) {
      scopes_.assign(1, {});
      next_slot_ = max_slot_ = 0;
      for (const std::string& param : fn.params) declare(param);
      for (StmtPtr& stmt : fn.body) resolve(*stmt);  // the body shares the params' scope
      fn.frame_size = static_cast<std::size_t>(max_slot_);
    }
    scopes_.clear();  // no scope: top-level `let`s define globals
    next_slot_ = max_slot_ = 0;
    for (StmtPtr& stmt : program.top_level) resolve(*stmt);
    program.frame_size = static_cast<std::size_t>(max_slot_);
  }

 private:
  int declare(const std::string& name) {
    scopes_.back().emplace_back(name, next_slot_);
    max_slot_ = std::max(max_slot_, next_slot_ + 1);
    return next_slot_++;
  }

  template <typename Body>
  void scoped(Body&& body) {
    scopes_.emplace_back();
    const int first_slot = next_slot_;
    body();
    scopes_.pop_back();
    next_slot_ = first_slot;  // a later sibling scope reuses the slots
  }

  void block(std::vector<StmtPtr>& body) {
    scoped([&] {
      for (StmtPtr& stmt : body) resolve(*stmt);
    });
  }

  void resolve(Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
      case Stmt::Kind::kReturn:
        if (stmt.expr) resolve(*stmt.expr);
        return;
      case Stmt::Kind::kLet:
        resolve(*stmt.expr);  // first, so `let x = x + 1;` reads the outer x
        if (scopes_.empty()) {
          stmt.global = &globals_[stmt.name];
        } else {
          stmt.slot = declare(stmt.name);
        }
        return;
      case Stmt::Kind::kAssign:
        resolve(*stmt.expr);
        resolve(*stmt.target);
        return;
      case Stmt::Kind::kIf:
        resolve(*stmt.cond);
        block(stmt.body);
        block(stmt.else_body);
        return;
      case Stmt::Kind::kWhile:
        resolve(*stmt.cond);
        block(stmt.body);
        return;
      case Stmt::Kind::kFor:
        // The header is its own scope; the step sees it but not the body.
        scoped([&] {
          if (stmt.init) resolve(*stmt.init);
          if (stmt.cond) resolve(*stmt.cond);
          block(stmt.body);
          if (stmt.step) resolve(*stmt.step);
        });
        return;
      case Stmt::Kind::kBreak:
      case Stmt::Kind::kContinue:
        return;
      case Stmt::Kind::kBlock:
        block(stmt.body);
        return;
    }
  }

  void resolve(Expr& expr) {
    if (expr.kind == Expr::Kind::kVar) {
      for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
        for (auto it = scope->rbegin(); it != scope->rend(); ++it) {
          if (it->first == expr.text) {
            expr.slot = it->second;
            return;
          }
        }
      }
      expr.global = &globals_[expr.text];
      return;
    }
    if (expr.lhs) resolve(*expr.lhs);
    if (expr.rhs) resolve(*expr.rhs);
    for (ExprPtr& arg : expr.args) resolve(*arg);
  }

  Globals& globals_;
  std::vector<std::vector<std::pair<std::string, int>>> scopes_;
  int next_slot_ = 0;
  int max_slot_ = 0;
};

}  // namespace

struct Interp::Impl {
  static constexpr int kMaxCallDepth = 256;

  InterpOptions options;
  Globals globals;
  std::vector<std::string> print_output;
  std::uint64_t steps = 0;
  int call_depth = 0;
  Value result;  // a `return`'s value on its way to the caller
  // frames[d] holds the locals of the call at depth d. One vector per depth
  // keeps a caller's frame in place while its callees push theirs.
  std::vector<std::vector<Value>> frames = std::vector<std::vector<Value>>(kMaxCallDepth + 1);
  std::vector<Value> arg_stack;  // evaluated call arguments

  void tick(int line) {
    if (++steps > options.max_steps_per_call) {
      fail(StatusCode::kResourceExhausted, "script exceeded its step budget", line);
    }
  }

  static void define(Global& global, Value value) {
    global.value = std::move(value);
    global.defined = true;
  }

  /// One host-level entry (load's top level, a call): a fresh step budget,
  /// and a ScriptError unwinds the frames and arguments this entry pushed.
  template <typename Body>
  Result<Value> enter(Body&& body) {
    steps = 0;
    const int depth = call_depth;
    const std::size_t args = arg_stack.size();
    try {
      return body();
    } catch (ScriptError& error) {
      for (int d = call_depth; d > depth; --d) frames[static_cast<std::size_t>(d)].clear();
      call_depth = depth;
      arg_stack.resize(args);
      return error.status;
    }
  }

  // --- expression evaluation ------------------------------------------------

  const Value& lookup(const Expr& expr, Value* frame) const {
    if (expr.slot >= 0) return frame[expr.slot];
    const Global& global = *expr.global;
    if (global.defined) return global.value;
    if (!global.function.is_nil()) return global.function;
    fail(StatusCode::kNotFound, "undefined variable '" + expr.text + "'", expr.line);
  }

  /// Evaluate `expr`, borrowing a literal or a variable's storage instead of
  /// copying it where nothing evaluated afterwards can reassign it: locals
  /// (only statements assign, and callees have their own frames) and
  /// functions.
  const Value& operand(const Expr& expr, Value* frame, Value& scratch) {
    if (expr.kind == Expr::Kind::kLiteral) {
      tick(expr.line);
      return expr.literal;
    }
    if (expr.kind != Expr::Kind::kVar) {
      scratch = eval(expr, frame);
      return scratch;
    }
    tick(expr.line);
    const Value& value = lookup(expr, frame);
    if (expr.slot >= 0 || !expr.global->defined) return value;
    scratch = value;
    return scratch;
  }

  /// Evaluate a condition; a bool skips the out-of-line truthy().
  bool test(const Expr& expr, Value* frame) {
    Value scratch;
    const Value& value = operand(expr, frame, scratch);
    return value.is_bool() ? value.boolean() : value.truthy();
  }

  Value eval(const Expr& expr, Value* frame) {
    tick(expr.line);
    switch (expr.kind) {
      case Expr::Kind::kLiteral: return expr.literal;
      case Expr::Kind::kVar: return lookup(expr, frame);
      case Expr::Kind::kList: return eval_list(expr, frame);
      case Expr::Kind::kUnary: return eval_unary(expr, frame);
      case Expr::Kind::kLogical: {
        const bool lhs = test(*expr.lhs, frame);
        if (expr.op == Op::kAnd ? !lhs : lhs) return Value(lhs);
        return Value(test(*expr.rhs, frame));
      }
      case Expr::Kind::kBinary: return eval_binary(expr, frame);
      case Expr::Kind::kCall: return eval_call(expr, frame);
      case Expr::Kind::kMethod: return eval_method(expr, frame);
      case Expr::Kind::kIndex: return eval_index(expr, frame);
    }
    fail(StatusCode::kInternal, "unhandled expression kind", expr.line);
  }

  Value eval_list(const Expr& expr, Value* frame) {
    List items;
    items.reserve(expr.args.size());
    for (const ExprPtr& element : expr.args) items.push_back(eval(*element, frame));
    return Value::list(std::move(items));
  }

  Value eval_unary(const Expr& expr, Value* frame) {
    Value scratch;
    const Value& operand = this->operand(*expr.lhs, frame, scratch);
    if (expr.op == Op::kNot) return Value(!operand.truthy());
    if (!operand.is_number()) {
      fail(StatusCode::kInvalidArgument,
           "unary '-' needs a number, got " + std::string(operand.type_name()), expr.line);
    }
    return Value(-operand.number());
  }

  Value eval_call(const Expr& expr, Value* frame) {
    Value scratch;
    const Value& callee = operand(*expr.lhs, frame, scratch);
    const std::size_t base = push_args(expr, frame);
    if (callee.type() == Value::Type::kFunction) {
      return call_script(callee.function(), base, expr.line);
    }
    if (callee.type() == Value::Type::kNative) {
      std::vector<Value> args = pop_args(base);
      auto called = callee.native()(args);
      if (!called.is_ok()) fail(called.status().code(), called.status().message(), expr.line);
      return std::move(*called);
    }
    fail(StatusCode::kInvalidArgument,
         "value of type " + std::string(callee.type_name()) + " is not callable", expr.line);
  }

  Value eval_method(const Expr& expr, Value* frame) {
    Value scratch;
    const Value& receiver = operand(*expr.lhs, frame, scratch);
    if (!receiver.is_object()) {
      fail(StatusCode::kInvalidArgument,
           "cannot call method '" + expr.text + "' on " + std::string(receiver.type_name()),
           expr.line);
    }
    std::vector<Value> args = pop_args(push_args(expr, frame));
    auto called = receiver.object()->call_method(expr.text, args);
    if (!called.is_ok()) fail(called.status().code(), called.status().message(), expr.line);
    return std::move(*called);
  }

  Value eval_index(const Expr& expr, Value* frame) {
    Value container_scratch;
    Value index_scratch;
    const Value& container = operand(*expr.lhs, frame, container_scratch);
    const Value& index = operand(*expr.rhs, frame, index_scratch);
    if (!index.is_number()) {
      fail(StatusCode::kInvalidArgument, "index must be a number", expr.line);
    }
    const auto i = static_cast<std::int64_t>(index.number());
    if (container.is_list()) {
      const List& items = container.list();
      if (i < 0 || static_cast<std::size_t>(i) >= items.size()) {
        fail(StatusCode::kOutOfRange,
             strings::format("list index %lld out of range (size %zu)",
                             static_cast<long long>(i), items.size()),
             expr.line);
      }
      return items[static_cast<std::size_t>(i)];
    }
    if (container.is_string()) {
      const std::string& s = container.string();
      if (i < 0 || static_cast<std::size_t>(i) >= s.size()) {
        fail(StatusCode::kOutOfRange, "string index out of range", expr.line);
      }
      return Value(std::string(1, s[static_cast<std::size_t>(i)]));
    }
    fail(StatusCode::kInvalidArgument,
         "cannot index " + std::string(container.type_name()), expr.line);
  }

  Value eval_binary(const Expr& expr, Value* frame) {
    Value lhs_scratch;
    Value rhs_scratch;
    const Value& lhs = operand(*expr.lhs, frame, lhs_scratch);
    const Value& rhs = operand(*expr.rhs, frame, rhs_scratch);
    const Op op = expr.op;
    const bool numbers = lhs.is_number() && rhs.is_number();
    if (numbers) {
      const double a = lhs.number();
      const double b = rhs.number();
      switch (op) {
        case Op::kAdd: return Value(a + b);
        case Op::kSub: return Value(a - b);
        case Op::kMul: return Value(a * b);
        case Op::kDiv:
          if (b == 0.0) fail(StatusCode::kInvalidArgument, "division by zero", expr.line);
          return Value(a / b);
        case Op::kMod:
          if (b == 0.0) fail(StatusCode::kInvalidArgument, "modulo by zero", expr.line);
          return Value(std::fmod(a, b));
        // A NaN compares unordered: neither less nor greater, so <= and >=
        // hold for it, as a three-way compare would have it.
        case Op::kEq: return Value(a == b);
        case Op::kNe: return Value(a != b);
        case Op::kLt: return Value(a < b);
        case Op::kLe: return Value(!(a > b));
        case Op::kGt: return Value(a > b);
        case Op::kGe: return Value(!(a < b));
        default: break;
      }
    }

    if (op == Op::kEq) return Value(lhs == rhs);
    if (op == Op::kNe) return Value(!(lhs == rhs));

    if (op == Op::kAdd) {
      if (lhs.is_string() || rhs.is_string()) {
        return Value(lhs.to_display() + rhs.to_display());
      }
      if (lhs.is_list() && rhs.is_list()) {
        List combined = lhs.list();
        combined.insert(combined.end(), rhs.list().begin(), rhs.list().end());
        return Value::list(std::move(combined));
      }
      fail(StatusCode::kInvalidArgument,
           "cannot add " + std::string(lhs.type_name()) + " and " +
               std::string(rhs.type_name()),
           expr.line);
    }

    if (op == Op::kLt || op == Op::kLe || op == Op::kGt || op == Op::kGe) {
      if (!lhs.is_string() || !rhs.is_string()) {
        fail(StatusCode::kInvalidArgument,
             "cannot compare " + std::string(lhs.type_name()) + " with " +
                 std::string(rhs.type_name()),
             expr.line);
      }
      const int cmp = lhs.string().compare(rhs.string());
      if (op == Op::kLt) return Value(cmp < 0);
      if (op == Op::kLe) return Value(cmp <= 0);
      if (op == Op::kGt) return Value(cmp > 0);
      return Value(cmp >= 0);
    }

    // Remaining operators are numeric-only.
    fail(StatusCode::kInvalidArgument,
         "operator '" + std::string(op_name(op)) + "' needs numbers, got " +
             std::string(lhs.type_name()) + " and " + std::string(rhs.type_name()),
         expr.line);
  }

  /// Evaluate a call's arguments onto arg_stack; returns where they start.
  std::size_t push_args(const Expr& call, Value* frame) {
    const std::size_t base = arg_stack.size();
    for (const ExprPtr& arg : call.args) arg_stack.push_back(eval(*arg, frame));
    return base;
  }

  /// Move the arguments from `base` up into a vector for a native.
  std::vector<Value> pop_args(std::size_t base) {
    const auto first = arg_stack.begin() + static_cast<std::ptrdiff_t>(base);
    std::vector<Value> args(std::make_move_iterator(first),
                            std::make_move_iterator(arg_stack.end()));
    arg_stack.resize(base);
    return args;
  }

  /// Call `fn` with the arguments on arg_stack from `base` up.
  Value call_script(const FunctionDecl& fn, std::size_t base, int line) {
    if (call_depth >= kMaxCallDepth) {
      fail(StatusCode::kResourceExhausted,
           "recursion too deep (limit " + std::to_string(kMaxCallDepth) + ")", line);
    }
    const std::size_t argc = arg_stack.size() - base;
    if (argc != fn.params.size()) {
      fail(StatusCode::kInvalidArgument,
           strings::format("function '%s' expects %zu argument(s), got %zu", fn.name.c_str(),
                           fn.params.size(), argc),
           line);
    }
    std::vector<Value>& frame = frames[static_cast<std::size_t>(++call_depth)];
    frame.resize(fn.frame_size);
    std::move(arg_stack.begin() + static_cast<std::ptrdiff_t>(base), arg_stack.end(),
              frame.begin());
    arg_stack.resize(base);
    const Flow flow = exec_block(fn.body, frame.data());
    frame.clear();
    --call_depth;
    if (flow == Flow::kReturn) return std::move(result);
    if (flow != Flow::kNormal) throw ScriptError{stray(flow)};
    return Value::nil();
  }

  // --- statement execution ---------------------------------------------------

  Flow exec_block(const std::vector<StmtPtr>& body, Value* frame) {
    for (const StmtPtr& stmt : body) {
      const Flow flow = exec(*stmt, frame);
      if (flow != Flow::kNormal) return flow;
    }
    return Flow::kNormal;
  }

  Flow exec(const Stmt& stmt, Value* frame) {
    tick(stmt.line);
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
        eval(*stmt.expr, frame);
        return Flow::kNormal;
      case Stmt::Kind::kLet:
        if (stmt.slot >= 0) {
          frame[stmt.slot] = eval(*stmt.expr, frame);
        } else {
          define(*stmt.global, eval(*stmt.expr, frame));
        }
        return Flow::kNormal;
      case Stmt::Kind::kAssign: {
        Value scratch;
        const Value& value = operand(*stmt.expr, frame, scratch);
        const Expr& target = *stmt.target;
        Value* slot = nullptr;
        Value container;  // keeps an indexed target's list alive
        if (target.kind == Expr::Kind::kVar) {
          if (target.slot >= 0) {
            slot = &frame[target.slot];
          } else if (target.global->defined) {
            slot = &target.global->value;
          } else {
            fail(StatusCode::kNotFound,
                 "assignment to undeclared variable '" + target.text + "' (use 'let')",
                 stmt.line);
          }
        } else {  // kIndex: lhs[idx] = value
          container = eval(*target.lhs, frame);
          const Value index = eval(*target.rhs, frame);
          if (!container.is_list() || !index.is_number()) {
            fail(StatusCode::kInvalidArgument, "indexed assignment needs list[number]",
                 stmt.line);
          }
          List& items = container.list();
          const auto i = static_cast<std::int64_t>(index.number());
          if (i < 0 || static_cast<std::size_t>(i) >= items.size()) {
            fail(StatusCode::kOutOfRange, "list index out of range in assignment", stmt.line);
          }
          slot = &items[static_cast<std::size_t>(i)];
        }
        if (stmt.op == Op::kSet) {
          *slot = value;
          return Flow::kNormal;
        }
        if (!slot->is_number() || !value.is_number()) {
          fail(StatusCode::kInvalidArgument,
               "'" + std::string(op_name(stmt.op)) + "' needs numbers", stmt.line);
        }
        *slot = Value(stmt.op == Op::kAddSet ? slot->number() + value.number()
                                             : slot->number() - value.number());
        return Flow::kNormal;
      }
      case Stmt::Kind::kIf:
        return exec_block(test(*stmt.cond, frame) ? stmt.body : stmt.else_body, frame);
      // Every loop iteration ticks, so a loop with an empty body and no
      // condition or step (`for (;;) {}`) still runs out of budget.
      case Stmt::Kind::kWhile:
        while (test(*stmt.cond, frame)) {
          tick(stmt.line);
          const Flow flow = exec_block(stmt.body, frame);
          if (flow == Flow::kBreak) break;
          if (flow == Flow::kReturn) return flow;
        }
        return Flow::kNormal;
      case Stmt::Kind::kFor:
        if (stmt.init) exec(*stmt.init, frame);
        while (stmt.cond == nullptr || test(*stmt.cond, frame)) {
          tick(stmt.line);
          const Flow flow = exec_block(stmt.body, frame);
          if (flow == Flow::kBreak) break;
          if (flow == Flow::kReturn) return flow;
          if (stmt.step) exec(*stmt.step, frame);
        }
        return Flow::kNormal;
      case Stmt::Kind::kReturn:
        result = stmt.expr ? eval(*stmt.expr, frame) : Value::nil();
        return Flow::kReturn;
      case Stmt::Kind::kBreak:
        return Flow::kBreak;
      case Stmt::Kind::kContinue:
        return Flow::kContinue;
      case Stmt::Kind::kBlock:
        return exec_block(stmt.body, frame);
    }
    return Flow::kNormal;
  }
};

Interp::Interp(InterpOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  install_stdlib(*this);
}

Interp::~Interp() = default;
Interp::Interp(Interp&&) noexcept = default;
Interp& Interp::operator=(Interp&&) noexcept = default;

Status Interp::load(std::string_view source) {
  auto parsed = parse(source);
  IPA_RETURN_IF_ERROR(parsed.status());
  auto program = std::make_shared<Program>(std::move(*parsed));
  Resolver(impl_->globals).resolve(*program);

  // Replace the program: every function binding now names the new one.
  for (auto& [name, global] : impl_->globals) global.function = Value::nil();
  for (const FunctionDecl& fn : program->functions) {
    impl_->globals[fn.name].function = Value(FunctionRef(program, &fn));
  }

  return impl_
      ->enter([&]() -> Result<Value> {
        std::vector<Value> frame(program->frame_size);
        const Flow flow = impl_->exec_block(program->top_level, frame.data());
        impl_->result = Value::nil();
        if (flow != Flow::kNormal) return stray(flow);
        return Value::nil();
      })
      .status();
}

bool Interp::has_function(std::string_view name) const { return !function(name).is_nil(); }

std::vector<std::string> Interp::function_names() const {
  std::vector<std::string> names;
  for (const auto& [name, global] : impl_->globals) {
    if (!global.function.is_nil()) names.push_back(name);
  }
  return names;
}

Value Interp::function(std::string_view name) const {
  const auto it = impl_->globals.find(name);
  return it == impl_->globals.end() ? Value::nil() : it->second.function;
}

Result<Value> Interp::call(std::string_view name, std::vector<Value> args) {
  const Value fn = function(name);
  if (fn.is_nil()) return not_found("script: no function '" + std::string(name) + "'");
  return invoke(fn, args);
}

Result<Value> Interp::invoke(const Value& fn, std::span<const Value> args) {
  if (fn.type() != Value::Type::kFunction) {
    return invalid_argument("script: value of type " + std::string(fn.type_name()) +
                            " is not a script function");
  }
  return impl_->enter([&]() -> Result<Value> {
    const std::size_t base = impl_->arg_stack.size();
    impl_->arg_stack.insert(impl_->arg_stack.end(), args.begin(), args.end());
    return impl_->call_script(fn.function(), base, fn.function().line);
  });
}

void Interp::set_global(std::string name, Value value) {
  Impl::define(impl_->globals[std::move(name)], std::move(value));
}

Result<Value> Interp::global(std::string_view name) const {
  const auto it = impl_->globals.find(name);
  if (it != impl_->globals.end() && it->second.defined) return it->second.value;
  return not_found("script: no global '" + std::string(name) + "'");
}

void Interp::register_native(std::string name, NativeFn fn) {
  set_global(std::move(name), Value(std::make_shared<NativeFn>(std::move(fn))));
}

std::vector<std::string>& Interp::output() { return impl_->print_output; }

}  // namespace ipa::script
