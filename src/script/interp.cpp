#include "script/interp.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <typeinfo>
#include <utility>

#include "common/strings.hpp"
#include "script/parser.hpp"

namespace ipa::script {

/// A global binding. The compiler interns every name a script reads as a
/// global, defined or not, and binds its code to the entry; std::map nodes
/// never move, so that pointer stays valid for the interpreter's lifetime
/// and a later set_global() fills the same entry.
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

// Error paths are cold and out of line, so that the nodes' hot paths stay
// small enough to inline.
[[noreturn, gnu::cold, gnu::noinline]] void fail(StatusCode code, const std::string& msg,
                                                 int line) {
  throw ScriptError{Status(code, msg + " (line " + std::to_string(line) + ")")};
}

[[noreturn, gnu::cold, gnu::noinline]] void fail_budget(int line) {
  fail(StatusCode::kResourceExhausted, "script exceeded its step budget", line);
}

/// How a statement finished; a `return` leaves its value in Machine::result.
enum class Flow { kNormal, kReturn, kBreak, kContinue };

/// The error for a `return`, `break` or `continue` that left its context.
Status stray(Flow flow) {
  if (flow == Flow::kReturn) return invalid_argument("script: 'return' outside a function");
  return invalid_argument(std::string("script: '") +
                          (flow == Flow::kBreak ? "break" : "continue") + "' outside a loop");
}

/// The value stack every call frame is a slice of. It grows in chunks that
/// never move, so a caller's frame stays put while its callees push theirs.
class ValueStack {
 public:
  struct Mark {
    std::size_t chunk;
    std::size_t top;
  };

  ValueStack() {
    chunks_.push_back(make_chunk(kChunkSlots));
    enter_chunk(0, 0);
  }

  Mark mark() const { return {chunk_, top_}; }

  /// `n` contiguous nil slots on top of the stack.
  Value* push(std::size_t n) {
    if (top_ + n > size_) [[unlikely]] next_chunk(n);
    Value* base = slots_ + top_;
    top_ += n;
    return base;
  }

  /// Pop back to `mark`, clearing the popped slots so that they hold no
  /// references.
  void pop(Mark mark) {
    if (chunk_ != mark.chunk) [[unlikely]] pop_chunks(mark.chunk);
    for (std::size_t i = mark.top; i < top_; ++i) slots_[i] = Value();
    top_ = mark.top;
  }

 private:
  static constexpr std::size_t kChunkSlots = 512;

  struct Chunk {
    std::unique_ptr<Value[]> slots;
    std::size_t size = 0;
    std::size_t used = 0;  // the top when a frame moved on to the next chunk
  };

  static Chunk make_chunk(std::size_t size) {
    return {std::make_unique<Value[]>(size), size, 0};
  }

  void enter_chunk(std::size_t chunk, std::size_t top) {
    chunk_ = chunk;
    slots_ = chunks_[chunk].slots.get();
    size_ = chunks_[chunk].size;
    top_ = top;
  }

  [[gnu::noinline]] void next_chunk(std::size_t n) {
    chunks_[chunk_].used = top_;
    const std::size_t next = chunk_ + 1;
    if (next == chunks_.size()) {
      chunks_.push_back(make_chunk(std::max(n, kChunkSlots)));
    } else if (chunks_[next].size < n) {
      chunks_[next] = make_chunk(n);  // empty: nothing above the top lives
    }
    enter_chunk(next, 0);
  }

  [[gnu::noinline]] void pop_chunks(std::size_t chunk) {
    while (chunk_ > chunk) {
      for (std::size_t i = 0; i < top_; ++i) slots_[i] = Value();
      enter_chunk(chunk_ - 1, chunks_[chunk_ - 1].used);
    }
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;
  Value* slots_ = nullptr;  // chunks_[chunk_]
  std::size_t size_ = 0;
  std::size_t top_ = 0;
};

/// Run state shared by every compiled node of one interpreter.
struct Machine {
  static constexpr int kMaxCallDepth = 256;

  std::uint64_t max_steps = 0;
  std::uint64_t steps = 0;
  int call_depth = 0;
  Value result;  // a `return`'s value on its way to the caller
  Value spill;   // the non-number a num() that returned false produced
  ValueStack stack;

  /// Charge `n` steps, all on `line`.
  [[gnu::always_inline]] void tick(std::uint32_t n, int line) {
    steps += n;
    if (steps > max_steps) [[unlikely]] fail_budget(line);
  }
};

/// The num() result for a value that is not a number.
[[gnu::cold, gnu::noinline]] bool spill(Machine& m, const Value& value) {
  m.spill = value;
  return false;
}

// --- compiled code -------------------------------------------------------------
//
// Each node is a callable bound at load time to its operands: frame slots,
// Global entries, literals and child nodes. Every node charges its steps at
// entry, before it evaluates anything. A node whose own first steps are
// followed at once by a child's, with nothing between them that could fail,
// charges both in one tick when they are on one line; so step counts, and
// the line a budget error names, are those of one step per statement,
// expression and loop iteration.

class ExprNode;
class StmtNode;
using ExprNodePtr = std::unique_ptr<ExprNode>;
using StmtNodePtr = std::unique_ptr<StmtNode>;
using Block = std::vector<StmtNodePtr>;

class ExprNode {
 public:
  ExprNode(int line, std::uint32_t ticks) : line_(line), ticks_(ticks) {}
  virtual ~ExprNode() = default;

  virtual Value eval(Machine& m, Value* frame) const = 0;

  /// Evaluate to a number: true with `out` set, or false with the value
  /// left in m.spill.
  virtual bool num(Machine& m, Value* frame, double& out) const {
    Value value = eval(m, frame);
    if (value.is_number()) {
      out = value.number();
      return true;
    }
    m.spill = std::move(value);
    return false;
  }

  /// Evaluate as a condition.
  virtual bool test(Machine& m, Value* frame) const {
    const Value value = eval(m, frame);
    return value.is_bool() ? value.boolean() : value.truthy();
  }

  /// Storage that holds this node's value and that nothing evaluated
  /// afterwards can change: a literal, or a local's slot (only statements
  /// assign locals, and callees have their own frames). A native's lone
  /// argument or a method's receiver is read there instead of copied. Null
  /// when there is none; charges the node's steps only when it returns
  /// storage.
  virtual const Value* borrow(Machine&, Value*) const { return nullptr; }

  /// Evaluate, borrowing the node's storage where it has some and copying
  /// the value into `scratch` otherwise.
  const Value& ref(Machine& m, Value* frame, Value& scratch) const {
    if (const Value* lent = borrow(m, frame)) return *lent;
    scratch = eval(m, frame);
    return scratch;
  }

  /// Take over the tick of a statement on this node's line that runs it
  /// first thing.
  virtual void absorb(std::uint32_t ticks) { ticks_ += ticks; }
  int line() const { return line_; }

 protected:
  void tick(Machine& m) const { m.tick(ticks_, line_); }

  int line_;
  std::uint32_t ticks_;
};

class StmtNode {
 public:
  explicit StmtNode(int line) : line_(line) {}
  virtual ~StmtNode() = default;

  virtual Flow exec(Machine& m, Value* frame) const = 0;

  /// Hand this statement's own tick to `expr`, its first step, when both
  /// are on one line.
  void fold_into(ExprNode& expr) {
    if (expr.line() != line_ || ticks_ == 0) return;
    expr.absorb(ticks_);
    ticks_ = 0;
  }

 protected:
  void tick(Machine& m) const { m.tick(ticks_, line_); }

  int line_;
  std::uint32_t ticks_ = 1;
};

Flow run_block(const Block& block, Machine& m, Value* frame) {
  for (const StmtNodePtr& stmt : block) {
    const Flow flow = stmt->exec(m, frame);
    if (flow != Flow::kNormal) return flow;
  }
  return Flow::kNormal;
}

/// `list index 5` / `list index nan`: an index as the error names it.
std::string index_text(double index) {
  if (std::isnan(index)) return "nan";
  if (std::fabs(index) < 9.2e18) {
    return std::to_string(static_cast<long long>(index));
  }
  return strings::format("%g", index);
}

/// `index` truncated toward zero, when that is a position in `size` items.
/// The check is written so that NaN fails it before any integer conversion.
bool in_range(double index, std::size_t size) {
  return index > -1.0 && index < static_cast<double>(size);
}

[[noreturn, gnu::cold, gnu::noinline]] void fail_depth(int line) {
  fail(StatusCode::kResourceExhausted,
       "recursion too deep (limit " + std::to_string(Machine::kMaxCallDepth) + ")", line);
}

[[noreturn, gnu::cold, gnu::noinline]] void fail_index_type(int line) {
  fail(StatusCode::kInvalidArgument, "index must be a number", line);
}

[[noreturn, gnu::cold, gnu::noinline]] void fail_list_index(double index, std::size_t size,
                                                            int line) {
  fail(StatusCode::kOutOfRange,
       strings::format("list index %s out of range (size %zu)", index_text(index).c_str(), size),
       line);
}

std::size_t to_position(double index) {
  return static_cast<std::size_t>(static_cast<std::int64_t>(index));
}

/// `lhs op rhs` when the operands are not both numbers: equality on any
/// values, `+` on strings and lists, ordering on strings; the rest fails.
Value binary_generic(Op op, const Value& lhs, const Value& rhs, int line) {
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
         "cannot add " + std::string(lhs.type_name()) + " and " + std::string(rhs.type_name()),
         line);
  }

  if (op == Op::kLt || op == Op::kLe || op == Op::kGt || op == Op::kGe) {
    if (!lhs.is_string() || !rhs.is_string()) {
      fail(StatusCode::kInvalidArgument,
           "cannot compare " + std::string(lhs.type_name()) + " with " +
               std::string(rhs.type_name()),
           line);
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
       line);
}

// --- leaves --------------------------------------------------------------------

class Literal final : public ExprNode {
 public:
  Literal(int line, Value value) : ExprNode(line, 1), value_(std::move(value)) {}

  Value eval(Machine& m, Value*) const override {
    tick(m);
    return value_;
  }
  bool num(Machine& m, Value*, double& out) const override {
    tick(m);
    if (value_.is_number()) {
      out = value_.number();
      return true;
    }
    m.spill = value_;
    return false;
  }
  bool test(Machine& m, Value*) const override {
    tick(m);
    return value_.truthy();
  }
  const Value* borrow(Machine& m, Value*) const override {
    tick(m);
    return &value_;
  }

 private:
  Value value_;
};

class Local final : public ExprNode {
 public:
  Local(int line, int slot) : ExprNode(line, 1), slot_(slot) {}

  Value eval(Machine& m, Value* frame) const override {
    tick(m);
    return frame[slot_];
  }
  bool num(Machine& m, Value* frame, double& out) const override {
    tick(m);
    const Value& value = frame[slot_];
    if (!value.is_number()) [[unlikely]] return spill(m, value);
    out = value.number();
    return true;
  }
  bool test(Machine& m, Value* frame) const override {
    tick(m);
    const Value& value = frame[slot_];
    return value.is_bool() ? value.boolean() : value.truthy();
  }
  const Value* borrow(Machine& m, Value* frame) const override {
    tick(m);
    return &frame[slot_];
  }

 private:
  int slot_;
};

/// The value a global name reads: its definition, else the loaded
/// program's function of that name.
[[noreturn, gnu::cold, gnu::noinline]] void fail_undefined(const std::string& name, int line) {
  fail(StatusCode::kNotFound, "undefined variable '" + name + "'", line);
}

inline const Value& read_global(const Global& global, const std::string& name, int line) {
  if (global.defined) return global.value;
  if (global.function.is_nil()) [[unlikely]] fail_undefined(name, line);
  return global.function;
}

class GlobalVar final : public ExprNode {
 public:
  GlobalVar(int line, Global* global, std::string name)
      : ExprNode(line, 1), global_(global), name_(std::move(name)) {}

  Value eval(Machine& m, Value*) const override {
    tick(m);
    return read_global(*global_, name_, line_);
  }

 private:
  Global* global_;
  std::string name_;
};

// --- operands of fused nodes ---------------------------------------------------
//
// A fused node reads a leaf operand (a local, or a number literal, on the
// node's own line) in place and charges its step with its own. A node
// operand is a child node that ticks for itself.

struct LocalArg {
  static constexpr bool kLeaf = true;
  int slot;

  [[gnu::always_inline]] bool num(Machine& m, Value* frame, double& out) const {
    const Value& value = frame[slot];
    if (!value.is_number()) [[unlikely]] return spill(m, value);
    out = value.number();
    return true;
  }
  [[gnu::always_inline]] const Value& ref(Machine&, Value* frame, Value&) const {
    return frame[slot];
  }
  [[gnu::always_inline]] const Value& read(Value* frame) const { return frame[slot]; }
  [[gnu::always_inline]] Value eval(Machine&, Value* frame) const { return frame[slot]; }
};

struct NumberArg {
  static constexpr bool kLeaf = true;
  Value value;  // a number

  [[gnu::always_inline]] bool num(Machine&, Value*, double& out) const {
    out = value.number();
    return true;
  }
  [[gnu::always_inline]] Value eval(Machine&, Value*) const { return value; }
};

struct NodeArg {
  static constexpr bool kLeaf = false;
  ExprNodePtr node;

  [[gnu::always_inline]] bool num(Machine& m, Value* frame, double& out) const {
    return node->num(m, frame, out);
  }
  [[gnu::always_inline]] const Value& ref(Machine& m, Value* frame, Value& scratch) const {
    return node->ref(m, frame, scratch);
  }
  [[gnu::always_inline]] Value eval(Machine& m, Value* frame) const { return node->eval(m, frame); }
};

/// Steps a fused node with operands A then B charges at entry: its own, a
/// leaf A's, and a leaf B's when A is a leaf too (reading A cannot fail).
/// A leaf B after a node A ticks once A is done (kLateTick).
template <class A, class B>
struct FusedTicks {
  static constexpr std::uint32_t kEntry = 1 + A::kLeaf + (A::kLeaf && B::kLeaf);
  static constexpr bool kLateTick = !A::kLeaf && B::kLeaf;
};

/// `container[index]` on a list or a string.
template <class C, class I>
class Index final : public ExprNode {
  using Ticks = FusedTicks<C, I>;

 public:
  Index(int line, C container, I index)
      : ExprNode(line, Ticks::kEntry), container_(std::move(container)), index_(std::move(index)) {}

  Value eval(Machine& m, Value* frame) const override {
    return with_operands(m, frame, [&](const Value& container, double index) {
      if (container.is_list()) return container.list()[list_position(container.list(), index)];
      return character(container, index);
    });
  }

  bool num(Machine& m, Value* frame, double& out) const override {
    return with_operands(m, frame, [&](const Value& container, double index) {
      if (!container.is_list()) [[unlikely]] {
        m.spill = character(container, index);
        return false;
      }
      const Value& item = container.list()[list_position(container.list(), index)];
      if (!item.is_number()) [[unlikely]] return spill(m, item);
      out = item.number();
      return true;
    });
  }

 private:
  /// Evaluate the container, then the index, and hand both to `use`. A leaf
  /// container is read in place, with no scratch value to clean up.
  template <typename Use>
  auto with_operands(Machine& m, Value* frame, Use&& use) const {
    tick(m);
    if constexpr (C::kLeaf) {
      const Value& container = container_.read(frame);
      return use(container, index(m, frame));
    } else {
      Value scratch;
      const Value& container = container_.ref(m, frame, scratch);
      return use(container, index(m, frame));
    }
  }

  double index(Machine& m, Value* frame) const {
    if constexpr (Ticks::kLateTick) m.tick(1, line_);
    double index;
    if (!index_.num(m, frame, index)) [[unlikely]] fail_index_type(line_);
    return index;
  }

  std::size_t list_position(const List& items, double index) const {
    if (!in_range(index, items.size())) [[unlikely]] fail_list_index(index, items.size(), line_);
    return to_position(index);
  }

  Value character(const Value& container, double index) const {
    if (!container.is_string()) {
      fail(StatusCode::kInvalidArgument,
           "cannot index " + std::string(container.type_name()), line_);
    }
    const std::string& s = container.string();
    if (!in_range(index, s.size())) {
      fail(StatusCode::kOutOfRange, "string index out of range", line_);
    }
    return Value(std::string(1, s[to_position(index)]));
  }

  C container_;
  I index_;
};

/// A `list[index]` of two locals on the fused node's line, read in place.
/// Unlike a leaf it can fail, so it charges its own steps when it runs.
struct IndexArg {
  static constexpr bool kLeaf = false;
  Index<LocalArg, LocalArg> read;

  bool num(Machine& m, Value* frame, double& out) const { return read.num(m, frame, out); }
  Value eval(Machine& m, Value* frame) const { return read.eval(m, frame); }
};

// --- operators -----------------------------------------------------------------

/// Nodes whose value is a bool compute it in test().
class BoolExpr : public ExprNode {
 public:
  using ExprNode::ExprNode;

  Value eval(Machine& m, Value* frame) const final { return Value(test(m, frame)); }
  bool num(Machine& m, Value* frame, double&) const final {
    m.spill = Value(test(m, frame));
    return false;
  }
};

constexpr bool is_compare(Op op) {
  return op == Op::kEq || op == Op::kNe || op == Op::kLt || op == Op::kLe || op == Op::kGt ||
         op == Op::kGe;
}

/// Arithmetic on two numbers; never builds a Value.
template <Op kOp>
double arithmetic(double a, double b, int line) {
  if constexpr (kOp == Op::kAdd) return a + b;
  if constexpr (kOp == Op::kSub) return a - b;
  if constexpr (kOp == Op::kMul) return a * b;
  if constexpr (kOp == Op::kDiv) {
    if (b == 0.0) fail(StatusCode::kInvalidArgument, "division by zero", line);
    return a / b;
  }
  if constexpr (kOp == Op::kMod) {
    if (b == 0.0) fail(StatusCode::kInvalidArgument, "modulo by zero", line);
    return std::fmod(a, b);
  }
}

/// A compare of two numbers. A NaN compares unordered: neither less nor
/// greater, so <= and >= hold for it, as a three-way compare would have it.
template <Op kOp>
bool compare(double a, double b) {
  if constexpr (kOp == Op::kEq) return a == b;
  if constexpr (kOp == Op::kNe) return a != b;
  if constexpr (kOp == Op::kLt) return a < b;
  if constexpr (kOp == Op::kLe) return !(a > b);
  if constexpr (kOp == Op::kGt) return a > b;
  if constexpr (kOp == Op::kGe) return !(a < b);
}

/// Evaluates both operands of a binary operator in order. On two numbers
/// it runs on doubles; anything else goes to binary_generic().
template <Op kOp, class L, class R>
class Binary final : public ExprNode {
  using Ticks = FusedTicks<L, R>;

 public:
  Binary(int line, L lhs, R rhs)
      : ExprNode(line, Ticks::kEntry), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Value eval(Machine& m, Value* frame) const override {
    if constexpr (is_compare(kOp)) {
      return Value(test(m, frame));
    } else {
      double out;
      if (num(m, frame, out)) return Value(out);
      return std::move(m.spill);
    }
  }

  bool num(Machine& m, Value* frame, double& out) const override {
    if constexpr (is_compare(kOp)) {
      m.spill = Value(test(m, frame));
      return false;
    } else {
      double a, b;
      if (!operands(m, frame, a, b)) return false;  // a string or a list
      out = arithmetic<kOp>(a, b, line_);
      return true;
    }
  }

  [[gnu::always_inline]] bool test(Machine& m, Value* frame) const override {
    if constexpr (is_compare(kOp)) {
      double a, b;
      if (!operands(m, frame, a, b)) return m.spill.boolean();
      return compare<kOp>(a, b);
    } else {
      double out;
      if (num(m, frame, out)) return out != 0.0;
      return Value(std::move(m.spill)).truthy();
    }
  }

 private:
  /// True with both operands' numbers; false with the generic result in
  /// m.spill, which is never a number.
  [[gnu::always_inline]] bool operands(Machine& m, Value* frame, double& a, double& b) const {
    tick(m);
    if (!lhs_.num(m, frame, a)) [[unlikely]] {
      Value lhs = std::move(m.spill);
      if constexpr (Ticks::kLateTick) m.tick(1, line_);
      const Value rhs = rhs_.eval(m, frame);
      m.spill = binary_generic(kOp, lhs, rhs, line_);
      return false;
    }
    if constexpr (Ticks::kLateTick) m.tick(1, line_);
    if (!rhs_.num(m, frame, b)) [[unlikely]] {
      const Value rhs = std::move(m.spill);
      m.spill = binary_generic(kOp, Value(a), rhs, line_);
      return false;
    }
    return true;
  }

  L lhs_;
  R rhs_;
};

class Negate final : public ExprNode {
 public:
  Negate(int line, ExprNodePtr operand) : ExprNode(line, 1), operand_(std::move(operand)) {}

  Value eval(Machine& m, Value* frame) const override {
    double out;
    num(m, frame, out);
    return Value(out);
  }
  bool num(Machine& m, Value* frame, double& out) const override {
    tick(m);
    double a;
    if (!operand_->num(m, frame, a)) {
      fail(StatusCode::kInvalidArgument,
           "unary '-' needs a number, got " + std::string(m.spill.type_name()), line_);
    }
    out = -a;
    return true;
  }
  bool test(Machine& m, Value* frame) const override {
    double out;
    num(m, frame, out);
    return out != 0.0;
  }

 private:
  ExprNodePtr operand_;
};

class Not final : public BoolExpr {
 public:
  Not(int line, ExprNodePtr operand) : BoolExpr(line, 1), operand_(std::move(operand)) {}

  bool test(Machine& m, Value* frame) const override {
    tick(m);
    return !operand_->test(m, frame);
  }

 private:
  ExprNodePtr operand_;
};

template <bool kAnd>
class Logical final : public BoolExpr {
 public:
  Logical(int line, ExprNodePtr lhs, ExprNodePtr rhs)
      : BoolExpr(line, 1), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  bool test(Machine& m, Value* frame) const override {
    tick(m);
    const bool lhs = lhs_->test(m, frame);
    if (kAnd ? !lhs : lhs) return lhs;
    return rhs_->test(m, frame);
  }

 private:
  ExprNodePtr lhs_;
  ExprNodePtr rhs_;
};

class ListExpr final : public ExprNode {
 public:
  ListExpr(int line, std::vector<ExprNodePtr> items)
      : ExprNode(line, 1), items_(std::move(items)) {}

  Value eval(Machine& m, Value* frame) const override {
    tick(m);
    List items;
    items.reserve(items_.size());
    for (const ExprNodePtr& item : items_) items.push_back(item->eval(m, frame));
    return Value::list(std::move(items));
  }

 private:
  std::vector<ExprNodePtr> items_;
};

// --- calls ---------------------------------------------------------------------

}  // namespace

/// A compiled function: its body runs on a frame of `frame_size` slots whose
/// first `arity` hold the arguments.
struct Function {
  std::string name;
  std::size_t arity = 0;
  std::size_t frame_size = 0;
  int line = 1;
  Block body;
};

namespace {

/// Run `fn` on `frame`, whose first `argc` slots hold the arguments; its
/// result is left in m.result.
inline void run_function(Machine& m, const Function& fn, Value* frame, std::size_t argc,
                         int line) {
  if (m.call_depth >= Machine::kMaxCallDepth) [[unlikely]] fail_depth(line);
  if (argc != fn.arity) [[unlikely]] {
    fail(StatusCode::kInvalidArgument,
         strings::format("function '%s' expects %zu argument(s), got %zu", fn.name.c_str(),
                         fn.arity, argc),
         line);
  }
  ++m.call_depth;
  const Flow flow = run_block(fn.body, m, frame);
  --m.call_depth;
  if (flow == Flow::kReturn) return;
  if (flow != Flow::kNormal) throw ScriptError{stray(flow)};
  m.result = Value::nil();
}

/// A call's arguments, evaluated in order.
class Args {
 public:
  explicit Args(std::vector<ExprNodePtr> args) : args_(std::move(args)) {}

  std::size_t size() const { return args_.size(); }

  /// Evaluate the arguments, in order, into `slots`.
  void eval_into(Machine& m, Value* frame, Value* slots) const {
    for (std::size_t i = 0; i < args_.size(); ++i) slots[i] = args_[i]->eval(m, frame);
  }

  /// The arguments for a native: a lone local or literal is lent in place;
  /// any other arguments are evaluated into slots pushed on the value stack.
  std::span<const Value> for_native(Machine& m, Value* frame) const {
    if (args_.size() == 1) {
      if (const Value* lent = args_[0]->borrow(m, frame)) return {lent, 1};
    }
    Value* slots = m.stack.push(args_.size());
    eval_into(m, frame, slots);
    return {slots, args_.size()};
  }

 private:
  std::vector<ExprNodePtr> args_;
};

/// Call a callee that is not a script function: a native, or an error.
[[gnu::noinline]] void call_native(Machine& m, Value* frame, const Value& callee,
                                   const Args& args, int line) {
  const ValueStack::Mark mark = m.stack.mark();
  const std::span<const Value> native = args.for_native(m, frame);
  if (callee.type() != Value::Type::kNative) [[unlikely]] {
    fail(StatusCode::kInvalidArgument,
         "value of type " + std::string(callee.type_name()) + " is not callable", line);
  }
  auto called = callee.native()(native);
  m.stack.pop(mark);
  if (!called.is_ok()) [[unlikely]] fail(called.status().code(), called.status().message(), line);
  m.result = std::move(*called);
}

/// Call `callee` with `args`, leaving the result in m.result. A script
/// function's arguments go straight into its frame on the value stack.
inline void call(Machine& m, Value* frame, const Value& callee, const Args& args, int line) {
  if (callee.type() != Value::Type::kFunction) return call_native(m, frame, callee, args, line);
  const ValueStack::Mark mark = m.stack.mark();
  const Function& fn = callee.function();
  const std::size_t argc = args.size();
  Value* slots = m.stack.push(std::max(argc, fn.frame_size));
  args.eval_into(m, frame, slots);
  run_function(m, fn, slots, argc, line);
  m.stack.pop(mark);
}

/// Calls leave their result in m.result; this hands it on. `Call::run()`
/// makes the call.
template <class Call>
class CallExpr : public ExprNode {
 public:
  using ExprNode::ExprNode;

  Value eval(Machine& m, Value* frame) const final {
    static_cast<const Call&>(*this).run(m, frame);
    return std::move(m.result);
  }
  bool num(Machine& m, Value* frame, double& out) const final {
    static_cast<const Call&>(*this).run(m, frame);
    if (!m.result.is_number()) [[unlikely]] {
      m.spill = std::move(m.result);
      return false;
    }
    out = m.result.number();
    return true;
  }
};

/// `name(args)` where `name` is a global, on the call's line: one tick for
/// the call and the name.
class CallGlobal final : public CallExpr<CallGlobal> {
 public:
  CallGlobal(int line, Global* global, std::string name, Args args)
      : CallExpr(line, 2), global_(global), name_(std::move(name)), args_(std::move(args)) {}

  void run(Machine& m, Value* frame) const {
    tick(m);
    const Value& callee = read_global(*global_, name_, line_);
    // A function binding changes only on load(); a defined global can be
    // reassigned while the arguments run, so the call holds its own copy.
    if (!global_->defined) return call(m, frame, callee, args_, line_);
    const Value held = callee;
    call(m, frame, held, args_, line_);
  }

 private:
  Global* global_;
  std::string name_;
  Args args_;
};

/// A call `f(a, b)` of a function `f(params) { return expr; }` of the same
/// program, where `expr` calls nothing and every argument is a local on the
/// call's line, compiled into the caller: `expr` runs on the caller's frame
/// with each parameter bound to its argument's slot. It charges the call's
/// steps and makes its depth check; while the global names another function
/// (after a rebinding or a reload), it makes the call instead.
class InlineCall final : public ExprNode {
 public:
  InlineCall(CallGlobal call, std::uint32_t ticks, const Global* global, const Function* fn,
             ExprNodePtr body)
      : ExprNode(call.line(), ticks),
        call_(std::move(call)),
        global_(global),
        fn_(fn),
        body_(std::move(body)) {}

  Value eval(Machine& m, Value* frame) const override {
    if (!current()) return call_.eval(m, frame);
    enter(m);
    return body_->eval(m, frame);
  }
  bool num(Machine& m, Value* frame, double& out) const override {
    if (!current()) return call_.num(m, frame, out);
    enter(m);
    return body_->num(m, frame, out);
  }
  void absorb(std::uint32_t ticks) override {
    ExprNode::absorb(ticks);
    call_.absorb(ticks);
  }

 private:
  bool current() const {
    return !global_->defined && global_->function.type() == Value::Type::kFunction &&
           &global_->function.function() == fn_;
  }

  /// The call's and its arguments' steps, then its depth check.
  void enter(Machine& m) const {
    tick(m);
    if (m.call_depth >= Machine::kMaxCallDepth) [[unlikely]] fail_depth(line_);
  }

  CallGlobal call_;
  const Global* global_;
  const Function* fn_;
  ExprNodePtr body_;  // the return expression, on the caller's frame
};

class CallValue final : public CallExpr<CallValue> {
 public:
  CallValue(int line, ExprNodePtr callee, Args args)
      : CallExpr(line, 1), callee_(std::move(callee)), args_(std::move(args)) {}

  void run(Machine& m, Value* frame) const {
    tick(m);
    Value scratch;
    const Value& callee = callee_->ref(m, frame, scratch);
    call(m, frame, callee, args_, line_);
  }

 private:
  ExprNodePtr callee_;
  Args args_;
};

/// `receiver.name(args)`. The site looks the method up once per receiver
/// type, and keeps a CallSiteCache for it when the first argument is a
/// string literal.
template <class R>
class MethodCall final : public CallExpr<MethodCall<R>> {
 public:
  MethodCall(int line, R receiver, std::string name, Args args, bool literal_key)
      : CallExpr<MethodCall<R>>(line, 1 + R::kLeaf),
        receiver_(std::move(receiver)),
        name_(std::move(name)),
        args_(std::move(args)),
        literal_key_(literal_key) {}

  void run(Machine& m, Value* frame) const {
    this->tick(m);
    Value scratch;
    const Value& receiver = receiver_.ref(m, frame, scratch);
    if (!receiver.is_object()) {
      fail(StatusCode::kInvalidArgument,
           "cannot call method '" + name_ + "' on " + std::string(receiver.type_name()),
           this->line_);
    }
    NativeObject& object = *receiver.object();
    const ValueStack::Mark mark = m.stack.mark();
    const std::span<const Value> args = args_.for_native(m, frame);
    const std::type_info& type = typeid(object);
    if (type_ != &type) {
      type_ = &type;
      method_ = object.find_method(name_);
      cache_ = CallSiteCache();
    }
    if (method_ == nullptr) {
      fail(StatusCode::kUnimplemented,
           std::string(object.type_name()) + ": no method '" + name_ + "'", this->line_);
    }
    auto called = method_(object, args, literal_key_ ? &cache_ : nullptr);
    m.stack.pop(mark);
    if (!called.is_ok()) [[unlikely]] {
      fail(called.status().code(), called.status().message(), this->line_);
    }
    m.result = std::move(*called);
  }

 private:
  R receiver_;
  std::string name_;
  Args args_;
  bool literal_key_;
  mutable const std::type_info* type_ = nullptr;
  mutable NativeObject::Method method_ = nullptr;
  mutable CallSiteCache cache_;
};

// --- statements ----------------------------------------------------------------

class ExprStmt final : public StmtNode {
 public:
  ExprStmt(int line, ExprNodePtr expr) : StmtNode(line), expr_(std::move(expr)) {
    fold_into(*expr_);
  }

  Flow exec(Machine& m, Value* frame) const override {
    tick(m);
    expr_->eval(m, frame);
    return Flow::kNormal;
  }

 private:
  ExprNodePtr expr_;
};

/// `let` of a local, and `=` to one.
class SetLocal final : public StmtNode {
 public:
  SetLocal(int line, int slot, ExprNodePtr expr)
      : StmtNode(line), slot_(slot), expr_(std::move(expr)) {
    fold_into(*expr_);
  }

  Flow exec(Machine& m, Value* frame) const override {
    tick(m);
    frame[slot_] = expr_->eval(m, frame);
    return Flow::kNormal;
  }

 private:
  int slot_;
  ExprNodePtr expr_;
};

/// A top-level `let`.
class DefineGlobal final : public StmtNode {
 public:
  DefineGlobal(int line, Global* global, ExprNodePtr expr)
      : StmtNode(line), global_(global), expr_(std::move(expr)) {
    fold_into(*expr_);
  }

  Flow exec(Machine& m, Value* frame) const override {
    tick(m);
    global_->value = expr_->eval(m, frame);
    global_->defined = true;
    return Flow::kNormal;
  }

 private:
  Global* global_;
  ExprNodePtr expr_;
};

[[noreturn]] void fail_compound(Op op, int line) {
  fail(StatusCode::kInvalidArgument, "'" + std::string(op_name(op)) + "' needs numbers", line);
}

/// `slot += value` / `slot -= value` on numbers.
void update(Value& slot, Op op, const Value& value, int line) {
  if (!slot.is_number() || !value.is_number()) fail_compound(op, line);
  slot = Value(op == Op::kAddSet ? slot.number() + value.number()
                                 : slot.number() - value.number());
}

/// `local += value` / `local -= value`; `x += 1` charges its literal's step
/// with its own.
template <bool kAdd, class V>
class UpdateLocal final : public StmtNode {
 public:
  UpdateLocal(int line, int slot, V value)
      : StmtNode(line), slot_(slot), value_(std::move(value)) {
    ticks_ += V::kLeaf;
  }

  Flow exec(Machine& m, Value* frame) const override {
    tick(m);
    double value;
    Value& slot = frame[slot_];
    if (!value_.num(m, frame, value) || !slot.is_number()) {
      fail_compound(kAdd ? Op::kAddSet : Op::kSubSet, line_);
    }
    slot = Value(kAdd ? slot.number() + value : slot.number() - value);
    return Flow::kNormal;
  }

 private:
  int slot_;
  V value_;
};

/// `=`, `+=` or `-=` to a global, which must be defined already.
class AssignGlobal final : public StmtNode {
 public:
  AssignGlobal(int line, Op op, Global* global, std::string name, ExprNodePtr expr)
      : StmtNode(line), op_(op), global_(global), name_(std::move(name)), expr_(std::move(expr)) {
    fold_into(*expr_);
  }

  Flow exec(Machine& m, Value* frame) const override {
    tick(m);
    Value value = expr_->eval(m, frame);
    if (!global_->defined) {
      fail(StatusCode::kNotFound,
           "assignment to undeclared variable '" + name_ + "' (use 'let')", line_);
    }
    if (op_ == Op::kSet) {
      global_->value = std::move(value);
    } else {
      update(global_->value, op_, value, line_);
    }
    return Flow::kNormal;
  }

 private:
  Op op_;
  Global* global_;
  std::string name_;
  ExprNodePtr expr_;
};

/// `list[index] = value` (or `+=`, `-=`): the value first, then the list,
/// then the index.
class AssignIndex final : public StmtNode {
 public:
  AssignIndex(int line, Op op, ExprNodePtr container, ExprNodePtr index, ExprNodePtr expr)
      : StmtNode(line),
        op_(op),
        container_(std::move(container)),
        index_(std::move(index)),
        expr_(std::move(expr)) {
    fold_into(*expr_);
  }

  Flow exec(Machine& m, Value* frame) const override {
    tick(m);
    Value scratch;
    const Value& value = expr_->ref(m, frame, scratch);
    const Value container = container_->eval(m, frame);  // keeps the list alive
    const Value index = index_->eval(m, frame);
    if (!container.is_list() || !index.is_number()) {
      fail(StatusCode::kInvalidArgument, "indexed assignment needs list[number]", line_);
    }
    List& items = container.list();
    if (!in_range(index.number(), items.size())) {
      fail(StatusCode::kOutOfRange, "list index out of range in assignment", line_);
    }
    Value& slot = items[to_position(index.number())];
    if (op_ == Op::kSet) {
      slot = value;
    } else {
      update(slot, op_, value, line_);
    }
    return Flow::kNormal;
  }

 private:
  Op op_;
  ExprNodePtr container_;
  ExprNodePtr index_;
  ExprNodePtr expr_;
};

class If final : public StmtNode {
 public:
  If(int line, ExprNodePtr cond, Block then_block, Block else_block)
      : StmtNode(line),
        cond_(std::move(cond)),
        then_(std::move(then_block)),
        else_(std::move(else_block)) {
    fold_into(*cond_);
  }

  Flow exec(Machine& m, Value* frame) const override {
    tick(m);
    return run_block(cond_->test(m, frame) ? then_ : else_, m, frame);
  }

 private:
  ExprNodePtr cond_;
  Block then_;
  Block else_;
};

/// `while` and `for`; the init, condition and step may be null. Every
/// iteration ticks, so a loop with an empty body and no condition or step
/// (`for (;;) {}`) still runs out of budget.
class Loop final : public StmtNode {
 public:
  Loop(int line, StmtNodePtr init, ExprNodePtr cond, StmtNodePtr step, Block body)
      : StmtNode(line),
        init_(std::move(init)),
        cond_(std::move(cond)),
        step_(std::move(step)),
        body_(std::move(body)) {}

  Flow exec(Machine& m, Value* frame) const override {
    tick(m);
    if (init_) init_->exec(m, frame);
    while (!cond_ || cond_->test(m, frame)) {
      m.tick(1, line_);
      const Flow flow = run_block(body_, m, frame);
      if (flow == Flow::kBreak) break;
      if (flow == Flow::kReturn) return flow;
      if (step_) step_->exec(m, frame);
    }
    return Flow::kNormal;
  }

 private:
  StmtNodePtr init_;
  ExprNodePtr cond_;
  StmtNodePtr step_;
  Block body_;
};

class Return final : public StmtNode {
 public:
  Return(int line, ExprNodePtr expr) : StmtNode(line), expr_(std::move(expr)) {
    if (expr_) fold_into(*expr_);
  }

  Flow exec(Machine& m, Value* frame) const override {
    tick(m);
    m.result = expr_ ? expr_->eval(m, frame) : Value::nil();
    return Flow::kReturn;
  }

 private:
  ExprNodePtr expr_;
};

/// `break`, `continue` and `{ ... }`.
class Jump final : public StmtNode {
 public:
  Jump(int line, Flow flow) : StmtNode(line), flow_(flow) {}

  Flow exec(Machine& m, Value*) const override {
    tick(m);
    return flow_;
  }

 private:
  Flow flow_;
};

class Nested final : public StmtNode {
 public:
  Nested(int line, Block body) : StmtNode(line), body_(std::move(body)) {}

  Flow exec(Machine& m, Value* frame) const override {
    tick(m);
    return run_block(body_, m, frame);
  }

 private:
  Block body_;
};

}  // namespace

/// A loaded program, compiled. Function values alias it, so it lives as
/// long as any of its functions does.
struct CompiledProgram {
  std::vector<Function> functions;
  Block top_level;
  std::size_t frame_size = 0;  // locals of nested top-level blocks
};

namespace {

/// Compiles a parsed program in one pass. It binds every parameter and
/// block-local `let` to a frame slot and every other name to an interned
/// Global as it goes, and picks fused nodes for leaf operands.
class Compiler {
 public:
  explicit Compiler(Globals& globals) : globals_(globals) {}

  std::shared_ptr<const CompiledProgram> compile(const Program& program) {
    auto compiled = std::make_shared<CompiledProgram>();
    // Sized up front, so that inlined calls can point at their callees.
    compiled->functions.resize(program.functions.size());
    // A function is inlined where it is called when its body is one
    // `return` of an expression that calls nothing. Of several functions of
    // one name, the last is the one the name binds.
    for (std::size_t i = 0; i < program.functions.size(); ++i) {
      const FunctionDecl& fn = program.functions[i];
      const bool one_return = fn.body.size() == 1 && fn.body[0]->kind == Stmt::Kind::kReturn &&
                              fn.body[0]->expr != nullptr && !runs_code(*fn.body[0]->expr);
      if (one_return) {
        inlinable_[fn.name] = {&fn, &compiled->functions[i]};
      } else {
        inlinable_.erase(fn.name);
      }
    }
    for (std::size_t i = 0; i < program.functions.size(); ++i) {
      const FunctionDecl& decl = program.functions[i];
      scopes_.assign(1, {});
      next_slot_ = max_slot_ = 0;
      for (const std::string& param : decl.params) declare(param);
      Function& fn = compiled->functions[i];
      fn.name = decl.name;
      fn.arity = decl.params.size();
      fn.line = decl.line;
      fn.body = statements(decl.body);  // the body shares the params' scope
      fn.frame_size = static_cast<std::size_t>(max_slot_);
    }
    scopes_.clear();  // no scope: top-level `let`s define globals
    next_slot_ = max_slot_ = 0;
    compiled->top_level = statements(program.top_level);
    compiled->frame_size = static_cast<std::size_t>(max_slot_);
    return compiled;
  }

 private:
  // --- scopes ---

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

  /// The frame slot `name` is bound to here, or -1 for a global.
  int local_slot(const std::string& name) const {
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      for (auto it = scope->rbegin(); it != scope->rend(); ++it) {
        if (it->first == name) return it->second;
      }
    }
    return -1;
  }

  Global* global(const std::string& name) { return &globals_[name]; }

  /// Hand `make` the operand form of `expr` as an operand of a node on
  /// `line`: a LocalArg or (when kNumbers) a NumberArg for a leaf on that
  /// line, a NodeArg otherwise.
  template <bool kNumbers, bool kIndexes = false, typename Make>
  auto with_operand(const Expr& expr, int line, Make&& make) {
    if (expr.line == line) {
      if (const int slot = local_leaf(expr, line); slot >= 0) return make(LocalArg{slot});
      if constexpr (kNumbers) {
        if (expr.kind == Expr::Kind::kLiteral && expr.literal.is_number()) {
          return make(NumberArg{expr.literal});
        }
      }
      if constexpr (kIndexes) {
        if (expr.kind == Expr::Kind::kIndex) {
          const int list = local_leaf(*expr.lhs, line);
          const int index = local_leaf(*expr.rhs, line);
          if (list >= 0 && index >= 0) {
            return make(IndexArg{{line, LocalArg{list}, LocalArg{index}}});
          }
        }
      }
    }
    return make(NodeArg{compile(expr)});
  }

  /// The slot of `expr` when it is a local on `line`, else -1.
  int local_leaf(const Expr& expr, int line) const {
    if (expr.kind != Expr::Kind::kVar || expr.line != line) return -1;
    return local_slot(expr.text);
  }

  // --- statements ---

  Block statements(const std::vector<StmtPtr>& body) {
    Block block;
    block.reserve(body.size());
    for (const StmtPtr& stmt : body) block.push_back(compile(*stmt));
    return block;
  }

  Block block(const std::vector<StmtPtr>& body) {
    Block out;
    scoped([&] { out = statements(body); });
    return out;
  }

  StmtNodePtr compile(const Stmt& stmt) {
    const int line = stmt.line;
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
        return std::make_unique<ExprStmt>(line, compile(*stmt.expr));
      case Stmt::Kind::kLet: {
        ExprNodePtr value = compile(*stmt.expr);  // first, so `let x = x + 1;` reads the outer x
        if (scopes_.empty()) {
          return std::make_unique<DefineGlobal>(line, global(stmt.name), std::move(value));
        }
        return std::make_unique<SetLocal>(line, declare(stmt.name), std::move(value));
      }
      case Stmt::Kind::kAssign:
        return assign(stmt);
      case Stmt::Kind::kIf: {
        ExprNodePtr cond = compile(*stmt.cond);
        Block then_block = block(stmt.body);
        return std::make_unique<If>(line, std::move(cond), std::move(then_block),
                                    block(stmt.else_body));
      }
      case Stmt::Kind::kWhile:
        return loop(stmt, nullptr);
      case Stmt::Kind::kFor: {
        // The header is its own scope; the step sees it but not the body.
        StmtNodePtr compiled;
        scoped([&] { compiled = loop(stmt, stmt.init ? compile(*stmt.init) : nullptr); });
        return compiled;
      }
      case Stmt::Kind::kReturn:
        return std::make_unique<Return>(line, stmt.expr ? compile(*stmt.expr) : nullptr);
      case Stmt::Kind::kBreak:
        return std::make_unique<Jump>(line, Flow::kBreak);
      case Stmt::Kind::kContinue:
        return std::make_unique<Jump>(line, Flow::kContinue);
      case Stmt::Kind::kBlock:
        return std::make_unique<Nested>(line, block(stmt.body));
    }
    return nullptr;
  }

  /// A loop: the condition, then the body in its own scope, then the step.
  StmtNodePtr loop(const Stmt& stmt, StmtNodePtr init) {
    ExprNodePtr cond = stmt.cond ? compile(*stmt.cond) : nullptr;
    Block body = block(stmt.body);
    StmtNodePtr step = stmt.step ? compile(*stmt.step) : nullptr;
    return std::make_unique<Loop>(stmt.line, std::move(init), std::move(cond), std::move(step),
                                  std::move(body));
  }

  StmtNodePtr assign(const Stmt& stmt) {
    const int line = stmt.line;
    const Expr& target = *stmt.target;
    if (target.kind == Expr::Kind::kIndex) {
      ExprNodePtr value = compile(*stmt.expr);
      ExprNodePtr container = compile(*target.lhs);
      return std::make_unique<AssignIndex>(line, stmt.op, std::move(container),
                                           compile(*target.rhs), std::move(value));
    }
    const int slot = local_slot(target.text);
    if (slot < 0) {
      return std::make_unique<AssignGlobal>(line, stmt.op, global(target.text), target.text,
                                            compile(*stmt.expr));
    }
    if (stmt.op == Op::kSet) {
      return std::make_unique<SetLocal>(line, slot, compile(*stmt.expr));
    }
    const bool add = stmt.op == Op::kAddSet;
    return with_operand<true, true>(*stmt.expr, line, [&](auto value) -> StmtNodePtr {
      using V = decltype(value);
      if (add) return std::make_unique<UpdateLocal<true, V>>(line, slot, std::move(value));
      return std::make_unique<UpdateLocal<false, V>>(line, slot, std::move(value));
    });
  }

  // --- expressions ---

  ExprNodePtr compile(const Expr& expr) {
    const int line = expr.line;
    switch (expr.kind) {
      case Expr::Kind::kLiteral:
        return std::make_unique<Literal>(line, expr.literal);
      case Expr::Kind::kVar: {
        const int slot = local_slot(expr.text);
        if (slot >= 0) return std::make_unique<Local>(line, slot);
        return std::make_unique<GlobalVar>(line, global(expr.text), expr.text);
      }
      case Expr::Kind::kList: {
        std::vector<ExprNodePtr> items;
        for (const ExprPtr& item : expr.args) items.push_back(compile(*item));
        return std::make_unique<ListExpr>(line, std::move(items));
      }
      case Expr::Kind::kUnary:
        if (expr.op == Op::kNot) return std::make_unique<Not>(line, compile(*expr.lhs));
        return std::make_unique<Negate>(line, compile(*expr.lhs));
      case Expr::Kind::kLogical: {
        ExprNodePtr lhs = compile(*expr.lhs);
        if (expr.op == Op::kAnd) {
          return std::make_unique<Logical<true>>(line, std::move(lhs), compile(*expr.rhs));
        }
        return std::make_unique<Logical<false>>(line, std::move(lhs), compile(*expr.rhs));
      }
      case Expr::Kind::kBinary:
        return with_operand<false, true>(*expr.lhs, line, [&](auto lhs) {
          return with_operand<true, true>(*expr.rhs, line, [&](auto rhs) {
            return binary(expr.op, line, std::move(lhs), std::move(rhs));
          });
        });
      case Expr::Kind::kIndex:
        return with_operand<false>(*expr.lhs, line, [&](auto container) {
          return with_operand<true>(*expr.rhs, line, [&](auto index) -> ExprNodePtr {
            return std::make_unique<Index<decltype(container), decltype(index)>>(
                line, std::move(container), std::move(index));
          });
        });
      case Expr::Kind::kCall:
        return call(expr);
      case Expr::Kind::kMethod: {
        const bool literal_key = !expr.args.empty() &&
                                 expr.args[0]->kind == Expr::Kind::kLiteral &&
                                 expr.args[0]->literal.is_string();
        return with_operand<false>(*expr.lhs, line, [&](auto receiver) -> ExprNodePtr {
          return std::make_unique<MethodCall<decltype(receiver)>>(
              line, std::move(receiver), expr.text, arguments(expr), literal_key);
        });
      }
    }
    return nullptr;
  }

  template <class L, class R>
  static ExprNodePtr binary(Op op, int line, L lhs, R rhs) {
    switch (op) {
#define IPA_BINARY(OP) \
  case OP:             \
    return std::make_unique<Binary<OP, L, R>>(line, std::move(lhs), std::move(rhs));
      IPA_BINARY(Op::kAdd)
      IPA_BINARY(Op::kSub)
      IPA_BINARY(Op::kMul)
      IPA_BINARY(Op::kDiv)
      IPA_BINARY(Op::kMod)
      IPA_BINARY(Op::kEq)
      IPA_BINARY(Op::kNe)
      IPA_BINARY(Op::kLt)
      IPA_BINARY(Op::kLe)
      IPA_BINARY(Op::kGt)
      IPA_BINARY(Op::kGe)
#undef IPA_BINARY
      default:
        return nullptr;  // the parser makes no other binary operator
    }
  }

  Args arguments(const Expr& call) {
    std::vector<ExprNodePtr> args;
    args.reserve(call.args.size());
    for (const ExprPtr& arg : call.args) args.push_back(compile(*arg));
    return Args(std::move(args));
  }

  ExprNodePtr call(const Expr& expr) {
    const Expr& callee = *expr.lhs;
    if (callee.kind == Expr::Kind::kVar && callee.line == expr.line &&
        local_slot(callee.text) < 0) {
      CallGlobal call(expr.line, global(callee.text), callee.text, arguments(expr));
      const auto target = inlinable_.find(callee.text);
      if (target != inlinable_.end()) return inline_call(std::move(call), expr, target->second);
      return std::make_unique<CallGlobal>(std::move(call));
    }
    ExprNodePtr callee_node = compile(callee);
    return std::make_unique<CallValue>(expr.line, std::move(callee_node), arguments(expr));
  }

  struct Inlinable {
    const FunctionDecl* decl;
    const Function* compiled;
  };

  /// `call` (`expr`) compiled into the caller (see InlineCall) when its
  /// arguments allow it.
  ExprNodePtr inline_call(CallGlobal call, const Expr& expr, const Inlinable& target) {
    const FunctionDecl& fn = *target.decl;
    const Stmt& ret = *fn.body[0];
    if (fn.params.size() != expr.args.size() || ret.line != ret.expr->line) {
      return std::make_unique<CallGlobal>(std::move(call));
    }
    std::vector<std::pair<std::string, int>> params;
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      const int slot = local_leaf(*expr.args[i], expr.line);
      if (slot < 0) return std::make_unique<CallGlobal>(std::move(call));
      params.emplace_back(fn.params[i], slot);
    }
    // The body sees its parameters and the globals, as in its own frame.
    auto caller_scopes = std::exchange(scopes_, {std::move(params)});
    ExprNodePtr body = compile(*ret.expr);
    scopes_ = std::move(caller_scopes);
    body->absorb(1);  // the return's step, as Return folds it
    // The call's own step, its name's and one per argument.
    const auto ticks = static_cast<std::uint32_t>(2 + expr.args.size());
    return std::make_unique<InlineCall>(std::move(call), ticks, global(fn.name), target.compiled,
                                        std::move(body));
  }

  /// Whether evaluating `expr` can run a script function or a native.
  static bool runs_code(const Expr& expr) {
    if (expr.kind == Expr::Kind::kCall || expr.kind == Expr::Kind::kMethod) return true;
    if (expr.lhs && runs_code(*expr.lhs)) return true;
    if (expr.rhs && runs_code(*expr.rhs)) return true;
    return std::any_of(expr.args.begin(), expr.args.end(),
                       [](const ExprPtr& arg) { return runs_code(*arg); });
  }

  Globals& globals_;
  std::vector<std::vector<std::pair<std::string, int>>> scopes_;
  int next_slot_ = 0;
  int max_slot_ = 0;
  std::map<std::string, Inlinable, std::less<>> inlinable_;
};

}  // namespace

struct Interp::Impl {
  Machine machine;
  Globals globals;
  std::vector<std::string> print_output;

  /// One host-level entry (load's top level, a call): a fresh step budget,
  /// and a ScriptError unwinds the frames this entry pushed.
  template <typename Body>
  Result<Value> enter(Body&& body) {
    Machine& m = machine;
    m.steps = 0;
    const int depth = m.call_depth;
    const ValueStack::Mark mark = m.stack.mark();
    try {
      return body();
    } catch (ScriptError& error) {
      m.call_depth = depth;
      m.stack.pop(mark);
      m.result = Value();
      m.spill = Value();
      return error.status;
    }
  }
};

Interp::Interp(InterpOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->machine.max_steps = options.max_steps_per_call;
  install_stdlib(*this);
}

Interp::~Interp() = default;
Interp::Interp(Interp&&) noexcept = default;
Interp& Interp::operator=(Interp&&) noexcept = default;

Status Interp::load(std::string_view source) {
  auto parsed = parse(source);
  IPA_RETURN_IF_ERROR(parsed.status());
  const std::shared_ptr<const CompiledProgram> program =
      Compiler(impl_->globals).compile(*parsed);

  // Replace the program: every function binding now names the new one.
  for (auto& [name, global] : impl_->globals) global.function = Value::nil();
  for (const Function& fn : program->functions) {
    impl_->globals[fn.name].function = Value(FunctionRef(program, &fn));
  }

  return impl_
      ->enter([&]() -> Result<Value> {
        Machine& m = impl_->machine;
        const ValueStack::Mark mark = m.stack.mark();
        const Flow flow = run_block(program->top_level, m, m.stack.push(program->frame_size));
        m.stack.pop(mark);
        m.result = Value::nil();
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
    Machine& m = impl_->machine;
    const Function& function = fn.function();
    const ValueStack::Mark mark = m.stack.mark();
    Value* frame = m.stack.push(std::max(args.size(), function.frame_size));
    std::copy(args.begin(), args.end(), frame);
    run_function(m, function, frame, args.size(), function.line);
    m.stack.pop(mark);
    return std::move(m.result);
  });
}

void Interp::set_global(std::string name, Value value) {
  Global& global = impl_->globals[std::move(name)];
  global.value = std::move(value);
  global.defined = true;
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
