// PawScript interpreter: compiles each script once, then runs the compiled
// code. There is no tree-walker.
//
// Design notes:
//  - load() parses, then compiles in one pass (Feeley & Lapalme, "Using
//    closures for code generation", 1987): every AST node becomes a node
//    object bound to its operands, so running a script is calls from node
//    to node, with no switch on node kinds and no name lookup. Every
//    parameter and block-local `let` becomes an index into the call's
//    frame, and every other name a pointer to an interned global binding.
//    A global that nothing defines yet is still interned, so "undefined
//    variable" stays a runtime error and a set_global()/register_native()
//    after load() is visible to the loaded functions.
//  - Numbers take their own path: arithmetic and compares on two numbers
//    work on doubles and build no tagged Value. Common shapes (`i < n`,
//    `xs[i]`, `x += 1`, `xs[i] * ys[j]`) are fused nodes that read locals,
//    number literals and list items in place and charge their steps in as
//    few ticks as they can. A loop runs its condition and step as plain
//    nodes, so a counted loop's `i < n` and `i += 1` are two such shapes.
//  - Call frames are slices of one reused value stack. Arguments are
//    evaluated, as copies, straight into the callee's frame, so a local
//    read is a plain slot read and nothing points into another frame.
//    Natives take a span over their arguments. A call of a one-line
//    function of the same program, with local arguments, is compiled into
//    its caller; it falls back to the call after a rebinding or a reload.
//  - A method call site looks its method up once per receiver type and
//    keeps per-site state for it (CallSiteCache): the schema slot of
//    `event.get("px")`, the histogram of `tree.fill("/p", x)`.
//  - Control flow is a value: a statement returns normal/return/break/
//    continue and a return value travels in one interpreter slot. The only
//    exception is a script error (the cold path); none escapes the public
//    API, which returns Status/Result.
//  - A function value shares ownership of its compiled program, so it stays
//    callable after a hot-reload replaces that program; globals persist
//    across loads.
//  - A step budget bounds runaway scripts: the engine is interactive and a
//    user's accidental `while(true)` must not wedge a worker node. Fused
//    steps are charged only where nothing between them could fail, so the
//    count and the line of a budget error are those of one step per
//    statement, expression and loop iteration.
//  - print() output is captured and retrievable, so engine logs can relay
//    script output back to the client.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "script/ast.hpp"
#include "script/value.hpp"

namespace ipa::script {

struct InterpOptions {
  /// Abort evaluation after this many statement/expression steps per call()
  /// (guards interactive engines against runaway user loops).
  std::uint64_t max_steps_per_call = 100'000'000;
};

class Interp {
 public:
  explicit Interp(InterpOptions options = {});
  ~Interp();
  Interp(Interp&&) noexcept;
  Interp& operator=(Interp&&) noexcept;

  /// Parse a script, register its functions and run its top-level
  /// statements. May be called again to replace the loaded program (the
  /// dynamic-reload path); globals persist across loads.
  Status load(std::string_view source);

  bool has_function(std::string_view name) const;
  std::vector<std::string> function_names() const;

  /// Invoke a script function by name.
  Result<Value> call(std::string_view name, std::vector<Value> args);

  /// The script function `name`, resolved once for repeated invoke() calls
  /// (nil if there is none). It keeps working after a later load(), in this
  /// interpreter only: its code refers to this interpreter's globals.
  Value function(std::string_view name) const;

  /// Invoke a function value from function(); `args` are copied, so a hot
  /// loop can reuse them.
  Result<Value> invoke(const Value& fn, std::span<const Value> args);

  /// Globals visible to scripts.
  void set_global(std::string name, Value value);
  Result<Value> global(std::string_view name) const;

  /// Host-provided functions callable from scripts.
  void register_native(std::string name, NativeFn fn);

  /// Captured print() lines (cleared by the caller as desired).
  std::vector<std::string>& output();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Install the standard library (math, lists, strings, print) on an
/// interpreter. Interp's constructor calls this; exposed for tests.
void install_stdlib(Interp& interp);

}  // namespace ipa::script
