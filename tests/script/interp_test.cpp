#include "script/interp.hpp"

#include <gtest/gtest.h>

#include "script/lexer.hpp"
#include "script/parser.hpp"

namespace ipa::script {
namespace {

/// Run `source`, call fn() with args, return the result.
Result<Value> run(const std::string& source, const std::string& fn,
                  std::vector<Value> args = {}) {
  Interp interp;
  IPA_RETURN_IF_ERROR(interp.load(source));
  return interp.call(fn, std::move(args));
}

double run_num(const std::string& source, const std::string& fn = "main") {
  auto result = run(source, fn);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  if (!result.is_ok() || !result->is_number()) return -1e308;
  return result->number();
}

TEST(Lexer, TokenizesOperatorsAndLiterals) {
  auto tokens = lex("let x = 1.5e2 + \"hi\\n\"; // comment\n x <= 3 && !y");
  ASSERT_TRUE(tokens.is_ok());
  std::vector<Tok> kinds;
  for (const auto& token : *tokens) kinds.push_back(token.kind);
  EXPECT_EQ(kinds,
            (std::vector<Tok>{Tok::kLet, Tok::kIdent, Tok::kAssign, Tok::kNumber, Tok::kPlus,
                              Tok::kString, Tok::kSemicolon, Tok::kIdent, Tok::kLe, Tok::kNumber,
                              Tok::kAnd, Tok::kNot, Tok::kIdent, Tok::kEnd}));
  EXPECT_DOUBLE_EQ((*tokens)[3].number, 150.0);
  EXPECT_EQ((*tokens)[5].text, "hi\n");
}

TEST(Lexer, TracksLineNumbers) {
  auto tokens = lex("a\nb\n\nc");
  ASSERT_TRUE(tokens.is_ok());
  EXPECT_EQ((*tokens)[0].line, 1);
  EXPECT_EQ((*tokens)[1].line, 2);
  EXPECT_EQ((*tokens)[2].line, 4);
}

TEST(Lexer, Errors) {
  EXPECT_FALSE(lex("\"unterminated").is_ok());
  EXPECT_FALSE(lex("a @ b").is_ok());
  EXPECT_FALSE(lex("a & b").is_ok());
  EXPECT_FALSE(lex("\"bad \\q escape\"").is_ok());
}

TEST(Parser, RejectsMalformedPrograms) {
  EXPECT_FALSE(parse("func () {}").is_ok());
  EXPECT_FALSE(parse("func f( {}").is_ok());
  EXPECT_FALSE(parse("func f() { let 1 = 2; }").is_ok());
  EXPECT_FALSE(parse("let x = ;").is_ok());
  EXPECT_FALSE(parse("if (x) {}").is_ok() == false && false);  // if at top level is fine
  EXPECT_FALSE(parse("func f() { x + ; }").is_ok());
  EXPECT_FALSE(parse("func f() { 1 = 2; }").is_ok());
  EXPECT_FALSE(parse("func f() { while (1) x; }").is_ok());  // block required
}

TEST(Interp, ArithmeticAndPrecedence) {
  EXPECT_DOUBLE_EQ(run_num("func main() { return 2 + 3 * 4; }"), 14.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { return (2 + 3) * 4; }"), 20.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { return 10 / 4; }"), 2.5);
  EXPECT_DOUBLE_EQ(run_num("func main() { return 10 % 3; }"), 1.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { return -3 + 1; }"), -2.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { return 2 - 3 - 4; }"), -5.0);  // left assoc
}

TEST(Interp, DivisionByZeroIsError) {
  const auto result = run("func main() { return 1 / 0; }", "main");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("division by zero"), std::string::npos);
}

TEST(Interp, ComparisonsAndLogic) {
  EXPECT_DOUBLE_EQ(run_num("func main() { if (1 < 2 && 2 <= 2 && 3 > 2 && 3 >= 3) { return 1; } return 0; }"), 1.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { if (\"abc\" < \"abd\") { return 1; } return 0; }"), 1.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { if (1 == 1 && \"a\" == \"a\" && !(1 == 2)) { return 1; } return 0; }"), 1.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { if (nil == nil && !(nil == 0)) { return 1; } return 0; }"), 1.0);
}

TEST(Interp, ShortCircuitEvaluation) {
  // Right side would divide by zero; && must not evaluate it.
  EXPECT_DOUBLE_EQ(run_num("func main() { if (false && 1/0 > 0) { return 1; } return 2; }"), 2.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { if (true || 1/0 > 0) { return 3; } return 4; }"), 3.0);
}

TEST(Interp, VariablesScopesAndAssignment) {
  EXPECT_DOUBLE_EQ(run_num(R"(
func main() {
  let x = 1;
  { let x = 10; x += 5; }   // inner shadows, dies at }
  x += 2;
  x -= 0.5;
  return x;
})"), 2.5);
}

TEST(Interp, AssignmentToUndeclaredFails) {
  const auto result = run("func main() { y = 3; return y; }", "main");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("undeclared"), std::string::npos);
}

TEST(Interp, WhileAndFor) {
  EXPECT_DOUBLE_EQ(run_num(R"(
func main() {
  let total = 0;
  for (let i = 1; i <= 10; i += 1) { total += i; }
  return total;
})"), 55.0);
  EXPECT_DOUBLE_EQ(run_num(R"(
func main() {
  let n = 0;
  while (n < 100) { n += 7; }
  return n;
})"), 105.0);
}

TEST(Interp, BreakAndContinue) {
  EXPECT_DOUBLE_EQ(run_num(R"(
func main() {
  let total = 0;
  for (let i = 0; i < 100; i += 1) {
    if (i % 2 == 0) { continue; }
    if (i > 10) { break; }
    total += i;       // 1+3+5+7+9
  }
  return total;
})"), 25.0);
}

TEST(Interp, FunctionsAndRecursion) {
  EXPECT_DOUBLE_EQ(run_num(R"(
func fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
func main() { return fib(15); })"), 610.0);
}

TEST(Interp, FunctionsAsValues) {
  EXPECT_DOUBLE_EQ(run_num(R"(
func twice(f, x) { return f(f(x)); }
func inc(x) { return x + 1; }
func main() { return twice(inc, 5); })"), 7.0);
}

TEST(Interp, WrongArityReported) {
  const auto result = run("func f(a, b) { return a; } func main() { return f(1); }", "main");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("expects 2"), std::string::npos);
}

TEST(Interp, ListsIndexingAndMutation) {
  EXPECT_DOUBLE_EQ(run_num(R"(
func main() {
  let xs = [1, 2, 3];
  xs[1] = 20;
  push(xs, 4);
  return xs[0] + xs[1] + xs[2] + xs[3] + len(xs);
})"), 32.0);
}

TEST(Interp, ListReferenceSemantics) {
  EXPECT_DOUBLE_EQ(run_num(R"(
func add_one(xs) { push(xs, 1); return 0; }
func main() {
  let xs = [];
  add_one(xs);
  add_one(xs);
  return len(xs);
})"), 2.0);
}

TEST(Interp, IndexOutOfRangeIsError) {
  EXPECT_FALSE(run("func main() { let xs = [1]; return xs[5]; }", "main").is_ok());
  EXPECT_FALSE(run("func main() { let xs = [1]; return xs[-1]; }", "main").is_ok());
}

TEST(Interp, StringsConcatAndIndex) {
  auto result = run(R"(func main() { return "m = " + 5 + "!"; })", "main");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->string(), "m = 5!");
  auto ch = run(R"(func main() { return "abc"[1]; })", "main");
  ASSERT_TRUE(ch.is_ok());
  EXPECT_EQ(ch->string(), "b");
}

TEST(Interp, TopLevelStatementsRunOnLoad) {
  Interp interp;
  ASSERT_TRUE(interp.load("let counter = 41; counter += 1;").is_ok());
  auto global = interp.global("counter");
  ASSERT_TRUE(global.is_ok());
  EXPECT_DOUBLE_EQ(global->number(), 42.0);
}

TEST(Interp, ReloadReplacesFunctionsKeepsGlobals) {
  Interp interp;
  ASSERT_TRUE(interp.load("let runs = 0; func f() { return 1; }").is_ok());
  EXPECT_DOUBLE_EQ(interp.call("f", {})->number(), 1.0);
  // Reload with a changed algorithm — the paper's §3.6 hot-reload loop.
  ASSERT_TRUE(interp.load("runs += 1; func f() { return 2; }").is_ok());
  EXPECT_DOUBLE_EQ(interp.call("f", {})->number(), 2.0);
  EXPECT_DOUBLE_EQ(interp.global("runs")->number(), 1.0);
  EXPECT_TRUE(interp.has_function("f"));
  EXPECT_FALSE(interp.has_function("g"));
}

TEST(Interp, StepBudgetStopsRunawayLoops) {
  // The `for` loops have no condition, no step and an empty body: only the
  // per-iteration tick counts against the budget.
  for (const char* loop : {"while (true) { }", "for (;;) {}", "for (let i = 0;;) {}"}) {
    SCOPED_TRACE(loop);
    Interp interp(InterpOptions{.max_steps_per_call = 100});
    ASSERT_TRUE(interp.load(std::string("func spin() { ") + loop + " }").is_ok());
    const auto result = interp.call("spin", {});
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(Interp, RuntimeErrorsCarryLineNumbers) {
  const auto result = run("func main() {\n  let x = 1;\n  return x + nil;\n}", "main");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().message();
}

TEST(Interp, NativeFunctionsAndGlobals) {
  Interp interp;
  interp.register_native("answer", [](std::span<const Value>) -> Result<Value> {
    return Value(42.0);
  });
  interp.set_global("offset", Value(0.5));
  ASSERT_TRUE(interp.load("func main() { return answer() + offset; }").is_ok());
  EXPECT_DOUBLE_EQ(interp.call("main", {})->number(), 42.5);
}

TEST(Stdlib, MathFunctions) {
  EXPECT_DOUBLE_EQ(run_num("func main() { return sqrt(16) + abs(-2) + pow(2, 5); }"), 38.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { return min(3, 7) + max(3, 7); }"), 10.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { return floor(2.7) + ceil(2.1); }"), 5.0);
  EXPECT_NEAR(run_num("func main() { return sin(PI / 2) + cos(0); }"), 2.0, 1e-12);
  EXPECT_NEAR(run_num("func main() { return log(exp(3)); }"), 3.0, 1e-12);
  EXPECT_NEAR(run_num("func main() { return atan2(1, 1); }"), 0.7853981634, 1e-9);
}

TEST(Stdlib, ListHelpers) {
  EXPECT_DOUBLE_EQ(run_num("func main() { return sum(range(5)); }"), 10.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { return sum(range(2, 5)); }"), 9.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { let xs = [3, 1, 2]; sort(xs); return xs[0] * 100 + xs[1] * 10 + xs[2]; }"), 123.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { let xs = [1, 2]; return pop(xs) + len(xs); }"), 3.0);
}

TEST(Stdlib, StringHelpers) {
  auto s = run(R"(func main() { return upper(substr("higgs boson", 0, 5)); })", "main");
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s->string(), "HIGGS");
  EXPECT_DOUBLE_EQ(run_num(R"(func main() { if (contains("abcdef", "cde")) { return 1; } return 0; })"), 1.0);
  EXPECT_DOUBLE_EQ(run_num(R"(func main() { return num("2.5") * 2; })"), 5.0);
  EXPECT_FALSE(run(R"(func main() { return num("xyz"); })", "main").is_ok());
}

TEST(Stdlib, PrintIsCaptured) {
  Interp interp;
  ASSERT_TRUE(interp.load(R"(func main() { print("mass", 125.0); print("done"); })").is_ok());
  ASSERT_TRUE(interp.call("main", {}).is_ok());
  ASSERT_EQ(interp.output().size(), 2u);
  EXPECT_EQ(interp.output()[0], "mass 125");
  EXPECT_EQ(interp.output()[1], "done");
}

TEST(Interp, ElseIfChain) {
  const char* source = R"(
func grade(x) {
  if (x >= 90) { return "A"; }
  else if (x >= 80) { return "B"; }
  else { return "C"; }
})";
  EXPECT_EQ(run(source, "grade", {Value(95.0)})->string(), "A");
  EXPECT_EQ(run(source, "grade", {Value(85.0)})->string(), "B");
  EXPECT_EQ(run(source, "grade", {Value(55.0)})->string(), "C");
}

TEST(Interp, ReturnNilByDefault) {
  auto result = run("func f() { }", "f");
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result->is_nil());
}

}  // namespace
}  // namespace ipa::script
// (appended) recursion-depth protection: a runaway recursive script must
// fail with a Status instead of overflowing the worker's C++ stack.
namespace ipa::script {
namespace {

TEST(Interp, InfiniteRecursionIsRejected) {
  Interp interp;
  ASSERT_TRUE(interp.load("func f(n) { return f(n + 1); }").is_ok());
  const auto result = interp.call("f", {Value(0.0)});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("recursion"), std::string::npos);
  // The interpreter is still usable afterwards (depth counter unwound).
  ASSERT_TRUE(interp.load("func g() { return 7; }").is_ok());
  EXPECT_DOUBLE_EQ(interp.call("g", {})->number(), 7.0);
}

TEST(Interp, DeepButBoundedRecursionWorks) {
  Interp interp;
  ASSERT_TRUE(interp.load(R"(
func down(n) {
  if (n <= 0) { return 0; }
  return 1 + down(n - 1);
})").is_ok());
  auto result = interp.call("down", {Value(200.0)});
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_DOUBLE_EQ(result->number(), 200.0);
}

}  // namespace
}  // namespace ipa::script
// Resolver semantics: load() binds names to frame slots and interned
// globals once; these pin that the bindings follow lexical scoping and
// that name errors stay runtime errors.
namespace ipa::script {
namespace {

Status load_error(const std::string& source) {
  Interp interp;
  return interp.load(source);
}

TEST(Resolver, ShadowingInNestedBlocks) {
  EXPECT_DOUBLE_EQ(run_num(R"(
func main() {
  let x = 1;
  let seen = 0;
  {
    let x = 2;
    { let x = 3; seen = seen + x; }
    seen = seen * 10 + x;
  }
  return seen * 10 + x;
})"), 321.0);
}

TEST(Resolver, LetInitializerReadsTheOuterBinding) {
  EXPECT_DOUBLE_EQ(run_num(R"(
func main() {
  let x = 5;
  let inner = 0;
  { let x = x + 1; inner = x; }
  return inner * 10 + x;
})"), 65.0);
  // The same for a local shadowing a global.
  EXPECT_DOUBLE_EQ(run_num("let g = 1; func main() { let g = g + 1; return g; }"), 2.0);
}

TEST(Resolver, LetInLoopBodyIsFreshEachIteration) {
  EXPECT_DOUBLE_EQ(run_num(R"(
func main() {
  let lists = [];
  for (let i = 0; i < 3; i += 1) {
    let xs = [];
    push(xs, i);
    push(lists, xs);
  }
  return len(lists[0]) + len(lists[1]) + len(lists[2]) + lists[2][0] * 10;
})"), 23.0);
}

TEST(Resolver, ReadBeforeSameBlockLetResolvesOutward) {
  EXPECT_DOUBLE_EQ(run_num(R"(
func main() {
  let x = 1;
  let r = 0;
  { r = x; let x = 2; r = r * 10 + x; }
  return r;
})"), 12.0);
  // Outward from a function's top block is the global of that name.
  EXPECT_DOUBLE_EQ(run_num(R"(
let x = 100;
func main() { let a = x; let x = 5; return a + x; })"), 105.0);
}

TEST(Resolver, UndefinedGlobalFailsOnlyWhenCalled) {
  Interp interp;
  ASSERT_TRUE(interp.load("func f() {\n  return missing + 1;\n}").is_ok());
  const auto result = interp.call("f", {});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("undefined variable 'missing' (line 2)"),
            std::string::npos)
      << result.status().message();
}

TEST(Resolver, GlobalsDefinedAfterLoadAreVisible) {
  Interp interp;
  ASSERT_TRUE(interp.load("func f() { return late * 2 + helper(); }").is_ok());
  EXPECT_FALSE(interp.call("f", {}).is_ok());
  interp.set_global("late", Value(20.0));
  interp.register_native("helper", [](std::span<const Value>) -> Result<Value> {
    return Value(2.0);
  });
  const auto result = interp.call("f", {});
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_DOUBLE_EQ(result->number(), 42.0);
}

TEST(Resolver, ControlFlowOutsideItsContext) {
  EXPECT_EQ(load_error("return 1;").message(), "script: 'return' outside a function");
  EXPECT_EQ(load_error("break;").message(), "script: 'break' outside a loop");
  EXPECT_EQ(load_error("continue;").message(), "script: 'continue' outside a loop");
  const auto broke = run("func f() { break; }", "f");
  ASSERT_FALSE(broke.is_ok());
  EXPECT_EQ(broke.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(broke.status().message(), "script: 'break' outside a loop");
  const auto continued = run("func f() { continue; }", "f");
  ASSERT_FALSE(continued.is_ok());
  EXPECT_EQ(continued.status().message(), "script: 'continue' outside a loop");
  // Inside a loop they act on that loop only.
  EXPECT_DOUBLE_EQ(run_num(R"(
func main() {
  let i = 0;
  let odd = 0;
  while (i < 10) {
    i += 1;
    if (i % 2 == 0) { continue; }
    if (i > 7) { break; }
    odd += 1;
  }
  return odd * 100 + i;
})"), 409.0);
}

TEST(Resolver, RecursionStopsAtTheLimit) {
  Interp interp;
  ASSERT_TRUE(interp.load(R"(
func down(n) {
  if (n <= 0) { return 0; }
  return 1 + down(n - 1);
})").is_ok());
  // 256 nested calls are allowed, the 257th is not.
  auto deepest = interp.call("down", {Value(255.0)});
  ASSERT_TRUE(deepest.is_ok()) << deepest.status().to_string();
  EXPECT_DOUBLE_EQ(deepest->number(), 255.0);
  const auto too_deep = interp.call("down", {Value(256.0)});
  ASSERT_FALSE(too_deep.is_ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kResourceExhausted);
  // The failed call unwound its frames: the interpreter still works.
  EXPECT_DOUBLE_EQ(interp.call("down", {Value(3.0)})->number(), 3.0);
}

TEST(Resolver, StepBudgetStopsInfiniteLoopsAnywhere) {
  Interp top(InterpOptions{.max_steps_per_call = 1000});
  EXPECT_EQ(top.load("while (true) {}").code(), StatusCode::kResourceExhausted);
  Interp body(InterpOptions{.max_steps_per_call = 1000});
  ASSERT_TRUE(body.load("func spin() { let i = 0; for (;;) { i += 1; } }").is_ok());
  EXPECT_EQ(body.call("spin", {}).status().code(), StatusCode::kResourceExhausted);
}

TEST(Resolver, StepBudgetCountsEveryStatementAndExpression) {
  // 34 steps: 16 statements and expressions outside the loop body and
  // callee, plus 2 iterations of a 9-step iteration tick, body, test and
  // step.
  const char* source = R"(
func g(a) { return a; }
func f() {
  let s = 0;
  for (let i = 0; i < 2; i += 1) { s += g(i); }
  return s;
})";
  Interp enough(InterpOptions{.max_steps_per_call = 34});
  ASSERT_TRUE(enough.load(source).is_ok());
  const auto ok = enough.call("f", {});
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_DOUBLE_EQ(ok->number(), 1.0);
  Interp short_by_one(InterpOptions{.max_steps_per_call = 33});
  ASSERT_TRUE(short_by_one.load(source).is_ok());
  EXPECT_EQ(short_by_one.call("f", {}).status().code(), StatusCode::kResourceExhausted);

  // Counted-loop shapes. Each f() ends with its loop, so the last steps are
  // the failing condition's, on the loop's line (line 5).
  struct Shape {
    const char* loop;  // lines 4-5 of f()
    std::uint64_t steps;
    double hits;
  };
  const Shape shapes[] = {
      // 2 (let n) + 1 (for) + 2 (let i) + 3 x 8 (test, tick, body, step) + 3.
      {"  let n = 3;\n  for (let i = 0; i < n; i += 1) { hits += 1; }", 32, 3},
      // 2 + 1 + 2 (let j) + 6 x 8 + 3.
      {"  let x = 0;\n  for (let j = 0; j <= 2.5; j += 0.5) { hits += 1; }", 56, 6},
      // 2 + 1 + 2 (let k) + 3 x 8 + 3.
      {"  let x = 0;\n  for (let k = 10; k > 4; k -= 2) { hits += 1; }", 32, 3},
      // 2 (let w) + 1 (while) + 3 x (3 + 1 + 2 + 2) + 3.
      {"  let w = 0;\n  while (w < 3) { w += 1; hits += 1; }", 30, 3},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.loop);
    const std::string loop_source =
        std::string("\nlet hits = 0;\nfunc f() {\n") + shape.loop + "\n}";
    Interp exact(InterpOptions{.max_steps_per_call = shape.steps});
    ASSERT_TRUE(exact.load(loop_source).is_ok());
    const auto done = exact.call("f", {});
    ASSERT_TRUE(done.is_ok()) << done.status().to_string();
    EXPECT_DOUBLE_EQ(exact.global("hits")->number(), shape.hits);
    Interp short_one(InterpOptions{.max_steps_per_call = shape.steps - 1});
    ASSERT_TRUE(short_one.load(loop_source).is_ok());
    const Status over = short_one.call("f", {}).status();
    EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(over.message(), "script exceeded its step budget (line 5)");
  }
}

TEST(Interp, FunctionValueSurvivesReload) {
  Interp interp;
  ASSERT_TRUE(interp.load("func f() { return 1; } let g = f;").is_ok());
  // The reload frees the first program's text; g still holds its f.
  ASSERT_TRUE(interp.load("func call_g() { return g(); }").is_ok());
  EXPECT_FALSE(interp.has_function("f"));
  const auto result = interp.call("call_g", {});
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_DOUBLE_EQ(result->number(), 1.0);
}

TEST(Interp, ResolvedFunctionIsReusable) {
  Interp interp;
  ASSERT_TRUE(interp.load("func add(a, b) { return a + b; }").is_ok());
  const Value add = interp.function("add");
  ASSERT_FALSE(add.is_nil());
  EXPECT_TRUE(interp.function("missing").is_nil());
  const Value args[] = {Value(2.0), Value(3.0)};
  EXPECT_DOUBLE_EQ(interp.invoke(add, args)->number(), 5.0);
  EXPECT_DOUBLE_EQ(interp.invoke(add, args)->number(), 5.0);  // args left intact
  EXPECT_FALSE(interp.invoke(Value(1.0), args).is_ok());
}

}  // namespace
}  // namespace ipa::script
// Every runtime error the interpreter raises, with its status code, text
// and line. Each main() fails on line 3, unless the error is in a helper.
namespace ipa::script {
namespace {

struct RuntimeErrorCase {
  const char* name;
  const char* body;  // lines 2.. of `func main() {`
  StatusCode code;
  const char* message;
  std::uint64_t max_steps = 100'000'000;
};

TEST(Interp, RuntimeErrorsKeepTheirMessagesAndLines) {
  const RuntimeErrorCase cases[] = {
      {"division", "  let x = 1;\n  return x / 0;\n}", StatusCode::kInvalidArgument,
       "division by zero (line 3)"},
      {"modulo", "  let x = 1;\n  return x % 0;\n}", StatusCode::kInvalidArgument,
       "modulo by zero (line 3)"},
      {"unary_minus", "  let s = \"a\";\n  return -s;\n}", StatusCode::kInvalidArgument,
       "unary '-' needs a number, got string (line 3)"},
      {"not_callable", "  let x = 1;\n  return x(1);\n}", StatusCode::kInvalidArgument,
       "value of type number is not callable (line 3)"},
      {"method_on_number", "  let x = 1;\n  return x.size();\n}",
       StatusCode::kInvalidArgument, "cannot call method 'size' on number (line 3)"},
      {"native_error", "  let s = \"a\";\n  return sqrt(s);\n}", StatusCode::kInvalidArgument,
       "sqrt: argument 1 must be a number (line 3)"},
      {"index_type", "  let xs = [1];\n  return xs[\"a\"];\n}", StatusCode::kInvalidArgument,
       "index must be a number (line 3)"},
      {"list_index_high", "  let xs = [1];\n  return xs[5];\n}", StatusCode::kOutOfRange,
       "list index 5 out of range (size 1) (line 3)"},
      {"list_index_negative", "  let xs = [1];\n  return xs[-1];\n}", StatusCode::kOutOfRange,
       "list index -1 out of range (size 1) (line 3)"},
      {"string_index", "  let s = \"ab\";\n  return s[2];\n}", StatusCode::kOutOfRange,
       "string index out of range (line 3)"},
      {"index_number", "  let x = 1;\n  return x[0];\n}", StatusCode::kInvalidArgument,
       "cannot index number (line 3)"},
      {"add_nil", "  let x = 1;\n  return x + nil;\n}", StatusCode::kInvalidArgument,
       "cannot add number and nil (line 3)"},
      {"add_list_number", "  let xs = [1];\n  return xs + 1;\n}", StatusCode::kInvalidArgument,
       "cannot add list and number (line 3)"},
      {"compare", "  let x = 1;\n  return x < \"a\";\n}", StatusCode::kInvalidArgument,
       "cannot compare number with string (line 3)"},
      {"compare_ge", "  let xs = [];\n  return xs >= xs;\n}", StatusCode::kInvalidArgument,
       "cannot compare list with list (line 3)"},
      {"sub_string", "  let s = \"a\";\n  return s - 1;\n}", StatusCode::kInvalidArgument,
       "operator '-' needs numbers, got string and number (line 3)"},
      {"mul_bool", "  let b = true;\n  return b * 2;\n}", StatusCode::kInvalidArgument,
       "operator '*' needs numbers, got bool and number (line 3)"},
      {"div_string", "  let s = \"a\";\n  return 1 / s;\n}", StatusCode::kInvalidArgument,
       "operator '/' needs numbers, got number and string (line 3)"},
      {"mod_nil", "  let x = nil;\n  return x % 2;\n}", StatusCode::kInvalidArgument,
       "operator '%' needs numbers, got nil and number (line 3)"},
      {"undeclared", "  let x = 1;\n  y = x;\n}", StatusCode::kNotFound,
       "assignment to undeclared variable 'y' (use 'let') (line 3)"},
      {"indexed_not_list", "  let x = 1;\n  x[0] = 2;\n}", StatusCode::kInvalidArgument,
       "indexed assignment needs list[number] (line 3)"},
      {"indexed_bad_index", "  let xs = [1];\n  xs[\"a\"] = 2;\n}",
       StatusCode::kInvalidArgument, "indexed assignment needs list[number] (line 3)"},
      {"indexed_out_of_range", "  let xs = [1];\n  xs[1] = 2;\n}", StatusCode::kOutOfRange,
       "list index out of range in assignment (line 3)"},
      {"add_set_string", "  let s = \"a\";\n  s += 1;\n}", StatusCode::kInvalidArgument,
       "'+=' needs numbers (line 3)"},
      {"sub_set_element", "  let xs = [\"a\"];\n  xs[0] -= 1;\n}",
       StatusCode::kInvalidArgument, "'-=' needs numbers (line 3)"},
      {"arity", "  let x = 1;\n  return two(x);\n}", StatusCode::kInvalidArgument,
       "function 'two' expects 2 argument(s), got 1 (line 3)"},
      {"recursion", "  let x = 1;\n  return deep(x);\n}", StatusCode::kResourceExhausted,
       "recursion too deep (limit 256) (line 7)"},
      {"undefined", "  let x = 1;\n  return x + missing;\n}", StatusCode::kNotFound,
       "undefined variable 'missing' (line 3)"},
      {"undefined_callee", "  let x = 1;\n  return nope(x);\n}", StatusCode::kNotFound,
       "undefined variable 'nope' (line 3)"},
      {"callee_line", "  let x = 1;\n  return inner(x);\n}", StatusCode::kInvalidArgument,
       "division by zero (line 9)"},
      {"step_budget", "  let x = 1;\n  while (true) { x += 1; }\n}",
       StatusCode::kResourceExhausted, "script exceeded its step budget (line 3)", 200},
  };
  // main() is lines 1-4; the helpers it calls follow on fixed lines.
  const char* helpers =
      "\nfunc two(a, b) { return a; }\n"     // line 5
      "func deep(n) {\n"                      // line 6
      "  return deep(n + 1);\n"               // line 7
      "}\n"                                   // line 8
      "func inner(n) { return n / 0; }\n";    // line 9
  for (const RuntimeErrorCase& c : cases) {
    SCOPED_TRACE(c.name);
    Interp interp(InterpOptions{.max_steps_per_call = c.max_steps});
    const std::string source = std::string("func main() {\n") + c.body + helpers;
    ASSERT_TRUE(interp.load(source).is_ok()) << source;
    const auto result = interp.call("main", {});
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), c.code);
    EXPECT_EQ(result.status().message(), c.message);
  }
}

}  // namespace
}  // namespace ipa::script
// Numbers that do not convert to an integer (NaN, infinities, values past
// the integer range) fail with the usual error before any conversion.
namespace ipa::script {
namespace {

Status error_of(const std::string& body) {
  return run("func main() {\n" + body + "\n}", "main").status();
}

TEST(Stdlib, RangeCountsWholeItems) {
  // Stepping 1e17 by 1.0 stalls: the count, not the stepping, ends the list.
  EXPECT_DOUBLE_EQ(run_num("func main() { return len(range(1e17, 1e17 + 64)); }"), 64.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { return sum(range(0.5, 3)); }"), 4.5);
  EXPECT_DOUBLE_EQ(run_num("func main() { return len(range(sqrt(-1))); }"), 0.0);
  EXPECT_DOUBLE_EQ(run_num("func main() { return len(range(3, sqrt(-1))); }"), 0.0);
  EXPECT_EQ(error_of("  return range(0, 1e300);").code(), StatusCode::kResourceExhausted);
}

TEST(Interp, NonIntegerIndicesFailCleanly) {
  struct Case {
    const char* body;
    StatusCode code;
    const char* message;
  };
  const Case cases[] = {
      {"  let xs = [1];\n  return xs[sqrt(-1)];", StatusCode::kOutOfRange,
       "list index nan out of range (size 1) (line 3)"},
      {"  let xs = [1];\n  return xs[pow(10, 400)];", StatusCode::kOutOfRange,
       "list index inf out of range (size 1) (line 3)"},
      {"  let xs = [1];\n  return xs[-1e300];", StatusCode::kOutOfRange,
       "list index -1e+300 out of range (size 1) (line 3)"},
      {"  let s = \"ab\";\n  return s[sqrt(-1)];", StatusCode::kOutOfRange,
       "string index out of range (line 3)"},
      {"  let s = \"ab\";\n  return s[1e300];", StatusCode::kOutOfRange,
       "string index out of range (line 3)"},
      {"  let xs = [1];\n  xs[sqrt(-1)] = 2;", StatusCode::kOutOfRange,
       "list index out of range in assignment (line 3)"},
      {"  let xs = [1];\n  xs[1e300] += 2;", StatusCode::kOutOfRange,
       "list index out of range in assignment (line 3)"},
      {"  return substr(\"abc\", sqrt(-1));", StatusCode::kOutOfRange,
       "substr: bad range (line 2)"},
      {"  return substr(\"abc\", 1, sqrt(-1));", StatusCode::kOutOfRange,
       "substr: bad range (line 2)"},
      {"  return substr(\"abc\", pow(10, 400));", StatusCode::kOutOfRange,
       "substr: bad range (line 2)"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.body);
    const Status status = error_of(c.body);
    EXPECT_EQ(status.code(), c.code);
    EXPECT_EQ(status.message(), c.message);
  }
  // A fractional index still truncates toward zero, and a count past the
  // end of the string takes the rest of it.
  EXPECT_DOUBLE_EQ(run_num("func main() { let xs = [4, 5]; return xs[1.9] + xs[-0.5]; }"), 9.0);
  auto rest = run(R"(func main() { return substr("abc", 1, 1e300); })", "main");
  ASSERT_TRUE(rest.is_ok()) << rest.status().to_string();
  EXPECT_EQ(rest->string(), "bc");
}

}  // namespace
}  // namespace ipa::script
// A call of a one-line function is compiled into its caller. It must act
// exactly like the call: results, steps, errors, the depth limit, and the
// global it names being rebound or reloaded.
namespace ipa::script {
namespace {

/// The smallest step budget under which `fn` runs to completion.
std::uint64_t steps_needed(const std::string& source, const std::string& fn,
                           std::vector<Value> args) {
  for (std::uint64_t budget = 1; budget < 10'000; ++budget) {
    Interp interp(InterpOptions{.max_steps_per_call = budget});
    EXPECT_TRUE(interp.load(source).is_ok());
    if (interp.call(fn, args).is_ok()) return budget;
  }
  return 0;
}

TEST(Interp, InlinedCallsActLikeCalls) {
  // `sq(i)` is compiled into the caller, as its argument is a local on the
  // call's line; `sq(2)` is a call, and so is `f(...)`, through a value.
  const std::string inlined = R"(
func sq(x) { return x * x; }
func main(n) {
  let t = 0;
  for (let i = 0; i < n; i += 1) { t += sq(i) + sq(2); }
  return t;
})";
  const std::string called = R"(
func sq(x) { return x * x; }
func main(n) {
  let t = 0;
  let f = sq;
  for (let i = 0; i < n; i += 1) { t += f(i) + f(2); }
  return t;
})";
  EXPECT_DOUBLE_EQ(run(inlined, "main", {Value(4.0)})->number(), 30.0);
  EXPECT_DOUBLE_EQ(run(called, "main", {Value(4.0)})->number(), 30.0);
  // `let f = sq;` costs 2 steps more; the calls cost the same.
  EXPECT_EQ(steps_needed(inlined, "main", {Value(4.0)}) + 2,
            steps_needed(called, "main", {Value(4.0)}));

  const auto bad = run(inlined, "main", {Value("x")});
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().message(), "cannot compare number with string (line 5)");
  for (const char* call : {"sq(s)", "sq(\"a\")"}) {
    SCOPED_TRACE(call);
    const auto bad_arg = run(std::string(R"(
func sq(x) { return x * x; }
func main() {
  let s = "a";
  return )") + call + R"(;
})", "main");
    EXPECT_EQ(bad_arg.status().message(),
              "operator '*' needs numbers, got string and string (line 2)");
  }

  // Rebinding or reloading the name switches the caller to what it names.
  // `pair` takes the inlined call's value as a Value, not a number.
  Interp interp;
  ASSERT_TRUE(interp.load(inlined + "\nfunc pair(n) { return [sq(n), n]; }").is_ok());
  const Value main_fn = interp.function("main");
  const Value four[] = {Value(4.0)};
  EXPECT_DOUBLE_EQ(interp.call("pair", {Value(4.0)})->list()[0].number(), 16.0);
  interp.register_native("sq", [](std::span<const Value>) -> Result<Value> {
    return Value(1.0);
  });
  EXPECT_DOUBLE_EQ(interp.invoke(main_fn, four)->number(), 8.0);
  EXPECT_DOUBLE_EQ(interp.call("pair", {Value(4.0)})->list()[0].number(), 1.0);
  Interp reloaded;
  ASSERT_TRUE(reloaded.load(inlined).is_ok());
  const Value old_main = reloaded.function("main");
  ASSERT_TRUE(reloaded.load("func sq(x) { return x; }").is_ok());
  EXPECT_DOUBLE_EQ(reloaded.invoke(old_main, four)->number(), 14.0);
}

TEST(Interp, InlinedCallsKeepTheDepthLimit) {
  for (const char* call : {"sq(n)", "f(n)"}) {
    SCOPED_TRACE(call);
    const std::string source = std::string(R"(
func sq(x) { return x * x; }
let f = sq;
func down(n) {
  if (n <= 0) { return )") + call + R"(; }
  return 1 + down(n - 1);
})";
    Interp interp;
    ASSERT_TRUE(interp.load(source).is_ok());
    EXPECT_TRUE(interp.call("down", {Value(254.0)}).is_ok());
    const auto too_deep = interp.call("down", {Value(255.0)});
    ASSERT_FALSE(too_deep.is_ok());
    EXPECT_EQ(too_deep.status().message(), "recursion too deep (limit 256) (line 5)");
  }
}

}  // namespace
}  // namespace ipa::script
// Fused loop conditions and steps, and arguments lent to a callee instead
// of copied, must keep the behaviour of the general nodes.
namespace ipa::script {
namespace {

TEST(Interp, FusedLoopShapesKeepTheirErrors) {
  struct Case {
    const char* body;
    const char* message;
  };
  const Case cases[] = {
      {"  let n = \"a\";\n  for (let i = 0; i < n; i += 1) { }",
       "cannot compare number with string (line 3)"},
      {"  let i = nil;\n  while (i >= 0) { i += 1; }", "cannot compare nil with number (line 3)"},
      {"  let s = \"a\";\n  for (; s <= \"b\"; s += 1) { }", "'+=' needs numbers (line 3)"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.body);
    EXPECT_EQ(error_of(c.body).message(), c.message);
  }
  // Strings order in a fused condition as they do anywhere else.
  EXPECT_DOUBLE_EQ(run_num(R"(
func main() {
  let s = "a";
  let n = 0;
  while (s < "aaaa") { s = s + "a"; n += 1; }
  for (let i = 10; i > 4; i -= 2) { n += 10; }
  for (let j = 0; j <= 2.5; j += 0.5) { n += 100; }
  return n;
})"), 633.0);
}

TEST(Interp, LentArgumentsNeverEscape) {
  // keep() and pass() never assign their parameters, so their callers lend
  // them the caller's own storage; whatever they keep must own its value.
  EXPECT_DOUBLE_EQ(run_num(R"(
let kept = nil;
func keep(xs) { kept = xs; return 0; }
func pass(xs) { let unused = 0; return xs; }
func stash(xs, into) { push(into, xs); return len(into); }
func main() {
  let a = [1];
  keep(a);
  let b = pass(a);
  let box = [];
  stash(a, box);
  a = [2];
  return kept[0] * 100 + b[0] * 10 + box[0][0] + len(box);
})"), 112.0);
}

}  // namespace
}  // namespace ipa::script
