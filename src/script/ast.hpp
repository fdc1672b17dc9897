// PawScript abstract syntax tree.
//
// The parser builds it and Interp::load() compiles it once, binding every
// name to a frame slot or a global as it goes, into a tree of pre-bound
// callables (interp.cpp). Nothing runs the tree itself, and the compiled
// program does not keep it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "script/value.hpp"

namespace ipa::script {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class Op : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,      // kBinary, numeric (kAdd also strings, lists)
  kEq, kNe, kLt, kLe, kGt, kGe,      // kBinary, comparison
  kAnd, kOr,                         // kLogical
  kNeg, kNot,                        // kUnary
  kSet, kAddSet, kSubSet,            // kAssign: =, +=, -=
};

/// Source spelling of an operator, for error messages.
inline const char* op_name(Op op) {
  static constexpr const char* kNames[] = {"+",  "-",  "*", "/",  "%",  "==", "!=",
                                           "<",  "<=", ">", ">=", "&&", "||", "-",
                                           "!",  "=",  "+=", "-="};
  return kNames[static_cast<int>(op)];
}

struct Expr {
  enum class Kind {
    kLiteral,   // literal: a prebuilt number, string, bool or nil
    kVar,       // text = name
    kList,      // args = elements
    kUnary,     // op ∈ {kNeg, kNot}; lhs
    kBinary,    // op; lhs, rhs
    kLogical,   // op ∈ {kAnd, kOr}; lhs, rhs (short-circuit)
    kCall,      // lhs = callee expression; args
    kMethod,    // lhs = receiver; text = method; args
    kIndex,     // lhs = container; rhs = index
  };

  Kind kind;
  int line = 1;
  Op op = Op::kAdd;

  Value literal;
  std::string text;  // variable / method name
  ExprPtr lhs;
  ExprPtr rhs;
  std::vector<ExprPtr> args;
};

struct Stmt {
  enum class Kind {
    kExpr,      // expr
    kLet,       // name, expr
    kAssign,    // target (kVar or kIndex), op ∈ {kSet, kAddSet, kSubSet}, expr
    kIf,        // cond, then_block, else_block
    kWhile,     // cond, body
    kFor,       // init, cond, step, body
    kReturn,    // expr (may be null)
    kBreak,
    kContinue,
    kBlock,     // body
  };

  Kind kind;
  int line = 1;

  std::string name;
  Op op = Op::kSet;
  ExprPtr expr;
  ExprPtr cond;
  ExprPtr target;
  StmtPtr init;
  StmtPtr step;
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> else_body;
};

/// A user-defined function.
struct FunctionDecl {
  std::string name;
  std::vector<std::string> params;
  std::vector<StmtPtr> body;
  int line = 1;
};

/// A parsed script: top-level functions plus top-level statements (run in
/// order when the script is loaded).
struct Program {
  std::vector<FunctionDecl> functions;
  std::vector<StmtPtr> top_level;
};

}  // namespace ipa::script
