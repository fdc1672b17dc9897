#include "script/parser.hpp"

#include "script/lexer.hpp"

namespace ipa::script {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> run() {
    Program program;
    while (peek().kind != Tok::kEnd) {
      if (peek().kind == Tok::kFunc) {
        auto fn = parse_function();
        IPA_RETURN_IF_ERROR(fn.status());
        program.functions.push_back(std::move(*fn));
      } else {
        auto stmt = parse_statement();
        IPA_RETURN_IF_ERROR(stmt.status());
        program.top_level.push_back(std::move(*stmt));
      }
    }
    return program;
  }

 private:
  const Token& peek(int ahead = 0) const {
    const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& take() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool check(Tok kind) const { return peek().kind == kind; }
  bool match(Tok kind) {
    if (!check(kind)) return false;
    take();
    return true;
  }

  Status error(const std::string& msg) const {
    return invalid_argument("script: " + msg + ", got " + std::string(token_name(peek().kind)) +
                            " (line " + std::to_string(peek().line) + ")");
  }

  Status expect(Tok kind, const char* context) {
    if (match(kind)) return Status::ok();
    return error("expected " + std::string(token_name(kind)) + " " + context);
  }

  Result<FunctionDecl> parse_function() {
    FunctionDecl fn;
    fn.line = peek().line;
    take();  // 'func'
    if (!check(Tok::kIdent)) return error("expected function name");
    fn.name = take().text;
    IPA_RETURN_IF_ERROR(expect(Tok::kLParen, "after function name"));
    if (!check(Tok::kRParen)) {
      while (true) {
        if (!check(Tok::kIdent)) return error("expected parameter name");
        fn.params.push_back(take().text);
        if (!match(Tok::kComma)) break;
      }
    }
    IPA_RETURN_IF_ERROR(expect(Tok::kRParen, "after parameters"));
    IPA_RETURN_IF_ERROR(expect(Tok::kLBrace, "to open function body"));
    while (!check(Tok::kRBrace) && !check(Tok::kEnd)) {
      auto stmt = parse_statement();
      IPA_RETURN_IF_ERROR(stmt.status());
      fn.body.push_back(std::move(*stmt));
    }
    IPA_RETURN_IF_ERROR(expect(Tok::kRBrace, "to close function body"));
    return fn;
  }

  Result<StmtPtr> parse_block_into(Stmt& stmt, std::vector<StmtPtr>& body) {
    (void)stmt;
    IPA_RETURN_IF_ERROR(expect(Tok::kLBrace, "to open block"));
    while (!check(Tok::kRBrace) && !check(Tok::kEnd)) {
      auto inner = parse_statement();
      IPA_RETURN_IF_ERROR(inner.status());
      body.push_back(std::move(*inner));
    }
    IPA_RETURN_IF_ERROR(expect(Tok::kRBrace, "to close block"));
    return StmtPtr{};
  }

  Result<StmtPtr> parse_statement() {
    const int line = peek().line;
    auto make = [line](Stmt::Kind kind) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = kind;
      stmt->line = line;
      return stmt;
    };

    if (match(Tok::kLet)) {
      auto stmt = make(Stmt::Kind::kLet);
      if (!check(Tok::kIdent)) return error("expected variable name after 'let'");
      stmt->name = take().text;
      IPA_RETURN_IF_ERROR(expect(Tok::kAssign, "in 'let' declaration"));
      IPA_ASSIGN_OR_RETURN(stmt->expr, parse_expr());
      IPA_RETURN_IF_ERROR(expect(Tok::kSemicolon, "after declaration"));
      return StmtPtr(std::move(stmt));
    }
    if (check(Tok::kIf)) return parse_if();
    if (match(Tok::kWhile)) {
      auto stmt = make(Stmt::Kind::kWhile);
      IPA_RETURN_IF_ERROR(expect(Tok::kLParen, "after 'while'"));
      IPA_ASSIGN_OR_RETURN(stmt->cond, parse_expr());
      IPA_RETURN_IF_ERROR(expect(Tok::kRParen, "after condition"));
      IPA_RETURN_IF_ERROR(parse_block_into(*stmt, stmt->body).status());
      return StmtPtr(std::move(stmt));
    }
    if (match(Tok::kFor)) {
      auto stmt = make(Stmt::Kind::kFor);
      IPA_RETURN_IF_ERROR(expect(Tok::kLParen, "after 'for'"));
      if (!check(Tok::kSemicolon)) {
        IPA_ASSIGN_OR_RETURN(stmt->init, parse_simple_statement());
      }
      IPA_RETURN_IF_ERROR(expect(Tok::kSemicolon, "after for-init"));
      if (!check(Tok::kSemicolon)) {
        IPA_ASSIGN_OR_RETURN(stmt->cond, parse_expr());
      }
      IPA_RETURN_IF_ERROR(expect(Tok::kSemicolon, "after for-condition"));
      if (!check(Tok::kRParen)) {
        IPA_ASSIGN_OR_RETURN(stmt->step, parse_simple_statement());
      }
      IPA_RETURN_IF_ERROR(expect(Tok::kRParen, "after for-step"));
      IPA_RETURN_IF_ERROR(parse_block_into(*stmt, stmt->body).status());
      return StmtPtr(std::move(stmt));
    }
    if (match(Tok::kReturn)) {
      auto stmt = make(Stmt::Kind::kReturn);
      if (!check(Tok::kSemicolon)) {
        IPA_ASSIGN_OR_RETURN(stmt->expr, parse_expr());
      }
      IPA_RETURN_IF_ERROR(expect(Tok::kSemicolon, "after 'return'"));
      return StmtPtr(std::move(stmt));
    }
    if (match(Tok::kBreak)) {
      auto stmt = make(Stmt::Kind::kBreak);
      IPA_RETURN_IF_ERROR(expect(Tok::kSemicolon, "after 'break'"));
      return StmtPtr(std::move(stmt));
    }
    if (match(Tok::kContinue)) {
      auto stmt = make(Stmt::Kind::kContinue);
      IPA_RETURN_IF_ERROR(expect(Tok::kSemicolon, "after 'continue'"));
      return StmtPtr(std::move(stmt));
    }
    if (check(Tok::kLBrace)) {
      auto stmt = make(Stmt::Kind::kBlock);
      IPA_RETURN_IF_ERROR(parse_block_into(*stmt, stmt->body).status());
      return StmtPtr(std::move(stmt));
    }

    IPA_ASSIGN_OR_RETURN(StmtPtr stmt, parse_simple_statement());
    IPA_RETURN_IF_ERROR(expect(Tok::kSemicolon, "after statement"));
    return stmt;
  }

  Result<StmtPtr> parse_if() {
    const int line = peek().line;
    take();  // 'if'
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kIf;
    stmt->line = line;
    IPA_RETURN_IF_ERROR(expect(Tok::kLParen, "after 'if'"));
    IPA_ASSIGN_OR_RETURN(stmt->cond, parse_expr());
    IPA_RETURN_IF_ERROR(expect(Tok::kRParen, "after condition"));
    IPA_RETURN_IF_ERROR(parse_block_into(*stmt, stmt->body).status());
    if (match(Tok::kElse)) {
      if (check(Tok::kIf)) {
        IPA_ASSIGN_OR_RETURN(StmtPtr chained, parse_if());
        stmt->else_body.push_back(std::move(chained));
      } else {
        IPA_RETURN_IF_ERROR(parse_block_into(*stmt, stmt->else_body).status());
      }
    }
    return StmtPtr(std::move(stmt));
  }

  /// `let`-free statement usable in for-headers: assignment or expression.
  Result<StmtPtr> parse_simple_statement() {
    const int line = peek().line;
    if (match(Tok::kLet)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = Stmt::Kind::kLet;
      stmt->line = line;
      if (!check(Tok::kIdent)) return error("expected variable name after 'let'");
      stmt->name = take().text;
      IPA_RETURN_IF_ERROR(expect(Tok::kAssign, "in 'let' declaration"));
      IPA_ASSIGN_OR_RETURN(stmt->expr, parse_expr());
      return StmtPtr(std::move(stmt));
    }
    IPA_ASSIGN_OR_RETURN(ExprPtr expr, parse_expr());
    if (check(Tok::kAssign) || check(Tok::kPlusAssign) || check(Tok::kMinusAssign)) {
      if (expr->kind != Expr::Kind::kVar && expr->kind != Expr::Kind::kIndex) {
        return error("invalid assignment target");
      }
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = Stmt::Kind::kAssign;
      stmt->line = line;
      stmt->op = check(Tok::kAssign) ? Op::kSet
                                     : (check(Tok::kPlusAssign) ? Op::kAddSet : Op::kSubSet);
      take();
      stmt->target = std::move(expr);
      IPA_ASSIGN_OR_RETURN(stmt->expr, parse_expr());
      return StmtPtr(std::move(stmt));
    }
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kExpr;
    stmt->line = line;
    stmt->expr = std::move(expr);
    return StmtPtr(std::move(stmt));
  }

  // --- expressions ----------------------------------------------------------

  ExprPtr make_expr(Expr::Kind kind, int line) {
    auto expr = std::make_unique<Expr>();
    expr->kind = kind;
    expr->line = line;
    return expr;
  }

  Result<ExprPtr> parse_expr() { return parse_or(); }

  Result<ExprPtr> parse_or() {
    IPA_ASSIGN_OR_RETURN(ExprPtr lhs, parse_and());
    while (check(Tok::kOr)) {
      const int line = take().line;
      IPA_ASSIGN_OR_RETURN(ExprPtr rhs, parse_and());
      auto node = make_expr(Expr::Kind::kLogical, line);
      node->op = Op::kOr;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<ExprPtr> parse_and() {
    IPA_ASSIGN_OR_RETURN(ExprPtr lhs, parse_equality());
    while (check(Tok::kAnd)) {
      const int line = take().line;
      IPA_ASSIGN_OR_RETURN(ExprPtr rhs, parse_equality());
      auto node = make_expr(Expr::Kind::kLogical, line);
      node->op = Op::kAnd;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<ExprPtr> parse_binary_level(
      Result<ExprPtr> (Parser::*next)(),
      std::initializer_list<std::pair<Tok, Op>> ops) {
    IPA_ASSIGN_OR_RETURN(ExprPtr lhs, (this->*next)());
    while (true) {
      const std::pair<Tok, Op>* matched = nullptr;
      for (const auto& candidate : ops) {
        if (check(candidate.first)) {
          matched = &candidate;
          break;
        }
      }
      if (!matched) return lhs;
      const int line = take().line;
      IPA_ASSIGN_OR_RETURN(ExprPtr rhs, (this->*next)());
      auto node = make_expr(Expr::Kind::kBinary, line);
      node->op = matched->second;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
  }

  Result<ExprPtr> parse_equality() {
    return parse_binary_level(&Parser::parse_comparison,
                              {{Tok::kEq, Op::kEq}, {Tok::kNe, Op::kNe}});
  }
  Result<ExprPtr> parse_comparison() {
    return parse_binary_level(
        &Parser::parse_term,
        {{Tok::kLt, Op::kLt}, {Tok::kLe, Op::kLe}, {Tok::kGt, Op::kGt}, {Tok::kGe, Op::kGe}});
  }
  Result<ExprPtr> parse_term() {
    return parse_binary_level(&Parser::parse_factor,
                              {{Tok::kPlus, Op::kAdd}, {Tok::kMinus, Op::kSub}});
  }
  Result<ExprPtr> parse_factor() {
    return parse_binary_level(&Parser::parse_unary,
                              {{Tok::kStar, Op::kMul}, {Tok::kSlash, Op::kDiv},
                               {Tok::kPercent, Op::kMod}});
  }

  Result<ExprPtr> parse_unary() {
    if (check(Tok::kMinus) || check(Tok::kNot)) {
      const bool negate = check(Tok::kMinus);
      const int line = take().line;
      IPA_ASSIGN_OR_RETURN(ExprPtr operand, parse_unary());
      auto node = make_expr(Expr::Kind::kUnary, line);
      node->op = negate ? Op::kNeg : Op::kNot;
      node->lhs = std::move(operand);
      return node;
    }
    return parse_postfix();
  }

  Result<ExprPtr> parse_postfix() {
    IPA_ASSIGN_OR_RETURN(ExprPtr expr, parse_primary());
    while (true) {
      if (check(Tok::kLParen)) {
        const int line = take().line;
        auto call = make_expr(Expr::Kind::kCall, line);
        call->lhs = std::move(expr);
        IPA_RETURN_IF_ERROR(parse_args(call->args));
        expr = std::move(call);
      } else if (check(Tok::kDot)) {
        const int line = take().line;
        if (!check(Tok::kIdent)) return error("expected method name after '.'");
        const std::string name = take().text;
        IPA_RETURN_IF_ERROR(expect(Tok::kLParen, "after method name"));
        auto call = make_expr(Expr::Kind::kMethod, line);
        call->text = name;
        call->lhs = std::move(expr);
        IPA_RETURN_IF_ERROR(parse_args(call->args));
        expr = std::move(call);
      } else if (check(Tok::kLBracket)) {
        const int line = take().line;
        auto index = make_expr(Expr::Kind::kIndex, line);
        index->lhs = std::move(expr);
        IPA_ASSIGN_OR_RETURN(index->rhs, parse_expr());
        IPA_RETURN_IF_ERROR(expect(Tok::kRBracket, "after index"));
        expr = std::move(index);
      } else {
        return expr;
      }
    }
  }

  /// Arguments after an already-consumed '('.
  Status parse_args(std::vector<ExprPtr>& args) {
    if (!check(Tok::kRParen)) {
      while (true) {
        auto arg = parse_expr();
        IPA_RETURN_IF_ERROR(arg.status());
        args.push_back(std::move(*arg));
        if (!match(Tok::kComma)) break;
      }
    }
    return expect(Tok::kRParen, "after arguments");
  }

  Result<ExprPtr> parse_primary() {
    const int line = peek().line;
    if (check(Tok::kNumber) || check(Tok::kString) || check(Tok::kTrue) ||
        check(Tok::kFalse) || check(Tok::kNil)) {
      auto node = make_expr(Expr::Kind::kLiteral, line);
      const Token& token = take();
      switch (token.kind) {
        case Tok::kNumber: node->literal = Value(token.number); break;
        case Tok::kString: node->literal = Value(token.text); break;
        case Tok::kNil: break;
        default: node->literal = Value(token.kind == Tok::kTrue); break;
      }
      return node;
    }
    if (check(Tok::kIdent)) {
      auto node = make_expr(Expr::Kind::kVar, line);
      node->text = take().text;
      return node;
    }
    if (match(Tok::kLParen)) {
      IPA_ASSIGN_OR_RETURN(ExprPtr inner, parse_expr());
      IPA_RETURN_IF_ERROR(expect(Tok::kRParen, "after expression"));
      return inner;
    }
    if (match(Tok::kLBracket)) {
      auto node = make_expr(Expr::Kind::kList, line);
      if (!check(Tok::kRBracket)) {
        while (true) {
          auto element = parse_expr();
          IPA_RETURN_IF_ERROR(element.status());
          node->args.push_back(std::move(*element));
          if (!match(Tok::kComma)) break;
        }
      }
      IPA_RETURN_IF_ERROR(expect(Tok::kRBracket, "after list elements"));
      return node;
    }
    return error("expected an expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Program> parse(std::string_view source) {
  IPA_ASSIGN_OR_RETURN(std::vector<Token> tokens, lex(source));
  return Parser(std::move(tokens)).run();
}

}  // namespace ipa::script
