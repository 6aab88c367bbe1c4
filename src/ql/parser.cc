#include "ql/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace minihive::ql {

namespace {

enum class TokenKind {
  kIdent,
  kKeyword,
  kInt,
  kDouble,
  kString,
  kSymbol,  // Punctuation / operators.
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;  // Keywords uppercased; symbols literal.
  int64_t int_value = 0;
  double double_value = 0;
  size_t offset = 0;
};

const char* kKeywords[] = {
    "SELECT", "FROM",    "WHERE",  "GROUP",  "BY",     "ORDER",
    "LIMIT",  "JOIN",    "ON",     "AS",     "AND",    "OR",
    "NOT",    "BETWEEN", "IN",     "IS",     "NULL",   "TRUE",
    "FALSE",  "ASC",     "DESC",   "LEFT",   "OUTER",  "INNER",
    "SUM",    "COUNT",   "AVG",    "MIN",    "MAX",    "DISTINCT"};
// The statement words — CREATE, TABLE, PARTITIONED, UNIQUE, KEY, STORED,
// INSERT, INTO, VALUES, DELETE, DROP — are deliberately NOT keywords.
// They only ever appear at fixed positions in the DDL/DML grammar, where
// Parser::PeekWord / ConsumeWord match them contextually; reserving them
// would break SELECTs over datasets with columns named `key`, `values`,
// `insert`, and so on (the lexer would uppercase those references and
// name resolution would miss).

bool IsKeyword(const std::string& upper) {
  for (const char* kw : kKeywords) {
    if (upper == kw) return true;
  }
  return false;
}

class Lexer {
 public:
  explicit Lexer(std::string_view sql) : sql_(sql) {}

  Status Tokenize(std::vector<Token>* out) {
    while (true) {
      SkipSpaceAndComments();
      if (pos_ >= sql_.size()) break;
      char c = sql_[pos_];
      Token token;
      token.offset = pos_;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < sql_.size() &&
               (std::isalnum(static_cast<unsigned char>(sql_[pos_])) ||
                sql_[pos_] == '_')) {
          ++pos_;
        }
        std::string word(sql_.substr(start, pos_ - start));
        std::string upper = word;
        std::transform(upper.begin(), upper.end(), upper.begin(), ::toupper);
        if (IsKeyword(upper)) {
          token.kind = TokenKind::kKeyword;
          token.text = upper;
        } else {
          token.kind = TokenKind::kIdent;
          token.text = word;
        }
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' && pos_ + 1 < sql_.size() &&
                  std::isdigit(static_cast<unsigned char>(sql_[pos_ + 1])))) {
        size_t start = pos_;
        bool is_double = false;
        while (pos_ < sql_.size() &&
               (std::isdigit(static_cast<unsigned char>(sql_[pos_])) ||
                sql_[pos_] == '.' || sql_[pos_] == 'e' || sql_[pos_] == 'E' ||
                ((sql_[pos_] == '+' || sql_[pos_] == '-') && pos_ > start &&
                 (sql_[pos_ - 1] == 'e' || sql_[pos_ - 1] == 'E')))) {
          if (sql_[pos_] == '.' || sql_[pos_] == 'e' || sql_[pos_] == 'E') {
            is_double = true;
          }
          ++pos_;
        }
        std::string num(sql_.substr(start, pos_ - start));
        if (is_double) {
          token.kind = TokenKind::kDouble;
          token.double_value = std::stod(num);
        } else {
          token.kind = TokenKind::kInt;
          auto [p, ec] =
              std::from_chars(num.data(), num.data() + num.size(),
                              token.int_value);
          if (ec != std::errc()) {
            token.kind = TokenKind::kDouble;
            token.double_value = std::stod(num);
          }
        }
      } else if (c == '\'' || c == '"') {
        char quote = c;
        ++pos_;
        std::string text;
        while (pos_ < sql_.size()) {
          if (sql_[pos_] == quote) {
            // SQL-style doubled quote escapes the quote character.
            if (pos_ + 1 < sql_.size() && sql_[pos_ + 1] == quote) {
              text.push_back(quote);
              pos_ += 2;
              continue;
            }
            break;
          }
          if (sql_[pos_] == '\\' && pos_ + 1 < sql_.size()) ++pos_;
          text.push_back(sql_[pos_++]);
        }
        if (pos_ >= sql_.size()) {
          return Status::InvalidArgument("unterminated string literal");
        }
        ++pos_;  // Closing quote.
        token.kind = TokenKind::kString;
        token.text = std::move(text);
      } else {
        // Multi-char operators first.
        static const char* kTwoChar[] = {"!=", "<>", "<=", ">="};
        std::string two(sql_.substr(pos_, std::min<size_t>(2, sql_.size() -
                                                                  pos_)));
        bool matched = false;
        for (const char* op : kTwoChar) {
          if (two == op) {
            token.kind = TokenKind::kSymbol;
            token.text = two == "<>" ? "!=" : two;
            pos_ += 2;
            matched = true;
            break;
          }
        }
        if (!matched) {
          if (std::string("+-*/=<>(),.;").find(c) == std::string::npos) {
            return Status::InvalidArgument(
                std::string("unexpected character '") + c + "' at offset " +
                std::to_string(pos_));
          }
          token.kind = TokenKind::kSymbol;
          token.text = std::string(1, c);
          ++pos_;
        }
      }
      out->push_back(std::move(token));
    }
    Token end;
    end.kind = TokenKind::kEnd;
    end.offset = sql_.size();
    out->push_back(end);
    return Status::OK();
  }

 private:
  void SkipSpaceAndComments() {
    while (pos_ < sql_.size()) {
      char c = sql_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '-' && pos_ + 1 < sql_.size() && sql_[pos_ + 1] == '-') {
        while (pos_ < sql_.size() && sql_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view sql_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<AstQueryPtr> Parse() {
    MINIHIVE_ASSIGN_OR_RETURN(AstQueryPtr query, ParseQueryBody());
    if (PeekSymbol(";")) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing tokens after query");
    }
    return query;
  }

  Result<AstStatementPtr> ParseOneStatement() {
    auto stmt = std::make_shared<AstStatement>();
    if (PeekWord("CREATE")) {
      stmt->kind = AstStatementKind::kCreateTable;
      MINIHIVE_ASSIGN_OR_RETURN(stmt->create, ParseCreateTable());
    } else if (PeekWord("DROP")) {
      Advance();
      if (!ConsumeWord("TABLE")) return Error("expected TABLE after DROP");
      stmt->kind = AstStatementKind::kDropTable;
      MINIHIVE_ASSIGN_OR_RETURN(stmt->drop_table, ParseName("table name"));
    } else if (PeekWord("INSERT")) {
      stmt->kind = AstStatementKind::kInsert;
      MINIHIVE_ASSIGN_OR_RETURN(stmt->insert, ParseInsert());
    } else if (PeekWord("DELETE")) {
      stmt->kind = AstStatementKind::kDelete;
      MINIHIVE_ASSIGN_OR_RETURN(stmt->delete_stmt, ParseDelete());
    } else {
      stmt->kind = AstStatementKind::kQuery;
      MINIHIVE_ASSIGN_OR_RETURN(stmt->query, ParseQueryBody());
    }
    if (PeekSymbol(";")) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing tokens after statement");
    }
    return stmt;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  bool PeekKeyword(const std::string& kw, int ahead = 0) const {
    return Peek(ahead).kind == TokenKind::kKeyword && Peek(ahead).text == kw;
  }
  bool PeekSymbol(const std::string& sym, int ahead = 0) const {
    return Peek(ahead).kind == TokenKind::kSymbol && Peek(ahead).text == sym;
  }

  bool ConsumeKeyword(const std::string& kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  /// Contextual statement words (CREATE, INTO, VALUES, ...) reach the
  /// parser as plain identifiers — see the kKeywords comment. These match
  /// them case-insensitively at the grammar positions that require them.
  /// `word` must be given in uppercase.
  bool PeekWord(const char* word, int ahead = 0) const {
    const Token& t = Peek(ahead);
    if (t.kind != TokenKind::kIdent) return false;
    for (size_t i = 0;; ++i) {
      if (word[i] == '\0') return i == t.text.size();
      if (i >= t.text.size()) return false;
      if (std::toupper(static_cast<unsigned char>(t.text[i])) != word[i]) {
        return false;
      }
    }
  }
  bool ConsumeWord(const char* word) {
    if (PeekWord(word)) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeSymbol(const std::string& sym) {
    if (PeekSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("parse error at offset " +
                                   std::to_string(Peek().offset) + ": " +
                                   message);
  }

  Result<AstQueryPtr> ParseQueryBody() {
    if (!ConsumeKeyword("SELECT")) return Error("expected SELECT");
    auto query = std::make_shared<AstQuery>();
    // Select list.
    if (ConsumeSymbol("*")) {
      query->select_star = true;
    } else {
      while (true) {
        AstSelectItem item;
        MINIHIVE_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("AS")) {
          // Aliases may reuse non-reserved keywords (SUM, AVG, ...).
          if (Peek().kind != TokenKind::kIdent &&
              Peek().kind != TokenKind::kKeyword) {
            return Error("expected alias after AS");
          }
          item.alias = Advance().text;
        } else if (Peek().kind == TokenKind::kIdent) {
          item.alias = Advance().text;
        }
        query->select.push_back(std::move(item));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (!ConsumeKeyword("FROM")) return Error("expected FROM");
    MINIHIVE_ASSIGN_OR_RETURN(query->from, ParseTableRef());
    // Joins.
    while (PeekKeyword("JOIN") || PeekKeyword("LEFT") || PeekKeyword("INNER")) {
      AstJoin join;
      if (ConsumeKeyword("LEFT")) {
        ConsumeKeyword("OUTER");
        join.left_outer = true;
      } else {
        ConsumeKeyword("INNER");
      }
      if (!ConsumeKeyword("JOIN")) return Error("expected JOIN");
      MINIHIVE_ASSIGN_OR_RETURN(join.right, ParseTableRef());
      if (!ConsumeKeyword("ON")) return Error("expected ON");
      MINIHIVE_ASSIGN_OR_RETURN(join.condition, ParseExpr());
      query->joins.push_back(std::move(join));
    }
    if (ConsumeKeyword("WHERE")) {
      MINIHIVE_ASSIGN_OR_RETURN(query->where, ParseExpr());
    }
    if (ConsumeKeyword("GROUP")) {
      if (!ConsumeKeyword("BY")) return Error("expected BY after GROUP");
      while (true) {
        MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
        query->group_by.push_back(std::move(e));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (ConsumeKeyword("ORDER")) {
      if (!ConsumeKeyword("BY")) return Error("expected BY after ORDER");
      while (true) {
        AstOrderItem item;
        MINIHIVE_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          item.ascending = false;
        } else {
          ConsumeKeyword("ASC");
        }
        query->order_by.push_back(std::move(item));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kInt) return Error("expected LIMIT count");
      query->limit = Advance().int_value;
    }
    return query;
  }

  /// A name position (table / column): identifiers, plus keyword tokens —
  /// so a column named like a non-reserved word ("key", "count") parses.
  Result<std::string> ParseName(const std::string& what) {
    if (Peek().kind != TokenKind::kIdent &&
        Peek().kind != TokenKind::kKeyword) {
      return Error("expected " + what);
    }
    return Advance().text;
  }

  Result<std::vector<std::string>> ParseNameList(const std::string& what) {
    if (!ConsumeSymbol("(")) return Error("expected '(' before " + what);
    std::vector<std::string> names;
    do {
      MINIHIVE_ASSIGN_OR_RETURN(std::string name, ParseName(what));
      names.push_back(std::move(name));
    } while (ConsumeSymbol(","));
    if (!ConsumeSymbol(")")) return Error("expected ')' after " + what);
    return names;
  }

  Result<std::shared_ptr<AstCreateTable>> ParseCreateTable() {
    Advance();  // CREATE
    if (!ConsumeWord("TABLE")) return Error("expected TABLE after CREATE");
    auto create = std::make_shared<AstCreateTable>();
    MINIHIVE_ASSIGN_OR_RETURN(create->table, ParseName("table name"));
    if (!ConsumeSymbol("(")) return Error("expected '(' after table name");
    do {
      AstColumnDef col;
      MINIHIVE_ASSIGN_OR_RETURN(col.name, ParseName("column name"));
      MINIHIVE_ASSIGN_OR_RETURN(col.type, ParseName("column type"));
      std::transform(col.type.begin(), col.type.end(), col.type.begin(),
                     ::toupper);
      create->columns.push_back(std::move(col));
    } while (ConsumeSymbol(","));
    if (!ConsumeSymbol(")")) return Error("expected ')' after column list");
    while (true) {
      if (ConsumeWord("PARTITIONED")) {
        if (!ConsumeKeyword("BY")) return Error("expected BY");
        MINIHIVE_ASSIGN_OR_RETURN(create->partition_cols,
                                  ParseNameList("partition columns"));
      } else if (ConsumeWord("UNIQUE")) {
        if (!ConsumeWord("KEY")) return Error("expected KEY after UNIQUE");
        MINIHIVE_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                                  ParseNameList("unique key column"));
        if (keys.size() != 1) {
          return Error("UNIQUE KEY takes exactly one column");
        }
        create->unique_key = keys[0];
      } else if (ConsumeWord("STORED")) {
        if (!ConsumeKeyword("AS")) return Error("expected AS after STORED");
        MINIHIVE_ASSIGN_OR_RETURN(std::string fmt, ParseName("format name"));
        std::transform(fmt.begin(), fmt.end(), fmt.begin(), ::toupper);
        if (fmt != "ORC") {
          return Error("managed tables are ORC-only (STORED AS ORC)");
        }
      } else {
        break;
      }
    }
    return create;
  }

  Result<std::shared_ptr<AstInsert>> ParseInsert() {
    Advance();  // INSERT
    if (!ConsumeWord("INTO")) return Error("expected INTO after INSERT");
    auto insert = std::make_shared<AstInsert>();
    MINIHIVE_ASSIGN_OR_RETURN(insert->table, ParseName("table name"));
    if (!ConsumeWord("VALUES")) return Error("expected VALUES");
    do {
      if (!ConsumeSymbol("(")) return Error("expected '(' before row values");
      std::vector<AstExprPtr> row;
      do {
        MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr value, ParseExpr());
        row.push_back(std::move(value));
      } while (ConsumeSymbol(","));
      if (!ConsumeSymbol(")")) return Error("expected ')' after row values");
      insert->rows.push_back(std::move(row));
    } while (ConsumeSymbol(","));
    return insert;
  }

  Result<std::shared_ptr<AstDelete>> ParseDelete() {
    Advance();  // DELETE
    if (!ConsumeKeyword("FROM")) return Error("expected FROM after DELETE");
    auto del = std::make_shared<AstDelete>();
    MINIHIVE_ASSIGN_OR_RETURN(del->table, ParseName("table name"));
    if (ConsumeKeyword("WHERE")) {
      MINIHIVE_ASSIGN_OR_RETURN(del->where, ParseExpr());
    }
    return del;
  }

  Result<AstTableRef> ParseTableRef() {
    AstTableRef ref;
    if (ConsumeSymbol("(")) {
      MINIHIVE_ASSIGN_OR_RETURN(ref.subquery, ParseQueryBody());
      if (!ConsumeSymbol(")")) return Error("expected ')' after subquery");
      if (Peek().kind != TokenKind::kIdent) {
        return Error("subquery requires an alias");
      }
      ref.alias = Advance().text;
      return ref;
    }
    if (Peek().kind != TokenKind::kIdent) return Error("expected table name");
    ref.table = Advance().text;
    ref.alias = ref.table;
    if (Peek().kind == TokenKind::kIdent) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  // Expression precedence: OR < AND < NOT < comparison < additive <
  // multiplicative < unary < primary.
  Result<AstExprPtr> ParseExpr() { return ParseOr(); }

  Result<AstExprPtr> ParseOr() {
    MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr left, ParseAnd());
    while (PeekKeyword("OR")) {
      Advance();
      MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr right, ParseAnd());
      left = MakeBinary("OR", std::move(left), std::move(right));
    }
    return left;
  }

  Result<AstExprPtr> ParseAnd() {
    MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr left, ParseNot());
    while (PeekKeyword("AND")) {
      Advance();
      MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr right, ParseNot());
      left = MakeBinary("AND", std::move(left), std::move(right));
    }
    return left;
  }

  Result<AstExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr child, ParseNot());
      auto e = std::make_shared<AstExpr>();
      e->kind = AstExprKind::kNot;
      e->children.push_back(std::move(child));
      return e;
    }
    return ParseComparison();
  }

  Result<AstExprPtr> ParseComparison() {
    MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr left, ParseAdditive());
    // IS [NOT] NULL.
    if (PeekKeyword("IS")) {
      Advance();
      bool negated = ConsumeKeyword("NOT");
      if (!ConsumeKeyword("NULL")) return Error("expected NULL after IS");
      auto e = std::make_shared<AstExpr>();
      e->kind = AstExprKind::kIsNull;
      e->negated = negated;
      e->children.push_back(std::move(left));
      return e;
    }
    bool negated = false;
    if (PeekKeyword("NOT") &&
        (PeekKeyword("BETWEEN", 1) || PeekKeyword("IN", 1))) {
      Advance();
      negated = true;
    }
    if (ConsumeKeyword("BETWEEN")) {
      MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr low, ParseAdditive());
      if (!ConsumeKeyword("AND")) return Error("expected AND in BETWEEN");
      MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr high, ParseAdditive());
      auto e = std::make_shared<AstExpr>();
      e->kind = AstExprKind::kBetween;
      e->negated = negated;
      e->children = {std::move(left), std::move(low), std::move(high)};
      return e;
    }
    if (ConsumeKeyword("IN")) {
      if (!ConsumeSymbol("(")) return Error("expected '(' after IN");
      auto e = std::make_shared<AstExpr>();
      e->kind = AstExprKind::kIn;
      e->negated = negated;
      e->children.push_back(std::move(left));
      while (true) {
        MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr item, ParseAdditive());
        e->children.push_back(std::move(item));
        if (!ConsumeSymbol(",")) break;
      }
      if (!ConsumeSymbol(")")) return Error("expected ')' after IN list");
      return e;
    }
    for (const char* op : {"=", "!=", "<=", ">=", "<", ">"}) {
      if (PeekSymbol(op)) {
        Advance();
        MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr right, ParseAdditive());
        return MakeBinary(op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<AstExprPtr> ParseAdditive() {
    MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr left, ParseMultiplicative());
    while (PeekSymbol("+") || PeekSymbol("-")) {
      std::string op = Advance().text;
      MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr right, ParseMultiplicative());
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<AstExprPtr> ParseMultiplicative() {
    MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr left, ParseUnary());
    while (PeekSymbol("*") || PeekSymbol("/")) {
      std::string op = Advance().text;
      MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr right, ParseUnary());
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<AstExprPtr> ParseUnary() {
    if (ConsumeSymbol("-")) {
      MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr child, ParseUnary());
      // Fold negative literals; otherwise 0 - child.
      if (child->kind == AstExprKind::kLiteral) {
        if (child->literal.is_int()) {
          child->literal = Value::Int(-child->literal.AsInt());
          return child;
        }
        if (child->literal.is_double()) {
          child->literal = Value::Double(-child->literal.AsDouble());
          return child;
        }
      }
      auto zero = std::make_shared<AstExpr>();
      zero->kind = AstExprKind::kLiteral;
      zero->literal = Value::Int(0);
      return MakeBinary("-", std::move(zero), std::move(child));
    }
    return ParsePrimary();
  }

  Result<AstExprPtr> ParsePrimary() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kInt: {
        Advance();
        auto e = std::make_shared<AstExpr>();
        e->kind = AstExprKind::kLiteral;
        e->literal = Value::Int(token.int_value);
        return e;
      }
      case TokenKind::kDouble: {
        Advance();
        auto e = std::make_shared<AstExpr>();
        e->kind = AstExprKind::kLiteral;
        e->literal = Value::Double(token.double_value);
        return e;
      }
      case TokenKind::kString: {
        Advance();
        auto e = std::make_shared<AstExpr>();
        e->kind = AstExprKind::kLiteral;
        e->literal = Value::String(token.text);
        return e;
      }
      case TokenKind::kKeyword: {
        if (token.text == "NULL") {
          Advance();
          auto e = std::make_shared<AstExpr>();
          e->kind = AstExprKind::kLiteral;
          e->literal = Value::Null();
          return e;
        }
        if (token.text == "TRUE" || token.text == "FALSE") {
          Advance();
          auto e = std::make_shared<AstExpr>();
          e->kind = AstExprKind::kLiteral;
          e->literal = Value::Bool(token.text == "TRUE");
          return e;
        }
        if (token.text == "SUM" || token.text == "COUNT" ||
            token.text == "AVG" || token.text == "MIN" ||
            token.text == "MAX") {
          // Without a following '(', treat the word as a column name.
          if (!PeekSymbol("(", 1)) {
            Advance();
            auto col = std::make_shared<AstExpr>();
            col->kind = AstExprKind::kColumn;
            col->name = token.text;
            if (ConsumeSymbol(".")) {
              if (Peek().kind != TokenKind::kIdent &&
                  Peek().kind != TokenKind::kKeyword) {
                return Error("expected column after '.'");
              }
              col->qualifier = col->name;
              col->name = Advance().text;
            }
            return col;
          }
          Advance();
          if (!ConsumeSymbol("(")) return Error("expected '(' after function");
          auto e = std::make_shared<AstExpr>();
          e->kind = AstExprKind::kFunction;
          e->function = token.text;
          if (ConsumeSymbol("*")) {
            e->star = true;
          } else {
            ConsumeKeyword("DISTINCT");  // Parsed but not supported later.
            MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr arg, ParseExpr());
            e->children.push_back(std::move(arg));
          }
          if (!ConsumeSymbol(")")) return Error("expected ')' after function");
          return e;
        }
        return Error("unexpected keyword " + token.text);
      }
      case TokenKind::kIdent: {
        Advance();
        auto e = std::make_shared<AstExpr>();
        e->kind = AstExprKind::kColumn;
        e->name = token.text;
        if (ConsumeSymbol(".")) {
          // Column names may collide with non-reserved keywords.
          if (Peek().kind != TokenKind::kIdent &&
              Peek().kind != TokenKind::kKeyword) {
            return Error("expected column after '.'");
          }
          e->qualifier = e->name;
          e->name = Advance().text;
        }
        return e;
      }
      case TokenKind::kSymbol: {
        if (token.text == "(") {
          Advance();
          MINIHIVE_ASSIGN_OR_RETURN(AstExprPtr inner, ParseExpr());
          if (!ConsumeSymbol(")")) return Error("expected ')'");
          return inner;
        }
        return Error("unexpected symbol '" + token.text + "'");
      }
      case TokenKind::kEnd:
        return Error("unexpected end of input");
    }
    return Error("unexpected token");
  }

  static AstExprPtr MakeBinary(std::string op, AstExprPtr left,
                               AstExprPtr right) {
    auto e = std::make_shared<AstExpr>();
    e->kind = AstExprKind::kBinary;
    e->op = std::move(op);
    e->children = {std::move(left), std::move(right)};
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<AstQueryPtr> ParseQuery(std::string_view sql) {
  std::vector<Token> tokens;
  MINIHIVE_RETURN_IF_ERROR(Lexer(sql).Tokenize(&tokens));
  return Parser(std::move(tokens)).Parse();
}

Result<AstStatementPtr> ParseStatement(std::string_view sql) {
  std::vector<Token> tokens;
  MINIHIVE_RETURN_IF_ERROR(Lexer(sql).Tokenize(&tokens));
  return Parser(std::move(tokens)).ParseOneStatement();
}

std::string AstExpr::ToString() const {
  switch (kind) {
    case AstExprKind::kColumn:
      return qualifier.empty() ? name : qualifier + "." + name;
    case AstExprKind::kLiteral:
      return literal.ToString();
    case AstExprKind::kBinary:
      return std::string("(")
          .append(children[0]->ToString())
          .append(" " + op + " ")
          .append(children[1]->ToString())
          .append(")");
    case AstExprKind::kNot:
      return "NOT " + children[0]->ToString();
    case AstExprKind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case AstExprKind::kBetween:
      return children[0]->ToString() + (negated ? " NOT" : "") + " BETWEEN " +
             children[1]->ToString() + " AND " + children[2]->ToString();
    case AstExprKind::kIn: {
      std::string s = children[0]->ToString() + (negated ? " NOT IN (" :
                                                           " IN (");
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) s += ", ";
        s += children[i]->ToString();
      }
      return s + ")";
    }
    case AstExprKind::kFunction: {
      std::string s = function + "(";
      if (star) {
        s += "*";
      } else if (!children.empty()) {
        s += children[0]->ToString();
      }
      return s + ")";
    }
  }
  return "?";
}

}  // namespace minihive::ql
