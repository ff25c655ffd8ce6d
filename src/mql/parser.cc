#include "mql/parser.h"

#include <memory>

#include "mql/lexer.h"

namespace prima::mql {

using access::AttributeDef;
using access::Cardinality;
using access::CompareOp;
using access::Tid;
using access::TypeDesc;
using access::Value;
using util::Result;
using util::Status;

namespace {

class Parser {
 public:
  explicit Parser(std::string text) : text_(std::move(text)) {}

  Result<Statement> ParseStatement() {
    PRIMA_RETURN_IF_ERROR(Init());
    Statement stmt;
    if (AcceptKeyword("EXPLAIN")) {
      PRIMA_RETURN_IF_ERROR(ExpectKeyword("ANALYZE"));
      stmt.explain_analyze = true;
    }
    if (IsKeyword("SELECT")) {
      stmt.kind = Statement::Kind::kQuery;
      PRIMA_ASSIGN_OR_RETURN(stmt.query, ParseQuery());
    } else if (IsKeyword("CREATE")) {
      stmt.kind = Statement::Kind::kCreateAtomType;
      PRIMA_ASSIGN_OR_RETURN(stmt.create_atom_type, ParseCreateAtomType());
    } else if (IsKeyword("DEFINE")) {
      stmt.kind = Statement::Kind::kDefineMoleculeType;
      PRIMA_ASSIGN_OR_RETURN(stmt.define_molecule_type, ParseDefineMolecule());
    } else if (IsKeyword("DROP")) {
      stmt.kind = Statement::Kind::kDrop;
      PRIMA_ASSIGN_OR_RETURN(stmt.drop, ParseDrop());
    } else if (IsKeyword("INSERT")) {
      stmt.kind = Statement::Kind::kInsert;
      PRIMA_ASSIGN_OR_RETURN(stmt.insert, ParseInsert());
    } else if (IsKeyword("DELETE")) {
      stmt.kind = Statement::Kind::kDelete;
      PRIMA_ASSIGN_OR_RETURN(stmt.del, ParseDelete());
    } else if (IsKeyword("MODIFY")) {
      stmt.kind = Statement::Kind::kModify;
      PRIMA_ASSIGN_OR_RETURN(stmt.modify, ParseModify());
    } else if (IsKeyword("CONNECT") || IsKeyword("DISCONNECT")) {
      stmt.kind = Statement::Kind::kConnect;
      PRIMA_ASSIGN_OR_RETURN(stmt.connect, ParseConnect());
    } else if (AcceptKeyword("BEGIN")) {
      PRIMA_RETURN_IF_ERROR(ExpectKeyword("WORK"));
      stmt.kind = Statement::Kind::kBeginWork;
      if (AcceptKeyword("READ")) {
        PRIMA_RETURN_IF_ERROR(ExpectKeyword("ONLY"));
        stmt.begin_read_only = true;
      }
    } else if (AcceptKeyword("COMMIT")) {
      PRIMA_RETURN_IF_ERROR(ExpectKeyword("WORK"));
      stmt.kind = Statement::Kind::kCommitWork;
    } else if (AcceptKeyword("ABORT")) {
      PRIMA_RETURN_IF_ERROR(ExpectKeyword("WORK"));
      stmt.kind = Statement::Kind::kAbortWork;
    } else {
      return Err("expected a statement keyword");
    }
    (void)AcceptSymbol(";");
    if (!AtEnd()) return Err("trailing input after statement");
    if (stmt.explain_analyze) {
      if (stmt.kind == Statement::Kind::kBeginWork ||
          stmt.kind == Statement::Kind::kCommitWork ||
          stmt.kind == Statement::Kind::kAbortWork) {
        return Status::ParseError(
            "EXPLAIN ANALYZE needs an executable statement, not "
            "transaction control");
      }
      if (!params_.empty()) {
        return Status::ParseError(
            "EXPLAIN ANALYZE does not take placeholders - explain the "
            "statement with literal values");
      }
    }
    // Placeholders are meaningful only where a bound value can flow into
    // execution: queries and DML. (DDL never parses value literals, so
    // params_ stays empty there — this check documents the contract.)
    if (!params_.empty() && stmt.kind != Statement::Kind::kQuery &&
        stmt.kind != Statement::Kind::kInsert &&
        stmt.kind != Statement::Kind::kDelete &&
        stmt.kind != Statement::Kind::kModify) {
      return Status::ParseError(
          "placeholders are only allowed in SELECT / INSERT / DELETE / "
          "MODIFY statements");
    }
    stmt.params = std::move(params_);
    return stmt;
  }

  Result<FromClause> ParseBareFrom() {
    PRIMA_RETURN_IF_ERROR(Init());
    PRIMA_ASSIGN_OR_RETURN(FromClause from, ParseFromStructure());
    if (!AtEnd()) return Err("trailing input after structure");
    return from;
  }

 private:
  Status Init() {
    PRIMA_ASSIGN_OR_RETURN(tokens_, Lex(text_));
    pos_ = 0;
    return Status::Ok();
  }

  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t n = 1) const {
    return tokens_[std::min(pos_ + n, tokens_.size() - 1)];
  }
  bool AtEnd() const { return Cur().kind == TokenKind::kEnd; }
  void Advance() {
    if (!AtEnd()) ++pos_;
  }

  Status Err(const std::string& what) const {
    return Status::ParseError(what + " near offset " +
                              std::to_string(Cur().offset) +
                              (Cur().text.empty() ? "" : " ('" + Cur().text + "')"));
  }

  bool IsKeyword(const char* kw) const {
    return Cur().kind == TokenKind::kIdent && Cur().upper == kw;
  }
  bool AcceptKeyword(const char* kw) {
    if (!IsKeyword(kw)) return false;
    Advance();
    return true;
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) return Err(std::string("expected ") + kw);
    return Status::Ok();
  }
  bool IsSymbol(const char* s) const {
    return Cur().kind == TokenKind::kSymbol && Cur().text == s;
  }
  bool AcceptSymbol(const char* s) {
    if (!IsSymbol(s)) return false;
    Advance();
    return true;
  }
  Status ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) return Err(std::string("expected '") + s + "'");
    return Status::Ok();
  }
  Result<std::string> ExpectIdent() {
    if (Cur().kind != TokenKind::kIdent) return Err("expected identifier");
    std::string name = Cur().text;
    Advance();
    return name;
  }

  // --- literals --------------------------------------------------------------

  /// Parameter placeholder at a literal position: `?` declares a fresh
  /// positional slot, `:name` declares (or re-references) a named slot.
  /// Returns the slot index, or -1 when the cursor is not at a placeholder.
  int AcceptParam() {
    if (AcceptSymbol("?")) {
      params_.push_back(ParamDecl{});
      return static_cast<int>(params_.size() - 1);
    }
    if (IsSymbol(":") && Peek().kind == TokenKind::kIdent) {
      Advance();  // :
      std::string name = Cur().text;
      Advance();
      for (size_t i = 0; i < params_.size(); ++i) {
        if (!params_[i].name.empty() && params_[i].name == name) {
          return static_cast<int>(i);
        }
      }
      params_.push_back(ParamDecl{std::move(name)});
      return static_cast<int>(params_.size() - 1);
    }
    return -1;
  }

  Result<Value> ParseLiteral() {
    bool negative = false;
    if (IsSymbol("-")) {
      negative = true;
      Advance();
    }
    switch (Cur().kind) {
      case TokenKind::kInt: {
        const int64_t v = Cur().int_value;
        Advance();
        return Value::Int(negative ? -v : v);
      }
      case TokenKind::kReal: {
        const double v = Cur().real_value;
        Advance();
        return Value::Real(negative ? -v : v);
      }
      case TokenKind::kString: {
        if (negative) return Err("unexpected '-' before string");
        Value v = Value::String(Cur().text);
        Advance();
        return v;
      }
      case TokenKind::kTid: {
        if (negative) return Err("unexpected '-' before surrogate");
        Value v = Value::Ref(Tid(static_cast<access::AtomTypeId>(Cur().int_value),
                                 static_cast<uint64_t>(Cur().real_value)));
        Advance();
        return v;
      }
      default:
        break;
    }
    if (negative) return Err("expected number after '-'");
    if (AcceptKeyword("TRUE")) return Value::Bool(true);
    if (AcceptKeyword("FALSE")) return Value::Bool(false);
    if (AcceptKeyword("EMPTY")) return Value::EmptyList();
    if (AcceptSymbol("{")) {
      std::vector<Value> elems;
      if (!AcceptSymbol("}")) {
        do {
          PRIMA_ASSIGN_OR_RETURN(Value e, ParseLiteral());
          elems.push_back(std::move(e));
        } while (AcceptSymbol(","));
        PRIMA_RETURN_IF_ERROR(ExpectSymbol("}"));
      }
      return Value::List(std::move(elems));
    }
    if (AcceptSymbol("[")) {
      std::vector<Value> elems;
      if (!AcceptSymbol("]")) {
        do {
          PRIMA_ASSIGN_OR_RETURN(Value e, ParseLiteral());
          elems.push_back(std::move(e));
        } while (AcceptSymbol(","));
        PRIMA_RETURN_IF_ERROR(ExpectSymbol("]"));
      }
      return Value::Record(std::move(elems));
    }
    return Err("expected a literal");
  }

  // --- attribute paths --------------------------------------------------------

  Result<AttrPath> ParseAttrPath() {
    AttrPath path;
    PRIMA_ASSIGN_OR_RETURN(std::string first, ExpectIdent());
    // molecule(level) seed form
    if (IsSymbol("(") && Peek().kind == TokenKind::kInt &&
        Peek(2).kind == TokenKind::kSymbol && Peek(2).text == ")") {
      Advance();  // (
      path.component = std::move(first);
      path.level = static_cast<int>(Cur().int_value);
      Advance();  // int
      Advance();  // )
      PRIMA_RETURN_IF_ERROR(ExpectSymbol("."));
      PRIMA_ASSIGN_OR_RETURN(std::string attr, ExpectIdent());
      path.attrs.push_back(std::move(attr));
    } else if (AcceptSymbol(".")) {
      path.component = std::move(first);
      PRIMA_ASSIGN_OR_RETURN(std::string attr, ExpectIdent());
      path.attrs.push_back(std::move(attr));
    } else {
      path.attrs.push_back(std::move(first));
    }
    while (AcceptSymbol(".")) {
      PRIMA_ASSIGN_OR_RETURN(std::string f, ExpectIdent());
      path.attrs.push_back(std::move(f));
    }
    return path;
  }

  // --- conditions --------------------------------------------------------------

  Result<ExprPtr> ParseCondition() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    PRIMA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    if (!IsKeyword("OR")) return lhs;
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kOr;
    node->children.push_back(std::move(lhs));
    while (AcceptKeyword("OR")) {
      PRIMA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      node->children.push_back(std::move(rhs));
    }
    return ExprPtr(std::move(node));
  }

  Result<ExprPtr> ParseAnd() {
    PRIMA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    if (!IsKeyword("AND")) return lhs;
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kAnd;
    node->children.push_back(std::move(lhs));
    while (AcceptKeyword("AND")) {
      PRIMA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      node->children.push_back(std::move(rhs));
    }
    return ExprPtr(std::move(node));
  }

  Result<ExprPtr> ParseUnary() {
    if (AcceptKeyword("NOT")) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kNot;
      PRIMA_ASSIGN_OR_RETURN(ExprPtr child, ParseUnary());
      node->children.push_back(std::move(child));
      return ExprPtr(std::move(node));
    }
    // Quantifiers.
    if (IsKeyword("EXISTS_AT_LEAST") || IsKeyword("EXISTS") ||
        IsKeyword("FOR_ALL") || IsKeyword("ALL_OF")) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kQuantifier;
      if (AcceptKeyword("EXISTS_AT_LEAST")) {
        node->quant = Expr::Quant::kExistsAtLeast;
        PRIMA_RETURN_IF_ERROR(ExpectSymbol("("));
        if (Cur().kind != TokenKind::kInt) return Err("expected count");
        node->quant_count = static_cast<uint32_t>(Cur().int_value);
        Advance();
        PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
      } else if (AcceptKeyword("EXISTS")) {
        node->quant = Expr::Quant::kExists;
      } else {
        Advance();  // FOR_ALL / ALL_OF
        node->quant = Expr::Quant::kForAll;
      }
      PRIMA_ASSIGN_OR_RETURN(node->quant_component, ExpectIdent());
      PRIMA_RETURN_IF_ERROR(ExpectSymbol(":"));
      PRIMA_ASSIGN_OR_RETURN(node->quant_body, ParseUnary());
      return ExprPtr(std::move(node));
    }
    if (AcceptSymbol("(")) {
      PRIMA_ASSIGN_OR_RETURN(ExprPtr inner, ParseCondition());
      PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kCompare;
    PRIMA_ASSIGN_OR_RETURN(node->lhs, ParseAttrPath());
    CompareOp op;
    if (AcceptSymbol("=")) {
      op = CompareOp::kEq;
    } else if (AcceptSymbol("<>") || AcceptSymbol("!=")) {
      op = CompareOp::kNe;
    } else if (AcceptSymbol("<=")) {
      op = CompareOp::kLe;
    } else if (AcceptSymbol(">=")) {
      op = CompareOp::kGe;
    } else if (AcceptSymbol("<")) {
      op = CompareOp::kLt;
    } else if (AcceptSymbol(">")) {
      op = CompareOp::kGt;
    } else if (AcceptKeyword("CONTAINS")) {
      op = CompareOp::kContains;
    } else {
      return Err("expected comparison operator");
    }
    // EMPTY tests become dedicated ops.
    if (IsKeyword("EMPTY")) {
      Advance();
      if (op == CompareOp::kEq) {
        node->op = CompareOp::kIsEmpty;
      } else if (op == CompareOp::kNe) {
        node->op = CompareOp::kNotEmpty;
      } else {
        return Err("EMPTY only combines with = or <>");
      }
      return ExprPtr(std::move(node));
    }
    node->op = op;
    // Parameter placeholder? (`attr = ?` / `attr = :name`)
    if (const int p = AcceptParam(); p >= 0) {
      node->param = p;
      return ExprPtr(std::move(node));
    }
    // Path-path comparison?
    if (Cur().kind == TokenKind::kIdent && !IsKeyword("TRUE") &&
        !IsKeyword("FALSE")) {
      PRIMA_ASSIGN_OR_RETURN(AttrPath rhs, ParseAttrPath());
      node->rhs_path = std::move(rhs);
      return ExprPtr(std::move(node));
    }
    PRIMA_ASSIGN_OR_RETURN(node->literal, ParseLiteral());
    return ExprPtr(std::move(node));
  }

  // --- FROM clause -------------------------------------------------------------

  // component := ident ['.' ident] [ '(' structure (',' structure)* ')' ]
  // with the special branch body `(RECURSIVE)` marking recursion.
  Result<StructureNode> ParseComponent(bool* recursive) {
    StructureNode node;
    PRIMA_ASSIGN_OR_RETURN(node.name, ExpectIdent());
    if (IsSymbol(".") && Peek().kind == TokenKind::kIdent) {
      Advance();
      PRIMA_ASSIGN_OR_RETURN(node.via_attr, ExpectIdent());
    }
    if (IsSymbol("(")) {
      // Lookahead: recursion marker?
      if (Peek().kind == TokenKind::kIdent && Peek().upper == "RECURSIVE" &&
          Peek(2).kind == TokenKind::kSymbol && Peek(2).text == ")") {
        Advance();  // (
        Advance();  // RECURSIVE
        Advance();  // )
        *recursive = true;
        return node;
      }
      Advance();  // (
      do {
        PRIMA_ASSIGN_OR_RETURN(std::vector<StructureNode> branch,
                               ParseChain(recursive));
        node.branches.push_back(std::move(branch));
      } while (AcceptSymbol(","));
      PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
      // A trailing (RECURSIVE) may still follow a branch list.
      if (IsSymbol("(") && Peek().kind == TokenKind::kIdent &&
          Peek().upper == "RECURSIVE") {
        Advance();
        Advance();
        PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
        *recursive = true;
      }
    }
    return node;
  }

  Result<std::vector<StructureNode>> ParseChain(bool* recursive) {
    std::vector<StructureNode> chain;
    PRIMA_ASSIGN_OR_RETURN(StructureNode first, ParseComponent(recursive));
    chain.push_back(std::move(first));
    while (IsSymbol("-")) {
      Advance();
      PRIMA_ASSIGN_OR_RETURN(StructureNode next, ParseComponent(recursive));
      chain.push_back(std::move(next));
    }
    return chain;
  }

  Result<FromClause> ParseFromStructure() {
    FromClause from;
    PRIMA_ASSIGN_OR_RETURN(from.chain, ParseChain(&from.recursive));
    return from;
  }

  // --- SELECT ------------------------------------------------------------------

  Result<std::vector<ProjItem>> ParseSelectList() {
    std::vector<ProjItem> items;
    if (AcceptKeyword("ALL")) {
      ProjItem all;
      all.kind = ProjItem::Kind::kAll;
      items.push_back(std::move(all));
      return items;
    }
    PRIMA_RETURN_IF_ERROR(ParseSelectItems(&items));
    return items;
  }

  Status ParseSelectItems(std::vector<ProjItem>* items) {
    do {
      if (AcceptSymbol("(")) {
        PRIMA_RETURN_IF_ERROR(ParseSelectItems(items));  // grouping — flatten
        PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
        continue;
      }
      // Qualified projection: name := SELECT ...
      if (Cur().kind == TokenKind::kIdent && Peek().kind == TokenKind::kSymbol &&
          Peek().text == ":=") {
        ProjItem item;
        item.kind = ProjItem::Kind::kQualified;
        PRIMA_ASSIGN_OR_RETURN(item.component, ExpectIdent());
        Advance();  // :=
        PRIMA_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
        if (!AcceptKeyword("ALL")) {
          do {
            PRIMA_ASSIGN_OR_RETURN(std::string attr, ExpectIdent());
            item.attrs.push_back(std::move(attr));
          } while (AcceptSymbol(","));
        }
        PRIMA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
        PRIMA_ASSIGN_OR_RETURN(std::string from_name, ExpectIdent());
        if (from_name != item.component) {
          return Err("qualified projection must re-select its component");
        }
        if (AcceptKeyword("WHERE")) {
          PRIMA_ASSIGN_OR_RETURN(item.qualification, ParseCondition());
        }
        items->push_back(std::move(item));
        continue;
      }
      // Attribute path or bare component.
      PRIMA_ASSIGN_OR_RETURN(AttrPath path, ParseAttrPath());
      ProjItem item;
      if (path.component.empty() && path.attrs.size() == 1) {
        // `edge` — either a component or a root attribute; the semantic
        // analyzer decides. Record both readings.
        item.kind = ProjItem::Kind::kComponent;
        item.component = path.attrs[0];
        item.path = std::move(path);
      } else {
        item.kind = ProjItem::Kind::kAttr;
        item.path = std::move(path);
      }
      items->push_back(std::move(item));
    } while (AcceptSymbol(","));
    return Status::Ok();
  }

  Result<Query> ParseQuery() {
    Query q;
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    PRIMA_ASSIGN_OR_RETURN(q.select, ParseSelectList());
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    PRIMA_ASSIGN_OR_RETURN(q.from, ParseFromStructure());
    if (AcceptKeyword("WHERE")) {
      PRIMA_ASSIGN_OR_RETURN(q.where, ParseCondition());
    }
    return q;
  }

  // --- DDL ----------------------------------------------------------------------

  Result<TypeDesc> ParseType() {
    if (AcceptKeyword("IDENTIFIER")) return TypeDesc::Identifier();
    if (AcceptKeyword("INTEGER")) return TypeDesc::Integer();
    if (AcceptKeyword("REAL")) return TypeDesc::Real();
    if (AcceptKeyword("BOOLEAN")) return TypeDesc::Boolean();
    if (AcceptKeyword("CHAR_VAR")) return TypeDesc::CharVar();
    if (AcceptKeyword("CHAR")) {
      PRIMA_RETURN_IF_ERROR(ExpectSymbol("("));
      if (Cur().kind != TokenKind::kInt) return Err("expected CHAR length");
      const uint32_t n = static_cast<uint32_t>(Cur().int_value);
      Advance();
      PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
      return TypeDesc::Char(n);
    }
    if (AcceptKeyword("REF_TO")) {
      PRIMA_RETURN_IF_ERROR(ExpectSymbol("("));
      PRIMA_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent());
      PRIMA_RETURN_IF_ERROR(ExpectSymbol("."));
      PRIMA_ASSIGN_OR_RETURN(std::string attr_name, ExpectIdent());
      PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
      return TypeDesc::RefTo(std::move(type_name), std::move(attr_name));
    }
    if (IsKeyword("SET_OF") || IsKeyword("LIST_OF")) {
      const bool is_set = IsKeyword("SET_OF");
      Advance();
      PRIMA_RETURN_IF_ERROR(ExpectSymbol("("));
      PRIMA_ASSIGN_OR_RETURN(TypeDesc elem, ParseType());
      PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
      Cardinality card;
      // Optional `(min, max|VAR)`.
      if (IsSymbol("(") && (Peek().kind == TokenKind::kInt)) {
        Advance();
        card.min = static_cast<uint32_t>(Cur().int_value);
        Advance();
        PRIMA_RETURN_IF_ERROR(ExpectSymbol(","));
        if (AcceptKeyword("VAR")) {
          card.var_max = true;
        } else if (Cur().kind == TokenKind::kInt) {
          card.var_max = false;
          card.max = static_cast<uint32_t>(Cur().int_value);
          Advance();
        } else {
          return Err("expected max cardinality or VAR");
        }
        PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
      }
      return is_set ? TypeDesc::SetOf(std::move(elem), card)
                    : TypeDesc::ListOf(std::move(elem), card);
    }
    if (AcceptKeyword("ARRAY_OF")) {
      PRIMA_RETURN_IF_ERROR(ExpectSymbol("("));
      PRIMA_ASSIGN_OR_RETURN(TypeDesc elem, ParseType());
      PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
      PRIMA_RETURN_IF_ERROR(ExpectSymbol("("));
      if (Cur().kind != TokenKind::kInt) return Err("expected ARRAY length");
      const uint32_t n = static_cast<uint32_t>(Cur().int_value);
      Advance();
      PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
      return TypeDesc::ArrayOf(std::move(elem), n);
    }
    if (AcceptKeyword("RECORD")) {
      std::vector<TypeDesc::Field> fields;
      while (!AcceptKeyword("END")) {
        std::vector<std::string> names;
        PRIMA_ASSIGN_OR_RETURN(std::string first, ExpectIdent());
        names.push_back(std::move(first));
        while (IsSymbol(",") && Peek().kind == TokenKind::kIdent &&
               Peek(2).kind == TokenKind::kSymbol &&
               (Peek(2).text == "," || Peek(2).text == ":")) {
          Advance();
          PRIMA_ASSIGN_OR_RETURN(std::string more, ExpectIdent());
          names.push_back(std::move(more));
        }
        PRIMA_RETURN_IF_ERROR(ExpectSymbol(":"));
        PRIMA_ASSIGN_OR_RETURN(TypeDesc field_type, ParseType());
        auto shared = std::make_shared<const TypeDesc>(std::move(field_type));
        for (auto& n : names) {
          fields.push_back({std::move(n), shared});
        }
        (void)AcceptSymbol(",");
      }
      return TypeDesc::RecordOf(std::move(fields));
    }
    // Paper Fig. 2.3 uses the application type HULL_DIM(3) without defining
    // it; it is read here as a fixed REAL array (a 3D bounding volume).
    if (AcceptKeyword("HULL_DIM")) {
      PRIMA_RETURN_IF_ERROR(ExpectSymbol("("));
      if (Cur().kind != TokenKind::kInt) return Err("expected HULL_DIM arity");
      const uint32_t n = static_cast<uint32_t>(Cur().int_value);
      Advance();
      PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
      return TypeDesc::ArrayOf(TypeDesc::Real(), 2 * n);
    }
    return Err("expected a type");
  }

  Result<CreateAtomTypeStmt> ParseCreateAtomType() {
    CreateAtomTypeStmt stmt;
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    if (!AcceptKeyword("ATOM_TYPE")) {
      PRIMA_RETURN_IF_ERROR(ExpectKeyword("ATOM"));
      PRIMA_RETURN_IF_ERROR(ExpectKeyword("TYPE"));
    }
    PRIMA_ASSIGN_OR_RETURN(stmt.name, ExpectIdent());
    PRIMA_RETURN_IF_ERROR(ExpectSymbol("("));
    do {
      AttributeDef attr;
      PRIMA_ASSIGN_OR_RETURN(attr.name, ExpectIdent());
      PRIMA_RETURN_IF_ERROR(ExpectSymbol(":"));
      PRIMA_ASSIGN_OR_RETURN(attr.type, ParseType());
      stmt.attrs.push_back(std::move(attr));
    } while (AcceptSymbol(","));
    PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
    if (AcceptKeyword("KEYS_ARE")) {
      PRIMA_RETURN_IF_ERROR(ExpectSymbol("("));
      do {
        PRIMA_ASSIGN_OR_RETURN(std::string key, ExpectIdent());
        stmt.keys.push_back(std::move(key));
      } while (AcceptSymbol(","));
      PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    return stmt;
  }

  Result<DefineMoleculeTypeStmt> ParseDefineMolecule() {
    DefineMoleculeTypeStmt stmt;
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("DEFINE"));
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("MOLECULE"));
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("TYPE"));
    PRIMA_ASSIGN_OR_RETURN(stmt.name, ExpectIdent());
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    const size_t from_start = Cur().offset;
    PRIMA_ASSIGN_OR_RETURN(FromClause parsed, ParseFromStructure());
    stmt.recursive = parsed.recursive;
    size_t from_end = Cur().offset;
    if (AtEnd()) from_end = text_.size();
    stmt.from_text = text_.substr(from_start, from_end - from_start);
    return stmt;
  }

  Result<DropStmt> ParseDrop() {
    DropStmt stmt;
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("DROP"));
    if (AcceptKeyword("ATOM_TYPE") ||
        (AcceptKeyword("ATOM") && AcceptKeyword("TYPE"))) {
      stmt.what = DropStmt::What::kAtomType;
    } else if (AcceptKeyword("MOLECULE")) {
      PRIMA_RETURN_IF_ERROR(ExpectKeyword("TYPE"));
      stmt.what = DropStmt::What::kMoleculeType;
    } else {
      return Err("expected ATOM_TYPE or MOLECULE TYPE");
    }
    PRIMA_ASSIGN_OR_RETURN(stmt.name, ExpectIdent());
    return stmt;
  }

  // --- DML ------------------------------------------------------------------------

  Result<InsertStmt> ParseInsert() {
    InsertStmt stmt;
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    (void)AcceptKeyword("INTO");
    PRIMA_ASSIGN_OR_RETURN(stmt.type_name, ExpectIdent());
    PRIMA_RETURN_IF_ERROR(ExpectSymbol("("));
    do {
      AttrAssign a;
      PRIMA_ASSIGN_OR_RETURN(a.attr, ExpectIdent());
      PRIMA_RETURN_IF_ERROR(ExpectSymbol("="));
      a.param = AcceptParam();
      if (a.param < 0) {
        PRIMA_ASSIGN_OR_RETURN(a.value, ParseLiteral());
      }
      stmt.values.push_back(std::move(a));
    } while (AcceptSymbol(","));
    PRIMA_RETURN_IF_ERROR(ExpectSymbol(")"));
    return stmt;
  }

  Result<DeleteStmt> ParseDelete() {
    DeleteStmt stmt;
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    if (!IsKeyword("FROM")) {
      if (!AcceptKeyword("ALL")) {
        do {
          PRIMA_ASSIGN_OR_RETURN(std::string comp, ExpectIdent());
          stmt.components.push_back(std::move(comp));
        } while (AcceptSymbol(","));
      }
    }
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    PRIMA_ASSIGN_OR_RETURN(stmt.from, ParseFromStructure());
    if (AcceptKeyword("WHERE")) {
      PRIMA_ASSIGN_OR_RETURN(stmt.where, ParseCondition());
    }
    return stmt;
  }

  Result<ModifyStmt> ParseModify() {
    ModifyStmt stmt;
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("MODIFY"));
    PRIMA_ASSIGN_OR_RETURN(stmt.target, ExpectIdent());
    PRIMA_RETURN_IF_ERROR(ExpectKeyword("SET"));
    do {
      AttrAssign a;
      PRIMA_ASSIGN_OR_RETURN(a.attr, ExpectIdent());
      PRIMA_RETURN_IF_ERROR(ExpectSymbol("="));
      a.param = AcceptParam();
      if (a.param < 0) {
        PRIMA_ASSIGN_OR_RETURN(a.value, ParseLiteral());
      }
      stmt.sets.push_back(std::move(a));
    } while (AcceptSymbol(","));
    if (AcceptKeyword("FROM")) {
      PRIMA_ASSIGN_OR_RETURN(stmt.from, ParseFromStructure());
    } else {
      StructureNode node;
      node.name = stmt.target;
      stmt.from.chain.push_back(std::move(node));
    }
    if (AcceptKeyword("WHERE")) {
      PRIMA_ASSIGN_OR_RETURN(stmt.where, ParseCondition());
    }
    return stmt;
  }

  Result<ConnectStmt> ParseConnect() {
    ConnectStmt stmt;
    stmt.connect = IsKeyword("CONNECT");
    Advance();
    if (Cur().kind != TokenKind::kTid) return Err("expected @type:seq");
    stmt.from = Tid(static_cast<access::AtomTypeId>(Cur().int_value),
                    static_cast<uint64_t>(Cur().real_value));
    Advance();
    PRIMA_RETURN_IF_ERROR(ExpectSymbol("."));
    PRIMA_ASSIGN_OR_RETURN(stmt.attr, ExpectIdent());
    if (stmt.connect) {
      PRIMA_RETURN_IF_ERROR(ExpectKeyword("TO"));
    } else {
      PRIMA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    }
    if (Cur().kind != TokenKind::kTid) return Err("expected @type:seq");
    stmt.to = Tid(static_cast<access::AtomTypeId>(Cur().int_value),
                  static_cast<uint64_t>(Cur().real_value));
    Advance();
    return stmt;
  }

  std::string text_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::vector<ParamDecl> params_;  ///< placeholder slots, in statement order
};

}  // namespace

Result<Statement> ParseStatement(const std::string& text) {
  Parser p(text);
  return p.ParseStatement();
}

Result<FromClause> ParseFromText(const std::string& text) {
  Parser p(text);
  return p.ParseBareFrom();
}

}  // namespace prima::mql
