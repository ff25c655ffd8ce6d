#include <gtest/gtest.h>

#include "mql/parser.h"

namespace prima::mql {
namespace {

// ---------------------------------------------------------------------------
// The paper's published examples must parse verbatim.
// ---------------------------------------------------------------------------

TEST(PaperExamples, Table21a_VerticalAccess) {
  auto stmt = ParseStatement(
      "SELECT ALL\n"
      "FROM brep-face-edge-point\n"
      "WHERE brep_no = 1713 (* qualification *)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->kind, Statement::Kind::kQuery);
  const Query& q = stmt->query;
  ASSERT_EQ(q.select.size(), 1u);
  EXPECT_EQ(q.select[0].kind, ProjItem::Kind::kAll);
  ASSERT_EQ(q.from.chain.size(), 4u);
  EXPECT_EQ(q.from.chain[0].name, "brep");
  EXPECT_EQ(q.from.chain[3].name, "point");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->kind, Expr::Kind::kCompare);
  EXPECT_EQ(q.where->literal.AsInt(), 1713);
}

TEST(PaperExamples, Table21b_RecursiveAccess) {
  auto stmt = ParseStatement(
      "SELECT ALL\n"
      "FROM piece_list (* pre-defined molecule type *)\n"
      "WHERE piece_list (0).solid_no = 4711 (* seed qualification *)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const Query& q = stmt->query;
  ASSERT_EQ(q.from.chain.size(), 1u);
  EXPECT_EQ(q.from.chain[0].name, "piece_list");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->lhs.component, "piece_list");
  EXPECT_EQ(q.where->lhs.level, 0);
  EXPECT_EQ(q.where->lhs.attrs[0], "solid_no");
}

TEST(PaperExamples, Table21c_HorizontalAccess) {
  auto stmt = ParseStatement(
      "SELECT solid_no, description (* unqualified projection *)\n"
      "FROM solid\n"
      "WHERE sub = EMPTY");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const Query& q = stmt->query;
  ASSERT_EQ(q.select.size(), 2u);
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->op, access::CompareOp::kIsEmpty);
}

TEST(PaperExamples, Table21d_Miscellaneous) {
  auto stmt = ParseStatement(
      "SELECT edge, (point, (* unqualified projection p1 *)\n"
      "  face := SELECT face_id, square_dim\n"
      "    FROM face (* qualified projection q3, p2 *)\n"
      "    WHERE square_dim > 1.9E4)\n"
      "FROM brep-edge (face, point)\n"
      "WHERE brep_no = 1713 (* qualification q1 *)\n"
      "AND\n"
      "EXISTS_AT_LEAST (2) edge: edge.length > 1.0E2\n"
      "(* quantified restriction q2 *)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const Query& q = stmt->query;
  ASSERT_EQ(q.select.size(), 3u);  // edge, point, face:=...
  EXPECT_EQ(q.select[0].component, "edge");
  EXPECT_EQ(q.select[1].component, "point");
  EXPECT_EQ(q.select[2].kind, ProjItem::Kind::kQualified);
  EXPECT_EQ(q.select[2].component, "face");
  EXPECT_EQ(q.select[2].attrs,
            (std::vector<std::string>{"face_id", "square_dim"}));
  ASSERT_NE(q.select[2].qualification, nullptr);
  EXPECT_DOUBLE_EQ(q.select[2].qualification->literal.AsReal(), 1.9e4);
  // FROM with branching.
  ASSERT_EQ(q.from.chain.size(), 2u);
  ASSERT_EQ(q.from.chain[1].branches.size(), 2u);
  EXPECT_EQ(q.from.chain[1].branches[0][0].name, "face");
  EXPECT_EQ(q.from.chain[1].branches[1][0].name, "point");
  // WHERE: AND of compare + quantifier.
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->kind, Expr::Kind::kAnd);
  ASSERT_EQ(q.where->children.size(), 2u);
  const Expr& quant = *q.where->children[1];
  EXPECT_EQ(quant.kind, Expr::Kind::kQuantifier);
  EXPECT_EQ(quant.quant, Expr::Quant::kExistsAtLeast);
  EXPECT_EQ(quant.quant_count, 2u);
  EXPECT_EQ(quant.quant_component, "edge");
  EXPECT_DOUBLE_EQ(quant.quant_body->literal.AsReal(), 1.0e2);
}

TEST(PaperExamples, Fig23_SolidAtomType) {
  auto stmt = ParseStatement(
      "CREATE ATOM_TYPE solid\n"
      "( solid_id : IDENTIFIER,\n"
      "  solid_no : INTEGER,\n"
      "  description : CHAR_VAR,\n"
      "  sub : SET_OF (REF_TO (solid.super)),\n"
      "  super : SET_OF (REF_TO (solid.sub)),\n"
      "  brep : REF_TO (brep.solid) )\n"
      "KEYS_ARE (solid_no)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const CreateAtomTypeStmt& c = stmt->create_atom_type;
  EXPECT_EQ(c.name, "solid");
  ASSERT_EQ(c.attrs.size(), 6u);
  EXPECT_EQ(c.attrs[0].type.kind, access::TypeKind::kIdentifier);
  EXPECT_EQ(c.attrs[3].type.kind, access::TypeKind::kSet);
  EXPECT_EQ(c.attrs[3].type.elem->ref_type_name, "solid");
  EXPECT_EQ(c.attrs[3].type.elem->ref_attr_name, "super");
  EXPECT_EQ(c.attrs[5].type.kind, access::TypeKind::kReference);
  EXPECT_EQ(c.keys, std::vector<std::string>{"solid_no"});
}

TEST(PaperExamples, Fig23_BrepWithCardinalitiesAndHull) {
  auto stmt = ParseStatement(
      "CREATE ATOM_TYPE brep\n"
      "( brep_id : IDENTIFIER,\n"
      "  brep_no : INTEGER,\n"
      "  hull : HULL_DIM(3),\n"
      "  solid : REF_TO (solid.brep),\n"
      "  faces : SET_OF (REF_TO (face.brep)) (4,VAR),\n"
      "  edges : SET_OF (REF_TO (edge.brep)) (6,VAR),\n"
      "  points : SET_OF (REF_TO (point.brep)) (4,VAR) )\n"
      "KEYS_ARE (brep_no)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const CreateAtomTypeStmt& c = stmt->create_atom_type;
  EXPECT_EQ(c.attrs[4].type.card.min, 4u);
  EXPECT_TRUE(c.attrs[4].type.card.var_max);
  EXPECT_EQ(c.attrs[5].type.card.min, 6u);
}

TEST(PaperExamples, Fig23_PointWithRecordAttribute) {
  auto stmt = ParseStatement(
      "CREATE ATOM_TYPE point\n"
      "( point_id : IDENTIFIER,\n"
      "  placement : RECORD\n"
      "    x_coord, y_coord, z_coord : REAL,\n"
      "  END,\n"
      "  line : SET_OF (REF_TO (edge.boundary)) (1,VAR),\n"
      "  face : SET_OF (REF_TO (face.crosspoint)) (1,VAR),\n"
      "  brep : REF_TO (brep.points) )");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const CreateAtomTypeStmt& c = stmt->create_atom_type;
  ASSERT_EQ(c.attrs[1].type.kind, access::TypeKind::kRecord);
  ASSERT_EQ(c.attrs[1].type.fields.size(), 3u);
  EXPECT_EQ(c.attrs[1].type.fields[0].name, "x_coord");
  EXPECT_EQ(c.attrs[1].type.fields[2].name, "z_coord");
  EXPECT_EQ(c.attrs[1].type.fields[1].type->kind, access::TypeKind::kReal);
}

TEST(PaperExamples, Fig23c_MoleculeTypeDefinitions) {
  auto simple = ParseStatement("DEFINE MOLECULE TYPE edge_obj FROM edge - point");
  ASSERT_TRUE(simple.ok());
  EXPECT_EQ(simple->define_molecule_type.name, "edge_obj");
  EXPECT_FALSE(simple->define_molecule_type.recursive);

  auto recursive = ParseStatement(
      "DEFINE MOLECULE TYPE piece_list FROM solid.sub - solid (RECURSIVE)");
  ASSERT_TRUE(recursive.ok()) << recursive.status().ToString();
  EXPECT_TRUE(recursive->define_molecule_type.recursive);
  // The stored text re-parses.
  auto from = ParseFromText(recursive->define_molecule_type.from_text);
  ASSERT_TRUE(from.ok());
  EXPECT_TRUE(from->recursive);
  ASSERT_EQ(from->chain.size(), 2u);
  EXPECT_EQ(from->chain[0].via_attr, "sub");
}

// ---------------------------------------------------------------------------
// Grammar corners
// ---------------------------------------------------------------------------

TEST(ParserTest, QuantifierVariants) {
  auto exists = ParseStatement("SELECT ALL FROM a WHERE EXISTS b: b.x = 1");
  ASSERT_TRUE(exists.ok());
  EXPECT_EQ(exists->query.where->quant, Expr::Quant::kExists);
  auto forall = ParseStatement("SELECT ALL FROM a WHERE FOR_ALL b: b.x > 0");
  ASSERT_TRUE(forall.ok());
  EXPECT_EQ(forall->query.where->quant, Expr::Quant::kForAll);
}

TEST(ParserTest, BooleanPrecedenceAndParens) {
  auto stmt = ParseStatement(
      "SELECT ALL FROM a WHERE x = 1 OR y = 2 AND NOT (z = 3)");
  ASSERT_TRUE(stmt.ok());
  const Expr& top = *stmt->query.where;
  EXPECT_EQ(top.kind, Expr::Kind::kOr);
  ASSERT_EQ(top.children.size(), 2u);
  EXPECT_EQ(top.children[1]->kind, Expr::Kind::kAnd);
  EXPECT_EQ(top.children[1]->children[1]->kind, Expr::Kind::kNot);
}

TEST(ParserTest, ComparisonOperators) {
  const char* ops[] = {"=", "<>", "!=", "<", "<=", ">", ">="};
  const access::CompareOp expect[] = {
      access::CompareOp::kEq, access::CompareOp::kNe, access::CompareOp::kNe,
      access::CompareOp::kLt, access::CompareOp::kLe, access::CompareOp::kGt,
      access::CompareOp::kGe};
  for (size_t i = 0; i < 7; ++i) {
    auto stmt = ParseStatement(std::string("SELECT ALL FROM a WHERE x ") +
                               ops[i] + " 5");
    ASSERT_TRUE(stmt.ok()) << ops[i];
    EXPECT_EQ(stmt->query.where->op, expect[i]) << ops[i];
  }
}

TEST(ParserTest, PathPathComparison) {
  auto stmt = ParseStatement("SELECT ALL FROM a-b WHERE a.x = b.y");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->query.where->rhs_path.has_value());
  EXPECT_EQ(stmt->query.where->rhs_path->component, "b");
}

TEST(ParserTest, NegativeAndScientificLiterals) {
  auto stmt = ParseStatement("SELECT ALL FROM a WHERE x > -1.5E-3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_DOUBLE_EQ(stmt->query.where->literal.AsReal(), -1.5e-3);
  auto neg = ParseStatement("SELECT ALL FROM a WHERE x = -42");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->query.where->literal.AsInt(), -42);
}

TEST(ParserTest, RecordFieldPath) {
  auto stmt =
      ParseStatement("SELECT ALL FROM point WHERE placement.x_coord > 0.5");
  ASSERT_TRUE(stmt.ok());
  // `placement` reads as a component prefix at parse time; the executor
  // re-binds it as attr + record field if no such component exists.
  EXPECT_EQ(stmt->query.where->lhs.component, "placement");
  ASSERT_EQ(stmt->query.where->lhs.attrs.size(), 1u);
  EXPECT_EQ(stmt->query.where->lhs.attrs[0], "x_coord");
}

TEST(ParserTest, InsertStatement) {
  auto stmt = ParseStatement(
      "INSERT solid (solid_no = 7, description = 'cube', "
      "sub = {@1:5, @1:6})");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const InsertStmt& ins = stmt->insert;
  EXPECT_EQ(ins.type_name, "solid");
  ASSERT_EQ(ins.values.size(), 3u);
  EXPECT_EQ(ins.values[0].value.AsInt(), 7);
  EXPECT_EQ(ins.values[1].value.AsString(), "cube");
  ASSERT_EQ(ins.values[2].value.elems().size(), 2u);
  EXPECT_EQ(ins.values[2].value.elems()[0].AsTid(), access::Tid(1, 5));
}

TEST(ParserTest, DeleteStatementVariants) {
  auto whole = ParseStatement("DELETE ALL FROM brep-face WHERE brep_no = 1");
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->del.components.empty());
  auto partial =
      ParseStatement("DELETE face, edge FROM brep-face-edge WHERE brep_no = 1");
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->del.components,
            (std::vector<std::string>{"face", "edge"}));
}

TEST(ParserTest, ModifyStatement) {
  auto stmt = ParseStatement(
      "MODIFY face SET square_dim = 2.5 FROM brep-face WHERE brep_no = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->modify.target, "face");
  ASSERT_EQ(stmt->modify.sets.size(), 1u);
  EXPECT_DOUBLE_EQ(stmt->modify.sets[0].value.AsReal(), 2.5);
  // Short form defaults FROM to the bare target.
  auto bare = ParseStatement("MODIFY solid SET description = 'x' WHERE solid_no = 1");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->modify.from.chain[0].name, "solid");
}

TEST(ParserTest, ConnectDisconnect) {
  auto con = ParseStatement("CONNECT @1:2.sub TO @1:3");
  ASSERT_TRUE(con.ok());
  EXPECT_TRUE(con->connect.connect);
  EXPECT_EQ(con->connect.from, access::Tid(1, 2));
  EXPECT_EQ(con->connect.attr, "sub");
  EXPECT_EQ(con->connect.to, access::Tid(1, 3));
  auto dis = ParseStatement("DISCONNECT @1:2.sub FROM @1:3");
  ASSERT_TRUE(dis.ok());
  EXPECT_FALSE(dis->connect.connect);
}

TEST(ParserTest, DropStatements) {
  auto atom = ParseStatement("DROP ATOM_TYPE solid");
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(atom->drop.what, DropStmt::What::kAtomType);
  auto mol = ParseStatement("DROP MOLECULE TYPE piece_list");
  ASSERT_TRUE(mol.ok());
  EXPECT_EQ(mol->drop.what, DropStmt::What::kMoleculeType);
}

// ---------------------------------------------------------------------------
// Error reporting
// ---------------------------------------------------------------------------

TEST(ParserErrors, AllParseErrors) {
  const char* bad[] = {
      "",                                      // empty
      "SELEC ALL FROM a",                      // typo keyword
      "SELECT ALL FROM",                       // missing structure
      "SELECT ALL FROM a WHERE",               // missing condition
      "SELECT ALL FROM a WHERE x ==",          // bad operator use
      "SELECT FROM a",                         // missing projection
      "CREATE ATOM_TYPE t (x : NOTATYPE)",     // unknown type
      "CREATE ATOM_TYPE t (x INTEGER)",        // missing colon
      "INSERT t (x = )",                       // missing literal
      "SELECT ALL FROM a WHERE x = 'unterminated",  // bad string
      "SELECT ALL FROM a extra",               // trailing tokens
      "CONNECT @1:2.sub TO nope",              // bad tid literal
  };
  for (const char* text : bad) {
    auto stmt = ParseStatement(text);
    EXPECT_FALSE(stmt.ok()) << "should fail: " << text;
    EXPECT_TRUE(stmt.status().IsParseError()) << text;
  }
}

TEST(ParserErrors, ErrorsCarryOffset) {
  auto stmt = ParseStatement("SELECT ALL FROM a WHERE ???");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("offset"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Transaction-control statements
// ---------------------------------------------------------------------------

TEST(TransactionStatements, BeginCommitAbortWork) {
  auto begin = ParseStatement("BEGIN WORK");
  ASSERT_TRUE(begin.ok()) << begin.status().ToString();
  EXPECT_EQ(begin->kind, Statement::Kind::kBeginWork);

  auto commit = ParseStatement("commit work;");  // case-insensitive, ; ok
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->kind, Statement::Kind::kCommitWork);

  auto abort = ParseStatement("ABORT WORK");
  ASSERT_TRUE(abort.ok()) << abort.status().ToString();
  EXPECT_EQ(abort->kind, Statement::Kind::kAbortWork);
}

TEST(TransactionStatements, WorkKeywordRequired) {
  for (const char* text : {"BEGIN", "COMMIT", "ABORT", "BEGIN TRANSACTION",
                           "COMMIT WORK extra"}) {
    auto stmt = ParseStatement(text);
    EXPECT_FALSE(stmt.ok()) << "should fail: " << text;
    EXPECT_TRUE(stmt.status().IsParseError()) << text;
  }
}

// ---------------------------------------------------------------------------
// Statement parameters (placeholders)
// ---------------------------------------------------------------------------

TEST(Placeholders, PositionalInWhere) {
  auto stmt = ParseStatement("SELECT ALL FROM solid WHERE solid_no = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->params.size(), 1u);
  EXPECT_TRUE(stmt->params[0].name.empty());
  ASSERT_NE(stmt->query.where, nullptr);
  EXPECT_EQ(stmt->query.where->param, 0);
  EXPECT_TRUE(stmt->query.where->literal.is_null());
}

TEST(Placeholders, NamedSlotsDedupe) {
  // :lo appears twice but declares ONE slot; ? appends a positional one.
  auto stmt = ParseStatement(
      "SELECT ALL FROM face WHERE square_dim > :lo AND "
      "(square_dim < ? OR square_dim = :lo)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->params.size(), 2u);
  EXPECT_EQ(stmt->params[0].name, "lo");
  EXPECT_TRUE(stmt->params[1].name.empty());
  const Expr& root = *stmt->query.where;
  ASSERT_EQ(root.kind, Expr::Kind::kAnd);
  EXPECT_EQ(root.children[0]->param, 0);
  const Expr& onion = *root.children[1];
  ASSERT_EQ(onion.kind, Expr::Kind::kOr);
  EXPECT_EQ(onion.children[0]->param, 1);
  EXPECT_EQ(onion.children[1]->param, 0);  // the re-reference
}

TEST(Placeholders, InsertAndModifyValues) {
  auto ins = ParseStatement("INSERT solid (solid_no = ?, description = :d)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  ASSERT_EQ(ins->params.size(), 2u);
  ASSERT_EQ(ins->insert.values.size(), 2u);
  EXPECT_EQ(ins->insert.values[0].param, 0);
  EXPECT_EQ(ins->insert.values[1].param, 1);
  EXPECT_EQ(ins->params[1].name, "d");

  auto mod = ParseStatement(
      "MODIFY solid SET description = :d WHERE solid_no = ?");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  ASSERT_EQ(mod->params.size(), 2u);
  EXPECT_EQ(mod->modify.sets[0].param, 0);
  EXPECT_EQ(mod->modify.where->param, 1);
}

TEST(Placeholders, DeleteWhere) {
  auto del = ParseStatement("DELETE ALL FROM solid WHERE solid_no = ?");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  ASSERT_EQ(del->params.size(), 1u);
  EXPECT_EQ(del->del.where->param, 0);
}

TEST(Placeholders, NamedSitesShareOneSlotAndCarryNoValue) {
  auto stmt = ParseStatement(
      "SELECT ALL FROM face WHERE square_dim > :lo AND square_dim < :lo");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->params.size(), 1u);
  // Every site of :lo names slot 0; execution reads the bound value of the
  // slot there, so the parsed statement never holds one.
  const Expr& root = *stmt->query.where;
  for (const ExprPtr& site : root.children) {
    EXPECT_EQ(site->param, 0);
    EXPECT_TRUE(site->literal.is_null());
  }
}

TEST(Placeholders, RejectedOutsideQueryAndDml) {
  // DDL has no literal positions, so a placeholder can never parse there —
  // whatever shape it takes, the statement must be refused.
  for (const char* text : {
           "CREATE ATOM_TYPE t (x : ?)",
           "CREATE ATOM_TYPE ? (x : INTEGER)",
           "DEFINE MOLECULE TYPE m FROM ?",
           "DROP ATOM_TYPE ?",
       }) {
    auto stmt = ParseStatement(text);
    EXPECT_FALSE(stmt.ok()) << "should fail: " << text;
    EXPECT_TRUE(stmt.status().IsParseError()) << text;
  }
}

TEST(Placeholders, CloneExprPreservesParamSites) {
  auto stmt = ParseStatement(
      "SELECT edge FROM brep-edge WHERE brep_no = ? AND "
      "EXISTS edge: edge.length > :min");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ExprPtr clone = CloneExpr(stmt->query.where.get());
  ASSERT_EQ(clone->kind, Expr::Kind::kAnd);
  EXPECT_EQ(clone->children[0]->param, 0);
  EXPECT_EQ(clone->children[1]->quant_body->param, 1);
  // The clone is independent: writing into the original leaves it
  // untouched.
  stmt->query.where->children[0]->literal = access::Value::Int(1);
  EXPECT_TRUE(clone->children[0]->literal.is_null());
}

}  // namespace
}  // namespace prima::mql
