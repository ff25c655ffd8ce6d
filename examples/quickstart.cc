// Quickstart: the paper's BREP schema (Fig. 2.3) and all four Table 2.1
// queries, end to end, through the session API — PRIMA's primary client
// surface.
//
//   $ ./quickstart
//
// Walks through: opening a database and a session, MAD-DDL, transactional
// DML (BEGIN WORK … COMMIT WORK / ABORT WORK), a prepared statement with
// placeholder binding, streaming a query through a molecule cursor, and an
// LDL tuning structure.

#include <cstdio>
#include <cstdlib>

#include "core/prima.h"
#include "workloads/brep.h"

using prima::access::Value;
using prima::core::Prima;
using prima::core::PrimaOptions;
using prima::core::Session;

namespace {
void Check(const prima::util::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

void RunAndPrint(Prima* db, Session* session, const char* title,
                 const std::string& query) {
  std::printf("\n--- %s\n%s\n", title, query.c_str());
  auto result = session->Execute(query);
  Check(result.status(), "query");
  std::printf("%s", db->data().Format(*result).c_str());
}
}  // namespace

int main() {
  // 1. Open an in-memory PRIMA database (pass in_memory=false + a path for
  //    a persistent one) and a client session. The session scopes
  //    transactions and owns prepared statements and cursors; open one per
  //    client thread.
  auto db_or = Prima::Open(PrimaOptions{});
  Check(db_or.status(), "open");
  auto db = std::move(*db_or);
  auto session = db->OpenSession();

  // 2. Install the Fig. 2.3 schema: five atom types with symmetric
  //    associations, plus the molecule types edge_obj / face_obj /
  //    brep_obj / piece_list.
  prima::workloads::BrepWorkload brep(db.get());
  Check(brep.CreateSchema(), "schema");
  std::printf("schema installed: %zu atom types, %zu molecule types\n",
              db->access().catalog().ListAtomTypes().size(),
              db->access().catalog().ListMoleculeTypes().size());

  // 3. Build data: a dozen tetrahedra and a small assembly. The generator
  //    inserts atoms through the access API; every back-reference below is
  //    maintained by the system.
  Check(brep.BuildMany(1700, 14).status(), "solids");
  Check(brep.BuildAssembly(4711, 2, 2).status(), "assembly");
  std::printf("built 14 tetrahedra + one assembly (7 more solids)\n");

  // 4. The four queries of Table 2.1 (verbatim modulo constants).
  RunAndPrint(db.get(), session.get(),
              "Table 2.1a: vertical access to network molecules",
              "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1713");
  RunAndPrint(db.get(), session.get(),
              "Table 2.1b: vertical access to recursive molecules",
              "SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = 4711");
  RunAndPrint(db.get(), session.get(),
              "Table 2.1c: horizontal access with projection",
              "SELECT solid_no, description FROM solid WHERE sub = EMPTY");
  RunAndPrint(db.get(), session.get(),
              "Table 2.1d: branching, quantifier, qualified projection",
              "SELECT edge, (point, face := SELECT face_id, square_dim "
              "FROM face WHERE square_dim > 5.0E0) "
              "FROM brep-edge (face, point) "
              "WHERE brep_no = 1713 AND "
              "EXISTS_AT_LEAST (2) edge: edge.length > 1.0E0");

  // 5. Transactional DML: every statement runs under the session's
  //    transaction context. Outside BEGIN WORK a statement auto-commits
  //    atomically; inside, COMMIT WORK / ABORT WORK decide. The aborted
  //    insert below leaves no trace.
  std::printf("\n--- transactional DML\n");
  Check(session->Execute("BEGIN WORK").status(), "begin");
  Check(session
            ->Execute("INSERT solid (solid_no = 9000, description = 'new')")
            .status(),
        "insert");
  Check(session->Execute("COMMIT WORK").status(), "commit");
  Check(session->Execute("BEGIN WORK").status(), "begin");
  Check(session
            ->Execute("INSERT solid (solid_no = 9001, description = 'oops')")
            .status(),
        "insert");
  Check(session->Execute("ABORT WORK").status(), "abort");
  auto ghosts = session->Execute("SELECT ALL FROM solid WHERE solid_no = 9001");
  Check(ghosts.status(), "query");
  std::printf("committed insert kept, aborted insert left %zu trace(s)\n",
              ghosts->molecules.size());

  // 6. Prepared statements: parse + semantic analysis + planning run ONCE;
  //    each execution binds new placeholder values. The eq-key plan is
  //    re-planned only when the bound key changes.
  std::printf("\n--- prepared statement\n");
  auto stmt_or =
      session->Prepare("MODIFY solid SET description = :d WHERE solid_no = ?");
  Check(stmt_or.status(), "prepare");
  auto stmt = std::move(*stmt_or);
  Check(stmt.Bind("d", Value::String("renamed")), "bind");
  Check(stmt.Bind(1, Value::Int(9000)), "bind");
  auto mod = stmt.Execute();
  Check(mod.status(), "modify");
  std::printf("MODIFY via placeholders -> %s", db->data().Format(*mod).c_str());

  // 7. Streaming cursors: one molecule per Next() — first-row latency is
  //    one assembly, and an early Close() skips the rest of the set.
  std::printf("\n--- streaming cursor\n");
  auto cursor_or = session->Query("SELECT ALL FROM brep-face-edge-point");
  Check(cursor_or.status(), "cursor");
  auto cursor = std::move(*cursor_or);
  size_t streamed = 0;
  for (;;) {
    auto m = cursor.Next();
    Check(m.status(), "next");
    if (!m->has_value()) break;
    ++streamed;
    if (streamed == 3) {
      cursor.Close();  // early exit: the remaining molecules are never built
      break;
    }
  }
  std::printf("streamed %zu molecule(s), then closed early\n", streamed);

  // 8. Reads: every cursor pins the committed view of the instant it opens
  //    and resolves every atom against the in-memory version chains —
  //    writers committing mid-drain neither block it nor appear in it, and
  //    uncommitted writes never show. BEGIN WORK READ ONLY pins one such
  //    view for a whole transaction (repeatable reads, DML refused).
  std::printf("\n--- pinned read views\n");
  auto pinned = session->Query("SELECT ALL FROM solid WHERE solid_no = 9000");
  Check(pinned.status(), "cursor");
  auto writer = db->OpenSession();
  Check(writer
            ->Execute("MODIFY solid SET description = 'overwritten' "
                      "WHERE solid_no = 9000")
            .status(),
        "overwrite");
  auto frozen = pinned->Next();
  Check(frozen.status(), "cursor next");
  std::printf("the open cursor still reads '%s' after the commit\n",
              (*frozen)->groups[0].atoms[0].attrs[2].AsString().c_str());
  Check(session->Execute("BEGIN WORK READ ONLY").status(), "read only");
  auto refused =
      session->Execute("INSERT solid (solid_no = 9002, description = 'no')");
  std::printf("DML inside READ ONLY: %s\n",
              refused.status().ToString().c_str());
  Check(session->Execute("COMMIT WORK").status(), "commit read only");

  // 9. LDL: install an atom cluster; the same query now assembles its
  //    molecule from one materialized page sequence — transparently.
  auto ldl = db->ExecuteLdl(
      "CREATE ATOM CLUSTER brep_cluster ON brep (faces, edges, points)");
  Check(ldl.status(), "ldl");
  std::printf("\n--- LDL\n%s\n", ldl->c_str());
  db->data().stats().Reset();
  auto again = session->Execute(
      "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1713");
  Check(again.status(), "query");
  std::printf("re-ran 2.1a: %zu molecule(s), cluster assemblies = %llu\n",
              again->molecules.size(),
              (unsigned long long)db->data().stats().cluster_assemblies.load());

  // 10. Observability: EXPLAIN ANALYZE renders the statement's span tree —
  //    parse, plan (cache hit/miss), execute/roots, execute/assembly,
  //    execute/project, and the buffer hit/miss split — with measured
  //    timings from this very execution, not estimates.
  std::printf("\n--- EXPLAIN ANALYZE\n");
  auto analyzed = session->Execute(
      "EXPLAIN ANALYZE SELECT ALL FROM brep-face-edge-point "
      "WHERE brep_no = 1713");
  Check(analyzed.status(), "explain analyze");
  std::printf("%s", analyzed->text.c_str());

  // 11. The metrics page: every kernel counter and latency histogram in one
  //     Prometheus-style dump (also served remotely via
  //     net::Client::MetricsText). Here, just the statement-latency summary.
  const std::string page = db->MetricsText();
  std::printf("\n--- metrics page (statement-latency excerpt of %zu bytes)\n",
              page.size());
  size_t pos = 0;
  while (pos < page.size()) {
    const size_t eol = page.find('\n', pos);
    const std::string line = page.substr(pos, eol - pos);
    if (line.find("prima_statement_us") != std::string::npos) {
      std::printf("%s\n", line.c_str());
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }

  std::printf("\nquickstart complete.\n");
  return 0;
}
