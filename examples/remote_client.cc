// Remote access: the same session API, served over TCP. This example runs
// both ends in one process — a PRIMA kernel with the network server on a
// kernel-picked port, and a net::Client connected to it over loopback —
// and walks the full remote surface: DDL and DML round trips, an explicit
// transaction held open across round trips, a prepared statement with
// bound placeholders, a streaming molecule cursor fetched in batches, the
// abort-invalidates-remote-cursors contract, pinned read views over the
// wire (per cursor, and one for a whole BEGIN WORK READ ONLY), and the
// server's wedged-ring and version-store gauges on the wire.
//
//   $ ./remote_client

#include <cstdio>
#include <cstdlib>

#include "core/prima.h"
#include "net/client.h"
#include "net/server.h"

using namespace prima;  // NOLINT — example brevity

namespace {
void Check(const util::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}
}  // namespace

int main() {
  // --- server side: one option turns the kernel into a network server ---
  core::PrimaOptions options;
  options.listen_port = 0;  // 0 = kernel-picked; fixed ports work too
  auto db_or = core::Prima::Open(std::move(options));
  Check(db_or.status(), "open");
  auto db = std::move(*db_or);
  const uint16_t port = db->net_server()->port();
  std::printf("serving on 127.0.0.1:%u\n", port);

  // --- client side: one connection == one server-side session ---
  auto client_or = net::Client::Connect("127.0.0.1", port);
  Check(client_or.status(), "connect");
  auto client = std::move(*client_or);

  Check(client
            ->Execute("CREATE ATOM_TYPE city (city_id: IDENTIFIER, "
                      "pop: INTEGER, name: CHAR_VAR) KEYS_ARE (name)")
            .status(),
        "ddl");

  // An explicit transaction spans round trips: the server-side session
  // holds it open between frames.
  Check(client->Begin(), "begin");
  Check(client->Execute("INSERT city (pop = 766000, name = 'Frankfurt')")
            .status(),
        "insert");
  Check(client->Execute("INSERT city (pop = 316000, name = 'Mannheim')")
            .status(),
        "insert");
  Check(client->Commit(), "commit");  // durable once this call returns

  // Prepared remotely: parsed and planned once server-side. Binding is
  // local; the values travel with the execute, one request per statement.
  auto stmt_or = client->Prepare("INSERT city (pop = ?, name = :name)");
  Check(stmt_or.status(), "prepare");
  auto stmt = std::move(*stmt_or);
  Check(stmt.Bind(0, access::Value::Int(159000)), "bind");
  Check(stmt.Bind("name", access::Value::String("Kaiserslautern")), "bind");
  Check(stmt.Execute().status(), "execute prepared");

  // Streaming: molecules cross the wire in batches, assembled on demand.
  // The open's reply already carries the first batch; Next() fetches only
  // once it is used up, and a drained cursor closes without a request.
  auto cursor_or = client->OpenCursor("SELECT ALL FROM city WHERE pop > "
                                      "200000",
                                      /*batch_size=*/8);
  Check(cursor_or.status(), "open cursor");
  auto cursor = std::move(*cursor_or);
  int n = 0;
  for (;;) {
    auto m = cursor.Next();
    Check(m.status(), "fetch");
    if (!m->has_value()) break;
    const auto& atom = (*m)->groups[0].atoms[0];
    std::printf("  city %-16s pop %ld\n", atom.attrs[2].AsString().c_str(),
                static_cast<long>(atom.attrs[1].AsInt()));
    ++n;
  }
  std::printf("%d big cities\n", n);
  Check(cursor.Close(), "close cursor");

  // Remote-cursor lifetime contract: a rollback invalidates the
  // connection's open cursors exactly as it would a local session's. The
  // molecule that arrived with the open is still served from the client's
  // buffer; the next fetch that reaches the server reports the abort.
  Check(client->Begin(), "begin");
  Check(client->Execute("INSERT city (pop = 1, name = 'Phantomstadt')")
            .status(),
        "insert");
  auto doomed_or = client->OpenCursor("SELECT ALL FROM city",
                                      /*batch_size=*/1);
  Check(doomed_or.status(), "open cursor");
  auto doomed = std::move(*doomed_or);
  Check(client->Abort(), "abort");
  Check(doomed.Next().status(), "buffered molecule");
  auto after_abort = doomed.Next();
  std::printf("fetch after abort: %s\n",
              after_abort.status().ToString().c_str());  // Aborted: ...

  // A remote cursor pins, server-side, the committed view of the instant
  // it opens; the writer below commits mid-stream without blocking or
  // appearing in it.
  auto pinned_or = client->OpenCursor("SELECT ALL FROM city",
                                      /*batch_size=*/1);
  Check(pinned_or.status(), "open cursor");
  auto pinned = std::move(*pinned_or);
  Check(client->Execute("MODIFY city SET pop = 0").status(), "clobber");
  int frozen = 0;
  for (;;) {
    auto m = pinned.Next();
    Check(m.status(), "fetch");
    if (!m->has_value()) break;
    if ((*m)->groups[0].atoms[0].attrs[1].AsInt() > 0) ++frozen;
  }
  std::printf("the open cursor still saw %d pre-clobber populations\n",
              frozen);
  Check(pinned.Close(), "close cursor");

  // Begin(true) == BEGIN WORK READ ONLY pins ONE view for a whole
  // transaction — repeatable across round trips, DML refused.
  Check(client->Begin(/*read_only=*/true), "begin read only");
  auto refused = client->Execute("INSERT city (pop = 1, name = 'Nope')");
  std::printf("DML inside READ ONLY: %s\n",
              refused.status().ToString().c_str());
  Check(client->Commit(), "commit read only");

  // The server stats message carries the WAL wedged-ring gauge and the
  // version-store gauges, so a remote operator can spot a long transaction
  // pinning the undo floor — or a long snapshot pinning old versions.
  auto stats = client->Stats();
  Check(stats.status(), "stats");
  const auto stat = [&stats](const char* name) {
    const auto it = stats->find(name);
    return static_cast<unsigned long long>(it == stats->end() ? 0
                                                              : it->second);
  };
  std::printf("server: %llu statements over %llu connections, "
              "%llu active txns, wal live bytes %llu\n",
              stat("prima_net_statements_executed"),
              stat("prima_net_connections_accepted"),
              stat("prima_wal_active_txns"), stat("prima_wal_live_bytes"));
  std::printf("version store: %llu retained, %llu resolved, "
              "%llu snapshots active\n",
              stat("prima_versions_retained"), stat("prima_versions_resolved"),
              stat("prima_snapshots_active"));

  Check(client->Close(), "goodbye");
  return 0;
}
