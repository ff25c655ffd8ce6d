#ifndef PERFBENCH_CLIENTS_H_
#define PERFBENCH_CLIENTS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/prima.h"
#include "measure.h"
#include "net/client.h"

namespace perfbench {

/// One client of the kernel through its public API: a core::Session in
/// process, or a net::Client connection. Every call into the API is a
/// child span of the caller's current span. Statements are held in
/// numbered slots.
class Client {
 public:
  virtual ~Client() = default;

  /// One MQL statement, BEGIN/COMMIT/ABORT WORK included. `kind` names the
  /// span of an in-process call; every wire call is a net span.
  virtual prima::util::Result<prima::mql::ExecResult> Execute(
      const std::string& mql, SpanKind kind) = 0;
  virtual prima::util::Status Prepare(size_t slot, const std::string& mql) = 0;
  virtual prima::util::Status Bind(size_t slot, size_t index,
                                   const prima::access::Value& value) = 0;
  virtual prima::util::Result<prima::mql::ExecResult> ExecutePrepared(
      size_t slot) = 0;
  /// Open a cursor over the prepared SELECT in `slot` and drain it into
  /// `out` (replacing its contents).
  virtual prima::util::Status Scan(size_t slot,
                                   std::vector<prima::mql::Molecule>* out) = 0;
};

/// In-process client over a core::Session.
std::unique_ptr<Client> MakeSessionClient(prima::core::Prima* db,
                                          Tracer* tracer);

/// Wire client over a net::Client connected to 127.0.0.1:port.
prima::util::Result<std::unique_ptr<Client>> MakeWireClient(uint16_t port,
                                                            Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENTS_H_
