#include "clients.h"

namespace perfbench {

using prima::access::Value;
using prima::mql::ExecResult;
using prima::mql::Molecule;
using prima::util::Result;
using prima::util::Status;

namespace {

class SessionClient final : public Client {
 public:
  SessionClient(prima::core::Prima* db, Tracer* tracer)
      : session_(db->OpenSession()), tracer_(tracer) {}

  Result<ExecResult> Execute(const std::string& mql, SpanKind kind) override {
    Tracer::Scope span(tracer_, kind);
    return session_->Execute(mql);
  }
  Status Prepare(size_t slot, const std::string& mql) override {
    auto stmt = session_->Prepare(mql);
    if (!stmt.ok()) return stmt.status();
    if (slots_.size() <= slot) slots_.resize(slot + 1);
    slots_[slot].emplace(std::move(*stmt));
    return Status::Ok();
  }
  Status Bind(size_t slot, size_t index, const Value& value) override {
    Tracer::Scope span(tracer_, SpanKind::kMqlBind);
    return slots_[slot]->Bind(index, value);
  }
  Result<ExecResult> ExecutePrepared(size_t slot) override {
    Tracer::Scope span(tracer_, SpanKind::kMqlPrepared);
    return slots_[slot]->Execute();
  }
  Status Scan(size_t slot, std::vector<Molecule>* out) override {
    out->clear();
    std::optional<prima::mql::MoleculeCursor> cursor;
    {
      Tracer::Scope span(tracer_, SpanKind::kMqlCursorOpen);
      auto opened = slots_[slot]->Query();
      if (!opened.ok()) return opened.status();
      cursor.emplace(std::move(*opened));
    }
    Status st;
    while (true) {
      Tracer::Scope span(tracer_, SpanKind::kMqlCursorNext);
      auto next = cursor->Next();
      if (!next.ok()) {
        st = next.status();
        break;
      }
      if (!next->has_value()) break;
      out->push_back(std::move(**next));
    }
    Tracer::Scope span(tracer_, SpanKind::kMqlCursorClose);
    cursor.reset();
    return st;
  }

 private:
  std::unique_ptr<prima::core::Session> session_;
  Tracer* tracer_;
  std::vector<std::optional<prima::core::PreparedStatement>> slots_;
};

class WireClient final : public Client {
 public:
  WireClient(std::unique_ptr<prima::net::Client> client, Tracer* tracer)
      : client_(std::move(client)), tracer_(tracer) {}

  Result<ExecResult> Execute(const std::string& mql, SpanKind) override {
    Tracer::Scope span(tracer_, SpanKind::kNetCall);
    return client_->Execute(mql);
  }
  Status Prepare(size_t slot, const std::string& mql) override {
    auto stmt = client_->Prepare(mql);
    if (!stmt.ok()) return stmt.status();
    if (slots_.size() <= slot) slots_.resize(slot + 1);
    slots_[slot].emplace(std::move(*stmt));
    return Status::Ok();
  }
  Status Bind(size_t slot, size_t index, const Value& value) override {
    Tracer::Scope span(tracer_, SpanKind::kNetCall);
    return slots_[slot]->Bind(static_cast<uint32_t>(index), value);
  }
  Result<ExecResult> ExecutePrepared(size_t slot) override {
    Tracer::Scope span(tracer_, SpanKind::kNetCall);
    return slots_[slot]->Execute();
  }
  Status Scan(size_t slot, std::vector<Molecule>* out) override {
    out->clear();
    std::optional<prima::net::RemoteCursor> cursor;
    {
      Tracer::Scope span(tracer_, SpanKind::kNetCall);
      auto opened = slots_[slot]->Query();
      if (!opened.ok()) return opened.status();
      cursor.emplace(std::move(*opened));
    }
    while (true) {
      Tracer::Scope span(tracer_, SpanKind::kNetCall);
      auto next = cursor->Next();
      if (!next.ok()) return next.status();
      if (!next->has_value()) break;
      out->push_back(std::move(**next));
    }
    Tracer::Scope span(tracer_, SpanKind::kNetCall);
    return cursor->Close();
  }

 private:
  std::unique_ptr<prima::net::Client> client_;
  Tracer* tracer_;
  std::vector<std::optional<prima::net::RemoteStatement>> slots_;
};

}  // namespace

std::unique_ptr<Client> MakeSessionClient(prima::core::Prima* db,
                                          Tracer* tracer) {
  return std::make_unique<SessionClient>(db, tracer);
}

Result<std::unique_ptr<Client>> MakeWireClient(uint16_t port, Tracer* tracer) {
  auto client = prima::net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  return std::unique_ptr<Client>(
      std::make_unique<WireClient>(std::move(*client), tracer));
}

}  // namespace perfbench
