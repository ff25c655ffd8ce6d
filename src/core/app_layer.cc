#include "core/app_layer.h"

#include <utility>
#include <vector>

#include "core/session.h"

namespace prima::core {

using access::Atom;
using access::AttrValue;
using util::Result;
using util::Status;

Atom* Checkout::FindAtom(const access::Tid& tid) {
  for (auto& m : current_.molecules) {
    for (auto& g : m.groups) {
      for (auto& a : g.atoms) {
        if (a.tid == tid) return &a;
      }
    }
  }
  return nullptr;
}

Result<Checkout> ObjectBuffer::CheckoutQuery(const std::string& query_text) {
  Session session(data_, txns_);
  PRIMA_ASSIGN_OR_RETURN(mql::MoleculeCursor cursor, session.Query(query_text));
  Checkout out;
  PRIMA_ASSIGN_OR_RETURN(out.current_, cursor.Drain());
  for (const auto& m : out.current_.molecules) {
    for (const auto& g : m.groups) {
      for (const auto& a : g.atoms) {
        out.originals_.emplace(a.tid.Pack(), a);
        stats_.atoms_transferred++;
      }
    }
  }
  stats_.checkouts++;
  return out;
}

Status ObjectBuffer::Checkin(Checkout* checkout) {
  std::vector<std::pair<access::Tid, std::vector<AttrValue>>> diffs;
  for (const auto& m : checkout->current_.molecules) {
    for (const auto& g : m.groups) {
      for (const Atom& a : g.atoms) {
        auto orig = checkout->originals_.find(a.tid.Pack());
        if (orig == checkout->originals_.end()) continue;
        std::vector<AttrValue> changes;
        for (size_t i = 0; i < a.attrs.size(); ++i) {
          if (i >= orig->second.attrs.size()) break;
          if (!a.attrs[i].Equals(orig->second.attrs[i])) {
            changes.push_back(
                AttrValue{static_cast<uint16_t>(i), a.attrs[i]});
          }
        }
        if (!changes.empty()) diffs.emplace_back(a.tid, std::move(changes));
      }
    }
  }
  if (!diffs.empty()) {
    PRIMA_ASSIGN_OR_RETURN(Transaction* txn, txns_->Begin());
    Status st;
    for (auto& [tid, changes] : diffs) {
      st = txn->ModifyAtom(tid, std::move(changes));
      if (!st.ok()) break;
    }
    if (st.ok()) st = txn->Commit();
    if (!st.ok()) (void)txn->Abort();
    (void)txns_->Reap(txn);
    PRIMA_RETURN_IF_ERROR(st);
    stats_.atoms_written_back += diffs.size();
  }
  stats_.checkins++;
  // Refresh originals so a Checkout can be checked in repeatedly.
  checkout->originals_.clear();
  for (const auto& m : checkout->current_.molecules) {
    for (const auto& g : m.groups) {
      for (const auto& a : g.atoms) {
        checkout->originals_.emplace(a.tid.Pack(), a);
      }
    }
  }
  return Status::Ok();
}

}  // namespace prima::core
