#ifndef PRIMA_CORE_APP_LAYER_H_
#define PRIMA_CORE_APP_LAYER_H_

#include <map>
#include <string>

#include "core/transaction.h"
#include "mql/data_system.h"

namespace prima::core {

/// A checked-out molecule set held in the application-layer object buffer.
/// The application mutates the atoms in place; Checkin writes the diff
/// back.
class Checkout {
 public:
  mql::MoleculeSet& molecules() { return current_; }
  const mql::MoleculeSet& molecules() const { return current_; }

  /// Convenience: locate an atom copy by surrogate (nullptr if absent).
  access::Atom* FindAtom(const access::Tid& tid);

 private:
  friend class ObjectBuffer;
  mql::MoleculeSet current_;
  std::map<uint64_t, access::Atom> originals_;  // packed tid -> as-checked-out
};

struct AppLayerStats {
  std::atomic<uint64_t> checkouts{0};
  std::atomic<uint64_t> checkins{0};
  std::atomic<uint64_t> atoms_transferred{0};
  std::atomic<uint64_t> atoms_written_back{0};
};

/// The application layer of Fig. 3.1 as used for workstation-host coupling
/// (paper §4): molecules are transferred set-oriented into an object buffer
/// close to the application ("checkout"); the DBMS work then happens
/// locally on the buffered objects, and modified molecules move back to
/// PRIMA at commit time ("checkin"). Here workstation and host share a
/// process; the code path (set transfer, local mutation, diff-based
/// write-back in one transaction) is the one the paper's coupling takes.
class ObjectBuffer {
 public:
  ObjectBuffer(mql::DataSystem* data, TransactionManager* txns)
      : data_(data), txns_(txns) {}

  /// Evaluate the query in a session opened for the call and transfer the
  /// molecule set into the buffer.
  util::Result<Checkout> CheckoutQuery(const std::string& query_text);

  /// Write the changed attributes back in one top-level transaction: every
  /// changed atom is locked, logged and versioned, and the commit is
  /// forced. All atoms are written or none; a failed checkin (a lock held
  /// by another transaction, a value the schema refuses) leaves the
  /// checkout as it was, so the caller may retry. Reference attributes are
  /// written through Connect/Disconnect semantics by the access system.
  util::Status Checkin(Checkout* checkout);

  AppLayerStats& stats() { return stats_; }

 private:
  mql::DataSystem* data_;
  TransactionManager* txns_;
  AppLayerStats stats_;
};

}  // namespace prima::core

#endif  // PRIMA_CORE_APP_LAYER_H_
