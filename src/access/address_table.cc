#include "access/address_table.h"

#include <algorithm>
#include <iterator>

#include "util/coding.h"

namespace prima::access {

using util::Result;
using util::Slice;
using util::Status;

Tid AddressTable::NewTid(AtomTypeId type) {
  std::lock_guard lock(mu_);
  uint64_t& next = next_seq_[type];
  ++next;
  return Tid(type, next);
}

Status AddressTable::Register(const Tid& tid, uint32_t structure,
                              uint64_t rid) {
  std::lock_guard lock(mu_);
  auto& list = entries_[tid.Pack()];
  for (const auto& e : list) {
    if (e.structure_id == structure) {
      return Status::AlreadyExists("structure already materializes atom " +
                                   tid.ToString());
    }
  }
  list.push_back(AddressEntry{structure, rid});
  // Keep the surrogate generator ahead of every registered surrogate —
  // crash recovery re-registers atoms whose NewTid call was lost with the
  // in-memory counters, and a reissued tid would corrupt the address space.
  uint64_t& next = next_seq_[tid.type];
  if (tid.seq > next) next = tid.seq;
  return Status::Ok();
}

Status AddressTable::Unregister(const Tid& tid, uint32_t structure) {
  std::lock_guard lock(mu_);
  auto it = entries_.find(tid.Pack());
  if (it == entries_.end()) return Status::NotFound("atom " + tid.ToString());
  auto& list = it->second;
  for (auto e = list.begin(); e != list.end(); ++e) {
    if (e->structure_id == structure) {
      list.erase(e);
      return Status::Ok();
    }
  }
  return Status::NotFound("no entry for structure " + std::to_string(structure));
}

Status AddressTable::UpdateEntry(const Tid& tid, uint32_t structure,
                                 uint64_t rid) {
  std::lock_guard lock(mu_);
  auto it = entries_.find(tid.Pack());
  if (it == entries_.end()) return Status::NotFound("atom " + tid.ToString());
  for (auto& e : it->second) {
    if (e.structure_id == structure) {
      e.rid = rid;
      return Status::Ok();
    }
  }
  return Status::NotFound("no entry for structure " + std::to_string(structure));
}

Status AddressTable::Remove(const Tid& tid) {
  std::lock_guard lock(mu_);
  if (entries_.erase(tid.Pack()) == 0) {
    return Status::NotFound("atom " + tid.ToString());
  }
  return Status::Ok();
}

bool AddressTable::Exists(const Tid& tid) const {
  std::lock_guard lock(mu_);
  return entries_.count(tid.Pack()) != 0;
}

Result<uint64_t> AddressTable::Lookup(const Tid& tid,
                                      uint32_t structure) const {
  std::lock_guard lock(mu_);
  auto it = entries_.find(tid.Pack());
  if (it == entries_.end()) return Status::NotFound("atom " + tid.ToString());
  for (const auto& e : it->second) {
    if (e.structure_id == structure) return e.rid;
  }
  return Status::NotFound("no entry for structure " + std::to_string(structure));
}

std::vector<AddressEntry> AddressTable::EntriesFor(const Tid& tid) const {
  std::lock_guard lock(mu_);
  auto it = entries_.find(tid.Pack());
  if (it == entries_.end()) return {};
  return it->second;
}

std::vector<Tid> AddressTable::AllOfType(AtomTypeId type) const {
  std::vector<Tid> out;
  {
    std::lock_guard lock(mu_);
    for (const auto& entry : entries_) {
      const Tid tid = Tid::Unpack(entry.first);
      if (tid.type == type) out.push_back(tid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t AddressTable::CountOfType(AtomTypeId type) const {
  std::lock_guard lock(mu_);
  uint64_t n = 0;
  for (const auto& entry : entries_) {
    if (Tid::Unpack(entry.first).type == type) ++n;
  }
  return n;
}

void AddressTable::RemoveType(AtomTypeId type) {
  std::lock_guard lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    it = Tid::Unpack(it->first).type == type ? entries_.erase(it)
                                              : std::next(it);
  }
  next_seq_.erase(type);
}

std::string AddressTable::Encode() const {
  std::lock_guard lock(mu_);
  std::string out;
  util::PutVarint64(&out, next_seq_.size());
  for (const auto& [type, next] : next_seq_) {
    util::PutVarint64(&out, type);
    util::PutVarint64(&out, next);
  }
  // Ascending packed-tid order, so the blob does not depend on hashing.
  std::vector<const decltype(entries_)::value_type*> atoms;
  atoms.reserve(entries_.size());
  for (const auto& entry : entries_) atoms.push_back(&entry);
  std::sort(atoms.begin(), atoms.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  util::PutVarint64(&out, atoms.size());
  for (const auto* atom : atoms) {
    util::PutFixed64(&out, atom->first);
    util::PutVarint64(&out, atom->second.size());
    for (const auto& e : atom->second) {
      util::PutVarint64(&out, e.structure_id);
      util::PutFixed64(&out, e.rid);
    }
  }
  return out;
}

Status AddressTable::DecodeFrom(Slice in) {
  std::lock_guard lock(mu_);
  entries_.clear();
  next_seq_.clear();
  uint64_t n_types;
  if (!util::GetVarint64(&in, &n_types)) {
    return Status::Corruption("address table header");
  }
  for (uint64_t i = 0; i < n_types; ++i) {
    uint64_t type, next;
    if (!util::GetVarint64(&in, &type) || !util::GetVarint64(&in, &next)) {
      return Status::Corruption("address table counters");
    }
    next_seq_[static_cast<AtomTypeId>(type)] = next;
  }
  uint64_t n_atoms;
  if (!util::GetVarint64(&in, &n_atoms)) {
    return Status::Corruption("address table size");
  }
  // Each atom takes at least 9 encoded bytes; a corrupt count cannot
  // reserve more than the input could hold.
  entries_.reserve(std::min<uint64_t>(n_atoms, in.size() / 9));
  for (uint64_t i = 0; i < n_atoms; ++i) {
    uint64_t packed, n_entries;
    if (!util::GetFixed64(&in, &packed) ||
        !util::GetVarint64(&in, &n_entries)) {
      return Status::Corruption("address table entry");
    }
    auto& list = entries_[packed];
    for (uint64_t j = 0; j < n_entries; ++j) {
      uint64_t sid, rid;
      if (!util::GetVarint64(&in, &sid) || !util::GetFixed64(&in, &rid)) {
        return Status::Corruption("address table entry body");
      }
      list.push_back(
          AddressEntry{static_cast<uint32_t>(sid), rid});
    }
  }
  return Status::Ok();
}

}  // namespace prima::access
