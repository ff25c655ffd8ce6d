#include "access/version_store.h"

#include <algorithm>

#include "obs/trace.h"

namespace prima::access {

VersionStore::VersionStore() : shards_(new Shard[kShards]) {}

VersionStore::Pin::~Pin() {
  if (store_ != nullptr) store_->ReleasePin(view_);
}

void VersionStore::Install(uint64_t txn, const Tid& tid, const Atom* before) {
  if (txn == 0) return;  // system/auto-commit writes are never versioned
  const uint64_t packed = tid.Pack();
  Entry e;
  e.txn = txn;
  if (before != nullptr) {
    e.has_before = true;
    e.before = *before;
  }
  {
    Shard& shard = ShardFor(packed);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.chains[packed].push_back(std::move(e));
  }
  {
    std::lock_guard<std::mutex> lock(txns_mu_);
    pending_by_txn_[txn].push_back(packed);
  }
  stats_.versions_installed++;
  retained_.fetch_add(1, std::memory_order_release);
}

uint64_t VersionStore::Publish(uint64_t txn, uint64_t wal_lsn) {
  std::vector<uint64_t> tids;
  {
    std::lock_guard<std::mutex> lock(txns_mu_);
    auto it = pending_by_txn_.find(txn);
    if (it == pending_by_txn_.end()) {
      // Nothing versioned, but advance the LSN watermark new pins report.
      if (wal_lsn > last_lsn_.load(std::memory_order_relaxed)) {
        last_lsn_.store(wal_lsn, std::memory_order_relaxed);
      }
      return 0;
    }
    tids = std::move(it->second);
    pending_by_txn_.erase(it);
  }

  // Stamp THEN publish: every entry carries the new sequence before
  // last_seq_ advances, so a reader that pins seq S never finds a
  // half-stamped transaction at or below S.
  std::lock_guard<std::mutex> clk(commit_mu_);
  const uint64_t seq = last_seq_.load(std::memory_order_relaxed) + 1;
  StampAndBury(txn, tids, seq, wal_lsn);
  if (wal_lsn > last_lsn_.load(std::memory_order_relaxed)) {
    last_lsn_.store(wal_lsn, std::memory_order_relaxed);
  }
  last_seq_.store(seq, std::memory_order_release);
  Retire();
  return seq;
}

void VersionStore::StampAndBury(uint64_t txn,
                                const std::vector<uint64_t>& tids,
                                uint64_t seq, uint64_t wal_lsn) {
  std::vector<Tomb> tombs;
  tombs.reserve(tids.size());
  for (const uint64_t packed : tids) {
    Shard& shard = ShardFor(packed);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.chains.find(packed);
    if (it == shard.chains.end()) continue;
    for (Entry& e : it->second) {
      if (e.txn != txn || e.seq != 0) continue;
      e.seq = seq;
      e.wal_lsn = wal_lsn;
      tombs.push_back(Tomb{packed, seq});
    }
  }
  std::lock_guard<std::mutex> lock(retire_mu_);
  for (Tomb& t : tombs) graveyard_.push_back(t);
  buried_.store(graveyard_.size(), std::memory_order_release);
}

std::shared_ptr<VersionStore::Pin> VersionStore::OpenSnapshot(
    uint64_t own_txn) {
  auto pin = std::make_shared<Pin>();
  pin->store_ = this;
  pin->view_.own_txn = own_txn;
  {
    // The pin registers under the same lock future retirements consult, so
    // a commit racing this open either sees the pin (and keeps the entry)
    // or published its seq before we read it (and the entry is visible —
    // the pin never needed it).
    std::lock_guard<std::mutex> lock(pins_mu_);
    pin->view_.seq = last_seq_.load(std::memory_order_acquire);
    PinInfo& info = pins_[pin->view_.seq];
    info.count++;
    if (info.count == 1) {
      info.lsn = last_lsn_.load(std::memory_order_relaxed);
    }
  }
  stats_.snapshots_opened++;
  return pin;
}

void VersionStore::ReleasePin(const ReadView& view) {
  {
    std::lock_guard<std::mutex> lock(pins_mu_);
    auto it = pins_.find(view.seq);
    if (it != pins_.end() && --it->second.count == 0) pins_.erase(it);
  }
  Retire();
}

void VersionStore::Retire() {
  // With no tomb waiting there is nothing to trim: a Publish that buries
  // one after this check calls Retire itself, and a pin released before
  // that Publish reads the floor is already gone from pins_.
  if (buried_.load(std::memory_order_acquire) == 0) return;
  RetireThrough(RetireFloor());
}

uint64_t VersionStore::RetireFloor() const {
  // An entry stamped with sequence C serves only views with seq < C; once
  // every live pin sits at or above C, it is garbage. With no pin live the
  // floor is the published clock, not "everything": a Publish may already
  // have buried the tombs of seq S+1 while last_seq_ still reads S, and a
  // pin that opens before the store sits at S and needs those entries.
  // Read under pins_mu_, as OpenSnapshot reads it, so every later pin
  // sits at or above the floor.
  std::lock_guard<std::mutex> lock(pins_mu_);
  return pins_.empty() ? last_seq_.load(std::memory_order_acquire)
                       : pins_.begin()->first;
}

void VersionStore::RetireThrough(uint64_t floor) {
  std::vector<Tomb> ripe;
  {
    std::lock_guard<std::mutex> lock(retire_mu_);
    while (!graveyard_.empty() && graveyard_.front().seq <= floor) {
      ripe.push_back(graveyard_.front());
      graveyard_.pop_front();
    }
    buried_.store(graveyard_.size(), std::memory_order_release);
  }
  if (ripe.empty()) return;
  uint64_t retired = 0;
  for (const Tomb& t : ripe) {
    Shard& shard = ShardFor(t.packed);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.chains.find(t.packed);
    if (it == shard.chains.end()) continue;
    auto& chain = it->second;
    const size_t before = chain.size();
    chain.erase(std::remove_if(chain.begin(), chain.end(),
                               [&t](const Entry& e) {
                                 return e.seq != 0 && e.seq <= t.seq;
                               }),
                chain.end());
    retired += before - chain.size();
    if (chain.empty()) shard.chains.erase(it);
  }
  if (retired > 0) {
    stats_.versions_retired += retired;
    retained_.fetch_sub(static_cast<int64_t>(retired),
                        std::memory_order_release);
  }
}

VersionStore::Resolution VersionStore::Resolve(const Tid& tid,
                                               const ReadView& view) {
  Resolution r;
  if (Empty()) return r;
  const uint64_t packed = tid.Pack();
  obs::StatementTrace* trace = obs::CurrentTrace();
  const uint64_t t0 = trace != nullptr ? obs::NowNs() : 0;
  size_t depth = 0;
  {
    Shard& shard = ShardFor(packed);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.chains.find(packed);
    if (it == shard.chains.end()) return r;
    for (const Entry& e : it->second) {
      ++depth;
      const bool own = view.own_txn != 0 && e.txn == view.own_txn;
      const bool committed_visible = e.seq != 0 && e.seq <= view.seq;
      if (own || committed_visible) continue;
      // First invisible entry: its before-image is the view's version.
      if (e.has_before) {
        r.outcome = Outcome::kBefore;
        r.before = e.before;
      } else {
        r.outcome = Outcome::kInvisible;  // insert the view predates
      }
      break;
    }
  }
  stats_.chain_walks++;
  switch (depth) {
    case 0:
    case 1:
      stats_.chain_depth_1++;
      break;
    case 2:
      stats_.chain_depth_2++;
      break;
    case 3:
      stats_.chain_depth_3++;
      break;
    default:
      stats_.chain_depth_4plus++;
      break;
  }
  const bool resolved = r.outcome != Outcome::kCurrent;
  if (resolved) {
    stats_.versions_resolved++;
  }
  if (trace != nullptr) {
    trace->Add(obs::Phase::kVersionChain, obs::NowNs() - t0);
    if (resolved) trace->Tally(obs::Phase::kVersionChain, 0);  // resolved
  }
  return r;
}

std::vector<uint64_t> VersionStore::ChainedTids(AtomTypeId type) const {
  std::vector<uint64_t> out;
  // Safe for the reason Resolve's fast path is: a writer installs its chain
  // entry before it touches the base record.
  if (Empty()) return out;
  for (size_t i = 0; i < kShards; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [packed, chain] : shard.chains) {
      if (!chain.empty() && Tid::Unpack(packed).type == type) {
        out.push_back(packed);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

VersionStoreStatsSnapshot VersionStore::StatsSnapshot() const {
  VersionStoreStatsSnapshot s{stats_};
  const int64_t retained = retained_.load(std::memory_order_acquire);
  s.versions_retained = retained > 0 ? static_cast<uint64_t>(retained) : 0;
  {
    std::lock_guard<std::mutex> lock(pins_mu_);
    for (const auto& [seq, info] : pins_) s.snapshots_active += info.count;
    s.oldest_snapshot_lsn = pins_.empty() ? 0 : pins_.begin()->second.lsn;
  }
  s.commit_seq = last_seq_.load(std::memory_order_acquire);
  return s;
}

}  // namespace prima::access
