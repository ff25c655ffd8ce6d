#ifndef PRIMA_MQL_STATEMENT_CACHE_H_
#define PRIMA_MQL_STATEMENT_CACHE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "mql/ast.h"
#include "mql/executor.h"

namespace prima::mql {

/// A statement compiled once and shared: the parsed AST plus (for
/// statements with a FROM clause) the prepared query plan. Immutable and
/// value-free after insertion — placeholders stay parameter slots in both
/// the AST and the plan, and bound values travel beside the entry — so
/// one-shot executions and prepared statements across sessions read it
/// concurrently through a shared_ptr, and an eviction never pulls a
/// statement out from under an execution in flight.
struct CachedStatement {
  /// Catalog::schema_version() at compile time. A lookup under a different
  /// version is a miss: DDL since then may have dropped or replaced a
  /// structure the plan (or the resolved AST) embeds.
  uint64_t schema_version = 0;
  Statement stmt;
  std::optional<QueryPlan> plan;
};

/// Shared, schema-versioned statement cache keyed by MQL text. Sessions
/// consult it on every one-shot Execute/Query and every Prepare — they all
/// compile through Session::Compile — so a client that never calls Prepare
/// (every raw network Execute, for one) still gets the
/// parse-once-plan-once fast path the second time a statement text
/// arrives, from ANY session, and sessions preparing the same text share
/// one compile. Bounded LRU. Statements with placeholders are cached like
/// any other; the one-shot Execute/Query callers refuse to run them (there
/// are no bound values), only a PreparedStatement does. DDL is never
/// cached: it invalidates the cache itself.
class StatementCache {
 public:
  explicit StatementCache(size_t capacity = 256) : capacity_(capacity) {}

  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  /// Statement kinds worth caching: query and DML shapes whose parse +
  /// semantic analysis + planning dominate a repeated round trip, and
  /// transaction control, which every transaction repeats.
  static bool Cacheable(Statement::Kind kind) {
    switch (kind) {
      case Statement::Kind::kQuery:
      case Statement::Kind::kInsert:
      case Statement::Kind::kDelete:
      case Statement::Kind::kModify:
      case Statement::Kind::kConnect:
      case Statement::Kind::kBeginWork:
      case Statement::Kind::kCommitWork:
      case Statement::Kind::kAbortWork:
        return true;
      default:
        return false;
    }
  }

  /// The cached compile of `text`, or null on a miss. An entry compiled
  /// under a different schema version is dropped and reported as a miss.
  std::shared_ptr<const CachedStatement> Lookup(const std::string& text,
                                                uint64_t schema_version);

  /// Publish a compiled statement (no-op when capacity is 0). Last writer
  /// wins on a racing double-compile of the same text — both entries are
  /// equivalent.
  void Insert(const std::string& text,
              std::shared_ptr<const CachedStatement> entry);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t size() const;

 private:
  struct Slot {
    std::shared_ptr<const CachedStatement> entry;
    std::list<std::string>::iterator lru_pos;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> map_;
  /// Front = most recently used; back is evicted at capacity.
  std::list<std::string> lru_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace prima::mql

#endif  // PRIMA_MQL_STATEMENT_CACHE_H_
