#ifndef MTDB_CORE_STATEMENT_CACHE_H_
#define MTDB_CORE_STATEMENT_CACHE_H_

#include <array>
#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/latch.h"
#include "common/metrics_registry.h"
#include "core/heat.h"
#include "core/transformer.h"
#include "engine/database.h"

namespace mtdb {
namespace mapping {

/// Statement-cache counters (LayoutStats::stmt_cache). `entries` and
/// `bytes` are levels; the others are totals.
struct StmtCacheCounters {
  Counter hits;       // SELECTs run from an entry
  Counter misses;     // SELECTs without an entry: parsed and transformed
  Counter fallbacks;  // an entry could not serve, or an observer is
                      // installed: parsed and transformed
  Counter entries;
  Counter bytes;  // keys, slot values and heat records
  Counter evictions;
  Counter invalidations;
};

/// What a repeated logical SELECT needs to skip parse, the §6.1
/// transform and shape encoding (DESIGN.md §18): the physical
/// statement's plan-cache key, shared by every tenant statement of that
/// shape, this tenant's slot values, and the column accesses the
/// transform recorded. No AST.
struct CachedStatement {
  PreparedSelect select;
  HeatProfile::Accesses heat;
};

/// A layout's logical SELECTs by (tenant, transform options, SQL text),
/// least recently used evicted first. Entries are immutable and shared:
/// a statement keeps its entry alive while it runs, without the latch.
class StatementCache {
 public:
  /// Most entries kept: a constant, like PlanCache::kMaxEntries.
  static constexpr size_t kMaxEntries = 4096;

  /// Counts into `counters` and, when `registry` is given, into its
  /// stmt_cache.* counters, which sum every layout on one engine. A
  /// layout may outlive its engine, so a destroyed cache leaves its
  /// last entries and bytes in the registry.
  StatementCache(StmtCacheCounters* counters, MetricsRegistry* registry);
  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  /// The cache key of `sql` run by `tenant` under `options`.
  static std::string KeyOf(TenantId tenant, const TransformOptions& options,
                           const std::string& sql);

  /// The entry of `key`, or null.
  std::shared_ptr<const CachedStatement> Find(const std::string& key);

  /// Stores `entry` under `key`, replacing an older one.
  void Put(std::string key, std::shared_ptr<const CachedStatement> entry);

  /// Drops every entry; counts an invalidation.
  void Clear();

  void CountHit() { Add(kHits, 1); }
  void CountMiss() { Add(kMisses, 1); }
  void CountFallback() { Add(kFallbacks, 1); }

 private:
  enum Field {
    kHits,
    kMisses,
    kFallbacks,
    kEntries,
    kBytes,
    kEvictions,
    kInvalidations,
    kNumFields
  };
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedStatement> value;
    size_t bytes = 0;
  };
  using Lru = std::list<Entry>;  // most recently used first

  void Add(Field field, size_t delta);
  void Sub(Field field, size_t delta);
  /// Unlinks `it` into `dropped`, to be destroyed after the latch.
  void EraseLocked(Lru::iterator it, Lru* dropped);

  StmtCacheCounters* counters_;
  std::array<Counter*, kNumFields> engine_{};  // registry mirrors, or null

  mutable Latch mu_{LatchRank::kStatementCache, "statement-cache"};
  Lru lru_;
  std::unordered_map<std::string_view, Lru::iterator> index_;  // keys in lru_
  size_t bytes_ = 0;
};

}  // namespace mapping
}  // namespace mtdb

#endif  // MTDB_CORE_STATEMENT_CACHE_H_
