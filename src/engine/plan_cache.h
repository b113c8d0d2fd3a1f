#ifndef MTDB_ENGINE_PLAN_CACHE_H_
#define MTDB_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/latch.h"
#include "exec/executor.h"

namespace mtdb {

/// Plan-cache counters (EngineStats::plan_cache).
struct PlanCacheStats {
  uint64_t hits = 0;    // executions and EXPLAINs served by an entry
  uint64_t misses = 0;  // the ones that planned instead
  uint64_t entries = 0;
  uint64_t bytes = 0;  // keys, plan texts and idle plans
  uint64_t evictions = 0;
  uint64_t invalidations = 0;  // purges by DDL
};

/// Compiled SELECT plans keyed by statement shape (sql/shape.h), with
/// the literals of WHERE predicates lifted into parameter slots, so every
/// tenant whose physical statement differs only in those literals shares
/// one entry (DESIGN.md §17). An entry holds idle executor trees; a
/// statement takes one out, runs it with its own slot values appended to
/// its parameters, releases its runtime buffers and puts it back. A
/// failed execution discards its tree instead.
///
/// Entries reference catalog objects, so they are valid for one catalog
/// DDL epoch: every statement holds the engine's DDL latch shared while
/// it uses the cache, and DDL calls Invalidate() under that latch held
/// exclusively. The latch here is a leaf.
class PlanCache {
 public:
  /// Most entries kept; the least recently used is evicted first.
  static constexpr size_t kMaxEntries = 256;
  /// Most idle trees one entry keeps: enough for as many statements of
  /// one shape as run at once on a few cores.
  static constexpr size_t kMaxIdlePlans = 8;

  /// What a statement needs from an entry besides the plan.
  struct Info {
    std::vector<TableInfo*> tables;  // in latch order
    std::string first_table;         // span label
  };

  /// kIdlePlan wants an idle tree and counts nothing when there is none:
  /// its caller runs the statement again through a path that plans it
  /// and counts that miss.
  enum class Want { kPlan, kIdlePlan, kText };

  /// The result of Take. `info` is null when the shape has no entry.
  struct Checkout {
    std::shared_ptr<const Info> info;
    ExecutorPtr plan;                         // an idle tree (Want::kPlan)
    std::shared_ptr<const std::string> text;  // the EXPLAIN template
    uint64_t epoch = 0;
  };

  /// Looks `key` up and, for kPlan and kIdlePlan, takes one idle tree
  /// out of its entry. Counts a hit when it returns what was wanted, else
  /// a miss (kIdlePlan: nothing).
  Checkout Take(const std::string& key, Want want);

  /// Puts `plan` (released, may be null) and `text` (may be null) into
  /// the entry of `key`, creating it with `key` itself and `info` if
  /// absent. Returns the entry's key, one copy shared by every holder;
  /// null, having dropped `plan` and `text`, when `epoch` is no longer
  /// current.
  std::shared_ptr<const std::string> Put(
      std::shared_ptr<const std::string> key, uint64_t epoch,
      std::shared_ptr<const Info> info, ExecutorPtr plan,
      std::shared_ptr<const std::string> text);

  /// Drops every entry and starts a new epoch. Called by DDL.
  void Invalidate();

  PlanCacheStats stats() const;

 private:
  struct Idle {
    ExecutorPtr plan;
    size_t bytes;
  };
  struct Entry {
    std::shared_ptr<const std::string> key;
    std::shared_ptr<const Info> info;
    std::shared_ptr<const std::string> text;
    std::vector<Idle> idle;
    size_t bytes = 0;
  };
  using Lru = std::list<Entry>;  // most recently used first

  /// Removes the least recently used entries beyond the cap into `out`.
  void EvictLocked(std::vector<Entry>* out);

  mutable Latch mu_{LatchRank::kPlanCache, "plan-cache"};
  Lru lru_;
  std::unordered_map<std::string_view, Lru::iterator> index_;  // keys in lru_
  uint64_t epoch_ = 0;
  PlanCacheStats stats_;
};

}  // namespace mtdb

#endif  // MTDB_ENGINE_PLAN_CACHE_H_
