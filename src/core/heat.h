#ifndef MTDB_CORE_HEAT_H_
#define MTDB_CORE_HEAT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/logical_schema.h"

namespace mtdb {
namespace mapping {

/// Column-access statistics observed by the query-transformation layer.
/// "Good performance is obtained by mapping the most heavily-utilized
/// parts of the logical schemas into the conventional tables" (§1.2) —
/// this is the signal that decides what counts as heavily utilized.
///
/// Internally synchronized: concurrent tenant sessions record heat
/// through the transformer without any external lock.
class HeatProfile {
 public:
  /// A statement's accesses to one column: the column's key in this
  /// profile and how many times the statement names it.
  struct Access {
    uint32_t key;
    uint32_t count;
  };
  using Accesses = std::vector<Access>;
  /// Column references as written: (table, column).
  using ColumnRefs = std::vector<std::pair<std::string, std::string>>;

  void Record(const std::string& table, const std::string& column,
              uint64_t count = 1);
  /// Records one statement's column references under one lock
  /// acquisition and returns them as accesses, repeats merged, which
  /// Record(const Accesses&) can record again without naming them.
  Accesses Record(const ColumnRefs& refs);
  /// Records accesses an earlier Record(const ColumnRefs&) of this
  /// profile returned.
  void Record(const Accesses& accesses);

  uint64_t ColumnHeat(const std::string& table,
                      const std::string& column) const;

  /// Total heat over the columns of one extension.
  uint64_t ExtensionHeat(const ExtensionDef& ext) const;

  /// Total recorded accesses.
  uint64_t total() const;

  /// Zeroes every count. Column keys stay, so accesses returned earlier
  /// remain valid.
  void Clear();

 private:
  uint64_t ColumnHeatLocked(const std::string& table,
                            const std::string& column) const;
  /// The key of (table, column), lower-cased, added when new.
  uint32_t KeyLocked(const std::string& table, const std::string& column);

  mutable std::mutex mu_;
  // (table lower, column lower) -> key, an index into counts_.
  std::map<std::pair<std::string, std::string>, uint32_t> keys_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Greedy advisor: given the observed heat and a budget of at most
/// `max_conventional` extension tables, returns the extensions whose
/// columns are hot enough to deserve conventional tables. This is the
/// knob that "divides the database's meta-data budget between
/// application-specific conventional tables and Chunk Tables".
std::set<std::string> AdviseConventionalExtensions(const AppSchema& app,
                                                   const HeatProfile& heat,
                                                   int max_conventional);

}  // namespace mapping
}  // namespace mtdb

#endif  // MTDB_CORE_HEAT_H_
