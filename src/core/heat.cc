#include "core/heat.h"

#include <algorithm>

#include "catalog/schema.h"

namespace mtdb {
namespace mapping {

uint32_t HeatProfile::KeyLocked(const std::string& table,
                               const std::string& column) {
  auto [it, added] = keys_.try_emplace(
      {IdentLower(table), IdentLower(column)},
      static_cast<uint32_t>(counts_.size()));
  if (added) counts_.push_back(0);
  return it->second;
}

void HeatProfile::Record(const std::string& table, const std::string& column,
                         uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_[KeyLocked(table, column)] += count;
  total_ += count;
}

HeatProfile::Accesses HeatProfile::Record(const ColumnRefs& refs) {
  Accesses out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [table, column] : refs) {
    const uint32_t key = KeyLocked(table, column);
    counts_[key]++;
    auto seen = std::find_if(out.begin(), out.end(),
                             [key](const Access& a) { return a.key == key; });
    if (seen != out.end()) {
      seen->count++;
    } else {
      out.push_back(Access{key, 1});
    }
  }
  total_ += refs.size();
  return out;
}

void HeatProfile::Record(const Accesses& accesses) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Access& a : accesses) {
    counts_[a.key] += a.count;
    total_ += a.count;
  }
}

uint64_t HeatProfile::ColumnHeatLocked(const std::string& table,
                                       const std::string& column) const {
  auto it = keys_.find({IdentLower(table), IdentLower(column)});
  return it == keys_.end() ? 0 : counts_[it->second];
}

uint64_t HeatProfile::ColumnHeat(const std::string& table,
                                 const std::string& column) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ColumnHeatLocked(table, column);
}

uint64_t HeatProfile::ExtensionHeat(const ExtensionDef& ext) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t heat = 0;
  for (const LogicalColumn& c : ext.columns) {
    heat += ColumnHeatLocked(ext.base_table, c.name);
  }
  return heat;
}

uint64_t HeatProfile::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void HeatProfile::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

std::set<std::string> AdviseConventionalExtensions(const AppSchema& app,
                                                   const HeatProfile& heat,
                                                   int max_conventional) {
  std::vector<std::pair<uint64_t, std::string>> ranked;
  for (const ExtensionDef& ext : app.extensions()) {
    uint64_t h = heat.ExtensionHeat(ext);
    if (h > 0) ranked.emplace_back(h, IdentLower(ext.name));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::set<std::string> out;
  for (const auto& [h, name] : ranked) {
    if (static_cast<int>(out.size()) >= max_conventional) break;
    out.insert(name);
  }
  return out;
}

}  // namespace mapping
}  // namespace mtdb
