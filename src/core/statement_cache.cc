#include "core/statement_cache.h"

#include <cstring>
#include <functional>
#include <mutex>

namespace mtdb {
namespace mapping {

namespace {

/// Each counter's field and registry name, in StatementCache::Field order.
struct CounterName {
  Counter StmtCacheCounters::*field;
  const char* name;
};
constexpr CounterName kCounterNames[] = {
    {&StmtCacheCounters::hits, "stmt_cache.hits"},
    {&StmtCacheCounters::misses, "stmt_cache.misses"},
    {&StmtCacheCounters::fallbacks, "stmt_cache.fallbacks"},
    {&StmtCacheCounters::entries, "stmt_cache.entries"},
    {&StmtCacheCounters::bytes, "stmt_cache.bytes"},
    {&StmtCacheCounters::evictions, "stmt_cache.evictions"},
    {&StmtCacheCounters::invalidations, "stmt_cache.invalidations"},
};

/// List and index nodes of one entry.
constexpr size_t kNodeBytes = 96;

/// The bytes `s` holds outside itself: none when short enough to be
/// stored inline.
size_t HeapBytes(const std::string& s) {
  const char* self = reinterpret_cast<const char*>(&s);
  const std::less<const char*> before;  // a total order on any pointers
  const bool inline_data =
      !before(s.data(), self) && before(s.data(), self + sizeof(s));
  return inline_data ? 0 : s.capacity() + 1;
}

/// What one entry holds, besides the plan-cache key it shares.
size_t FootprintOf(const std::string& key, const CachedStatement& e) {
  size_t bytes = kNodeBytes + sizeof(CachedStatement) + HeapBytes(key) +
                 e.select.slots.capacity() * sizeof(Value) +
                 e.heat.capacity() * sizeof(HeatProfile::Access);
  for (const Value& v : e.select.slots) {
    if (v.type() == TypeId::kString && !v.is_null()) {
      bytes += HeapBytes(v.AsString());
    }
  }
  return bytes;
}

}  // namespace

StatementCache::StatementCache(StmtCacheCounters* counters,
                               MetricsRegistry* registry)
    : counters_(counters) {
  if (registry == nullptr) return;
  for (size_t i = 0; i < kNumFields; ++i) {
    engine_[i] = registry->GetCounter(kCounterNames[i].name);
  }
}

std::string StatementCache::KeyOf(TenantId tenant,
                                  const TransformOptions& options,
                                  const std::string& sql) {
  std::string key(sizeof(tenant) + 1 + sql.size(), '\0');
  std::memcpy(key.data(), &tenant, sizeof(tenant));
  key[sizeof(tenant)] = static_cast<char>(
      static_cast<int>(options.emit_mode) * 2 +
      static_cast<int>(options.predicate_order));
  std::memcpy(key.data() + sizeof(tenant) + 1, sql.data(), sql.size());
  return key;
}

std::shared_ptr<const CachedStatement> StatementCache::Find(
    const std::string& key) {
  std::lock_guard<Latch> guard(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void StatementCache::Put(std::string key,
                         std::shared_ptr<const CachedStatement> entry) {
  Lru dropped;
  const size_t bytes = FootprintOf(key, *entry);
  std::lock_guard<Latch> guard(mu_);
  auto old = index_.find(key);
  if (old != index_.end()) EraseLocked(old->second, &dropped);
  lru_.push_front(Entry{std::move(key), std::move(entry), bytes});
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_ += bytes;
  Add(kEntries, 1);
  Add(kBytes, bytes);
  while (lru_.size() > kMaxEntries) {
    EraseLocked(std::prev(lru_.end()), &dropped);
    Add(kEvictions, 1);
  }
}

void StatementCache::Clear() {
  Lru dropped;
  std::lock_guard<Latch> guard(mu_);
  index_.clear();
  dropped.swap(lru_);
  Sub(kEntries, dropped.size());
  Sub(kBytes, bytes_);
  bytes_ = 0;
  Add(kInvalidations, 1);
}

void StatementCache::EraseLocked(Lru::iterator it, Lru* dropped) {
  index_.erase(it->key);
  bytes_ -= it->bytes;
  Sub(kEntries, 1);
  Sub(kBytes, it->bytes);
  dropped->splice(dropped->end(), lru_, it);
}

void StatementCache::Add(Field field, size_t delta) {
  (counters_->*kCounterNames[field].field).Add(delta);
  if (engine_[field] != nullptr) engine_[field]->Add(delta);
}

void StatementCache::Sub(Field field, size_t delta) {
  (counters_->*kCounterNames[field].field).Sub(delta);
  if (engine_[field] != nullptr) engine_[field]->Sub(delta);
}

}  // namespace mapping
}  // namespace mtdb
