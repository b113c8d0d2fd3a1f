#include "engine/plan_cache.h"

#include <mutex>

namespace mtdb {

PlanCache::Checkout PlanCache::Take(const std::string& key, Want want) {
  Checkout out;
  std::lock_guard<Latch> guard(mu_);
  out.epoch = epoch_;
  auto it = index_.find(key);
  if (it == index_.end()) {
    if (want != Want::kIdlePlan) stats_.misses++;
    return out;
  }
  Entry& e = *it->second;
  lru_.splice(lru_.begin(), lru_, it->second);
  out.info = e.info;
  out.text = e.text;
  bool hit = want == Want::kText ? e.text != nullptr : !e.idle.empty();
  if (want != Want::kText && hit) {
    out.plan = std::move(e.idle.back().plan);
    e.bytes -= e.idle.back().bytes;
    stats_.bytes -= e.idle.back().bytes;
    e.idle.pop_back();
  }
  if (hit) {
    stats_.hits++;
  } else if (want != Want::kIdlePlan) {
    stats_.misses++;
  }
  return out;
}

std::shared_ptr<const std::string> PlanCache::Put(
    std::shared_ptr<const std::string> key, uint64_t epoch,
    std::shared_ptr<const Info> info, ExecutorPtr plan,
    std::shared_ptr<const std::string> text) {
  const size_t plan_bytes = plan != nullptr ? plan->Footprint() : 0;
  // Trees that are not kept are destroyed after the latch is dropped.
  std::vector<Entry> evicted;
  std::lock_guard<Latch> guard(mu_);
  if (epoch != epoch_) return nullptr;
  auto it = index_.find(*key);
  if (it == index_.end()) {
    lru_.emplace_front();
    Entry& e = lru_.front();
    e.key = std::move(key);
    e.info = std::move(info);
    e.bytes = e.key->capacity();
    stats_.bytes += e.bytes;
    it = index_.emplace(*e.key, lru_.begin()).first;
  } else {
    lru_.splice(lru_.begin(), lru_, it->second);
  }
  Entry& e = *it->second;
  if (text != nullptr && e.text == nullptr) {
    e.text = std::move(text);
    e.bytes += e.text->capacity();
    stats_.bytes += e.text->capacity();
  }
  if (plan != nullptr && e.idle.size() < kMaxIdlePlans) {
    e.idle.push_back(Idle{std::move(plan), plan_bytes});
    e.bytes += plan_bytes;
    stats_.bytes += plan_bytes;
  }
  std::shared_ptr<const std::string> shared = e.key;
  EvictLocked(&evicted);
  stats_.entries = lru_.size();
  return shared;
}

void PlanCache::EvictLocked(std::vector<Entry>* out) {
  while (lru_.size() > kMaxEntries) {
    Entry& victim = lru_.back();
    index_.erase(*victim.key);
    stats_.bytes -= victim.bytes;
    stats_.evictions++;
    out->push_back(std::move(victim));
    lru_.pop_back();
  }
}

void PlanCache::Invalidate() {
  Lru dropped;
  std::lock_guard<Latch> guard(mu_);
  epoch_++;
  stats_.invalidations++;
  index_.clear();
  dropped.swap(lru_);
  stats_.entries = 0;
  stats_.bytes = 0;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<Latch> guard(mu_);
  return stats_;
}

}  // namespace mtdb
