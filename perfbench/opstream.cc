#include "opstream.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "common/rng.h"
#include "testbed/workload.h"

namespace perfbench {

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kPoint:
      return "point_select";
    case OpKind::kNarrow:
      return "narrow_select";
    case OpKind::kJoin:
      return "join_select";
    case OpKind::kReport:
      return "report";
    case OpKind::kInsert:
      return "insert";
    case OpKind::kUpdate:
      return "update";
    case OpKind::kDelete:
      return "delete";
    case OpKind::kBegin:
      return "begin";
    case OpKind::kCommit:
      return "commit";
    case OpKind::kRollback:
      return "rollback";
  }
  return "?";
}

bool IsWrite(OpKind kind) {
  return kind == OpKind::kInsert || kind == OpKind::kUpdate ||
         kind == OpKind::kDelete;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 32;
  return x;
}

int64_t LoadedAmount(int32_t tenant, int64_t id) {
  return 10 + static_cast<int64_t>(
                  Mix(static_cast<uint64_t>(tenant) + 1,
                      static_cast<uint64_t>(id)) %
                  9990);
}

uint8_t LoadedStatus(int32_t tenant, int64_t id) {
  return static_cast<uint8_t>(
      Mix(static_cast<uint64_t>(tenant) + 7, static_cast<uint64_t>(id) * 3) %
      kNumStatuses);
}

namespace {

/// The op kinds of `cards` Figure 6 cards, unshuffled: light selects
/// become point, narrow and join selects in equal thirds, heavy selects
/// reports, light and heavy inserts inserts, light and heavy updates
/// updates. Administrative actions (0.01%) have no statement here and
/// round to none.
std::vector<OpKind> CardKinds(int cards) {
  using mtdb::testbed::ActionClass;
  using mtdb::testbed::ActionClassWeight;
  // Figure 6 weights, grouped by the statement each class becomes.
  const double weights[] = {
      ActionClassWeight(ActionClass::kSelectLight),
      ActionClassWeight(ActionClass::kSelectHeavy),
      ActionClassWeight(ActionClass::kInsertLight) +
          ActionClassWeight(ActionClass::kInsertHeavy),
      ActionClassWeight(ActionClass::kUpdateLight) +
          ActionClassWeight(ActionClass::kUpdateHeavy),
  };
  constexpr int kGroups = 4;
  double total = 0.0;
  for (double w : weights) total += w;
  // Largest-remainder rounding, so the counts add up to `cards` exactly.
  int count[kGroups];
  double remainder[kGroups];
  int dealt = 0;
  for (int g = 0; g < kGroups; ++g) {
    const double share = weights[g] / total * cards;
    count[g] = static_cast<int>(std::floor(share));
    remainder[g] = share - count[g];
    dealt += count[g];
  }
  for (; dealt < cards; ++dealt) {
    const int g = static_cast<int>(
        std::max_element(remainder, remainder + kGroups) - remainder);
    count[g]++;
    remainder[g] = -1.0;
  }
  const int light = count[0];
  std::vector<OpKind> kinds;
  kinds.reserve(static_cast<size_t>(cards));
  auto add = [&](OpKind kind, int n) { kinds.insert(kinds.end(), n, kind); };
  add(OpKind::kPoint, light - 2 * (light / 3));
  add(OpKind::kNarrow, light / 3);
  add(OpKind::kJoin, light / 3);
  add(OpKind::kReport, count[1]);
  add(OpKind::kInsert, count[2]);
  add(OpKind::kUpdate, count[3]);
  return kinds;
}

struct TenantModel {
  std::vector<int64_t> loaded;  // amount of loaded account id-1
  std::unordered_map<int64_t, int64_t> inserted;
  int64_t next_id = 0;
  Shadow shadow;
};

/// One shuffled unit of a round: a single autocommit statement or a
/// whole client bracket.
struct Unit {
  OpKind kind = OpKind::kPoint;  // kBegin marks a bracket
  std::vector<OpKind> body;      // bracket statements
  bool rollback = false;
};

/// An inserted row waiting for its paired delete.
struct Deletable {
  int32_t tenant = 0;
  int64_t id = 0;
  int32_t bracket_insert = -1;  // index into bracket_inserts, or -1
};

class Generator {
 public:
  Generator(const WorkloadConfig& cfg, uint64_t seed)
      : cfg_(cfg),
        rng_(seed * 0x2545F4914F6CDD1DULL + 0x51) {
    constexpr int kSpan = kBracketMax - kBracketMin + 1;
    int in_brackets = 0;
    for (int b = 0; b < cfg.n_bracket; ++b) {
      bracket_sizes_.push_back(kBracketMin + b % kSpan);
      in_brackets += bracket_sizes_.back();
    }
    in_brackets = std::min(in_brackets, cfg.cards);
    bracket_cards_ = CardKinds(in_brackets);
    autocommit_cards_ = CardKinds(cfg.cards - in_brackets);
    models_.resize(static_cast<size_t>(cfg.tenants));
    for (int32_t t = 0; t < cfg.tenants; ++t) {
      TenantModel& m = models_[static_cast<size_t>(t)];
      m.next_id = cfg.accounts + 1;
      for (int64_t id = 1; id <= cfg.accounts; ++id) {
        m.loaded.push_back(LoadedAmount(t, id));
        m.shadow.count++;
        m.shadow.sum += m.loaded.back();
      }
    }
  }

  OpStream Run() {
    OpStream out;
    for (int32_t r = 0; r < cfg_.max_rounds; ++r) {
      std::vector<Unit> units = Composition();
      Shuffle(&units);
      std::vector<Op> ops;
      int32_t check = 0;
      for (const Unit& u : units) {
        if (u.kind == OpKind::kBegin) {
          check = PickTenant();
          Bracket(&ops, check, u, r, &out);
          continue;
        }
        OpKind kind = u.kind;
        // Deletes take the oldest rows inserted in earlier rounds; the
        // first round has none yet and inserts instead.
        if (kind == OpKind::kDelete && deletable_.empty()) {
          kind = OpKind::kInsert;
        }
        if (kind == OpKind::kDelete) {
          const Deletable d = deletable_.front();
          deletable_.pop_front();
          Op op;
          op.kind = OpKind::kDelete;
          op.tenant = d.tenant;
          op.id = d.id;
          ops.push_back(op);
          ApplyDelete(d.tenant, d.id);
          if (d.bracket_insert >= 0) {
            out.bracket_inserts[static_cast<size_t>(d.bracket_insert)]
                .delete_round = r;
          }
          check = d.tenant;
          continue;
        }
        const Op op = Draw(kind, PickTenant());
        ops.push_back(op);
        if (kind == OpKind::kInsert) {
          fresh_.push_back({op.tenant, op.id, -1});
          ApplyInsert(op.tenant, op.id, op.amount);
          check = op.tenant;
        } else if (kind == OpKind::kUpdate) {
          ApplyUpdate(op.tenant, op.id, op.amount);
          check = op.tenant;
        }
      }
      // Rows inserted this round become deletable from the next one on.
      deletable_.insert(deletable_.end(), fresh_.begin(), fresh_.end());
      fresh_.clear();
      out.rounds.push_back(std::move(ops));
      out.check_tenant.push_back(check);
      std::vector<Shadow> snap;
      snap.reserve(models_.size());
      for (const TenantModel& m : models_) snap.push_back(m.shadow);
      out.after_round.push_back(std::move(snap));
    }
    return out;
  }

 private:
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng_.Uniform(
                                 0, static_cast<int64_t>(i) - 1))]);
    }
  }

  /// The units of one round. The cards inside client brackets and the
  /// autocommit cards are two Figure 6 decks, so both parts of every
  /// round have the same mix. The bracket deck is carved into the
  /// brackets, whose sizes cycle through [kBracketMin, kBracketMax] and
  /// of which the first n_rollback end in ROLLBACK. Every bracket gets
  /// one write card first and the rest at random, so each COMMIT or
  /// ROLLBACK has writes to finish; otherwise the share of read-only
  /// brackets, whose COMMIT costs a fraction, would change the COMMIT
  /// median from round to round. Each committed insert gets a paired
  /// delete.
  std::vector<Unit> Composition() {
    std::vector<OpKind> writes, rest;
    for (OpKind kind : bracket_cards_) {
      (IsWrite(kind) ? writes : rest).push_back(kind);
    }
    Shuffle(&writes);
    const size_t first = std::min(writes.size(), bracket_sizes_.size());
    rest.insert(rest.end(), writes.begin() + static_cast<ptrdiff_t>(first),
                writes.end());
    Shuffle(&rest);
    std::vector<OpKind> cards = autocommit_cards_;
    Shuffle(&cards);
    std::vector<Unit> units;
    int deletes = 0;
    auto next = rest.begin();
    for (size_t b = 0; b < bracket_sizes_.size(); ++b) {
      Unit u;
      u.kind = OpKind::kBegin;
      u.rollback = static_cast<int>(b) < cfg_.n_rollback;
      if (b < first) u.body.push_back(writes[b]);
      const auto size = std::min<ptrdiff_t>(
          bracket_sizes_[b] - static_cast<int>(u.body.size()),
          rest.end() - next);
      u.body.insert(u.body.end(), next, next + size);
      next += size;
      Shuffle(&u.body);
      if (!u.rollback) {
        deletes += static_cast<int>(
            std::count(u.body.begin(), u.body.end(), OpKind::kInsert));
      }
      units.push_back(std::move(u));
    }
    for (OpKind kind : cards) {
      units.push_back({kind, {}, false});
      deletes += kind == OpKind::kInsert;
    }
    for (int i = 0; i < deletes; ++i) {
      units.push_back({OpKind::kDelete, {}, false});
    }
    return units;
  }

  int32_t PickTenant() {
    if (cfg_.hot_tenants > 0 && rng_.Bernoulli(cfg_.hot_share)) {
      return static_cast<int32_t>(rng_.Uniform(0, cfg_.hot_tenants - 1));
    }
    return static_cast<int32_t>(rng_.Uniform(0, cfg_.tenants - 1));
  }

  Op Draw(OpKind kind, int32_t t) {
    Op op;
    op.kind = kind;
    op.tenant = t;
    if (kind == OpKind::kInsert) {
      op.id = models_[static_cast<size_t>(t)].next_id++;
    } else {
      op.id = rng_.Uniform(1, cfg_.accounts);
    }
    if (kind == OpKind::kInsert || kind == OpKind::kUpdate) {
      op.amount = rng_.Uniform(10, 9999);
      op.status = static_cast<uint8_t>(rng_.Uniform(0, kNumStatuses - 1));
    }
    return op;
  }

  /// BEGIN, the bracket's statements, then COMMIT or ROLLBACK; effects
  /// reach the shadow only on COMMIT.
  void Bracket(std::vector<Op>* ops, int32_t t, const Unit& u, int32_t round,
               OpStream* out) {
    Op begin;
    begin.kind = OpKind::kBegin;
    begin.tenant = t;
    ops->push_back(begin);
    std::vector<Op> body;
    for (OpKind kind : u.body) {
      Op op = Draw(kind, t);
      ops->push_back(op);
      body.push_back(op);
    }
    Op end;
    end.kind = u.rollback ? OpKind::kRollback : OpKind::kCommit;
    end.tenant = t;
    ops->push_back(end);
    for (const Op& op : body) {
      if (op.kind == OpKind::kInsert) {
        BracketInsert bi;
        bi.tenant = t;
        bi.id = op.id;
        bi.round = round;
        bi.committed = !u.rollback;
        out->bracket_inserts.push_back(bi);
        if (bi.committed) {
          const auto index =
              static_cast<int32_t>(out->bracket_inserts.size() - 1);
          fresh_.push_back({t, op.id, index});
          ApplyInsert(t, op.id, op.amount);
        }
      } else if (op.kind == OpKind::kUpdate && !u.rollback) {
        ApplyUpdate(t, op.id, op.amount);
      }
    }
  }

  void ApplyInsert(int32_t t, int64_t id, int64_t amount) {
    TenantModel& m = models_[static_cast<size_t>(t)];
    m.inserted[id] = amount;
    m.shadow.count++;
    m.shadow.sum += amount;
  }

  void ApplyUpdate(int32_t t, int64_t id, int64_t amount) {
    TenantModel& m = models_[static_cast<size_t>(t)];
    int64_t& slot = m.loaded[static_cast<size_t>(id - 1)];
    m.shadow.sum += amount - slot;
    slot = amount;
  }

  void ApplyDelete(int32_t t, int64_t id) {
    TenantModel& m = models_[static_cast<size_t>(t)];
    auto it = m.inserted.find(id);
    m.shadow.count--;
    m.shadow.sum -= it->second;
    m.inserted.erase(it);
  }

  const WorkloadConfig& cfg_;
  mtdb::Rng rng_;
  std::vector<int> bracket_sizes_;
  // One round's cards, unshuffled: those inside brackets, and the rest.
  std::vector<OpKind> bracket_cards_, autocommit_cards_;
  std::vector<TenantModel> models_;
  std::deque<Deletable> deletable_;
  std::vector<Deletable> fresh_;
};

}  // namespace

OpStream Generate(const WorkloadConfig& cfg, uint64_t seed) {
  return Generator(cfg, seed).Run();
}

}  // namespace perfbench
