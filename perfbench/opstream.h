// Seeded logical operation stream for the multi-tenant benchmark.
//
// The whole stream is generated before any layout runs, from the
// workload's configuration and the seed alone, so every layout executes
// exactly the same logical statements in the same order. The generator
// also keeps the shadow model the runner checks results against: each
// tenant's account count and SUM(amount) after every round, and the
// fate (committed, rolled back, deleted) of every insert made inside a
// client bracket.
#ifndef PERFBENCH_OPSTREAM_H_
#define PERFBENCH_OPSTREAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class OpKind : uint8_t {
  kPoint,     // SELECT * FROM account WHERE id = ?
  kNarrow,    // three base columns by id
  kJoin,      // account joined to its opportunities, by account id
  kReport,    // per-status COUNT/SUM over the tenant's accounts
  kInsert,    // one logical account row
  kUpdate,    // amount and status of one account
  kDelete,    // one earlier inserted account
  kBegin,
  kCommit,
  kRollback,
};
inline constexpr int kOpKinds = 10;

/// Statements inside a client bracket; sizes cycle from min to max.
inline constexpr int kBracketMin = 2, kBracketMax = 5;

const char* OpName(OpKind kind);
bool IsWrite(OpKind kind);

struct Op {
  OpKind kind = OpKind::kPoint;
  int32_t tenant = 0;
  int64_t id = 0;      // account id (point/narrow/join/insert/update/delete)
  int64_t amount = 0;  // integer-valued amount (insert/update)
  uint8_t status = 0;  // index into kStatuses (insert/update)
};

inline constexpr const char* kStatuses[] = {"open", "won", "lost", "stalled"};
inline constexpr int kNumStatuses = 4;

/// Shadow model of one tenant's account table.
struct Shadow {
  int64_t count = 0;
  int64_t sum = 0;  // SUM(amount); amounts are whole numbers
};

/// An insert made inside a client bracket, for the durable reopen check.
struct BracketInsert {
  int32_t tenant = 0;
  int64_t id = 0;
  int32_t round = 0;  // round the bracket ran in
  bool committed = false;
  int32_t delete_round = -1;  // round of its paired delete; -1 if none
};

/// A workload: data size, engine settings, and the size and shape of
/// every round. A round deals `cards` action cards in the proportions of
/// the paper's Figure 6 (testbed::ActionClassWeight); see CardKinds in
/// opstream.cc.
/// Rounds (and seeds) differ in which tenants and rows they touch, and
/// in which cards land in brackets, never in their card counts.
struct WorkloadConfig {
  std::string name;
  int tenants = 6;
  int accounts = 200;          // loaded accounts per tenant
  int opps_per_account = 1;    // loaded opportunities per account
  int hot_tenants = 0;         // 0: uniform tenant choice
  double hot_share = 0.0;      // share of ops aimed at the hot tenants
  // Figure 6 cards per round. Every round also deletes as many earlier
  // inserted rows as its committed inserts, so the data size is
  // stationary.
  int cards = 200;
  // Client brackets per round: BEGIN, kBracketMin..kBracketMax of the
  // round's cards for one tenant, then COMMIT or ROLLBACK.
  int n_bracket = 0;
  int n_rollback = 0;  // brackets ending in ROLLBACK
  int max_rounds = 400;
  // Set-ups of every layout per run; setup_s sums each layout's slowest.
  int setup_repeats = 3;
  // Engine settings.
  bool durable = false;
  bool admission = false;
  uint64_t memory_budget_bytes = 64ull << 20;
  uint64_t checkpoint_interval_bytes = 8ull << 20;
};

struct OpStream {
  std::vector<std::vector<Op>> rounds;
  /// Tenant whose report is checked after each round, and every
  /// tenant's shadow after each round.
  std::vector<int32_t> check_tenant;
  std::vector<std::vector<Shadow>> after_round;
  std::vector<BracketInsert> bracket_inserts;
};

/// The loaded (never deleted) amount and status of account `id`.
int64_t LoadedAmount(int32_t tenant, int64_t id);
uint8_t LoadedStatus(int32_t tenant, int64_t id);

/// Deterministic 64-bit mix used for every generated column value.
uint64_t Mix(uint64_t a, uint64_t b);

OpStream Generate(const WorkloadConfig& cfg, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_OPSTREAM_H_
