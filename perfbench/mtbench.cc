// mtbench: one closed-loop client runs a seeded logical op stream against
// all eight schema-mapping layouts of the CRM testbed and prints every
// metric by name with its unit, checking every result on the way.
//
// Usage:
//   mtbench --workload oltp_hot|pool_pressure|durable_txn --seed N
//           --seconds S --trace 0|1 --workdir DIR [--spans FILE]
//           [--rounds N] [--tiny]
//
// Each layout has its own Database; all statements go through
// TenantSession. The layouts run round-robin in rounds of the same ops,
// and the first round of every layout is a warm-up that is not timed.
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, measured by spans the
// benchmark records around its calls into each layer (traced and
// untraced rounds alternate so the tracing overhead is measured too).
// --rounds fixes the number of measured rounds instead of the time
// budget, which makes every count repeat exactly for a seed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "core/basic_layout.h"
#include "core/chunk_folding_layout.h"
#include "core/chunk_layout.h"
#include "core/extension_layout.h"
#include "core/pivot_layout.h"
#include "core/private_layout.h"
#include "core/tenant_session.h"
#include "core/transformer.h"
#include "core/universal_layout.h"
#include "engine/database.h"
#include "opstream.h"
#include "spans.h"
#include "sql/parser.h"
#include "testbed/crm_schema.h"

namespace perfbench {
namespace {

using mtdb::Database;
using mtdb::DatabaseOptions;
using mtdb::QueryResult;
using mtdb::Row;
using mtdb::Status;
using mtdb::TypeId;
using mtdb::Value;
using mtdb::mapping::AppSchema;
using mtdb::mapping::SchemaMapping;
using mtdb::mapping::TenantSession;
using Clock = std::chrono::steady_clock;

constexpr const char* kLayouts[] = {"basic",     "private", "extension",
                                    "universal", "pivot",   "chunk",
                                    "vertical",  "chunkfolding"};
constexpr int kNumLayouts = 8;
/// Latency slot, after the op kinds, of a whole committed client
/// bracket: the summed latencies of its BEGIN, statements and COMMIT.
constexpr int kTxn = kOpKinds;

constexpr const char* kPointSql = "SELECT * FROM account WHERE id = ?";
constexpr const char* kNarrowSql =
    "SELECT name, status, amount FROM account WHERE id = ?";
constexpr const char* kJoinSql =
    "SELECT a.name, o.name, o.amount FROM account a JOIN opportunity o "
    "ON o.account_id = a.id WHERE a.id = ?";
constexpr const char* kReportSql =
    "SELECT status, COUNT(*), SUM(amount) FROM account GROUP BY status";
constexpr const char* kUpdateSql =
    "UPDATE account SET amount = ?, status = ? WHERE id = ?";
constexpr const char* kDeleteSql = "DELETE FROM account WHERE id = ?";

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Linear-interpolation quantile (0 for an empty sample).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Geometric mean of positive values; layout costs span 60x, so an
/// arithmetic mean would let the slowest layout dominate.
double GeoMean(const std::vector<double>& v) {
  double log_sum = 0.0;
  int n = 0;
  for (double x : v) {
    if (x <= 0.0) continue;
    log_sum += std::log(x);
    n++;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

// Every workload deals the Figure 6 action mix (CardKinds) and runs 20
// client brackets of 2-5 of those cards per round, so each round's
// transaction median has 18-20 samples. What sets the workloads apart is
// their data and their engine. The round sizes keep a round of all eight
// layouts under a second, so a 25 s run has about 30 rounds.
WorkloadConfig ConfigFor(const std::string& workload, bool tiny) {
  WorkloadConfig c;
  c.name = workload;
  if (workload == "oltp_hot") {
    // A handful of tenants whose data fits the pool.
    c.tenants = 6;
    c.accounts = 200;
    c.cards = 200;
    c.n_bracket = 20;
    c.memory_budget_bytes = 32ull << 20;
    // A set-up of all layouts takes under a second here; more repeats
    // spread the set-up over more of the host's changes of speed.
    c.setup_repeats = 7;
  } else if (workload == "pool_pressure") {
    // Hundreds of tenants, skewed, under a tight budget.
    c.tenants = 200;
    c.accounts = 16;
    c.hot_tenants = 8;
    c.hot_share = 0.6;
    c.cards = 200;
    c.n_bracket = 20;
    c.admission = true;
    c.memory_budget_bytes = 20ull << 20;
  } else if (workload == "durable_txn") {
    // Durable engine: 2 of the 20 brackets roll back.
    c.tenants = 6;
    c.accounts = 100;
    c.cards = 160;
    c.n_bracket = 20;
    c.n_rollback = 2;
    c.durable = true;
    c.memory_budget_bytes = 32ull << 20;
    c.checkpoint_interval_bytes = 4ull << 20;
  } else {
    c.tenants = 0;
  }
  if (tiny) {
    // Same mix, a quarter of each round, a few tenants and rows.
    c.cards /= 4;
    c.n_bracket = std::max(1, c.n_bracket / 4);
    c.n_rollback = std::min(c.n_rollback, 1);
    c.tenants = std::min(c.tenants, 6);
    c.hot_tenants = std::min(c.hot_tenants, 2);
    c.accounts = std::min(c.accounts, 30);
    c.max_rounds = 8;
    c.setup_repeats = 2;
    c.checkpoint_interval_bytes = 256ull << 10;
  }
  return c;
}

std::unique_ptr<SchemaMapping> MakeLayout(const std::string& name,
                                          Database* db, const AppSchema* app) {
  using namespace mtdb::mapping;  // NOLINT
  if (name == "basic") return std::make_unique<BasicLayout>(db, app);
  if (name == "private") return std::make_unique<PrivateTableLayout>(db, app);
  if (name == "extension") {
    return std::make_unique<ExtensionTableLayout>(db, app);
  }
  if (name == "universal") {
    return std::make_unique<UniversalTableLayout>(db, app);
  }
  if (name == "pivot") return std::make_unique<PivotTableLayout>(db, app);
  if (name == "chunk") return std::make_unique<ChunkTableLayout>(db, app);
  if (name == "vertical") {
    ChunkLayoutOptions options;
    options.fold = false;
    return std::make_unique<ChunkTableLayout>(db, app, options);
  }
  return std::make_unique<ChunkFoldingLayout>(db, app);
}

/// Extension a tenant enables on extension-capable layouts: a third get
/// healthcare, a third automotive, a third none.
const char* ExtensionOf(int32_t tenant) {
  switch (tenant % 3) {
    case 0:
      return "healthcare_account";
    case 1:
      return "automotive_account";
    default:
      return nullptr;
  }
}

struct ColumnSpec {
  std::string name;
  TypeId type;
};

/// Logical data: deterministic column values and their byte sizes.
class RowFactory {
 public:
  explicit RowFactory(const AppSchema& app) {
    for (const auto& c : app.FindTable("account")->columns) {
      account_.push_back({c.name, c.type});
    }
    for (const auto& c : app.FindTable("opportunity")->columns) {
      opportunity_.push_back({c.name, c.type});
    }
    for (const char* ext : {"healthcare_account", "automotive_account"}) {
      std::vector<ColumnSpec> cols;
      for (const auto& c : app.FindExtension(ext)->columns) {
        cols.push_back({c.name, c.type});
      }
      ext_[ext] = cols;
    }
  }

  size_t base_account_columns() const { return account_.size(); }

  /// Account columns of `tenant` on a layout (base, then extension).
  std::vector<ColumnSpec> AccountColumns(int32_t tenant,
                                         bool extensible) const {
    std::vector<ColumnSpec> cols = account_;
    const char* ext = extensible ? ExtensionOf(tenant) : nullptr;
    if (ext != nullptr) {
      const auto& e = ext_.at(ext);
      cols.insert(cols.end(), e.begin(), e.end());
    }
    return cols;
  }

  Row Account(const std::vector<ColumnSpec>& cols, int32_t tenant, int64_t id,
              int64_t amount, uint8_t status) const {
    Row row;
    row.reserve(cols.size());
    const uint64_t key = static_cast<uint64_t>(tenant) * 1000003u +
                         static_cast<uint64_t>(id);
    for (size_t i = 0; i < cols.size(); ++i) {
      const ColumnSpec& c = cols[i];
      if (c.name == "id") {
        row.push_back(Value::Int64(id));
      } else if (c.name == "campaign_id") {
        row.push_back(Value::Int64(1 + id % 10));
      } else if (c.name == "name") {
        row.push_back(Value::String("acct-" + std::to_string(id)));
      } else if (c.name == "status") {
        row.push_back(Value::String(kStatuses[status]));
      } else if (c.name == "amount") {
        row.push_back(Value::Double(static_cast<double>(amount)));
      } else {
        row.push_back(Filler(c.type, Mix(key, i)));
      }
    }
    return row;
  }

  Row Opportunity(int32_t tenant, int64_t id, int64_t account) const {
    Row row;
    row.reserve(opportunity_.size());
    const uint64_t key = static_cast<uint64_t>(tenant) * 7000001u +
                         static_cast<uint64_t>(id);
    for (size_t i = 0; i < opportunity_.size(); ++i) {
      const ColumnSpec& c = opportunity_[i];
      if (c.name == "id") {
        row.push_back(Value::Int64(id));
      } else if (c.name == "account_id") {
        row.push_back(Value::Int64(account));
      } else if (c.name == "name") {
        row.push_back(Value::String("opp-" + std::to_string(id)));
      } else if (c.name == "amount") {
        row.push_back(Value::Double(static_cast<double>(Mix(key, 99) % 5000)));
      } else {
        row.push_back(Filler(c.type, Mix(key, i)));
      }
    }
    return row;
  }

  static uint64_t Bytes(const Row& row) {
    uint64_t n = 0;
    for (const Value& v : row) n += ValueBytes(v);
    return n;
  }

  static uint64_t ValueBytes(const Value& v) {
    if (v.is_null()) return 0;
    switch (v.type()) {
      case TypeId::kBool:
        return 1;
      case TypeId::kInt32:
      case TypeId::kDate:
        return 4;
      case TypeId::kInt64:
      case TypeId::kDouble:
        return 8;
      case TypeId::kString:
        return v.AsString().size();
      default:
        return 0;
    }
  }

 private:
  static Value Filler(TypeId type, uint64_t h) {
    switch (type) {
      case TypeId::kBool:
        return Value::Bool((h & 1) != 0);
      case TypeId::kInt32:
        return Value::Int32(static_cast<int32_t>(h % 1000));
      case TypeId::kInt64:
        return Value::Int64(static_cast<int64_t>(h % 100000));
      case TypeId::kDouble:
        return Value::Double(static_cast<double>(h % 10000));
      case TypeId::kDate:
        return Value::Date(static_cast<int32_t>(18000 + h % 2000));
      case TypeId::kString: {
        std::string s(6 + h % 9, 'a');
        uint64_t x = h;
        for (char& ch : s) {
          ch = static_cast<char>('a' + x % 26);
          x = x / 26 + 0x9E37;
        }
        return Value::String(std::move(s));
      }
      default:
        return Value::Null(type);
    }
  }

  std::vector<ColumnSpec> account_;
  std::vector<ColumnSpec> opportunity_;
  std::map<std::string, std::vector<ColumnSpec>> ext_;
};

std::string InsertSql(const std::vector<ColumnSpec>& cols) {
  std::string names, marks;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) names += ", ", marks += ", ";
    names += cols[i].name;
    marks += "?";
  }
  return "INSERT INTO account (" + names + ") VALUES (" + marks + ")";
}

// ---------------------------------------------------------------------
// Result digests: order-insensitive hashes of a result set, compared
// across layouts for the same op.

uint64_t Fnv(const std::string& s, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Canonical(const Value& v) {
  if (v.is_null()) return "N";
  switch (v.type()) {
    case TypeId::kBool:
    case TypeId::kInt32:
    case TypeId::kInt64:
      return "#" + std::to_string(v.AsInt64());
    case TypeId::kDouble: {
      const double d = v.AsDouble();
      if (std::fabs(d) < 1e15 && d == std::floor(d)) {
        return "#" + std::to_string(static_cast<int64_t>(d));
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "#%.9g", d);
      return buf;
    }
    case TypeId::kDate:
      return "D" + std::to_string(v.AsInt64());
    case TypeId::kString:
      return "S" + v.AsString();
    default:
      return "?";
  }
}

struct Digest {
  uint64_t full = 0;
  uint64_t base = 0;
  int64_t rows = 0;
};

Digest DigestOf(const QueryResult& r, size_t base_columns) {
  Digest d;
  for (const Row& row : r.rows) {
    uint64_t full = 1469598103934665603ULL;
    uint64_t base = full;
    for (size_t i = 0; i < row.size(); ++i) {
      full = Fnv(Canonical(row[i]) + "|", full);
      if (i < base_columns) base = full;
    }
    d.full += Mix(full, 1);
    d.base += Mix(base, 1);
    d.rows++;
  }
  return d;
}

// ---------------------------------------------------------------------
// Per-layer counters, read straight from the engine and the layout.

struct Counters {
  uint64_t reads_data = 0, reads_index = 0, misses = 0, evictions = 0;
  uint64_t physical_reads = 0;
  uint64_t wal_bytes = 0, group_commits = 0, checkpoints = 0;
  uint64_t physical_stmts = 0, locks = 0;

  Counters& operator+=(const Counters& o) {
    reads_data += o.reads_data, reads_index += o.reads_index;
    misses += o.misses, evictions += o.evictions;
    physical_reads += o.physical_reads;
    wal_bytes += o.wal_bytes, group_commits += o.group_commits;
    checkpoints += o.checkpoints;
    physical_stmts += o.physical_stmts, locks += o.locks;
    return *this;
  }
  Counters operator-(const Counters& o) const {
    Counters d;
    d.reads_data = reads_data - o.reads_data;
    d.reads_index = reads_index - o.reads_index;
    d.misses = misses - o.misses;
    d.evictions = evictions - o.evictions;
    d.physical_reads = physical_reads - o.physical_reads;
    d.wal_bytes = wal_bytes - o.wal_bytes;
    d.group_commits = group_commits - o.group_commits;
    d.checkpoints = checkpoints - o.checkpoints;
    d.physical_stmts = physical_stmts - o.physical_stmts;
    d.locks = locks - o.locks;
    return d;
  }
};

/// Bytes the engine holds for a layout: every allocated page plus the
/// catalog's per-table metadata charge.
double StoredBytes(Database* db) {
  return static_cast<double>(db->page_store()->allocated_pages()) *
             mtdb::kDefaultPageSize +
         static_cast<double>(db->Stats().metadata_bytes);
}

Counters ReadCounters(Database* db, SchemaMapping* layout) {
  Counters c;
  const mtdb::EngineStats s = db->Stats();
  c.reads_data = s.buffer.logical_reads_data;
  c.reads_index = s.buffer.logical_reads_index;
  c.misses = s.buffer.misses();
  c.evictions = s.buffer.evictions;
  c.physical_reads = s.store.physical_reads;
  c.wal_bytes = s.durability.wal_bytes;
  c.group_commits = s.durability.group_commits;
  c.checkpoints = s.durability.checkpoints;
  c.physical_stmts = layout->stats().physical_statements.value();
  for (const auto& e : s.metrics.counters) {
    if (e.name.rfind("lock.acquired", 0) == 0) c.locks += e.value;
  }
  return c;
}

// ---------------------------------------------------------------------

struct LayoutRun {
  std::string name;
  bool extensible = true;
  std::string dir;  // durable engines only
  std::unique_ptr<Database> db;
  std::unique_ptr<SchemaMapping> layout;
  std::vector<TenantSession> sessions;  // by tenant
  std::vector<std::string> insert_sql;  // by tenant
  std::vector<std::vector<ColumnSpec>> insert_cols;

  // Untraced measured rounds.
  std::vector<double> lat[kTxn + 1];        // microseconds, every sample
  std::vector<double> round_lat[kTxn + 1];  // samples of the running round
  std::vector<double> round_p50[kTxn + 1];  // median of each round
  double txn_us = -1.0;  // busy time of the open bracket; < 0: none
  std::vector<double> round_rate;           // statements per busy second
  // Traced rounds (--trace 1).
  std::vector<double> traced_rate;
  /// One traced SELECT and its replay's phases, in microseconds.
  struct PhaseSample {
    int kind = 0;
    bool pool_hits_only = true;  // the statement missed no page
    double stmt = 0, parse = 0, transform = 0, plan = 0, query = 0;
  };
  std::vector<PhaseSample> phases;
  std::vector<double> admit_us;
  /// Writes that ran an automatic checkpoint: (op kind, latency us).
  std::vector<std::pair<int, double>> checkpointing_writes;

  Counters counted;  // deltas over counted (untraced measured) rounds
  uint64_t counted_stmts = 0, counted_writes = 0, counted_user_bytes = 0;
  uint64_t loaded_bytes = 0;  // logical bytes of the bulk load
  double recovery_ms = 0.0;

  // The end-to-end readings, named <op>_round_p50_p95_us and
  // stmt_per_s_round_p5. The host's speed changes from round to round,
  // and the share of slow rounds changes from run to run, so statistics
  // from the middle of the rounds spread most. The slowest rounds, at the
  // host's contended speed, occur in every run (see README.md).
  /// Median latency of op kind `k` within a round, at its 95th
  /// percentile over the rounds.
  double P50(int k) const { return Quantile(round_p50[k], 0.95); }
  /// Statements per busy second, at the 5th percentile over the rounds.
  double Rate() const { return Quantile(round_rate, 0.05); }
  double TracedRate() const { return Quantile(traced_rate, 0.05); }

  void Close() {
    sessions.clear();
    layout.reset();
    db.reset();
  }
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few, for stderr

  void Fail(const std::string& what) {
    failed++;
    if (errors.size() < 20) errors.push_back(what);
  }
};

class Bench {
 public:
  Bench(WorkloadConfig cfg, uint64_t seed, double seconds, int fixed_rounds,
        bool trace, std::string workdir)
      : cfg_(std::move(cfg)),
        seed_(seed),
        seconds_(seconds),
        fixed_rounds_(fixed_rounds),
        trace_(trace),
        workdir_(std::move(workdir)),
        app_(mtdb::testbed::BuildCrmAppSchema()),
        rows_(app_) {}

  int Run(const std::string& spans_path);

 private:
  Status Setup();
  Status SetupLayout(LayoutRun* run, const std::string& name);
  Status OpenEngine(LayoutRun* run, bool fresh);
  void RunRound(LayoutRun* run, int round, bool measured, bool traced);
  void RunOp(LayoutRun* run, const Op& op, size_t index, bool record,
             bool traced, double* busy_us);
  /// A traced SELECT whose physical statement is replayed phase by phase
  /// once the next op has run.
  struct PendingReplay {
    Op op;
    size_t index = 0;  // position in the round
    const char* sql = nullptr;
    std::vector<Value> params;
    Digest expect;
    uint32_t stmt_id = 0;
    double stmt_us = 0.0;
    uint64_t pool_misses = 0;  // of the statement itself
    bool check = false;  // no later write of the round touched the tenant
  };
  void Replay(LayoutRun* run, const PendingReplay& r);
  void CheckReport(LayoutRun* run, int32_t tenant, const Shadow& expect,
                   const char* when);
  void FinalChecks(int rounds_done);
  void ReopenAndCheck(int rounds_done);
  void PrintEndToEnd();
  void PrintPerLayer();
  void PrintTable();

  const WorkloadConfig cfg_;
  const uint64_t seed_;
  const double seconds_;
  const int fixed_rounds_;
  const bool trace_;
  const std::string workdir_;
  AppSchema app_;
  RowFactory rows_;
  OpStream stream_;
  std::vector<LayoutRun> runs_;
  Outcome out_;
  SpanLog spans_;
  double setup_s_ = 0.0;
  double stored_ratio_ = 0.0;
  int rounds_done_ = 0;
  // Reference digests of the current round: basic gives the base-column
  // digest, private (the first extension-capable layout) the full one.
  std::vector<Digest> ref_base_, ref_full_;
  uint32_t next_stmt_ = 0;
  std::unique_ptr<PendingReplay> replay_;  // set by RunOp for a traced SELECT
};

Status Bench::OpenEngine(LayoutRun* run, bool fresh) {
  DatabaseOptions options;
  options.engine.memory_budget_bytes = cfg_.memory_budget_bytes;
  options.engine.read_latency_ns = 0;
  options.engine.checkpoint_interval_bytes = cfg_.checkpoint_interval_bytes;
  options.admission.enabled = cfg_.admission;
  options.admission.tenant_rate = 0.0;
  options.admission.max_in_flight = 0;
  options.row_locks = true;
  if (cfg_.durable) options.path = run->dir;
  auto opened = Database::Open(options);
  if (!opened.ok()) return opened.status();
  run->db = std::move(*opened);
  run->layout = MakeLayout(run->name, run->db.get(), &app_);
  MTDB_RETURN_IF_ERROR(fresh ? run->layout->Bootstrap()
                             : run->layout->Recover());
  run->sessions.clear();
  for (int32_t t = 0; t < cfg_.tenants; ++t) {
    run->sessions.push_back(run->layout->OpenSession(t));
  }
  return Status::OK();
}

Status Bench::SetupLayout(LayoutRun* run, const std::string& name) {
  run->name = name;
  run->extensible = name != "basic";
  if (cfg_.durable) {
    run->dir = workdir_ + "/" + name;
    std::filesystem::remove_all(run->dir);
    std::filesystem::create_directories(run->dir);
  }
  MTDB_RETURN_IF_ERROR(OpenEngine(run, /*fresh=*/true));
  SchemaMapping* layout = run->layout.get();
  uint64_t bytes = 0;
  run->insert_sql.clear();
  run->insert_cols.clear();
  for (int32_t t = 0; t < cfg_.tenants; ++t) {
    MTDB_RETURN_IF_ERROR(layout->CreateTenant(t));
    const char* ext = run->extensible ? ExtensionOf(t) : nullptr;
    if (ext != nullptr) MTDB_RETURN_IF_ERROR(layout->EnableExtension(t, ext));
    TenantSession& s = run->sessions[static_cast<size_t>(t)];
    std::vector<ColumnSpec> cols = rows_.AccountColumns(t, run->extensible);
    run->insert_sql.push_back(InsertSql(cols));
    for (int64_t id = 1; id <= cfg_.accounts; ++id) {
      Row row = rows_.Account(cols, t, id, LoadedAmount(t, id),
                              LoadedStatus(t, id));
      bytes += RowFactory::Bytes(row);
      MTDB_RETURN_IF_ERROR(s.InsertRow("account", row).status());
      for (int k = 0; k < cfg_.opps_per_account; ++k) {
        Row opp = rows_.Opportunity(t, id * cfg_.opps_per_account + k, id);
        bytes += RowFactory::Bytes(opp);
        MTDB_RETURN_IF_ERROR(s.InsertRow("opportunity", opp).status());
      }
    }
    run->insert_cols.push_back(std::move(cols));
  }
  if (cfg_.durable) MTDB_RETURN_IF_ERROR(run->db->Checkpoint());
  run->loaded_bytes = bytes;
  return Status::OK();
}

/// Sets every layout up setup_repeats times and keeps the last set-up.
/// The repeats are interleaved across the layouts, so a slow stretch of
/// the host reaches one repeat of several layouts rather than every
/// repeat of one. Like the rounds, each layout is read at its slow end:
/// its slowest set-up is its reading, and setup_s is their sum.
Status Bench::Setup() {
  runs_.resize(kNumLayouts);
  std::vector<double> slowest(kNumLayouts, 0.0);
  for (int repeat = 0; repeat < cfg_.setup_repeats; ++repeat) {
    for (int i = 0; i < kNumLayouts; ++i) {
      LayoutRun& run = runs_[static_cast<size_t>(i)];
      run.Close();
      const auto t0 = Clock::now();
      Status st = SetupLayout(&run, kLayouts[i]);
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      if (!st.ok()) {
        return Status(st.code(), std::string(kLayouts[i]) + " setup: " +
                                     st.message());
      }
      double& worst = slowest[static_cast<size_t>(i)];
      worst = std::max(worst, s);
    }
  }
  setup_s_ = 0.0;
  for (double s : slowest) setup_s_ += s;
  return Status::OK();
}

void Bench::CheckReport(LayoutRun* run, int32_t tenant, const Shadow& expect,
                        const char* when) {
  auto r = run->sessions[static_cast<size_t>(tenant)].Query(kReportSql);
  out_.attempted++;
  if (!r.ok()) {
    out_.Fail(run->name + " " + when + " report: " + r.status().ToString());
    return;
  }
  Shadow got;
  for (const Row& row : r->rows) {
    got.count += row[1].AsInt64();
    got.sum += static_cast<int64_t>(std::llround(row[2].is_null()
                                                      ? 0.0
                                                      : row[2].AsDouble()));
  }
  if (got.count != expect.count || got.sum != expect.sum) {
    out_.Fail(run->name + " " + when + " shadow mismatch tenant " +
              std::to_string(tenant) + ": count " + std::to_string(got.count) +
              " vs " + std::to_string(expect.count) + ", sum " +
              std::to_string(got.sum) + " vs " + std::to_string(expect.sum));
  }
}

void Bench::Replay(LayoutRun* run, const PendingReplay& r) {
  const int k = static_cast<int>(r.op.kind);
  const uint32_t id = r.stmt_id;
  const int root = spans_.Open("replay", run->name, OpName(r.op.kind), -1, id);
  const auto t0 = Clock::now();
  auto parsed = mtdb::sql::ParseSelect(r.sql);
  const auto t1 = Clock::now();
  spans_.Add("sql::Parse", root, id, t0, t1);
  if (!parsed.ok()) {
    out_.Fail(run->name + " replay parse: " + parsed.status().ToString());
    spans_.Close(root);
    return;
  }
  mtdb::mapping::QueryTransformer transformer(
      run->layout.get(), run->layout->transform_options());
  auto physical = transformer.TransformSelect(r.op.tenant, **parsed);
  const auto t2 = Clock::now();
  spans_.Add("QueryTransformer::TransformSelect", root, id, t1, t2);
  if (!physical.ok()) {
    out_.Fail(run->name + " replay transform: " +
              physical.status().ToString());
    spans_.Close(root);
    return;
  }
  // QueryAst (plan + execute) runs before ExplainAst (plan only), so it
  // is timed as cold as the real statement's; planning again afterwards
  // only splits its time into plan and execute.
  auto result = run->db->QueryAst(**physical, r.params);
  const auto t3 = Clock::now();
  spans_.Add("Database::QueryAst", root, id, t2, t3);
  auto plan = run->db->ExplainAst(**physical);
  const auto t4 = Clock::now();
  spans_.Add("Database::ExplainAst", root, id, t3, t4);
  spans_.Close(root);
  if (!plan.ok() || !result.ok()) {
    out_.Fail(run->name + " replay execute: " +
              (plan.ok() ? result.status() : plan.status()).ToString());
    return;
  }
  const Digest got = DigestOf(*result, rows_.base_account_columns());
  if (r.check && (got.full != r.expect.full || got.rows != r.expect.rows)) {
    out_.Fail(run->name + " replay of " + OpName(r.op.kind) +
              " returned a different result");
    return;
  }
  const double parse = Micros(t1 - t0), transform = Micros(t2 - t1),
               query = Micros(t3 - t2), planned = Micros(t4 - t3);
  run->phases.push_back(
      {k, r.pool_misses == 0, r.stmt_us, parse, transform, planned, query});
}

void Bench::RunOp(LayoutRun* run, const Op& op, size_t index, bool record,
                  bool traced, double* busy_us) {
  TenantSession& s = run->sessions[static_cast<size_t>(op.tenant)];
  const int k = static_cast<int>(op.kind);
  const uint32_t stmt_id = next_stmt_++;
  out_.attempted++;
  std::vector<Value> params;
  const char* select_sql = nullptr;
  switch (op.kind) {
    case OpKind::kPoint:
      select_sql = kPointSql;
      params = {Value::Int64(op.id)};
      break;
    case OpKind::kNarrow:
      select_sql = kNarrowSql;
      params = {Value::Int64(op.id)};
      break;
    case OpKind::kJoin:
      select_sql = kJoinSql;
      params = {Value::Int64(op.id)};
      break;
    case OpKind::kReport:
      select_sql = kReportSql;
      break;
    case OpKind::kInsert:
      params = rows_.Account(run->insert_cols[static_cast<size_t>(op.tenant)],
                             op.tenant, op.id, op.amount, op.status);
      break;
    case OpKind::kUpdate:
      params = {Value::Double(static_cast<double>(op.amount)),
                Value::String(kStatuses[op.status]), Value::Int64(op.id)};
      break;
    case OpKind::kDelete:
      params = {Value::Int64(op.id)};
      break;
    default:
      break;
  }

  // Checkpoint attribution reads engine stats around the write, so only
  // the traced run (which reports the stall) pays for it.
  const bool watch_checkpoint =
      trace_ && record && cfg_.durable && IsWrite(op.kind);
  const uint64_t ckpt_before =
      watch_checkpoint ? run->db->Stats().durability.checkpoints : 0;
  Status st;
  QueryResult result;
  int64_t affected = -1;
  const char* api = "TenantSession::Execute";
  const auto t0 = Clock::now();
  if (select_sql != nullptr) {
    api = "TenantSession::Query";
    auto r = s.Query(select_sql, params);
    if (r.ok()) {
      result = std::move(*r);
    } else {
      st = r.status();
    }
  } else if (op.kind == OpKind::kBegin) {
    api = "TenantSession::Begin";
    st = s.Begin();
  } else if (op.kind == OpKind::kCommit) {
    api = "TenantSession::Commit";
    st = s.Commit();
  } else if (op.kind == OpKind::kRollback) {
    api = "TenantSession::Rollback";
    st = s.Rollback();
  } else {
    const std::string& sql =
        op.kind == OpKind::kInsert
            ? run->insert_sql[static_cast<size_t>(op.tenant)]
            : std::string(op.kind == OpKind::kUpdate ? kUpdateSql
                                                     : kDeleteSql);
    auto r = s.Execute(sql, params);
    if (r.ok()) {
      affected = *r;
    } else {
      st = r.status();
    }
  }
  const auto t1 = Clock::now();
  const double us = Micros(t1 - t0);
  *busy_us += us;

  if (!st.ok()) {
    out_.Fail(run->name + " " + OpName(op.kind) + " tenant " +
              std::to_string(op.tenant) + ": " + st.ToString());
    if (op.kind == OpKind::kCommit && s.in_transaction()) (void)s.Rollback();
    run->txn_us = -1.0;
    return;
  }
  if (op.kind == OpKind::kBegin) run->txn_us = 0.0;
  if (run->txn_us >= 0.0) run->txn_us += us;
  if (op.kind == OpKind::kCommit || op.kind == OpKind::kRollback) {
    if (record && op.kind == OpKind::kCommit) {
      run->lat[kTxn].push_back(run->txn_us);
      run->round_lat[kTxn].push_back(run->txn_us);
    }
    run->txn_us = -1.0;
  }
  if (record) {
    run->lat[k].push_back(us);
    run->round_lat[k].push_back(us);
    // A write that paid for an automatic checkpoint; its excess over the
    // op's median is charged once the medians are known.
    if (watch_checkpoint &&
        run->db->Stats().durability.checkpoints != ckpt_before) {
      run->checkpointing_writes.emplace_back(k, us);
    }
  }

  if (traced) {
    const int root = spans_.Open(api, run->name, OpName(op.kind), -1, stmt_id);
    spans_.SetTimes(root, t0, t1);
    // Begin/Commit/Rollback leave no statement trace of their own.
    const auto* last = s.tracer()->last();
    if ((select_sql != nullptr || IsWrite(op.kind)) && last != nullptr &&
        last->root != nullptr) {
      spans_.AddTree(*last->root, root, stmt_id, t0, &run->admit_us);
    }
    spans_.Close(root);
  }

  if (IsWrite(op.kind)) {
    if (affected != 1) {
      out_.Fail(run->name + " " + OpName(op.kind) + " id " +
                std::to_string(op.id) + " affected " +
                std::to_string(affected) + " rows, expected 1");
    }
    if (op.kind == OpKind::kInsert) {
      run->counted_user_bytes += RowFactory::Bytes(params);
    } else if (op.kind == OpKind::kUpdate) {
      // The new amount and status; the id only locates the row.
      run->counted_user_bytes += 8 + std::strlen(kStatuses[op.status]);
    }
    return;
  }
  if (select_sql == nullptr) return;

  // Row counts the logical data fixes, then the cross-layout digests.
  const size_t base_cols = op.kind == OpKind::kPoint
                               ? rows_.base_account_columns()
                               : result.columns.size();
  const Digest d = DigestOf(result, base_cols);
  const int64_t want_rows = op.kind == OpKind::kJoin ? cfg_.opps_per_account
                            : op.kind == OpKind::kReport ? -1
                                                         : 1;
  if (want_rows >= 0 && d.rows != want_rows) {
    out_.Fail(run->name + " " + OpName(op.kind) + " id " +
              std::to_string(op.id) + " returned " + std::to_string(d.rows) +
              " rows, expected " + std::to_string(want_rows));
  }
  if (run->name == "basic") {
    ref_base_[index] = d;
  } else {
    if (ref_base_[index].base != d.base) {
      out_.Fail(run->name + " " + OpName(op.kind) +
                " base columns differ from basic");
    }
    if (run->name == "private") {
      ref_full_[index] = d;
    } else if (ref_full_[index].full != d.full) {
      out_.Fail(run->name + " " + OpName(op.kind) + " differs from private");
    }
  }
  if (traced) {
    replay_ = std::make_unique<PendingReplay>();
    replay_->op = op;
    replay_->index = index;
    replay_->sql = select_sql;
    replay_->params = std::move(params);
    replay_->expect = d;
    replay_->stmt_id = stmt_id;
    replay_->stmt_us = us;
    const auto* last = s.tracer()->last();
    if (last != nullptr && last->root != nullptr) {
      replay_->pool_misses = last->root->TotalIo().pool_misses;
    }
  }
}

void Bench::RunRound(LayoutRun* run, int round, bool measured, bool traced) {
  const std::vector<Op>& ops = stream_.rounds[static_cast<size_t>(round)];
  const bool counted = measured && !traced;
  Counters before;
  if (counted) before = ReadCounters(run->db.get(), run->layout.get());
  // A traced run also traces its warm-up round, so the engine tracer's
  // per-series setup is paid before any traced round is measured.
  const bool tracer_on = traced || (trace_ && !measured);
  for (TenantSession& s : run->sessions) s.EnableTracing(tracer_on);
  double busy_us = 0.0;
  uint64_t writes = 0;
  // Ops that changed a tenant's rows, by tenant: 1 + the op's index.
  std::vector<size_t> last_write(static_cast<size_t>(cfg_.tenants), 0);
  // Each traced SELECT is replayed after the next op has run: never
  // before its own statement (so it cannot warm the pool for it), and
  // with other work in between, so the replay starts from caches about
  // as cold as the statement did. It must match the statement's result
  // unless that op changed the tenant's rows.
  std::unique_ptr<PendingReplay> waiting;
  auto replay_waiting = [&] {
    if (!waiting) return;
    waiting->check =
        last_write[static_cast<size_t>(waiting->op.tenant)] <= waiting->index;
    Replay(run, *waiting);
    waiting.reset();
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (IsWrite(op.kind)) writes++;
    if (IsWrite(op.kind) || op.kind == OpKind::kRollback) {
      last_write[static_cast<size_t>(op.tenant)] = i + 1;
    }
    RunOp(run, op, i, measured && !traced, traced, &busy_us);
    replay_waiting();
    waiting = std::move(replay_);
  }
  replay_waiting();
  if (counted) {
    run->counted += ReadCounters(run->db.get(), run->layout.get()) - before;
    run->counted_stmts += ops.size();
    run->counted_writes += writes;
  }
  for (TenantSession& s : run->sessions) s.EnableTracing(false);
  if (measured) {
    const double rate = static_cast<double>(ops.size()) / (busy_us / 1e6);
    (traced ? run->traced_rate : run->round_rate).push_back(rate);
  }
  for (int k = 0; k <= kTxn; ++k) {
    if (run->round_lat[k].empty()) continue;
    run->round_p50[k].push_back(Median(run->round_lat[k]));
    run->round_lat[k].clear();
  }
  const int32_t t = stream_.check_tenant[static_cast<size_t>(round)];
  CheckReport(run, t,
              stream_.after_round[static_cast<size_t>(round)]
                                 [static_cast<size_t>(t)],
              "round-end");
}

void Bench::FinalChecks(int rounds_done) {
  const auto& shadow =
      stream_.after_round[static_cast<size_t>(rounds_done - 1)];
  for (LayoutRun& run : runs_) {
    for (int32_t t = 0; t < cfg_.tenants; ++t) {
      CheckReport(&run, t, shadow[static_cast<size_t>(t)], "final");
    }
  }
}

void Bench::ReopenAndCheck(int rounds_done) {
  for (LayoutRun& run : runs_) {
    run.Close();
    const auto t0 = Clock::now();
    Status st = OpenEngine(&run, /*fresh=*/false);
    run.recovery_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    out_.attempted++;
    if (!st.ok()) {
      out_.Fail(run.name + " reopen: " + st.ToString());
      continue;
    }
    // Committed brackets are present (until their paired delete ran);
    // rolled-back ones are absent.
    for (const BracketInsert& bi : stream_.bracket_inserts) {
      if (bi.round >= rounds_done) continue;
      const bool deleted =
          bi.delete_round >= 0 && bi.delete_round < rounds_done;
      const int64_t want = bi.committed && !deleted ? 1 : 0;
      auto r = run.sessions[static_cast<size_t>(bi.tenant)].Query(
          kNarrowSql, {Value::Int64(bi.id)});
      out_.attempted++;
      if (!r.ok() || static_cast<int64_t>(r->rows.size()) != want) {
        out_.Fail(run.name + " after reopen: bracket insert " +
                  std::to_string(bi.id) + " of tenant " +
                  std::to_string(bi.tenant) +
                  (bi.committed ? " (committed)" : " (rolled back)") +
                  " has wrong presence");
      }
    }
  }
  FinalChecks(rounds_done);
}

int Bench::Run(const std::string& spans_path) {
  if (cfg_.tenants <= 0) {
    std::fprintf(stderr, "unknown workload %s\n", cfg_.name.c_str());
    return 2;
  }
  stream_ = Generate(cfg_, seed_);
  if (cfg_.durable) {
    std::filesystem::remove_all(workdir_);
    std::filesystem::create_directories(workdir_);
    std::fprintf(stderr, "WAL and checkpoint directory: %s\n",
                 workdir_.c_str());
  }
  if (Status st = Setup(); !st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  {
    std::vector<double> ratios;
    for (LayoutRun& run : runs_) {
      ratios.push_back(StoredBytes(run.db.get()) /
                       static_cast<double>(run.loaded_bytes));
    }
    stored_ratio_ = GeoMean(ratios);
  }

  const int max_rounds = static_cast<int>(stream_.rounds.size());
  const auto start = Clock::now();
  int round = 0;
  for (; round < max_rounds; ++round) {
    const bool warmup = round == 0;
    if (!warmup) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (fixed_rounds_ > 0 ? round > fixed_rounds_ : elapsed >= seconds_) {
        break;
      }
    }
    // Traced and untraced rounds alternate in a traced run.
    const bool traced = trace_ && !warmup && round % 2 == 1;
    ref_base_.assign(stream_.rounds[static_cast<size_t>(round)].size(),
                     Digest{});
    ref_full_.assign(ref_base_.size(), Digest{});
    for (LayoutRun& run : runs_) RunRound(&run, round, !warmup, traced);
  }
  rounds_done_ = round;
  if (cfg_.durable) {
    ReopenAndCheck(rounds_done_);
  } else {
    FinalChecks(rounds_done_);
  }

  PrintTable();
  if (trace_) {
    if (!spans_path.empty() && !spans_.Write(spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
      return 1;
    }
    PrintPerLayer();
  } else {
    PrintEndToEnd();
  }
  for (const std::string& e : out_.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  for (LayoutRun& run : runs_) run.Close();
  if (cfg_.durable) std::filesystem::remove_all(workdir_);
  return 0;
}

// ---------------------------------------------------------------------
// Output.

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
    std::fprintf(stderr, "  %-44s %14s %s\n", name.c_str(), buf, unit);
  }
  std::string Line(bool correct, uint64_t attempted, uint64_t failed) const {
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
           body_ + "}}";
  }

 private:
  std::string body_;
};

long PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void Bench::PrintTable() {
  std::printf("workload %s seed %llu: %d measured rounds of ~%zu ops per layout"
              " (plus 1 warm-up), %s\n",
              cfg_.name.c_str(), static_cast<unsigned long long>(seed_),
              rounds_done_ - 1, stream_.rounds.back().size(),
              trace_ ? "traced and untraced rounds alternating" : "untraced");
  std::printf("%-13s %10s", "layout", "stmt/s");
  for (int k = 0; k <= static_cast<int>(OpKind::kDelete); ++k) {
    std::printf(" %13s", OpName(static_cast<OpKind>(k)));
  }
  std::printf(" %9s %10s %8s %8s %6s\n", "commit", "txn", "pages_MB",
              "meta_MB", "tables");
  for (LayoutRun& run : runs_) {
    std::printf("%-13s %10.0f", run.name.c_str(), run.Rate());
    for (int k = 0; k <= static_cast<int>(OpKind::kDelete); ++k) {
      std::printf(" %11.1fus", run.P50(k));
    }
    const mtdb::EngineStats st = run.db->Stats();
    std::printf(" %7.1fus %8.1fus %8.2f %8.2f %6zu\n",
                run.P50(static_cast<int>(OpKind::kCommit)), run.P50(kTxn),
                static_cast<double>(run.db->page_store()->allocated_pages()) *
                    mtdb::kDefaultPageSize / 1048576.0,
                static_cast<double>(st.metadata_bytes) / 1048576.0, st.tables);
  }
  uint64_t fingerprint = 0;
  for (const std::vector<Op>& ops : stream_.rounds) {
    for (const Op& op : ops) {
      const uint64_t what = (static_cast<uint64_t>(op.kind) << 56) ^
                            (static_cast<uint64_t>(op.tenant) << 40) ^
                            static_cast<uint64_t>(op.id);
      fingerprint = Mix(fingerprint, what);
      fingerprint =
          Mix(fingerprint, static_cast<uint64_t>(op.amount) * 8 + op.status);
    }
  }
  std::printf("op stream fingerprint: %016llx\n",
              static_cast<unsigned long long>(fingerprint));
  std::printf("(stmt/s: 5th percentile over rounds; latencies: per-round "
              "median at its 95th percentile over rounds; checks: %llu "
              "attempted, %llu failed)\n",
              static_cast<unsigned long long>(out_.attempted),
              static_cast<unsigned long long>(out_.failed));
}

void Bench::PrintEndToEnd() {
  MetricsJson m;
  std::vector<double> rates;
  for (LayoutRun& run : runs_) rates.push_back(run.Rate());
  m.Add("stmt_per_s_round_p5", GeoMean(rates), "1/s");
  const std::pair<int, const char*> kLatencies[] = {
      {static_cast<int>(OpKind::kPoint), "point_select_round_p50_p95_us"},
      {static_cast<int>(OpKind::kNarrow), "narrow_select_round_p50_p95_us"},
      {static_cast<int>(OpKind::kJoin), "join_select_round_p50_p95_us"},
      {static_cast<int>(OpKind::kReport), "report_round_p50_p95_us"},
      {static_cast<int>(OpKind::kInsert), "insert_round_p50_p95_us"},
      {static_cast<int>(OpKind::kUpdate), "update_round_p50_p95_us"},
      {static_cast<int>(OpKind::kDelete), "delete_round_p50_p95_us"},
      {kTxn, "txn_round_p50_p95_us"},
  };
  for (const auto& [k, name] : kLatencies) {
    std::vector<double> medians;
    for (LayoutRun& run : runs_) medians.push_back(run.P50(k));
    m.Add(name, GeoMean(medians), "us");
  }
  m.Add("setup_s", setup_s_, "s");
  m.Add("stored_bytes_per_user_byte", stored_ratio_, "ratio");
  m.Add("peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB");
  std::printf("%s\n", m.Line(out_.failed == 0, out_.attempted, out_.failed)
                          .c_str());
}

void Bench::PrintPerLayer() {
  MetricsJson m;
  using Sample = LayoutRun::PhaseSample;
  // Median of `get` over a layout's replays; `kind` < 0 takes every kind.
  // The replay runs on a warm pool, so sums against the statement use
  // only statements the pool fully served.
  auto phase_median = [](const LayoutRun& run, double (*get)(const Sample&),
                         int kind = -1, bool hits_only = false) {
    std::vector<double> v;
    for (const Sample& p : run.phases) {
      if ((kind < 0 || p.kind == kind) && (!hits_only || p.pool_hits_only)) {
        v.push_back(get(p));
      }
    }
    return std::make_pair(Median(v), v.size());
  };
  const auto stmt = [](const Sample& p) { return p.stmt; };
  const auto parse = [](const Sample& p) { return p.parse; };
  const auto transform = [](const Sample& p) { return p.transform; };
  const auto plan = [](const Sample& p) { return p.plan; };
  const auto execute = [](const Sample& p) { return p.query - p.plan; };
  const auto residual = [](const Sample& p) {
    return p.stmt - (p.parse + p.transform + p.query);
  };

  // sql: parsing does not depend on the layout.
  std::vector<double> parses;
  for (LayoutRun& run : runs_) {
    for (const Sample& p : run.phases) parses.push_back(p.parse);
  }
  m.Add("sql.parse_us", Median(parses), "us");

  // Per-layout phases of the SELECT path, and the phase-sum check: for
  // every layout and SELECT kind, parse + transform + plan + execute
  // medians must add up to the statement median within 35%, plus 15 us
  // of fixed session work (admission, latches, breaker, heat, tracer)
  // that dominates the cheapest statements.
  std::vector<double> residuals;
  Counters total;
  uint64_t total_stmts = 0, total_writes = 0, total_user_bytes = 0;
  double max_meta_share = 0.0;
  uint64_t tables = 0;
  std::vector<double> footprint;
  for (LayoutRun& run : runs_) {
    const std::string& L = run.name;
    m.Add("core." + L + ".transform_us", phase_median(run, transform).first,
          "us");
    m.Add("engine." + L + ".plan_us", phase_median(run, plan).first, "us");
    m.Add("exec." + L + ".execute_us", phase_median(run, execute).first, "us");
    m.Add("core." + L + ".stmt_p50_us", phase_median(run, stmt).first, "us");
    const auto [unattributed, n] = phase_median(run, residual, -1, true);
    if (n > 0) residuals.push_back(unattributed);
    for (int k = 0; k < kOpKinds; ++k) {
      const auto [stmt_p50, samples] = phase_median(run, stmt, k, true);
      if (samples < 30) continue;
      const double sum = phase_median(run, parse, k, true).first +
                         phase_median(run, transform, k, true).first +
                         phase_median(run, plan, k, true).first +
                         phase_median(run, execute, k, true).first;
      if (std::fabs(stmt_p50 - sum) > 0.35 * stmt_p50 + 15.0) {
        out_.Fail(L + " " + OpName(static_cast<OpKind>(k)) +
                  ": phase medians sum to " + std::to_string(sum) +
                  " us but the statement median is " +
                  std::to_string(stmt_p50) + " us");
      }
    }
    const Counters& c = run.counted;
    const double stmts =
        static_cast<double>(std::max<uint64_t>(1, run.counted_stmts));
    m.Add("core." + L + ".physical_stmts_per_stmt",
          static_cast<double>(c.physical_stmts) / stmts, "count");
    m.Add("storage." + L + ".pages_per_stmt",
          static_cast<double>(c.reads_data + c.reads_index) / stmts, "count");
    const double reads = static_cast<double>(c.reads_data + c.reads_index);
    m.Add("storage." + L + ".pool_miss_ratio",
          reads == 0 ? 0.0 : static_cast<double>(c.misses) / reads, "ratio");
    total += c;
    total_stmts += run.counted_stmts;
    total_writes += run.counted_writes;
    total_user_bytes += run.counted_user_bytes;
    const mtdb::EngineStats s = run.db->Stats();
    const auto budget = static_cast<double>(cfg_.memory_budget_bytes);
    tables += s.tables;
    max_meta_share = std::max(
        max_meta_share, static_cast<double>(s.metadata_bytes) / budget);
    footprint.push_back(StoredBytes(run.db.get()) / budget);
  }
  m.Add("session.unattributed_us", Median(residuals), "us");

  const double stmts = static_cast<double>(std::max<uint64_t>(1, total_stmts));
  std::vector<double> admit;
  for (LayoutRun& run : runs_) {
    admit.insert(admit.end(), run.admit_us.begin(), run.admit_us.end());
  }
  m.Add("engine.admit_us", Median(admit), "us");
  m.Add("engine.locks_per_write",
        static_cast<double>(total.locks) /
            static_cast<double>(std::max<uint64_t>(1, total_writes)),
        "count");
  std::vector<double> commits, rollbacks;
  for (LayoutRun& run : runs_) {
    const auto& c = run.lat[static_cast<int>(OpKind::kCommit)];
    if (!c.empty()) commits.push_back(Median(c));
    const auto& v = run.lat[static_cast<int>(OpKind::kRollback)];
    if (!v.empty()) rollbacks.push_back(Median(v));
  }
  m.Add("session.commit_p50_us", GeoMean(commits), "us");
  m.Add("engine.rollback_us", GeoMean(rollbacks), "us");
  m.Add("index.pages_per_stmt", static_cast<double>(total.reads_index) / stmts,
        "count");
  m.Add("storage.physical_reads_per_stmt",
        static_cast<double>(total.physical_reads) / stmts, "count");
  m.Add("storage.evictions_per_stmt",
        static_cast<double>(total.evictions) / stmts, "count");
  m.Add("storage.footprint_to_budget", GeoMean(footprint), "ratio");
  m.Add("catalog.tables", static_cast<double>(tables), "count");
  m.Add("catalog.metadata_share", max_meta_share, "ratio");
  m.Add("storage.wal_bytes_per_user_byte",
        total_user_bytes == 0 ? 0.0
                              : static_cast<double>(total.wal_bytes) /
                                    static_cast<double>(total_user_bytes),
        "ratio");
  m.Add("storage.group_commits_per_stmt",
        static_cast<double>(total.group_commits) / stmts, "count");
  m.Add("storage.checkpoints_per_stmt",
        static_cast<double>(total.checkpoints) / stmts, "count");
  // Checkpoint stall: a write that ran an automatic checkpoint, minus the
  // median of its op kind on that layout, averaged over those writes.
  double stall_sum = 0.0;
  int stalls = 0;
  std::vector<double> recovery;
  for (LayoutRun& run : runs_) {
    for (const auto& [k, us] : run.checkpointing_writes) {
      stall_sum += us - Median(run.lat[k]);
      stalls++;
    }
    if (cfg_.durable) recovery.push_back(run.recovery_ms);
  }
  m.Add("storage.checkpoint_stall_ms",
        stalls == 0 ? 0.0 : stall_sum / stalls / 1000.0, "ms");
  m.Add("storage.recovery_ms", Median(recovery), "ms");

  const std::pair<OpKind, const char*> kTails[] = {
      {OpKind::kPoint, "session.point_select_p99_us"},
      {OpKind::kNarrow, "session.narrow_select_p99_us"},
      {OpKind::kJoin, "session.join_select_p99_us"},
      {OpKind::kReport, "session.report_p99_us"},
      {OpKind::kInsert, "session.insert_p99_us"},
      {OpKind::kUpdate, "session.update_p99_us"},
      {OpKind::kDelete, "session.delete_p99_us"},
      {OpKind::kCommit, "session.commit_p99_us"},
  };
  for (const auto& [kind, name] : kTails) {
    std::vector<double> p99;
    for (LayoutRun& run : runs_) {
      p99.push_back(Quantile(run.lat[static_cast<int>(kind)], 0.99));
    }
    m.Add(name, GeoMean(p99), "us");
  }
  std::vector<double> untraced, traced;
  for (LayoutRun& run : runs_) {
    untraced.push_back(run.Rate());
    traced.push_back(run.TracedRate());
  }
  const double tr = GeoMean(traced);
  m.Add("trace.overhead_pct",
        tr == 0.0 ? 0.0 : (GeoMean(untraced) / tr - 1.0) * 100.0, "%");
  std::printf("%s\n", m.Line(out_.failed == 0, out_.attempted, out_.failed)
                          .c_str());
}

int Main(int argc, char** argv) {
  std::string workload, workdir = ".bench_work", spans_path;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0, rounds = 0;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--workdir" && has_value) {
      workdir = argv[++i];
    } else if (a == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (a == "--rounds" && has_value) {
      rounds = std::atoi(argv[++i]);
    } else if (a == "--tiny") {
      tiny = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  Bench bench(ConfigFor(workload, tiny), seed, seconds, rounds, trace != 0,
              workdir);
  return bench.Run(spans_path);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
