#include "engine/database.h"

#include <algorithm>
#include <charconv>
#include <optional>

#include "common/deadline.h"
#include "common/key_encoding.h"
#include "common/trace.h"
#include "sql/ast_util.h"
#include "engine/session.h"
#include "engine/txn_context.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/shape.h"

namespace mtdb {

namespace {

/// Builds the index key of `row` for `index`.
std::string IndexKeyFor(const IndexInfo& index, const Row& row) {
  std::vector<Value> vals;
  vals.reserve(index.key_columns.size());
  for (size_t c : index.key_columns) vals.push_back(row[c]);
  return KeyEncoder::EncodeKey(vals);
}

/// Evaluates a scalar parsed expression outside a full query plan:
/// literals, params, arithmetic, and (when `row`/`schema` are given)
/// column references into that row. Used by INSERT VALUES and UPDATE SET.
Result<Value> EvalParsedScalar(const sql::ParsedExpr& e, const Row* row,
                               const Schema* schema, const ExecContext& ctx) {
  using sql::PExprKind;
  switch (e.kind) {
    case PExprKind::kLiteral:
      return e.literal;
    case PExprKind::kParam:
      if (e.param_ordinal >= ctx.params.size()) {
        return Status::InvalidArgument("missing bind parameter " +
                                       std::to_string(e.param_ordinal + 1));
      }
      return ctx.params[e.param_ordinal];
    case PExprKind::kColumnRef: {
      if (row == nullptr || schema == nullptr) {
        return Status::InvalidArgument("column reference not allowed here: " +
                                       e.column);
      }
      auto pos = schema->Find(e.column);
      if (!pos.has_value()) {
        return Status::NotFound("no column " + e.column);
      }
      return (*row)[*pos];
    }
    case PExprKind::kUnary: {
      MTDB_ASSIGN_OR_RETURN(Value c, EvalParsedScalar(*e.left, row, schema, ctx));
      if (e.unary_op == sql::UnaryOp::kNeg) {
        if (c.is_null()) return c;
        if (c.type() == TypeId::kDouble) return Value::Double(-c.AsDouble());
        return Value::Int64(-c.AsInt64());
      }
      if (c.is_null()) return Value::Null(TypeId::kBool);
      return Value::Bool(!c.AsBool());
    }
    case PExprKind::kBinary: {
      MTDB_ASSIGN_OR_RETURN(Value l, EvalParsedScalar(*e.left, row, schema, ctx));
      MTDB_ASSIGN_OR_RETURN(Value r, EvalParsedScalar(*e.right, row, schema, ctx));
      if (l.is_null() || r.is_null()) return Value();
      switch (e.binary_op) {
        case sql::BinaryOp::kAdd:
          if (l.type() == TypeId::kString || r.type() == TypeId::kString) {
            return Value::String(l.ToString() + r.ToString());
          }
          if (l.type() == TypeId::kDouble || r.type() == TypeId::kDouble) {
            return Value::Double(l.AsDouble() + r.AsDouble());
          }
          return Value::Int64(l.AsInt64() + r.AsInt64());
        case sql::BinaryOp::kSub:
          if (l.type() == TypeId::kDouble || r.type() == TypeId::kDouble) {
            return Value::Double(l.AsDouble() - r.AsDouble());
          }
          return Value::Int64(l.AsInt64() - r.AsInt64());
        case sql::BinaryOp::kMul:
          if (l.type() == TypeId::kDouble || r.type() == TypeId::kDouble) {
            return Value::Double(l.AsDouble() * r.AsDouble());
          }
          return Value::Int64(l.AsInt64() * r.AsInt64());
        case sql::BinaryOp::kDiv:
          if (r.AsDouble() == 0.0) {
            return Status::InvalidArgument("division by zero");
          }
          if (l.type() == TypeId::kDouble || r.type() == TypeId::kDouble) {
            return Value::Double(l.AsDouble() / r.AsDouble());
          }
          return Value::Int64(l.AsInt64() / r.AsInt64());
        case sql::BinaryOp::kMod:
          if (r.AsInt64() == 0) {
            return Status::InvalidArgument("modulo by zero");
          }
          return Value::Int64(l.AsInt64() % r.AsInt64());
        default:
          return Status::InvalidArgument("unsupported scalar expression");
      }
    }
    default:
      return Status::InvalidArgument("unsupported scalar expression");
  }
}

/// Retries a compensating (undo) action so a bounded burst of transient
/// faults cannot leave a statement half rolled back. kNotFound counts as
/// success: the entry the undo wants gone is already gone. The statement
/// deadline is suppressed for the duration: the undo usually runs BECAUSE
/// the deadline expired, and cancelling the compensation itself would
/// leave the row half old, half new.
template <typename Fn>
Status RetryCompensation(Fn&& fn) {
  deadline::Scope no_deadline(deadline::Deadline::None());
  Status st;
  for (int attempt = 0; attempt < 8; ++attempt) {
    st = fn();
    if (st.ok() || st.code() == StatusCode::kNotFound) return Status::OK();
  }
  return st;
}

/// RAII holder for the table/index latches of one statement. Latches are
/// taken as they are added and dropped in reverse order on destruction.
/// Callers must add them in the canonical global order — tables sorted
/// by TableId, each table's heap latch before its index latches, index
/// latches in vector order — which makes the acquisition deadlock-free.
class LatchSet {
 public:
  LatchSet() = default;
  LatchSet(const LatchSet&) = delete;
  LatchSet& operator=(const LatchSet&) = delete;

  ~LatchSet() {
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      if (it->second) {
        it->first->unlock();
      } else {
        it->first->unlock_shared();
      }
    }
  }

  void Lock(SharedLatch& mu, bool exclusive) {
    if (exclusive) {
      mu.lock();
    } else {
      mu.lock_shared();
    }
    held_.emplace_back(&mu, exclusive);
  }

  /// Latches `table`'s heap and all its indexes. The index vector cannot
  /// change underneath us: DDL is excluded by the engine's level-1 latch
  /// for the duration of the statement.
  void LockTable(TableInfo* table, bool exclusive) {
    Lock(table->heap->latch(), exclusive);
    for (const auto& idx : table->indexes) {
      Lock(idx->tree->latch(), exclusive);
    }
  }

 private:
  std::vector<std::pair<SharedLatch*, bool>> held_;
};

/// Collects the base-table names referenced anywhere in `stmt`'s FROM
/// lists, including derived tables, recursively. (The AST has no
/// expression-level subqueries, so FROM is the only place tables hide.)
void CollectSelectTables(const sql::SelectStmt& stmt,
                         std::vector<std::string>* out) {
  for (const sql::TableRef& ref : stmt.from) {
    if (ref.is_subquery()) {
      CollectSelectTables(*ref.subquery, out);
    } else {
      out->push_back(ref.table_name);
    }
  }
}

/// Resolves `names` against the catalog, dedupes, and returns the tables
/// in canonical latch order (ascending TableId). Unknown names are
/// skipped — the planner reports them properly afterwards.
std::vector<TableInfo*> ResolveInLatchOrder(
    Catalog* catalog, const std::vector<std::string>& names) {
  std::vector<TableInfo*> tables;
  for (const std::string& name : names) {
    TableInfo* info = catalog->GetTable(name);
    if (info != nullptr) tables.push_back(info);
  }
  std::sort(tables.begin(), tables.end(),
            [](const TableInfo* a, const TableInfo* b) { return a->id < b->id; });
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  return tables;
}

/// The tables `stmt` latches, in latch order, and its span label.
std::shared_ptr<const PlanCache::Info> PlanInfoOf(Catalog* catalog,
                                                  const sql::SelectStmt& stmt) {
  std::vector<std::string> names;
  CollectSelectTables(stmt, &names);
  auto info = std::make_shared<PlanCache::Info>();
  info->tables = ResolveInLatchOrder(catalog, names);
  if (!names.empty()) info->first_table = names[0];
  return info;
}

/// The plan-cache shape of `stmt`: the planner mode, then the statement.
sql::SelectShape ShapeOf(const sql::SelectStmt& stmt, PlannerMode mode) {
  sql::SelectShape shape;
  shape.key.push_back(static_cast<char>(mode));
  sql::EncodeShape(stmt, &shape);
  return shape;
}

/// `stmt` as the plan cache keys it under `mode`.
PreparedSelect PrepareSelect(const sql::SelectStmt& stmt, PlannerMode mode) {
  sql::SelectShape shape = ShapeOf(stmt, mode);
  PreparedSelect out;
  out.key = std::make_shared<const std::string>(std::move(shape.key));
  out.slots.reserve(shape.slots.size());
  for (const Value* v : shape.slots) out.slots.push_back(*v);
  out.first_slot = shape.first_slot;
  return out;
}

/// Brackets a slot's number in a cached EXPLAIN template.
constexpr char kSlotMark = '\x01';

/// A cached EXPLAIN template with each slot shown as its literal.
std::string RenderPlanText(const std::string& text,
                           const sql::SelectShape& shape) {
  std::string out;
  out.reserve(text.size() + 8 * shape.slots.size());
  size_t pos = 0;
  while (true) {
    const size_t open = text.find(kSlotMark, pos);
    if (open == std::string::npos) break;
    const size_t close = text.find(kSlotMark, open + 1);
    out.append(text, pos, open - pos);
    size_t slot = 0;
    std::from_chars(text.data() + open + 1, text.data() + close, slot);
    out.append(shape.slots[slot]->ToSqlLiteral());
    pos = close + 1;
  }
  out.append(text, pos, std::string::npos);
  return out;
}

// Logical-txn nesting depth of the calling thread. An automatic
// checkpoint takes the txn gate exclusively; a thread already holding it
// shared (inside BeginDurableTxn..EndDurableTxn) must never try, or it
// would deadlock against itself.
thread_local int tls_txn_depth = 0;

// Threads that hold a latch ranked below the txn gate (the mapping
// layer's cache latch during lazy DDL) must not start an automatic
// checkpoint either; see AutoCheckpointDeferral.
thread_local int tls_ckpt_defer = 0;

}  // namespace

AutoCheckpointDeferral::AutoCheckpointDeferral() { tls_ckpt_defer++; }

AutoCheckpointDeferral::~AutoCheckpointDeferral() { tls_ckpt_defer--; }

Database::Database(DatabaseOptions options)
    : options_db_(std::move(options)),
      options_(options_db_.engine),
      planner_mode_(options_.planner_mode) {
  // DatabaseOptions::path is the canonical spelling; the engine-level
  // field is honoured when it is empty.
  if (!options_db_.path.empty()) {
    options_.durable_path = options_db_.path;
  } else {
    options_db_.path = options_.durable_path;
  }
  registry_ = std::make_unique<MetricsRegistry>();
  admission_ = std::make_unique<AdmissionController>(options_db_.admission,
                                                     registry_.get());
  if (options_db_.row_locks) {
    lock_manager_ = std::make_unique<lock::LockManager>(
        registry_.get(), options_db_.lock_shards);
  }
  store_ = std::make_unique<PageStore>(options_.page_size);
  store_->set_read_latency_ns(options_.read_latency_ns);
  pool_ = std::make_unique<BufferPool>(
      store_.get(), options_.memory_budget_bytes / options_.page_size);
  pool_->set_retry_policy(options_db_.retry_policy);
  catalog_ = std::make_unique<Catalog>(pool_.get(),
                                       options_.memory_budget_bytes,
                                       options_.metadata_costs);
  if (!options_.durable_path.empty()) {
    store_->set_dirty_tracking(true);
    // Instrumented builds: from here on, every page mutation must happen
    // inside a PageCaptureScope (C301) — recovery is exempt because WAL
    // replay installs images via PageStore::RecoverInstall, not the pool.
    pool_->set_wal_protocol_checks(true);
    DurabilityOptions dopts;
    dopts.wal_segment_bytes = options_.wal_segment_bytes;
    dopts.checkpoint_interval_bytes = options_.checkpoint_interval_bytes;
    durability_ = std::make_unique<Durability>(options_.durable_path, dopts,
                                              store_.get(), pool_.get());
  }
  RegisterEngineGauges();
}

Database::Database(EngineOptions options)
    : Database(DatabaseOptions{/*path=*/{}, /*engine=*/std::move(options),
                               /*retry_policy=*/{},
                               /*quarantine_threshold=*/8,
                               /*admission=*/{}}) {}

void Database::RegisterEngineGauges() {
  // Adapt the pre-existing counter structs into the registry namespace.
  // Gauges are evaluated at Snapshot() time, outside the registry latch,
  // so taking component latches inside the callbacks is fine.
  if (lock_manager_ != nullptr) {
    lock::LockManager* lm = lock_manager_.get();
    registry_->RegisterGauge("lock.held", [lm] { return lm->held(); });
  }
  const IoFaultCounters* io = &store_->io_counters();
  registry_->RegisterGauge("io.read_faults",
                           [io] { return io->Snapshot().read_faults; });
  registry_->RegisterGauge("io.write_faults",
                           [io] { return io->Snapshot().write_faults; });
  registry_->RegisterGauge("io.checksum_failures",
                           [io] { return io->Snapshot().checksum_failures; });
  registry_->RegisterGauge("io.read_retries",
                           [io] { return io->Snapshot().read_retries; });
  registry_->RegisterGauge("io.write_retries",
                           [io] { return io->Snapshot().write_retries; });
  registry_->RegisterGauge("io.retry_exhaustions",
                           [io] { return io->Snapshot().retry_exhaustions; });
  registry_->RegisterGauge("io.latency_spikes",
                           [io] { return io->Snapshot().latency_spikes; });
  const PlanCache* plans = &plan_cache_;
  registry_->RegisterGauge("plan_cache.hits",
                           [plans] { return plans->stats().hits; });
  registry_->RegisterGauge("plan_cache.misses",
                           [plans] { return plans->stats().misses; });
  registry_->RegisterGauge("plan_cache.entries",
                           [plans] { return plans->stats().entries; });
  registry_->RegisterGauge("plan_cache.bytes",
                           [plans] { return plans->stats().bytes; });
  registry_->RegisterGauge("plan_cache.evictions",
                           [plans] { return plans->stats().evictions; });
  registry_->RegisterGauge("plan_cache.invalidations",
                           [plans] { return plans->stats().invalidations; });
  const BufferPool* pool = pool_.get();
  registry_->RegisterGauge("buffer.logical_reads",
                           [pool] { return pool->stats().logical_reads(); });
  registry_->RegisterGauge("buffer.misses",
                           [pool] { return pool->stats().misses(); });
  registry_->RegisterGauge("buffer.evictions",
                           [pool] { return pool->stats().evictions; });
  const PageStore* store = store_.get();
  registry_->RegisterGauge("store.physical_reads",
                           [store] { return store->stats().physical_reads; });
  registry_->RegisterGauge("store.physical_writes",
                           [store] { return store->stats().physical_writes; });
  if (durability_ != nullptr) {
    const DurabilityCounters* dc = &durability_->counters();
    registry_->RegisterGauge("wal.appends",
                             [dc] { return dc->Snapshot().wal_appends; });
    registry_->RegisterGauge("wal.bytes",
                             [dc] { return dc->Snapshot().wal_bytes; });
    registry_->RegisterGauge("wal.group_commits",
                             [dc] { return dc->Snapshot().group_commits; });
    registry_->RegisterGauge("wal.checkpoints",
                             [dc] { return dc->Snapshot().checkpoints; });
    registry_->RegisterGauge("wal.recoveries",
                             [dc] { return dc->Snapshot().recoveries; });
    registry_->RegisterGauge("wal.replayed_groups",
                             [dc] { return dc->Snapshot().replayed_groups; });
    registry_->RegisterGauge(
        "wal.recovery_undo_statements",
        [dc] { return dc->Snapshot().recovery_undo_statements; });
  }
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  auto db = std::make_unique<Database>(std::move(options));
  if (db->durable()) MTDB_RETURN_IF_ERROR(db->Recover());
  return db;
}

Status Database::Recover() {
  MTDB_ASSIGN_OR_RETURN(RecoveredState state, durability_->Recover());
  std::unordered_map<TableId, Catalog::TableOverride> overrides;
  for (const WalTableMeta& tm : state.table_overrides) {
    overrides[tm.table_id] = Catalog::TableOverride{tm.first_page,
                                                    tm.index_roots};
  }
  MTDB_RETURN_IF_ERROR(catalog_->Restore(state.catalog_blob, overrides));
  plan_cache_.Invalidate();
  // Undo logical statements the crash left half-applied, newest hint
  // first. Each compensation runs through the normal durable statement
  // path and commits its own group, so a crash mid-undo simply resumes
  // here on the next open (compensations are idempotent or guarded).
  for (auto it = state.open_hints.rbegin(); it != state.open_hints.rend();
       ++it) {
    MTDB_RETURN_IF_ERROR(ApplyRecoveryHint(it->sql));
  }
  // A fresh checkpoint seals recovery: the replayed log (and the undone
  // txns' records) truncate away.
  return Checkpoint();
}

Status Database::ApplyRecoveryHint(const std::string& sql_text) {
  MTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql_text));
  if (stmt.kind == sql::StatementKind::kInsert && stmt.insert->rows.size() == 1) {
    // The hint was logged *before* its forward statement, so the DELETE
    // this INSERT compensates may never have executed — re-inserting
    // would duplicate the row. Probe by the literal column values.
    const sql::InsertStmt& ins = *stmt.insert;
    TableInfo* table = catalog_->GetTable(ins.table);
    if (table == nullptr) {
      return Status::NotFound("recovery hint targets unknown table " +
                              ins.table);
    }
    sql::ParsedExprPtr where;
    for (size_t i = 0; i < ins.rows[0].size(); i++) {
      const sql::ParsedExpr& e = *ins.rows[0][i];
      if (e.kind != sql::PExprKind::kLiteral || e.literal.is_null()) continue;
      std::string column = i < ins.columns.size()
                               ? ins.columns[i]
                               : (i < table->schema.size()
                                      ? table->schema.at(i).name
                                      : std::string());
      if (column.empty()) continue;
      where = sql::AndTogether(
          std::move(where),
          sql::MakeBinary(sql::BinaryOp::kEq,
                          sql::MakeColumnRef("", column),
                          sql::MakeLiteral(e.literal)));
    }
    if (where != nullptr) {
      sql::SelectStmt probe;
      probe.select_star = true;
      sql::TableRef ref;
      ref.table_name = ins.table;
      probe.from.push_back(std::move(ref));
      probe.where = std::move(where);
      MTDB_ASSIGN_OR_RETURN(QueryResult hit, QueryAst(probe, {}));
      if (!hit.rows.empty()) return Status::OK();  // delete never applied
    }
  }
  MTDB_ASSIGN_OR_RETURN(int64_t affected, RunMutation(stmt, {}));
  (void)affected;
  durability_->counters().OnRecoveryUndoStatement();
  return Status::OK();
}

Status Database::Checkpoint() {
  if (durability_ == nullptr) {
    return Status::InvalidArgument("not a durable database");
  }
  // Housekeeping must run to completion even when invoked from a thread
  // whose statement deadline has expired: a half-written checkpoint is
  // worse than a late one, so suppress the ambient deadline here.
  deadline::Scope no_deadline(deadline::Deadline::None());
  // Gate before DDL latch (the global order); exclusive on both quiesces
  // every statement and every open statement-level logical txn. Open
  // CLIENT transactions hold neither latch between statements — their
  // undo hints are snapshotted here (race-free: every staging path holds
  // the gate or the DDL latch shared) and preserved in the meta file so
  // WAL truncation cannot lose them.
  std::unique_lock<SharedLatch> gate(durability_->txn_gate());
  std::unique_lock<SharedLatch> ddl(ddl_mu_);
  std::vector<OpenTxnMeta> open;
  {
    std::lock_guard<Latch> reg(txn_registry_mu_);
    open.reserve(open_client_txns_.size());
    for (const auto& [id, hints] : open_client_txns_) {
      OpenTxnMeta t;
      t.txn_id = id;
      t.hints = hints;
      open.push_back(std::move(t));
    }
  }
  return durability_->WriteCheckpoint(catalog_->Snapshot(), open);
}

void Database::MaybeAutoCheckpoint() {
  if (durability_ == nullptr || tls_txn_depth != 0 || tls_ckpt_defer != 0) {
    return;
  }
  if (!durability_->NeedsCheckpoint()) return;
  // A failure here (including an injected crash) freezes the subsystem
  // and surfaces on the next durable statement.
  (void)Checkpoint();
}

Result<uint64_t> Database::BeginDurableTxn() {
  if (durability_ == nullptr) {
    return Status::InvalidArgument("not a durable database");
  }
  MTDB_ASSIGN_OR_RETURN(uint64_t txn_id, durability_->BeginTxn());
  tls_txn_depth++;
  return txn_id;
}

Status Database::LogTxnHint(uint64_t txn_id,
                            const std::string& compensation_sql) {
  return durability_->LogHint(txn_id, compensation_sql);
}

Status Database::EndDurableTxn(uint64_t txn_id) {
  tls_txn_depth--;
  return durability_->EndTxn(txn_id);
}

Result<uint64_t> Database::BeginClientTxn(int64_t tenant) {
  uint64_t txn_id = 0;
  if (durability_ != nullptr) {
    if (durability_->frozen()) {
      return Status::Unavailable("durability frozen after crash");
    }
    // Brief shared hold: the begin record and the registry insert must
    // be one atom w.r.t. a checkpoint's gate-exclusive snapshot, or a
    // checkpoint could truncate the begin record without carrying the
    // transaction in meta.
    std::shared_lock<SharedLatch> gate(durability_->txn_gate());
    MTDB_ASSIGN_OR_RETURN(txn_id, durability_->BeginDetachedTxn());
    std::lock_guard<Latch> reg(txn_registry_mu_);
    open_client_txns_[txn_id];
  } else {
    txn_id = mem_txn_id_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<Latch> reg(txn_registry_mu_);
    auto it = txn_open_counts_.find(tenant);
    if (it == txn_open_counts_.end()) {
      auto count = std::make_shared<std::atomic<int64_t>>(0);
      it = txn_open_counts_.emplace(tenant, count).first;
      // Registered exactly once per tenant (the registry's gauge list is
      // append-only); the shared_ptr keeps the callback valid for the
      // registry's lifetime.
      registry_->RegisterGauge("txn.open.t" + std::to_string(tenant),
                               [count]() -> uint64_t {
                                 int64_t v =
                                     count->load(std::memory_order_relaxed);
                                 return v > 0 ? static_cast<uint64_t>(v) : 0;
                               });
    }
    it->second->fetch_add(1, std::memory_order_relaxed);
  }
  return txn_id;
}

Status Database::StageClientHint(uint64_t txn_id,
                                 const std::string& compensation_sql) {
  if (durability_ == nullptr) return Status::OK();
  std::shared_lock<SharedLatch> gate(durability_->txn_gate());
  MTDB_RETURN_IF_ERROR(durability_->LogHint(txn_id, compensation_sql));
  std::lock_guard<Latch> reg(txn_registry_mu_);
  auto it = open_client_txns_.find(txn_id);
  if (it != open_client_txns_.end()) it->second.push_back(compensation_sql);
  return Status::OK();
}

Status Database::StageClientHintUnderStatement(
    uint64_t txn_id, const std::string& compensation_sql) {
  if (durability_ == nullptr) return Status::OK();
  // No gate here: the caller is inside an engine statement (shared DDL
  // latch held, rank below the gate). Checkpoints hold the DDL latch
  // exclusively, so no checkpoint can interleave with this statement.
  MTDB_RETURN_IF_ERROR(durability_->LogHint(txn_id, compensation_sql));
  std::lock_guard<Latch> reg(txn_registry_mu_);
  auto it = open_client_txns_.find(txn_id);
  if (it != open_client_txns_.end()) it->second.push_back(compensation_sql);
  return Status::OK();
}

Status Database::EndClientTxn(uint64_t txn_id, int64_t tenant) {
  Status st = Status::OK();
  if (durability_ != nullptr) {
    std::shared_lock<SharedLatch> gate(durability_->txn_gate());
    st = durability_->EndDetachedTxn(txn_id);
    // Deregister even when the end record could not be appended (frozen
    // durability): recovery resolves the transaction from disk, and a
    // frozen engine writes no further checkpoints anyway.
    std::lock_guard<Latch> reg(txn_registry_mu_);
    open_client_txns_.erase(txn_id);
  }
  {
    std::lock_guard<Latch> reg(txn_registry_mu_);
    auto it = txn_open_counts_.find(tenant);
    if (it != txn_open_counts_.end()) {
      it->second->fetch_sub(1, std::memory_order_relaxed);
    }
  }
  return st;
}

Status Database::CommitDmlGroup(const PageMutationCapture& capture,
                                TableInfo* table) {
  // WAL-protocol analyzer: the capture is consumed here, while the
  // statement's exclusive latches are still held (C302/C303).
  lockdep::OnCaptureCommit(&capture);
  if (durability_ == nullptr || capture.empty()) return Status::OK();
  std::vector<WalTableMeta> meta;
  WalTableMeta tm;
  tm.table_id = table->id;
  tm.first_page = table->heap->first_page();
  for (const auto& idx : table->indexes) {
    tm.index_roots.emplace_back(idx->id, idx->tree->root());
  }
  meta.push_back(std::move(tm));
  return durability_->CommitGroup(capture, std::move(meta), nullptr);
}

Status Database::CommitDdlGroup(const PageMutationCapture& capture,
                                bool snapshot) {
  lockdep::OnCaptureCommit(&capture);
  if (durability_ == nullptr || (capture.empty() && !snapshot)) {
    return Status::OK();
  }
  std::string blob;
  const std::string* blob_ptr = nullptr;
  if (snapshot) {
    blob = catalog_->Snapshot();
    blob_ptr = &blob;
  }
  return durability_->CommitGroup(capture, {}, blob_ptr);
}

Session Database::OpenSession() { return Session(this); }

// --- string/AST front doors: thin wrappers over the one pipeline -------

Result<QueryResult> Database::Execute(const std::string& sql,
                                      const std::vector<Value>& params) {
  MTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  MTDB_ASSIGN_OR_RETURN(StatementResult res, RunStatement(stmt, params));
  if (HasRows(res)) return std::move(std::get<QueryResult>(res));
  QueryResult out;
  if (HasExplanation(res)) {
    out.columns = {"mapping"};
    for (const PhysicalStatementPlan& p : ExplanationOf(res).statements) {
      out.rows.push_back({Value::String(p.sql)});
    }
    return out;
  }
  out.columns = {"affected"};
  out.rows.push_back({Value::Int64(AffectedOf(res))});
  return out;
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    const std::vector<Value>& params) {
  MTDB_ASSIGN_OR_RETURN(auto stmt, sql::ParseSelect(sql));
  return RunSelect(*stmt, params);
}

Result<QueryResult> Database::QueryAst(const sql::SelectStmt& stmt,
                                       const std::vector<Value>& params,
                                       PreparedSelect* prepared) {
  return RunSelect(stmt, params, prepared);
}

Result<bool> Database::QueryPrepared(const PreparedSelect& prepared,
                                     const std::vector<Value>& params,
                                     QueryResult* out) {
  if ((*prepared.key)[0] != static_cast<char>(planner_mode())) return false;
  std::shared_lock<SharedLatch> ddl(ddl_mu_);
  return RunCachedPlan(prepared, /*stmt=*/nullptr, params, deadline::Current(),
                       /*top_level=*/true, &out->columns,
                       [out](const Executor&, Row* row) {
                         out->rows.push_back(std::move(*row));
                         return Status::OK();
                       });
}

Result<int64_t> Database::ExecuteAst(const sql::Statement& stmt,
                                     const std::vector<Value>& params) {
  if (stmt.kind == sql::StatementKind::kSelect) {
    return Status::InvalidArgument("use Query() for SELECT");
  }
  return RunMutation(stmt, params);
}

Result<std::string> Database::Explain(const std::string& sql) {
  MTDB_ASSIGN_OR_RETURN(auto stmt, sql::ParseSelect(sql));
  return ExplainAst(*stmt);
}

Result<std::string> Database::ExplainAst(const sql::SelectStmt& stmt) {
  // Planning only reads the catalog; holding the DDL latch shared keeps
  // the referenced TableInfos alive without blocking other statements.
  std::shared_lock<SharedLatch> ddl(ddl_mu_);
  const PlannerMode mode = planner_mode();
  sql::SelectShape shape = ShapeOf(stmt, mode);
  PlanCache::Checkout cached =
      plan_cache_.Take(shape.key, PlanCache::Want::kText);
  if (cached.text != nullptr) return RenderPlanText(*cached.text, shape);
  // Plan the lifted statement once, printing each slot as a mark; the
  // text becomes the entry's template and the tree an idle plan.
  std::unique_ptr<sql::SelectStmt> lifted = stmt.Clone();
  sql::LiftSlots(lifted.get(), shape.first_slot);
  size_t marks = 0;
  const sql::ParamPrinter mark = [&](size_t ordinal, std::string* out) {
    if (ordinal < shape.first_slot) {
      out->push_back('?');
      return;
    }
    out->push_back(kSlotMark);
    out->append(std::to_string(ordinal - shape.first_slot));
    out->push_back(kSlotMark);
    marks++;
  };
  Result<ExplainedPlan> planned =
      PlanAndExplainSelect(*lifted, catalog_.get(), mode, &mark);
  if (!planned.ok() ||
      static_cast<size_t>(std::count(planned->text.begin(),
                                     planned->text.end(), kSlotMark)) !=
          2 * marks) {
    // An identifier or literal of the text holds the mark byte itself.
    return ExplainSelect(stmt, catalog_.get(), mode);
  }
  auto text = std::make_shared<const std::string>(std::move(planned->text));
  plan_cache_.Put(std::make_shared<const std::string>(std::move(shape.key)),
                  cached.epoch,
                  cached.info != nullptr ? cached.info
                                         : PlanInfoOf(catalog_.get(), stmt),
                  std::move(planned->exec), text);
  return RenderPlanText(*text, shape);
}

// --- the statement pipeline -------------------------------------------

Result<StatementResult> Database::RunStatement(const sql::Statement& stmt,
                                               const std::vector<Value>& params) {
  if (stmt.kind == sql::StatementKind::kSelect) {
    MTDB_ASSIGN_OR_RETURN(QueryResult rows, RunSelect(*stmt.select, params));
    return StatementResult(std::move(rows));
  }
  if (stmt.kind == sql::StatementKind::kExplainMapping) {
    // Below the mapping layer every logical statement IS its physical
    // statement: the plan is the target itself. Tenant sessions route
    // EXPLAIN MAPPING through their layout instead (SchemaMapping::
    // ExplainMapping), which reports the real logical→physical fan-out.
    const sql::Statement& target = *stmt.explain->target;
    MappingExplanation out;
    out.layout = "engine";
    out.logical = sql::ToSql(target);
    PhysicalStatementPlan entry;
    entry.op = sql::KindLabel(target.kind);
    entry.table = FirstTableOf(target);
    entry.sql = out.logical;
    out.statements.push_back(std::move(entry));
    if (target.kind == sql::StatementKind::kSelect) {
      MTDB_ASSIGN_OR_RETURN(out.plan_text, ExplainAst(*target.select));
    }
    return StatementResult(std::move(out));
  }
  MTDB_ASSIGN_OR_RETURN(int64_t affected, RunMutation(stmt, params));
  return StatementResult(affected);
}

Result<bool> Database::RunCachedPlan(
    const PreparedSelect& prepared, const sql::SelectStmt* stmt,
    const std::vector<Value>& params, const deadline::Deadline& deadline,
    bool top_level, std::vector<std::string>* columns,
    const std::function<Status(const Executor&, Row*)>& on_row,
    std::shared_ptr<const std::string>* shared_key) {
  if (params.size() < prepared.first_slot) {
    return Status::InvalidArgument("missing bind parameter " +
                                   std::to_string(params.size() + 1));
  }
  PlanCache::Checkout cached = plan_cache_.Take(
      *prepared.key,
      stmt != nullptr ? PlanCache::Want::kPlan : PlanCache::Want::kIdlePlan);
  if (stmt == nullptr && cached.plan == nullptr) return false;
  std::shared_ptr<const PlanCache::Info> info =
      cached.info != nullptr ? cached.info : PlanInfoOf(catalog_.get(), *stmt);
  std::optional<trace::SpanScope> span;
  LatchSet latches;
  if (top_level) {
    span.emplace("select", info->first_table);
    for (TableInfo* table : info->tables) {
      latches.LockTable(table, /*exclusive=*/false);
    }
  }
  ExecutorPtr plan = std::move(cached.plan);
  if (plan == nullptr) {
    std::unique_ptr<sql::SelectStmt> lifted = stmt->Clone();
    sql::LiftSlots(lifted.get(), prepared.first_slot);
    // The mode the key was made under: its first byte.
    const auto mode = static_cast<PlannerMode>((*prepared.key)[0]);
    MTDB_ASSIGN_OR_RETURN(plan, PlanSelect(*lifted, catalog_.get(), mode));
  }
  // The parameters a lifted plan runs with: the statement's own, then
  // its slot values.
  ExecContext ctx;
  ctx.params.reserve(prepared.first_slot + prepared.slots.size());
  ctx.params.insert(ctx.params.end(), params.begin(),
                    params.begin() + prepared.first_slot);
  ctx.params.insert(ctx.params.end(), prepared.slots.begin(),
                    prepared.slots.end());
  ctx.deadline = deadline;
  MTDB_RETURN_IF_ERROR(plan->Init(ctx));
  if (columns != nullptr) *columns = plan->schema().names;
  Row row;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    Result<bool> more = plan->Next(&row, ctx);
    if (!more.ok()) return more.status();
    if (!*more) break;
    MTDB_RETURN_IF_ERROR(on_row(*plan, &row));
  }
  plan->Release();
  std::shared_ptr<const std::string> key = plan_cache_.Put(
      prepared.key, cached.epoch, std::move(info), std::move(plan), nullptr);
  if (shared_key != nullptr) *shared_key = std::move(key);
  return true;
}

Result<QueryResult> Database::RunSelect(const sql::SelectStmt& stmt,
                                        const std::vector<Value>& params,
                                        PreparedSelect* prepared) {
  std::shared_lock<SharedLatch> ddl(ddl_mu_);
  PreparedSelect local;
  if (prepared == nullptr) prepared = &local;
  *prepared = PrepareSelect(stmt, planner_mode());
  QueryResult out;
  MTDB_RETURN_IF_ERROR(
      RunCachedPlan(*prepared, &stmt, params, deadline::Current(),
                    /*top_level=*/true, &out.columns,
                    [&out](const Executor&, Row* row) {
                      out.rows.push_back(std::move(*row));
                      return Status::OK();
                    },
                    &prepared->key)
          .status());
  return out;
}

Result<std::vector<std::pair<Rid, Row>>> Database::ScanQualifying(
    const std::string& table, const sql::ParsedExpr* where,
    const ExecContext& ctx) {
  sql::SelectStmt select;
  select.select_star = true;
  sql::TableRef ref;
  ref.table_name = table;
  select.from.push_back(std::move(ref));
  if (where != nullptr) select.where = where->Clone();
  std::vector<std::pair<Rid, Row>> rows;
  MTDB_RETURN_IF_ERROR(
      RunCachedPlan(PrepareSelect(select, planner_mode()), &select, ctx.params,
                    ctx.deadline, /*top_level=*/false, nullptr,
                    [&rows](const Executor& plan, Row* row) {
                      const Rid* rid = plan.current_rid();
                      if (rid == nullptr) {
                        return Status::Internal(
                            "qualifying scan lost row identity");
                      }
                      rows.emplace_back(*rid, std::move(*row));
                      return Status::OK();
                    })
          .status());
  return rows;
}

Result<int64_t> Database::RunMutation(const sql::Statement& stmt,
                                      const std::vector<Value>& params) {
  Result<int64_t> result = RunMutationInner(stmt, params);
  MaybeAutoCheckpoint();
  return result;
}

Result<int64_t> Database::RunMutationInner(const sql::Statement& stmt,
                                           const std::vector<Value>& params) {
  ExecContext ctx;
  ctx.params = params;
  ctx.deadline = deadline::Current();
  switch (stmt.kind) {
    case sql::StatementKind::kInsert:
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete: {
      std::shared_lock<SharedLatch> ddl(ddl_mu_);
      const std::string& name = stmt.kind == sql::StatementKind::kInsert
                                    ? stmt.insert->table
                                    : stmt.kind == sql::StatementKind::kUpdate
                                          ? stmt.update->table
                                          : stmt.del->table;
      TableInfo* table = catalog_->GetTable(name);
      if (table == nullptr) {
        return Status::NotFound("no such table: " + name);
      }
      trace::SpanScope span(sql::KindLabel(stmt.kind), name);
      // One target table per DML statement; exclusive latch serializes
      // writers with each other and with this table's readers. UPDATE's
      // and DELETE's internal qualifying scan runs on the same table
      // under the latch already held here.
      LatchSet latches;
      latches.LockTable(table, /*exclusive=*/true);
      // Inside a client transaction whose statement is not already
      // covered by a mapping-layer undo log, the engine itself stages
      // value-based compensations for the rows this statement touches.
      txn::TransactionContext* txn_ctx = txn::TransactionContext::Current();
      const bool stage_txn =
          txn_ctx != nullptr && txn_ctx->open() && !txn_ctx->joined();
      std::vector<sql::Statement> txn_undo;
      std::vector<sql::Statement>* undo_out = stage_txn ? &txn_undo : nullptr;
      auto dispatch = [&]() -> Result<int64_t> {
        switch (stmt.kind) {
          case sql::StatementKind::kInsert:
            return ExecuteInsert(*stmt.insert, ctx, undo_out);
          case sql::StatementKind::kUpdate:
            return ExecuteUpdate(*stmt.update, ctx, undo_out);
          default:
            return ExecuteDelete(*stmt.del, ctx, undo_out);
        }
      };
      if (durability_ == nullptr) {
        Result<int64_t> result = dispatch();
        if (result.ok() && stage_txn && !txn_undo.empty()) {
          txn_ctx->Absorb(std::move(txn_undo));
        }
        return result;
      }
      if (durability_->frozen()) {
        return Status::Unavailable("durability frozen after crash");
      }
      // Capture the statement's page mutations and commit them as one
      // redo group while the exclusive table latches are still held —
      // a failed-and-compensated statement logs its (restored) pages
      // too, so the WAL always reproduces exactly what memory holds.
      PageMutationCapture capture;
      Result<int64_t> result = [&]() -> Result<int64_t> {
        PageCaptureScope scope(&capture);
        return dispatch();
      }();
      if (result.ok() && stage_txn && !txn_undo.empty()) {
        // Hints must reach the log before the redo group: a crash
        // between them loses the statement (no group) and the hints
        // replay harmlessly against the pre-statement state.
        Status staged = Status::OK();
        for (const sql::Statement& comp : txn_undo) {
          staged = txn_ctx->StageEngineHint(comp);
          if (!staged.ok()) break;
        }
        if (staged.ok()) {
          txn_ctx->Absorb(std::move(txn_undo));
        } else {
          result = staged;  // append failure froze durability
        }
      }
      Status logged = CommitDmlGroup(capture, table);
      if (!logged.ok() && result.ok()) return logged;
      return result;
    }
    case sql::StatementKind::kCreateTable: {
      std::unique_lock<SharedLatch> ddl(ddl_mu_);
      Schema schema;
      for (const sql::ColumnDef& def : stmt.create_table->columns) {
        schema.AddColumn(Column{def.name, def.type, def.not_null});
      }
      PageMutationCapture capture;
      Result<TableInfo*> created = [&]() -> Result<TableInfo*> {
        PageCaptureScope scope(&capture);
        return catalog_->CreateTable(stmt.create_table->table,
                                     std::move(schema));
      }();
      MTDB_RETURN_IF_ERROR(CommitDdlGroup(capture, created.ok()));
      if (!created.ok()) return created.status();
      return 0;
    }
    case sql::StatementKind::kCreateIndex: {
      std::unique_lock<SharedLatch> ddl(ddl_mu_);
      PageMutationCapture capture;
      Result<IndexInfo*> created = [&]() -> Result<IndexInfo*> {
        PageCaptureScope scope(&capture);
        return catalog_->CreateIndex(stmt.create_index->table,
                                     stmt.create_index->index,
                                     stmt.create_index->columns,
                                     stmt.create_index->unique);
      }();
      plan_cache_.Invalidate();
      MTDB_RETURN_IF_ERROR(CommitDdlGroup(capture, created.ok()));
      if (!created.ok()) return created.status();
      return 0;
    }
    case sql::StatementKind::kDropTable: {
      std::unique_lock<SharedLatch> ddl(ddl_mu_);
      PageMutationCapture capture;
      Status dropped = [&]() -> Status {
        PageCaptureScope scope(&capture);
        return catalog_->DropTable(stmt.drop_table->table);
      }();
      plan_cache_.Invalidate();
      MTDB_RETURN_IF_ERROR(CommitDdlGroup(capture, dropped.ok()));
      MTDB_RETURN_IF_ERROR(dropped);
      return 0;
    }
    case sql::StatementKind::kDropIndex: {
      std::unique_lock<SharedLatch> ddl(ddl_mu_);
      PageMutationCapture capture;
      Status dropped = [&]() -> Status {
        PageCaptureScope scope(&capture);
        return catalog_->DropIndex(stmt.drop_index->index);
      }();
      plan_cache_.Invalidate();
      MTDB_RETURN_IF_ERROR(CommitDdlGroup(capture, dropped.ok()));
      MTDB_RETURN_IF_ERROR(dropped);
      return 0;
    }
    case sql::StatementKind::kSelect:
      return Status::InvalidArgument("use Query() for SELECT");
    case sql::StatementKind::kExplainMapping:
      return Status::InvalidArgument("EXPLAIN MAPPING is not a mutation");
    case sql::StatementKind::kBegin:
    case sql::StatementKind::kCommit:
    case sql::StatementKind::kRollback:
      return Status::InvalidArgument(
          "transaction control statements are session-scoped; use a Session "
          "or TenantSession");
  }
  return Status::Internal("unknown statement kind");
}

Status Database::InsertRowLatched(TableInfo* table, const Row& row,
                                  Rid* out_rid, Row* out_typed) {
  if (row.size() != table->schema.size()) {
    return Status::InvalidArgument("row arity mismatch for " + table->name);
  }
  // NOT NULL + unique checks first so failures do not leave partial state.
  Row typed;
  typed.reserve(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) {
      if (table->schema.at(i).not_null) {
        return Status::ConstraintViolation("NULL in NOT NULL column " +
                                           table->schema.at(i).name);
      }
      typed.push_back(Value::Null(table->schema.at(i).type));
      continue;
    }
    MTDB_ASSIGN_OR_RETURN(Value v, row[i].CastTo(table->schema.at(i).type));
    typed.push_back(std::move(v));
  }
  for (const auto& idx : table->indexes) {
    if (!idx->unique) continue;
    std::string key = IndexKeyFor(*idx, typed);
    MTDB_ASSIGN_OR_RETURN(bool dup, idx->tree->Contains(key));
    if (dup) {
      return Status::ConstraintViolation("duplicate key in unique index " +
                                         idx->name);
    }
  }
  std::string image;
  MTDB_RETURN_IF_ERROR(table->codec->Encode(typed, &image));
  MTDB_ASSIGN_OR_RETURN(Rid rid, table->heap->Insert(image));
  for (size_t i = 0; i < table->indexes.size(); ++i) {
    std::string key = IndexKeyFor(*table->indexes[i], typed);
    Status st = table->indexes[i]->tree->Insert(key, rid);
    if (!st.ok()) {
      // Row-level undo: remove the index entries already written and the
      // heap row, so the failed insert leaves no trace.
      for (size_t j = 0; j < i; ++j) {
        std::string pkey = IndexKeyFor(*table->indexes[j], typed);
        (void)RetryCompensation(
            [&] { return table->indexes[j]->tree->Delete(pkey, rid); });
      }
      (void)RetryCompensation([&] { return table->heap->Delete(rid); });
      return st;
    }
  }
  if (out_rid != nullptr) *out_rid = rid;
  if (out_typed != nullptr) *out_typed = std::move(typed);
  return Status::OK();
}

Status Database::DeleteRowLatched(TableInfo* table, const Row& row,
                                  const Rid& rid) {
  size_t removed = 0;
  Status fail;
  for (; removed < table->indexes.size(); ++removed) {
    std::string key = IndexKeyFor(*table->indexes[removed], row);
    Status st = table->indexes[removed]->tree->Delete(key, rid);
    if (!st.ok() && st.code() != StatusCode::kNotFound) {
      fail = st;
      break;
    }
  }
  if (fail.ok()) {
    fail = table->heap->Delete(rid);
    if (fail.ok()) return fail;
  }
  // Row-level undo: the heap row still exists at `rid`, so put the index
  // entries already removed back.
  for (size_t j = 0; j < removed; ++j) {
    std::string key = IndexKeyFor(*table->indexes[j], row);
    (void)RetryCompensation(
        [&] { return table->indexes[j]->tree->Insert(key, rid); });
  }
  return fail;
}

Status Database::UpdateRowLatched(TableInfo* table, const Rid& old_rid,
                                  const Row& old_row, const Row& new_row,
                                  Rid* out_new_rid) {
  std::string new_image;
  MTDB_RETURN_IF_ERROR(table->codec->Encode(new_row, &new_image));
  Status fail;
  // 1. Drop the old index entries.
  size_t deleted_old = 0;
  for (; deleted_old < table->indexes.size(); ++deleted_old) {
    std::string key = IndexKeyFor(*table->indexes[deleted_old], old_row);
    Status st = table->indexes[deleted_old]->tree->Delete(key, old_rid);
    if (!st.ok() && st.code() != StatusCode::kNotFound) {
      fail = st;
      break;
    }
  }
  // 2. Rewrite the heap image (may relocate the row).
  Rid rid = old_rid;
  bool heap_updated = false;
  if (fail.ok()) {
    Status st = table->heap->Update(&rid, new_image);
    if (st.ok()) {
      heap_updated = true;
    } else {
      fail = st;
    }
  }
  // 3. Write the new index entries.
  size_t inserted_new = 0;
  if (fail.ok()) {
    for (; inserted_new < table->indexes.size(); ++inserted_new) {
      std::string key = IndexKeyFor(*table->indexes[inserted_new], new_row);
      Status st = table->indexes[inserted_new]->tree->Insert(key, rid);
      if (!st.ok()) {
        fail = st;
        break;
      }
    }
  }
  if (fail.ok()) {
    *out_new_rid = rid;
    return fail;
  }
  // Row-level undo, in reverse: new entries out, heap image back (which
  // may relocate again — the restored index entries use the final rid),
  // old entries in.
  for (size_t j = 0; j < inserted_new; ++j) {
    std::string key = IndexKeyFor(*table->indexes[j], new_row);
    (void)RetryCompensation(
        [&] { return table->indexes[j]->tree->Delete(key, rid); });
  }
  Rid back_rid = rid;
  if (heap_updated) {
    std::string old_image;
    if (table->codec->Encode(old_row, &old_image).ok()) {
      (void)RetryCompensation(
          [&] { return table->heap->Update(&back_rid, old_image); });
    }
  }
  for (size_t j = 0; j < deleted_old; ++j) {
    std::string key = IndexKeyFor(*table->indexes[j], old_row);
    (void)RetryCompensation(
        [&] { return table->indexes[j]->tree->Insert(key, back_rid); });
  }
  return fail;
}

void Database::RevertInsertedRow(TableInfo* table, const Row& typed,
                                 const Rid& rid) {
  for (const auto& idx : table->indexes) {
    std::string key = IndexKeyFor(*idx, typed);
    (void)RetryCompensation([&] { return idx->tree->Delete(key, rid); });
  }
  (void)RetryCompensation([&] { return table->heap->Delete(rid); });
}

void Database::RevertUpdatedRow(TableInfo* table, const Rid& new_rid,
                                const Row& new_row, const Row& old_row) {
  // UpdateRowLatched is its own inverse; it already compensates
  // internally, and the outer retry covers transient bursts.
  (void)RetryCompensation([&] {
    Rid ignored;
    return UpdateRowLatched(table, new_rid, new_row, old_row, &ignored);
  });
}

void Database::RestoreDeletedRow(TableInfo* table, const Row& row) {
  std::string image;
  if (!table->codec->Encode(row, &image).ok()) return;
  Rid rid{};
  Status st = RetryCompensation([&] {
    auto r = table->heap->Insert(image);
    if (!r.ok()) return r.status();
    rid = *r;
    return Status::OK();
  });
  if (!st.ok()) return;
  for (const auto& idx : table->indexes) {
    std::string key = IndexKeyFor(*idx, row);
    (void)RetryCompensation([&] { return idx->tree->Insert(key, rid); });
  }
}

namespace {

/// Conjunction matching every non-null column value of `row` — the
/// engine's value-based row predicate for client-transaction
/// compensations. Below the mapping layer there is no row-id column, so
/// the match is by content: if the table holds duplicate identical rows
/// the compensation touches all of them (same documented caveat as the
/// mapping layer's single-source fallback). NULL columns are skipped
/// because SQL `col = NULL` never matches.
sql::ParsedExprPtr AllValuesPredicate(const Schema& schema, const Row& row) {
  sql::ParsedExprPtr where;
  for (size_t i = 0; i < row.size() && i < schema.size(); ++i) {
    if (row[i].is_null()) continue;
    where = sql::AndTogether(
        std::move(where),
        sql::MakeBinary(sql::BinaryOp::kEq,
                        sql::MakeColumnRef("", schema.at(i).name),
                        sql::MakeLiteral(row[i])));
  }
  return where;
}

}  // namespace

Result<int64_t> Database::ExecuteInsert(const sql::InsertStmt& stmt,
                                        const ExecContext& ctx,
                                        std::vector<sql::Statement>* txn_undo) {
  TableInfo* table = catalog_->GetTable(stmt.table);
  if (table == nullptr) return Status::NotFound("no such table: " + stmt.table);
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < table->schema.size(); ++i) positions.push_back(i);
  } else {
    for (const std::string& c : stmt.columns) {
      auto pos = table->schema.Find(c);
      if (!pos.has_value()) {
        return Status::NotFound("no column " + c + " in " + stmt.table);
      }
      positions.push_back(*pos);
    }
  }
  // Statement-level atomicity: a multi-row VALUES list either fully
  // applies or, on any failure, every row already written is removed.
  std::vector<std::pair<Rid, Row>> applied;
  auto rollback = [&](Status st) -> Status {
    for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
      RevertInsertedRow(table, it->second, it->first);
    }
    return st;
  };
  for (const auto& row_exprs : stmt.rows) {
    if (Status dl = ctx.CheckDeadline(); !dl.ok()) return rollback(dl);
    if (row_exprs.size() != positions.size()) {
      return rollback(Status::InvalidArgument("VALUES arity mismatch"));
    }
    Row full(table->schema.size(), Value());
    for (size_t i = 0; i < positions.size(); ++i) {
      Result<Value> v = EvalParsedScalar(*row_exprs[i], nullptr, nullptr, ctx);
      if (!v.ok()) return rollback(v.status());
      full[positions[i]] = std::move(*v);
    }
    Rid rid;
    Row typed;
    Status st = InsertRowLatched(table, full, &rid, &typed);
    if (!st.ok()) return rollback(st);
    applied.emplace_back(rid, std::move(typed));
  }
  if (txn_undo != nullptr) {
    for (const auto& [rid, typed] : applied) {
      sql::ParsedExprPtr where = AllValuesPredicate(table->schema, typed);
      // An all-NULL row has no value predicate; an unqualified DELETE
      // would wipe the table, so leave that (degenerate) insert
      // uncompensated rather than stage a wrong undo.
      if (where == nullptr) continue;
      sql::Statement comp;
      comp.kind = sql::StatementKind::kDelete;
      comp.del = std::make_unique<sql::DeleteStmt>();
      comp.del->table = stmt.table;
      comp.del->where = std::move(where);
      txn_undo->push_back(std::move(comp));
    }
  }
  return static_cast<int64_t>(applied.size());
}

Result<int64_t> Database::ExecuteUpdate(const sql::UpdateStmt& stmt,
                                        const ExecContext& ctx,
                                        std::vector<sql::Statement>* txn_undo) {
  TableInfo* table = catalog_->GetTable(stmt.table);
  if (table == nullptr) return Status::NotFound("no such table: " + stmt.table);
  // Phase (a): run "SELECT * FROM t WHERE ..." and collect rows + RIDs.
  MTDB_ASSIGN_OR_RETURN(auto affected,
                        ScanQualifying(stmt.table, stmt.where.get(), ctx));

  std::vector<std::pair<size_t, const sql::ParsedExpr*>> sets;
  for (const auto& [col, expr] : stmt.assignments) {
    auto pos = table->schema.Find(col);
    if (!pos.has_value()) {
      return Status::NotFound("no column " + col + " in " + stmt.table);
    }
    sets.emplace_back(*pos, expr.get());
  }

  // Phase (b): apply per row; assignments may read old row values. Each
  // row applies atomically (UpdateRowLatched), and on a mid-statement
  // failure the rows already updated are reverted — the statement never
  // leaves a partial result.
  struct AppliedUpdate {
    Rid new_rid;
    Row old_row;
    Row new_row;
  };
  std::vector<AppliedUpdate> applied;
  auto rollback = [&](Status st) -> Status {
    for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
      RevertUpdatedRow(table, it->new_rid, it->new_row, it->old_row);
    }
    return st;
  };
  for (auto& [rid, old_row] : affected) {
    if (Status dl = ctx.CheckDeadline(); !dl.ok()) return rollback(dl);
    Row new_row = old_row;
    for (const auto& [pos, expr] : sets) {
      Result<Value> v = EvalParsedScalar(*expr, &old_row, &table->schema, ctx);
      if (!v.ok()) return rollback(v.status());
      Value val = std::move(*v);
      if (!val.is_null()) {
        Result<Value> cast = val.CastTo(table->schema.at(pos).type);
        if (!cast.ok()) return rollback(cast.status());
        val = std::move(*cast);
      }
      new_row[pos] = std::move(val);
    }
    Rid new_rid;
    Status st = UpdateRowLatched(table, rid, old_row, new_row, &new_rid);
    if (!st.ok()) return rollback(st);
    applied.push_back({new_rid, old_row, std::move(new_row)});
  }
  if (txn_undo != nullptr) {
    for (const AppliedUpdate& u : applied) {
      sql::ParsedExprPtr where = AllValuesPredicate(table->schema, u.new_row);
      if (where == nullptr) continue;  // all-NULL image: cannot address it
      sql::Statement comp;
      comp.kind = sql::StatementKind::kUpdate;
      comp.update = std::make_unique<sql::UpdateStmt>();
      comp.update->table = stmt.table;
      // Restore every column, not just the assigned ones: the hint must
      // reproduce the old image without access to in-memory state.
      for (size_t i = 0; i < u.old_row.size() && i < table->schema.size();
           ++i) {
        comp.update->assignments.emplace_back(
            table->schema.at(i).name, sql::MakeLiteral(u.old_row[i]));
      }
      comp.update->where = std::move(where);
      txn_undo->push_back(std::move(comp));
    }
  }
  return static_cast<int64_t>(affected.size());
}

Result<int64_t> Database::ExecuteDelete(const sql::DeleteStmt& stmt,
                                        const ExecContext& ctx,
                                        std::vector<sql::Statement>* txn_undo) {
  TableInfo* table = catalog_->GetTable(stmt.table);
  if (table == nullptr) return Status::NotFound("no such table: " + stmt.table);
  MTDB_ASSIGN_OR_RETURN(auto affected,
                        ScanQualifying(stmt.table, stmt.where.get(), ctx));
  // Each row deletes atomically; on a later failure the rows already
  // deleted are re-inserted (at fresh rids) so the statement is all-or-
  // nothing.
  std::vector<Row> deleted;
  for (const auto& [rid, old_row] : affected) {
    Status st = ctx.CheckDeadline();
    if (st.ok()) st = DeleteRowLatched(table, old_row, rid);
    if (!st.ok()) {
      for (auto it = deleted.rbegin(); it != deleted.rend(); ++it) {
        RestoreDeletedRow(table, *it);
      }
      return st;
    }
    deleted.push_back(old_row);
  }
  if (txn_undo != nullptr) {
    for (const Row& old_row : deleted) {
      sql::Statement comp;
      comp.kind = sql::StatementKind::kInsert;
      comp.insert = std::make_unique<sql::InsertStmt>();
      comp.insert->table = stmt.table;
      std::vector<sql::ParsedExprPtr> vals;
      for (size_t i = 0; i < old_row.size() && i < table->schema.size(); ++i) {
        comp.insert->columns.push_back(table->schema.at(i).name);
        vals.push_back(sql::MakeLiteral(old_row[i]));
      }
      comp.insert->rows.push_back(std::move(vals));
      txn_undo->push_back(std::move(comp));
    }
  }
  return static_cast<int64_t>(affected.size());
}

// --- direct helpers ----------------------------------------------------

// The direct helpers below mirror RunMutation's shape: an inner scope
// holds the latches and commits the WAL group, then MaybeAutoCheckpoint
// runs with everything released (Checkpoint takes the txn gate and
// ddl_mu_ exclusively, so it must never nest inside either).

Status Database::CreateTable(const std::string& name, Schema schema) {
  Status st = [&]() -> Status {
    std::unique_lock<SharedLatch> ddl(ddl_mu_);
    PageMutationCapture capture;
    Result<TableInfo*> created = [&]() -> Result<TableInfo*> {
      PageCaptureScope scope(&capture);
      return catalog_->CreateTable(name, std::move(schema));
    }();
    MTDB_RETURN_IF_ERROR(CommitDdlGroup(capture, created.ok()));
    return created.ok() ? Status::OK() : created.status();
  }();
  MaybeAutoCheckpoint();
  return st;
}

Status Database::DropTable(const std::string& name) {
  Status st = [&]() -> Status {
    std::unique_lock<SharedLatch> ddl(ddl_mu_);
    PageMutationCapture capture;
    Status dropped = [&]() -> Status {
      PageCaptureScope scope(&capture);
      return catalog_->DropTable(name);
    }();
    plan_cache_.Invalidate();
    MTDB_RETURN_IF_ERROR(CommitDdlGroup(capture, dropped.ok()));
    return dropped;
  }();
  MaybeAutoCheckpoint();
  return st;
}

Status Database::CreateIndex(const std::string& table, const std::string& index,
                             const std::vector<std::string>& columns,
                             bool unique) {
  Status st = [&]() -> Status {
    std::unique_lock<SharedLatch> ddl(ddl_mu_);
    PageMutationCapture capture;
    Result<IndexInfo*> created = [&]() -> Result<IndexInfo*> {
      PageCaptureScope scope(&capture);
      return catalog_->CreateIndex(table, index, columns, unique);
    }();
    plan_cache_.Invalidate();
    MTDB_RETURN_IF_ERROR(CommitDdlGroup(capture, created.ok()));
    return created.ok() ? Status::OK() : created.status();
  }();
  MaybeAutoCheckpoint();
  return st;
}

Status Database::InsertRow(const std::string& table, const Row& row) {
  trace::SpanScope span("insert", table);
  Status st = [&]() -> Status {
    std::shared_lock<SharedLatch> ddl(ddl_mu_);
    TableInfo* info = catalog_->GetTable(table);
    if (info == nullptr) return Status::NotFound("no such table: " + table);
    LatchSet latches;
    latches.LockTable(info, /*exclusive=*/true);
    if (durability_ == nullptr) return InsertRowLatched(info, row);
    if (durability_->frozen()) {
      return Status::Unavailable("durability frozen after crash");
    }
    PageMutationCapture capture;
    Status inserted = [&]() -> Status {
      PageCaptureScope scope(&capture);
      return InsertRowLatched(info, row);
    }();
    Status logged = CommitDmlGroup(capture, info);
    if (!logged.ok() && inserted.ok()) return logged;
    return inserted;
  }();
  MaybeAutoCheckpoint();
  return st;
}

// --- observability -----------------------------------------------------

EngineStats Database::Stats() const {
  // Every component snapshots under its own latch; no engine-wide lock.
  EngineStats out;
  out.buffer = pool_->stats();
  out.store = store_->stats();
  out.metadata_bytes = catalog_->metadata_bytes();
  out.buffer_capacity = pool_->capacity();
  out.tables = catalog_->table_count();
  out.indexes = catalog_->index_count();
  if (durability_ != nullptr) out.durability = durability_->counters().Snapshot();
  out.io_faults = store_->io_counters().Snapshot();
  out.plan_cache = plan_cache_.stats();
  out.metrics = registry_->Snapshot();
  return out;
}

std::string MappingExplanation::ToText() const {
  std::string out = "EXPLAIN MAPPING (layout=" + layout;
  if (tenant >= 0) out += ", tenant=" + std::to_string(tenant);
  out += ")\n  logical: " + logical + "\n";
  for (const PhysicalStatementPlan& p : statements) {
    out += "  physical[" + p.op + " " + p.table + "]: " + p.sql + "\n";
  }
  if (!plan_text.empty()) {
    out += "  plan:\n";
    size_t start = 0;
    while (start < plan_text.size()) {
      size_t end = plan_text.find('\n', start);
      if (end == std::string::npos) end = plan_text.size();
      out += "    " + plan_text.substr(start, end - start) + "\n";
      start = end + 1;
    }
  }
  return out;
}

void Database::ResetStats() {
  pool_->ResetStats();
  store_->ResetStats();
}

void Database::ColdCache() {
  // Exclude in-flight statements so no pinned frame blocks the sweep.
  // A failed write-back keeps its frame cached, so ignoring the status
  // here cannot lose data — the sweep is just less cold.
  std::unique_lock<SharedLatch> ddl(ddl_mu_);
  (void)pool_->EvictAll();
}

}  // namespace mtdb
