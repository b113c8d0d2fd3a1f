// The statement cache (DESIGN.md §18): a repeated logical SELECT runs its
// cached plan from the SQL text, without parse, transform or shape
// encoding, and returns exactly what the full path returns. Covers the
// benchmark's statements on all eight layouts, every admin operation
// that changes a tenant's mapping, the observer bypass, live changes of
// the transform options and planner mode, the size cap and concurrent
// statements under EnableExtension.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <thread>
#include <vector>

#include "core/migrator.h"
#include "core/tenant_session.h"
#include "engine/database.h"
#include "mapping_test_util.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "testbed/crm_schema.h"

namespace mtdb {
namespace {

using mapping::LayoutKind;
using mapping::SchemaMapping;

constexpr const char* kPointSql = "SELECT * FROM account WHERE id = ?";
constexpr const char* kNarrowSql =
    "SELECT name, status, amount FROM account WHERE id = ?";
constexpr const char* kJoinSql =
    "SELECT a.name, o.name, o.amount FROM account a JOIN opportunity o "
    "ON o.account_id = a.id WHERE a.id = ?";
constexpr const char* kReportSql =
    "SELECT status, COUNT(*), SUM(amount) FROM account GROUP BY status";

const LayoutKind kAllLayouts[] = {
    LayoutKind::kBasic,     LayoutKind::kPrivate, LayoutKind::kExtension,
    LayoutKind::kUniversal, LayoutKind::kPivot,   LayoutKind::kChunk,
    LayoutKind::kVertical,  LayoutKind::kChunkFolding};

std::string LayoutName(const ::testing::TestParamInfo<LayoutKind>& info) {
  return mapping::LayoutKindName(info.param);
}

/// Column names, then one line per row with each value's type and text.
std::string Dump(const Result<QueryResult>& r) {
  if (!r.ok()) return "ERROR " + r.status().ToString();
  std::string out;
  for (const std::string& c : r->columns) out += c + "|";
  out += "\n";
  for (const Row& row : r->rows) {
    for (const Value& v : row) {
      out += std::to_string(static_cast<int>(v.type())) + ":" +
             (v.is_null() ? "NULL" : v.ToString()) + "|";
    }
    out += "\n";
  }
  return out;
}

/// The full path without either cache above the engine: parse,
/// transform, run the physical statement.
std::string Uncached(SchemaMapping* layout, TenantId tenant,
                     const std::string& sql,
                     const std::vector<Value>& params) {
  auto stmt = sql::ParseSelect(sql);
  if (!stmt.ok()) return "ERROR " + stmt.status().ToString();
  mapping::QueryTransformer transformer(layout, layout->transform_options());
  auto physical = transformer.TransformSelect(tenant, **stmt);
  if (!physical.ok()) return "ERROR " + physical.status().ToString();
  return Dump(layout->db()->QueryAst(**physical, params));
}

std::string Cached(SchemaMapping* layout, TenantId tenant,
                   const std::string& sql,
                   const std::vector<Value>& params = {}) {
  return Dump(layout->Query(tenant, sql, params));
}

/// The column names a tenant's SELECT * returns.
std::vector<std::string> Columns(SchemaMapping* layout, TenantId tenant) {
  auto r = layout->Query(tenant, "SELECT * FROM account");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->columns : std::vector<std::string>{};
}

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

Row MakeRow(const std::vector<mapping::LogicalColumn>& cols, int64_t id,
            int64_t parent) {
  Row row;
  for (size_t i = 0; i < cols.size(); ++i) {
    const std::string& name = cols[i].name;
    const int64_t seed = id * 31 + static_cast<int64_t>(i);
    if (name == "id") {
      row.push_back(Value::Int64(id));
    } else if (name == "account_id") {
      row.push_back(Value::Int64(parent));
    } else if (name == "status") {
      row.push_back(Value::String(id % 2 == 0 ? "open" : "won"));
    } else if (cols[i].type == TypeId::kString) {
      row.push_back(Value::String("v" + std::to_string(seed)));
    } else if (cols[i].type == TypeId::kDouble) {
      row.push_back(Value::Double(static_cast<double>(seed % 5000)));
    } else if (cols[i].type == TypeId::kInt32) {
      row.push_back(Value::Int32(static_cast<int32_t>(seed % 1000)));
    } else if (cols[i].type == TypeId::kDate) {
      row.push_back(Value::Date(static_cast<int32_t>(18000 + seed % 2000)));
    } else if (cols[i].type == TypeId::kBool) {
      row.push_back(Value::Bool(seed % 2 == 0));
    } else {
      row.push_back(Value::Int64(seed));
    }
  }
  return row;
}

/// The CRM application on one layout: `tenants` tenants (extensions by
/// ExtensionOf), three accounts with one opportunity each per tenant.
struct Deployment {
  mapping::AppSchema app = testbed::BuildCrmAppSchema();
  std::unique_ptr<Database> db = std::make_unique<Database>();
  std::unique_ptr<SchemaMapping> layout;

  Deployment(LayoutKind kind, int32_t tenants) {
    layout = mapping::MakeLayout(kind, db.get(), &app);
    EXPECT_TRUE(layout->Bootstrap().ok());
    for (int32_t t = 0; t < tenants; ++t) Provision(kind, t);
  }

  void Provision(LayoutKind kind, int32_t t) {
    EXPECT_TRUE(layout->CreateTenant(t).ok());
    std::vector<mapping::LogicalColumn> cols =
        app.FindTable("account")->columns;
    const char* ext = kind != LayoutKind::kBasic ? ExtensionOf(t) : nullptr;
    if (ext != nullptr) {
      EXPECT_TRUE(layout->EnableExtension(t, ext).ok());
      for (const auto& c : app.FindExtension(ext)->columns) cols.push_back(c);
    }
    const auto& opp_cols = app.FindTable("opportunity")->columns;
    for (int64_t id = 1; id <= 3; ++id) {
      EXPECT_TRUE(layout->InsertRow(t, "account", MakeRow(cols, id, 0)).ok());
      EXPECT_TRUE(
          layout->InsertRow(t, "opportunity", MakeRow(opp_cols, id, id)).ok());
    }
  }

  const mapping::StmtCacheCounters& counters() const {
    return layout->stats().stmt_cache;
  }
};

struct Statement {
  const char* sql;
  std::vector<Value> params;
};

/// The benchmark's SELECTs plus statements with inline literals, ORDER
/// BY and an aggregate over the child table.
const std::vector<Statement>& Corpus() {
  static const auto* kCorpus = new std::vector<Statement>{
      {kPointSql, {Value::Int64(2)}},
      {kNarrowSql, {Value::Int64(2)}},
      {kJoinSql, {Value::Int64(2)}},
      {kReportSql, {}},
      {"SELECT id, name FROM account WHERE status = 'won' ORDER BY id", {}},
      {"SELECT * FROM account WHERE id = 3", {}},
      {"SELECT COUNT(*), SUM(amount) FROM opportunity WHERE account_id > ?",
       {Value::Int64(1)}},
  };
  return *kCorpus;
}

// --- every layout: cold, then warm, against the full path ---------------

class StatementCacheLayoutTest : public ::testing::TestWithParam<LayoutKind> {
};

TEST_P(StatementCacheLayoutTest, MatchesTheFullPathColdAndWarm) {
  Deployment d(GetParam(), 3);
  SchemaMapping* layout = d.layout.get();
  for (const char* pass : {"cold", "warm"}) {
    const uint64_t misses = d.counters().misses.value();
    const uint64_t hits = d.counters().hits.value();
    const uint64_t transformed = layout->stats().queries_transformed.value();
    for (int32_t t = 0; t < 3; ++t) {
      for (const Statement& s : Corpus()) {
        SCOPED_TRACE(std::string(pass) + " tenant " + std::to_string(t) +
                     ": " + s.sql);
        const std::string want = Uncached(layout, t, s.sql, s.params);
        EXPECT_EQ(want.rfind("ERROR", 0), std::string::npos) << want;
        EXPECT_EQ(Cached(layout, t, s.sql, s.params), want);
      }
    }
    const uint64_t n = 3 * Corpus().size();
    if (std::string(pass) == "cold") {
      EXPECT_EQ(d.counters().misses.value(), misses + n);
      EXPECT_EQ(layout->stats().queries_transformed.value(), transformed + n);
    } else {
      // The private layout's statements on its own tables fit the plan
      // cache here too, so every warm statement is a hit.
      EXPECT_EQ(d.counters().hits.value(), hits + n);
      EXPECT_EQ(d.counters().misses.value(), misses);
      EXPECT_EQ(layout->stats().queries_transformed.value(), transformed);
    }
  }
  EXPECT_EQ(d.counters().entries.value(), 3 * Corpus().size());
  EXPECT_GT(d.counters().bytes.value(), 0u);
  EXPECT_EQ(d.counters().fallbacks.value(), 0u);
}

TEST_P(StatementCacheLayoutTest, HeatMatchesTheFullPath) {
  // Two deployments, one served by the cache and one whose statements
  // all take the full path (an observer bypasses the cache).
  Deployment cached(GetParam(), 3);
  Deployment full(GetParam(), 3);
  class Ignore : public mapping::PhysicalStatementObserver {
    void OnSelect(TenantId, const sql::SelectStmt&) override {}
    void OnStatement(TenantId, const sql::Statement&) override {}
  } ignore;
  full.layout->set_statement_observer(&ignore);
  cached.layout->mutable_heat_profile()->Clear();
  full.layout->mutable_heat_profile()->Clear();
  for (int round = 0; round < 3; ++round) {
    for (int32_t t = 0; t < 3; ++t) {
      for (const Statement& s : Corpus()) {
        ASSERT_TRUE(cached.layout->Query(t, s.sql, s.params).ok());
        ASSERT_TRUE(full.layout->Query(t, s.sql, s.params).ok());
      }
    }
  }
  full.layout->set_statement_observer(nullptr);
  EXPECT_GT(cached.counters().hits.value(), 0u);
  EXPECT_EQ(full.counters().hits.value(), 0u);
  const mapping::HeatProfile& a = cached.layout->heat_profile();
  const mapping::HeatProfile& b = full.layout->heat_profile();
  EXPECT_GT(a.total(), 0u);
  EXPECT_EQ(a.total(), b.total());
  for (const mapping::LogicalTable& t : cached.app.tables()) {
    for (const mapping::LogicalColumn& c : t.columns) {
      EXPECT_EQ(a.ColumnHeat(t.name, c.name), b.ColumnHeat(t.name, c.name))
          << t.name << "." << c.name;
    }
  }
  for (const mapping::ExtensionDef& e : cached.app.extensions()) {
    EXPECT_EQ(a.ExtensionHeat(e), b.ExtensionHeat(e)) << e.name;
  }
  for (int budget = 0; budget <= 3; ++budget) {
    EXPECT_EQ(mapping::AdviseConventionalExtensions(cached.app, a, budget),
              mapping::AdviseConventionalExtensions(full.app, b, budget));
  }
}

TEST_P(StatementCacheLayoutTest, DropAndRecreateTenantDropsItsStatements) {
  if (GetParam() == LayoutKind::kBasic) GTEST_SKIP() << "no extensions";
  Deployment d(GetParam(), 1);  // tenant 0 has the healthcare extension
  const std::vector<std::string> extended = Columns(d.layout.get(), 0);
  ASSERT_EQ(Columns(d.layout.get(), 0), extended);  // a hit
  ASSERT_TRUE(d.layout->DropTenant(0).ok());
  EXPECT_EQ(d.counters().entries.value(), 0u);
  EXPECT_FALSE(d.layout->Query(0, "SELECT * FROM account").ok());
  ASSERT_TRUE(d.layout->CreateTenant(0).ok());
  const std::vector<std::string> base = Columns(d.layout.get(), 0);
  EXPECT_LT(base.size(), extended.size());
  auto rows = d.layout->Query(0, "SELECT * FROM account");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->rows.empty());
}

TEST_P(StatementCacheLayoutTest, EnableExtensionChangesSelectStar) {
  if (GetParam() == LayoutKind::kBasic) GTEST_SKIP() << "no extensions";
  Deployment d(GetParam(), 3);  // tenant 2 has no extension
  const std::vector<std::string> before = Columns(d.layout.get(), 2);
  ASSERT_EQ(Columns(d.layout.get(), 2), before);
  const uint64_t invalidations = d.counters().invalidations.value();
  ASSERT_TRUE(d.layout->EnableExtension(2, "healthcare_account").ok());
  EXPECT_GT(d.counters().invalidations.value(), invalidations);
  const std::vector<std::string> after = Columns(d.layout.get(), 2);
  EXPECT_GT(after.size(), before.size());
  EXPECT_EQ(Cached(d.layout.get(), 2, "SELECT * FROM account ORDER BY id"),
            Uncached(d.layout.get(), 2, "SELECT * FROM account ORDER BY id",
                     {}));
}

TEST_P(StatementCacheLayoutTest, MigrationMovesTheTenantsStatements) {
  Deployment from(GetParam(), 3);
  Database target;
  auto to = mapping::MakeLayout(LayoutKind::kChunkFolding == GetParam()
                                    ? LayoutKind::kExtension
                                    : LayoutKind::kChunkFolding,
                                &target, &from.app);
  ASSERT_TRUE(to->Bootstrap().ok());
  const std::string all = "SELECT * FROM account ORDER BY id";
  const std::string want = Cached(from.layout.get(), 1, all);
  ASSERT_EQ(Cached(from.layout.get(), 1, all), want);  // a hit
  auto report = mapping::LayoutMigrator::MigrateTenant(from.layout.get(),
                                                       to.get(), 1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(from.layout->DropTenant(1).ok());
  EXPECT_FALSE(from.layout->Query(1, all).ok());
  EXPECT_EQ(Cached(to.get(), 1, all), want);
  EXPECT_EQ(Cached(to.get(), 1, all), want);
  EXPECT_EQ(to->stats().stmt_cache.hits.value(), 1u);
  // The other tenants of the source layout are unaffected.
  EXPECT_EQ(Cached(from.layout.get(), 0, all),
            Uncached(from.layout.get(), 0, all, {}));
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, StatementCacheLayoutTest,
                         ::testing::ValuesIn(kAllLayouts), LayoutName);

// --- admin operations on the Figure 4 schema ----------------------------

TEST(StatementCacheInvalidationTest, FailedEnableExtensionRollsBack) {
  mapping::AppSchema app = mapping::FigureFourSchema();
  Database db;
  // Three data columns: the base table (aid, name) plus automotive's
  // dealers fit, healthcare's two columns do not.
  mapping::UniversalTableLayout layout(&db, &app, /*width=*/3);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(layout.CreateTenant(35).ok());
  ASSERT_TRUE(
      layout.Execute(35, "INSERT INTO account (aid, name) VALUES (1, 'Ball')")
          .ok());
  const std::vector<std::string> base = Columns(&layout, 35);
  ASSERT_EQ(base.size(), 2u);
  ASSERT_EQ(Columns(&layout, 35), base);
  EXPECT_EQ(layout.stats().stmt_cache.hits.value(), 1u);

  EXPECT_FALSE(layout.EnableExtension(35, "healthcare").ok());
  EXPECT_EQ(layout.stats().stmt_cache.entries.value(), 0u);
  EXPECT_EQ(Columns(&layout, 35), base);
  EXPECT_FALSE(layout.Query(35, "SELECT beds FROM account").ok());

  ASSERT_TRUE(layout.EnableExtension(35, "automotive").ok());
  EXPECT_EQ(Columns(&layout, 35),
            (std::vector<std::string>{"aid", "name", "dealers"}));
}

TEST(StatementCacheInvalidationTest, PrivateTableVersionChange) {
  mapping::AppSchema app = mapping::FigureFourSchema();
  Database db;
  mapping::PrivateTableLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(mapping::LoadFigureFourData(&layout).ok());
  const std::string all = "SELECT * FROM account ORDER BY aid";
  ASSERT_EQ(Columns(&layout, 35).size(), 2u);
  const std::string before = Cached(&layout, 35, all);
  ASSERT_EQ(Cached(&layout, 35, all), before);
  auto old_sql = layout.ShowTransformed(35, all);
  ASSERT_TRUE(old_sql.ok());

  // The private layout rebuilds tenant 35's table under a new name.
  ASSERT_TRUE(layout.EnableExtension(35, "healthcare").ok());
  auto new_sql = layout.ShowTransformed(35, all);
  ASSERT_TRUE(new_sql.ok());
  EXPECT_NE(*new_sql, *old_sql);
  EXPECT_EQ(Columns(&layout, 35).size(), 4u);
  const std::string after = Cached(&layout, 35, all);
  EXPECT_NE(after, before);
  EXPECT_EQ(after, Uncached(&layout, 35, all, {}));
  EXPECT_EQ(Cached(&layout, 35, all), after);
}

TEST(StatementCacheInvalidationTest, DurableReopenAndRecover) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "mtdb_stmt_cache_recover";
  fs::remove_all(dir);
  mapping::AppSchema app = mapping::FigureFourSchema();
  const std::string all = "SELECT * FROM account ORDER BY aid";
  std::string before;
  {
    auto opened = Database::Open(DatabaseOptions::WithPath(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    mapping::ChunkTableLayout layout(db.get(), &app);
    ASSERT_TRUE(layout.Bootstrap().ok());
    ASSERT_TRUE(mapping::LoadFigureFourData(&layout).ok());
    before = Cached(&layout, 35, all);
    ASSERT_EQ(Cached(&layout, 35, all), before);
    ASSERT_TRUE(layout.EnableExtension(35, "automotive").ok());
    EXPECT_NE(Cached(&layout, 35, all), before);
  }
  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  mapping::ChunkTableLayout layout(db.get(), &app);
  ASSERT_TRUE(layout.Recover().ok());
  EXPECT_EQ(Columns(&layout, 35),
            (std::vector<std::string>{"aid", "name", "dealers"}));
  const std::string after = Cached(&layout, 35, all);
  EXPECT_EQ(after, Uncached(&layout, 35, all, {}));
  EXPECT_EQ(Cached(&layout, 35, all), after);
  EXPECT_EQ(layout.stats().stmt_cache.hits.value(), 1u);
  fs::remove_all(dir);
}

// --- the observer, parameters, the cap ----------------------------------

/// Every physical SELECT the layout emits, as SQL.
class CaptureSql : public mapping::PhysicalStatementObserver {
 public:
  void OnSelect(TenantId, const sql::SelectStmt& stmt) override {
    sql.push_back(sql::ToSql(stmt));
  }
  void OnStatement(TenantId, const sql::Statement&) override {}
  std::vector<std::string> sql;
};

TEST(StatementCacheTest, ObserverSeesEveryPhysicalStatement) {
  Deployment d(LayoutKind::kChunk, 2);
  SchemaMapping* layout = d.layout.get();
  // Cached first: the observer must still see the statement.
  ASSERT_TRUE(layout->Query(0, kJoinSql, {Value::Int64(1)}).ok());
  ASSERT_TRUE(layout->Query(0, kJoinSql, {Value::Int64(1)}).ok());
  ASSERT_EQ(d.counters().hits.value(), 1u);
  CaptureSql capture;
  layout->set_statement_observer(&capture);
  ASSERT_TRUE(layout->Query(0, kJoinSql, {Value::Int64(1)}).ok());
  ASSERT_TRUE(layout->Query(0, kJoinSql, {Value::Int64(2)}).ok());
  layout->set_statement_observer(nullptr);
  ASSERT_EQ(capture.sql.size(), 2u);
  EXPECT_EQ(capture.sql[0], capture.sql[1]);
  auto shown = layout->ShowTransformed(0, kJoinSql);
  ASSERT_TRUE(shown.ok());
  EXPECT_EQ(capture.sql[0], *shown);
  EXPECT_EQ(d.counters().fallbacks.value(), 2u);
  EXPECT_EQ(d.counters().hits.value(), 1u);
  // Without the observer the entry serves again.
  ASSERT_TRUE(layout->Query(0, kJoinSql, {Value::Int64(1)}).ok());
  EXPECT_EQ(d.counters().hits.value(), 2u);
}

TEST(StatementCacheTest, MissingParameterFailsOnAHit) {
  Deployment d(LayoutKind::kPivot, 1);
  ASSERT_TRUE(d.layout->Query(0, kPointSql, {Value::Int64(1)}).ok());
  auto r = d.layout->Query(0, kPointSql, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "missing bind parameter 1");
  EXPECT_EQ(d.counters().hits.value(), 1u);
  // The failure took no plan away: the next statement is a hit again.
  EXPECT_EQ(Cached(d.layout.get(), 0, kPointSql, {Value::Int64(2)}),
            Uncached(d.layout.get(), 0, kPointSql, {Value::Int64(2)}));
  EXPECT_EQ(d.counters().hits.value(), 2u);
}

TEST(StatementCacheTest, FailedStatementsAreNotCached) {
  Deployment d(LayoutKind::kChunk, 1);
  EXPECT_FALSE(d.layout->Query(0, "SELECT nope FROM account").ok());
  EXPECT_FALSE(d.layout->Query(0, "SELEC id FROM account").ok());
  EXPECT_FALSE(d.layout->Query(7, "SELECT id FROM account").ok());
  EXPECT_EQ(d.counters().entries.value(), 0u);
  EXPECT_EQ(d.counters().misses.value(), 3u);
}

TEST(StatementCacheTest, DistinctLiteralsStayWithinTheCap) {
  Deployment d(LayoutKind::kChunk, 1);
  constexpr int kStatements = 10'000;
  int wrong = 0;
  uint64_t plans = 0;
  for (int i = 0; i < kStatements; ++i) {
    if (i == 1) plans = d.db->Stats().plan_cache.entries;
    auto r = d.layout->Query(
        0, "SELECT id, name FROM account WHERE id = " + std::to_string(i));
    const size_t want = i >= 1 && i <= 3 ? 1 : 0;
    if (!r.ok() || r->rows.size() != want ||
        (want == 1 && r->rows[0][0].AsInt64() != i)) {
      wrong++;
    }
  }
  EXPECT_EQ(wrong, 0);
  const size_t cap = mapping::StatementCache::kMaxEntries;
  EXPECT_EQ(d.counters().entries.value(), cap);
  EXPECT_EQ(d.counters().evictions.value(), kStatements - cap);
  // The literal is a slot of the physical statement: one plan for all.
  EXPECT_EQ(d.db->Stats().plan_cache.entries, plans);
  // The newest statements are still cached.
  ASSERT_TRUE(
      d.layout->Query(0, "SELECT id, name FROM account WHERE id = 9999").ok());
  EXPECT_EQ(d.counters().hits.value(), 1u);
}

// --- live configuration ---------------------------------------------------

/// Flipping a transform option or the planner mode between two identical
/// statements changes the physical statement or its plan: the second
/// statement must not run the first one's cached plan.
TEST(StatementCacheLiveConfigTest, OptionsAndPlannerModeTakeEffect) {
  Deployment d(LayoutKind::kChunk, 2);
  SchemaMapping* layout = d.layout.get();
  Database* db = d.db.get();
  const std::vector<Value> id2 = {Value::Int64(2)};
  auto explain = [&] {
    auto e = layout->ExplainMapping(0, kNarrowSql, id2);
    EXPECT_TRUE(e.ok());
    return e.ok() ? e->statements.at(0).sql + "\n" + e->plan_text : "";
  };
  const std::string rows = Cached(layout, 0, kNarrowSql, id2);
  ASSERT_EQ(Cached(layout, 0, kNarrowSql, id2), rows);
  ASSERT_EQ(d.counters().hits.value(), 1u);

  struct Flip {
    const char* what;
    std::function<void()> apply;
    bool fallback;  // the planner mode: the entry exists but cannot serve
  };
  mapping::TransformOptions& options = layout->transform_options();
  const Flip flips[] = {
      {"emit mode",
       [&] {
         options.emit_mode = options.emit_mode == mapping::EmitMode::kNested
                                 ? mapping::EmitMode::kFlattened
                                 : mapping::EmitMode::kNested;
       },
       false},
      {"predicate order",
       [&] {
         options.predicate_order =
             options.predicate_order == mapping::PredicateOrder::kSelectiveFirst
                 ? mapping::PredicateOrder::kMetadataFirst
                 : mapping::PredicateOrder::kSelectiveFirst;
       },
       false},
      {"planner mode",
       [&] {
         db->set_planner_mode(db->planner_mode() == PlannerMode::kAdvanced
                                  ? PlannerMode::kNaive
                                  : PlannerMode::kAdvanced);
       },
       true},
  };
  // Predicate order only shapes flattened statements: flatten first.
  for (const Flip& flip : flips) {
    SCOPED_TRACE(flip.what);
    const std::string before = explain();
    const uint64_t plans = db->Stats().plan_cache.entries;
    const uint64_t transformed = layout->stats().queries_transformed.value();
    const uint64_t fallbacks = d.counters().fallbacks.value();
    flip.apply();
    EXPECT_NE(explain(), before);
    EXPECT_EQ(Cached(layout, 0, kNarrowSql, id2), rows);
    EXPECT_EQ(layout->stats().queries_transformed.value(), transformed + 1);
    EXPECT_EQ(d.counters().fallbacks.value(), fallbacks + (flip.fallback));
    EXPECT_GT(db->Stats().plan_cache.entries, plans);
    // And the new setting's statement is cached in turn.
    const uint64_t hits = d.counters().hits.value();
    EXPECT_EQ(Cached(layout, 0, kNarrowSql, id2), rows);
    EXPECT_EQ(d.counters().hits.value(), hits + 1);
  }
}

// --- concurrency ------------------------------------------------------------

// Eight sessions run the benchmark's SELECTs while a ninth loops
// EnableExtension (each call clears both caches above the engine) and
// provisions and drops a scratch tenant — the TSan canary.
TEST(StatementCacheConcurrencyTest, EightSessionsUnderEnableExtension) {
  Deployment d(LayoutKind::kChunk, 4);
  SchemaMapping* layout = d.layout.get();
  constexpr int kThreads = 8;
  constexpr int kIters = 120;
  std::atomic<int> wrong{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      const TenantId tenant = w % 4;
      mapping::TenantSession session = layout->OpenSession(tenant);
      for (int i = 0; i < kIters; ++i) {
        const int64_t id = 1 + (w + i) % 3;
        auto point = session.Query(kPointSql, {Value::Int64(id)});
        auto join = session.Query(kJoinSql, {Value::Int64(id)});
        auto report = session.Query(kReportSql);
        if (!point.ok() || point->rows.size() != 1 ||
            point->rows[0][0].AsInt64() != id || !join.ok() ||
            join->rows.size() != 1 || !report.ok() ||
            report->rows.size() != 2) {
          wrong++;
        }
      }
    });
  }
  std::thread admin([&] {
    for (int round = 0; !stop; ++round) {
      if (!layout->EnableExtension(0, "healthcare_account").ok()) wrong++;
      const TenantId scratch = 100 + round;
      if (!layout->CreateTenant(scratch).ok()) wrong++;
      if (!layout->EnableExtension(scratch, "automotive_account").ok()) {
        wrong++;
      }
      if (!layout->Query(scratch, kReportSql).ok()) wrong++;
      if (!layout->DropTenant(scratch).ok()) wrong++;
    }
  });
  for (std::thread& t : threads) t.join();
  stop = true;
  admin.join();
  EXPECT_EQ(wrong.load(), 0);
  const mapping::StmtCacheCounters& c = d.counters();
  EXPECT_GT(c.invalidations.value(), 0u);
  EXPECT_LE(c.entries.value(), mapping::StatementCache::kMaxEntries);
}

}  // namespace
}  // namespace mtdb
