// The plan cache (DESIGN.md §17): statements whose physical SQL differs
// only in WHERE literals share one compiled plan, and what they return —
// rows, column names and EXPLAIN text — is exactly what the uncached
// planner gives. Covers the benchmark's statements on all eight layouts,
// sharing across tenants, DDL invalidation, the literals that are never
// lifted, LRU eviction, failed executions and concurrent executions of
// one shape.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "mapping_test_util.h"
#include "sql/parser.h"
#include "sql/shape.h"
#include "testbed/crm_schema.h"

namespace mtdb {
namespace {

using mapping::LayoutKind;

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

const LayoutKind kAllLayouts[] = {
    LayoutKind::kBasic,     LayoutKind::kPrivate, LayoutKind::kExtension,
    LayoutKind::kUniversal, LayoutKind::kPivot,   LayoutKind::kChunk,
    LayoutKind::kVertical,  LayoutKind::kChunkFolding};

/// Column names, then one line per row with each value's type and text.
std::string Dump(const QueryResult& r) {
  std::string out;
  for (const std::string& c : r.columns) out += c + "|";
  out += "\n";
  for (const Row& row : r.rows) {
    for (const Value& v : row) {
      out += std::to_string(static_cast<int>(v.type())) + ":" +
             (v.is_null() ? "NULL" : v.ToString()) + "|";
    }
    out += "\n";
  }
  return out;
}

/// Runs `stmt` with a fresh plan from the planner, bypassing the cache.
std::string RunUncached(Database* db, const sql::SelectStmt& stmt,
                        const std::vector<Value>& params) {
  auto plan = PlanSelect(stmt, db->catalog(), db->planner_mode());
  if (!plan.ok()) return "ERROR " + plan.status().ToString();
  ExecContext ctx;
  ctx.params = params;
  Status st = (*plan)->Init(ctx);
  if (!st.ok()) return "ERROR " + st.ToString();
  QueryResult out;
  out.columns = (*plan)->schema().names;
  Row row;
  while (true) {
    Result<bool> more = (*plan)->Next(&row, ctx);
    if (!more.ok()) return "ERROR " + more.status().ToString();
    if (!*more) break;
    out.rows.push_back(row);
  }
  return Dump(out);
}

std::string RunCached(Database* db, const sql::SelectStmt& stmt,
                      const std::vector<Value>& params) {
  auto r = db->QueryAst(stmt, params);
  return r.ok() ? Dump(*r) : "ERROR " + r.status().ToString();
}

std::string ExplainCached(Database* db, const sql::SelectStmt& stmt) {
  auto r = db->ExplainAst(stmt);
  return r.ok() ? *r : "ERROR " + r.status().ToString();
}

std::string ExplainUncached(Database* db, const sql::SelectStmt& stmt) {
  auto r = ExplainSelect(stmt, db->catalog(), db->planner_mode());
  return r.ok() ? *r : "ERROR " + r.status().ToString();
}

/// Drops every plan-cache entry (DROP TABLE invalidates the cache).
void PurgeCache(Database* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE purge_me (x INT)").ok());
  ASSERT_TRUE(db->Execute("DROP TABLE purge_me").ok());
  ASSERT_EQ(db->Stats().plan_cache.entries, 0u);
}

// --- the benchmark's statements on every layout ------------------------

/// Every physical SELECT a layout emits, and the engine's qualifying
/// scan of every physical UPDATE/DELETE, with the statement's params.
class Capture : public mapping::PhysicalStatementObserver {
 public:
  void OnSelect(TenantId, const sql::SelectStmt& stmt) override {
    selects.push_back(stmt.Clone());
  }
  void OnStatement(TenantId, const sql::Statement& stmt) override {
    const std::string* table = nullptr;
    const sql::ParsedExpr* where = nullptr;
    if (stmt.kind == sql::StatementKind::kUpdate) {
      table = &stmt.update->table;
      where = stmt.update->where.get();
    } else if (stmt.kind == sql::StatementKind::kDelete) {
      table = &stmt.del->table;
      where = stmt.del->where.get();
    } else {
      return;
    }
    auto select = std::make_unique<sql::SelectStmt>();
    select->select_star = true;
    sql::TableRef ref;
    ref.table_name = *table;
    select->from.push_back(std::move(ref));
    if (where != nullptr) select->where = where->Clone();
    selects.push_back(std::move(select));
  }

  std::vector<std::unique_ptr<sql::SelectStmt>> selects;
};

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

/// A layout with `tenants` tenants (extensions by ExtensionOf), three
/// accounts with one opportunity each per tenant.
struct Deployment {
  mapping::AppSchema app = testbed::BuildCrmAppSchema();
  std::unique_ptr<Database> db = std::make_unique<Database>();
  std::unique_ptr<mapping::SchemaMapping> layout;

  Deployment(LayoutKind kind, int32_t tenants) {
    layout = mapping::MakeLayout(kind, db.get(), &app);
    EXPECT_TRUE(layout->Bootstrap().ok());
    for (int32_t t = 0; t < tenants; ++t) {
      EXPECT_TRUE(layout->CreateTenant(t).ok());
      std::vector<mapping::LogicalColumn> cols =
          app.FindTable("account")->columns;
      const char* ext =
          kind != LayoutKind::kBasic ? ExtensionOf(t) : nullptr;
      if (ext != nullptr) {
        EXPECT_TRUE(layout->EnableExtension(t, ext).ok());
        for (const auto& c : app.FindExtension(ext)->columns) {
          cols.push_back(c);
        }
      }
      const auto& opp_cols = app.FindTable("opportunity")->columns;
      for (int64_t id = 1; id <= 3; ++id) {
        EXPECT_TRUE(
            layout->InsertRow(t, "account", MakeRow(cols, id, 0)).ok());
        EXPECT_TRUE(
            layout->InsertRow(t, "opportunity", MakeRow(opp_cols, id, id))
                .ok());
      }
    }
  }
};

struct Op {
  const char* sql;
  std::vector<Value> params;
  bool select;
};

const std::vector<Op>& Ops() {
  static const auto* kOps = new std::vector<Op>{
      {kPointSql, {Value::Int64(2)}, true},
      {kNarrowSql, {Value::Int64(2)}, true},
      {kJoinSql, {Value::Int64(2)}, true},
      {kReportSql, {}, true},
      {kUpdateSql,
       {Value::Double(7), Value::String("won"), Value::Int64(2)},
       false},
      {kDeleteSql, {Value::Int64(3)}, false},
  };
  return *kOps;
}

Status RunOp(mapping::SchemaMapping* layout, int32_t tenant, const Op& op) {
  return op.select ? layout->Query(tenant, op.sql, op.params).status()
                   : layout->Execute(tenant, op.sql, op.params).status();
}

class PlanCacheLayoutTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(PlanCacheLayoutTest, MatchesUncachedPlannerColdAndWarm) {
  Deployment d(GetParam(), 3);
  struct Captured {
    std::unique_ptr<sql::SelectStmt> stmt;
    std::vector<Value> params;
  };
  std::vector<Captured> corpus;
  for (int32_t t = 0; t < 3; ++t) {
    for (const Op& op : Ops()) {
      Capture capture;
      d.layout->set_statement_observer(&capture);
      Status st = RunOp(d.layout.get(), t, op);
      d.layout->set_statement_observer(nullptr);
      ASSERT_TRUE(st.ok()) << op.sql << ": " << st.ToString();
      for (auto& s : capture.selects) {
        corpus.push_back({std::move(s), op.params});
      }
    }
  }
  ASSERT_FALSE(corpus.empty());
  Database* db = d.db.get();
  for (PlannerMode mode : {PlannerMode::kNaive, PlannerMode::kAdvanced}) {
    db->set_planner_mode(mode);
    PurgeCache(db);
    for (const char* pass : {"cold", "warm"}) {
      const uint64_t misses = db->Stats().plan_cache.misses;
      for (const Captured& c : corpus) {
        SCOPED_TRACE(std::string(pass) + " " + sql::ToSql(*c.stmt));
        EXPECT_EQ(ExplainCached(db, *c.stmt), ExplainUncached(db, *c.stmt));
        EXPECT_EQ(RunCached(db, *c.stmt, c.params),
                  RunUncached(db, *c.stmt, c.params));
      }
      if (std::string(pass) == "warm") {
        EXPECT_EQ(db->Stats().plan_cache.misses, misses);
      }
    }
  }
}

TEST_P(PlanCacheLayoutTest, TenantsWithTheSameExtensionShareEntries) {
  // Tenants 0 and 3 both have the healthcare extension.
  Deployment d(GetParam(), 4);
  for (int round = 0; round < 2; ++round) {
    for (const Op& op : Ops()) {
      ASSERT_TRUE(RunOp(d.layout.get(), 0, op).ok()) << op.sql;
    }
  }
  const PlanCacheStats before = d.db->Stats().plan_cache;
  ASSERT_GT(before.entries, 0u);
  for (const Op& op : Ops()) {
    ASSERT_TRUE(RunOp(d.layout.get(), 3, op).ok()) << op.sql;
  }
  const PlanCacheStats after = d.db->Stats().plan_cache;
  if (GetParam() == LayoutKind::kPrivate) {
    // Every tenant owns its tables, so its statements are its own shapes.
    EXPECT_GT(after.entries, before.entries);
  } else {
    EXPECT_EQ(after.entries, before.entries);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_GT(after.hits, before.hits);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, PlanCacheLayoutTest,
                         ::testing::ValuesIn(kAllLayouts),
                         [](const ::testing::TestParamInfo<LayoutKind>& i) {
                           return std::string(
                               mapping::LayoutKindName(i.param));
                         });

// --- engine-level behaviour ----------------------------------------------

class PlanCacheEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE t (id BIGINT, v BIGINT, name VARCHAR)")
            .ok());
    for (int i = 1; i <= 20; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i % 4) + ", 'n" +
                              std::to_string(i) + "')")
                      .ok());
    }
  }

  /// Runs `sql` through the cache and checks it against the planner.
  std::string Checked(const std::string& sql,
                      const std::vector<Value>& params = {}) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    if (!stmt.ok()) return "";
    std::string cached = RunCached(&db_, **stmt, params);
    EXPECT_EQ(cached, RunUncached(&db_, **stmt, params)) << sql;
    EXPECT_EQ(ExplainCached(&db_, **stmt), ExplainUncached(&db_, **stmt))
        << sql;
    return cached;
  }

  PlanCacheStats stats() { return db_.Stats().plan_cache; }

  Database db_;
};

TEST_F(PlanCacheEngineTest, WhereLiteralsShareOneEntry) {
  Checked("SELECT name FROM t WHERE id = 3 AND name LIKE 'n%'");
  const PlanCacheStats first = stats();
  EXPECT_EQ(first.entries, 1u);
  EXPECT_NE(Checked("SELECT name FROM t WHERE id = 4 AND name LIKE 'x%'"),
            Checked("SELECT name FROM t WHERE id = 4 AND name LIKE 'n%'"));
  EXPECT_EQ(stats().entries, 1u);
  // A derived table's WHERE literals are slots too.
  Checked("SELECT d.name FROM (SELECT name, v FROM t WHERE id > 5) AS d "
          "WHERE d.v = 1");
  const uint64_t entries = stats().entries;
  Checked("SELECT d.name FROM (SELECT name, v FROM t WHERE id > 15) AS d "
          "WHERE d.v = 2");
  EXPECT_EQ(stats().entries, entries);
}

TEST_F(PlanCacheEngineTest, OtherLiteralsStayInTheKey) {
  struct Variants {
    const char* a;
    const char* b;
  };
  const Variants cases[] = {
      {"SELECT v + 1, COUNT(*) FROM t GROUP BY v + 1",
       "SELECT v + 2, COUNT(*) FROM t GROUP BY v + 2"},
      {"SELECT name FROM t ORDER BY v * 2, id", "SELECT name FROM t ORDER BY "
                                                "v * -1, id"},
      {"SELECT 1, name FROM t WHERE id = 1", "SELECT 'one', name FROM t "
                                             "WHERE id = 1"},
      {"SELECT 1.5 FROM t WHERE id = 1", "SELECT 2 FROM t WHERE id = 1"},
      {"SELECT id FROM t ORDER BY id LIMIT 2", "SELECT id FROM t ORDER BY id "
                                               "LIMIT 5"},
      {"SELECT v, COUNT(*) FROM t GROUP BY v HAVING COUNT(*) > 4",
       "SELECT v, COUNT(*) FROM t GROUP BY v HAVING COUNT(*) > 5"},
  };
  for (const Variants& c : cases) {
    const uint64_t entries = stats().entries;
    const std::string a = Checked(c.a);
    const std::string b = Checked(c.b);
    EXPECT_NE(a, b) << c.a;
    EXPECT_EQ(stats().entries, entries + 2) << c.a;
  }
  // A typed slot: the same column compared with an integer and a string.
  sql::SelectShape i, s;
  sql::EncodeShape(**sql::ParseSelect("SELECT v FROM t WHERE id = 1"), &i);
  sql::EncodeShape(**sql::ParseSelect("SELECT v FROM t WHERE id = '1'"), &s);
  EXPECT_NE(i.key, s.key);
}

TEST(PlanShapeTest, KeysSlotsAndLifting) {
  auto parse = [](const char* text) {
    auto stmt = sql::ParseSelect(text);
    EXPECT_TRUE(stmt.ok()) << text;
    return std::move(*stmt);
  };
  // Slots point into their statement, so it must outlive the shape.
  auto first = parse("SELECT x FROM t WHERE k = 17 AND y = ? AND z = 'q'");
  auto second = parse("SELECT x FROM t WHERE k = 35 AND y = ? AND z = 'r'");
  sql::SelectShape a, b;
  sql::EncodeShape(*first, &a);
  sql::EncodeShape(*second, &b);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.first_slot, 1u);
  ASSERT_EQ(a.slots.size(), 2u);
  EXPECT_EQ(a.slots[0]->AsInt64(), 17);
  EXPECT_EQ(a.slots[1]->AsString(), "q");
  // Identifiers keep their spelling: they reach result names and EXPLAIN.
  sql::SelectShape upper;
  sql::EncodeShape(*parse("SELECT X FROM t WHERE k = 17 AND y = ? AND z = 'q'"),
                   &upper);
  EXPECT_NE(upper.key, a.key);

  // Lifting numbers the slots after the statement's own parameters.
  auto lifted = parse("SELECT x FROM t WHERE k = 17 AND y = ? AND z = 'q'");
  sql::LiftSlots(lifted.get(), a.first_slot);
  EXPECT_EQ(sql::ToSql(*lifted), "SELECT x FROM t WHERE (((k = ?) AND (y = ?)) "
                                 "AND (z = ?))");
  sql::SelectShape again;
  sql::EncodeShape(*lifted, &again);
  EXPECT_TRUE(again.slots.empty());
  EXPECT_EQ(again.first_slot, 3u);
}

TEST_F(PlanCacheEngineTest, IndexDdlBetweenExecutionsReplans) {
  const char* q = "SELECT name FROM t WHERE id = 7";
  const std::string before = Checked(q);
  auto plan = db_.Explain(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("SeqScan t"), std::string::npos) << *plan;

  ASSERT_TRUE(db_.Execute("CREATE UNIQUE INDEX ux_t_id ON t (id)").ok());
  EXPECT_EQ(stats().invalidations, 1u);
  EXPECT_EQ(stats().entries, 0u);
  EXPECT_EQ(Checked(q), before);
  plan = db_.Explain(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan t (t) index=ux_t_id prefix=[id=7]"),
            std::string::npos)
      << *plan;

  ASSERT_TRUE(db_.Execute("DROP INDEX ux_t_id").ok());
  EXPECT_EQ(stats().invalidations, 2u);
  EXPECT_EQ(Checked(q), before);
  plan = db_.Explain(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("SeqScan t"), std::string::npos) << *plan;
}

TEST_F(PlanCacheEngineTest, LeastRecentlyUsedEntryIsEvicted) {
  // LIMIT stays in the key, so each limit is its own shape.
  auto query = [&](size_t limit) {
    return db_.Query("SELECT id FROM t WHERE v = 1 LIMIT " +
                     std::to_string(limit));
  };
  const size_t extra = 5;
  for (size_t n = 1; n <= PlanCache::kMaxEntries + extra; ++n) {
    ASSERT_TRUE(query(n).ok());
  }
  PlanCacheStats s = stats();
  EXPECT_EQ(s.entries, PlanCache::kMaxEntries);
  EXPECT_EQ(s.evictions, extra);
  // The newest shape is still cached; the oldest was evicted.
  ASSERT_TRUE(query(PlanCache::kMaxEntries + extra).ok());
  EXPECT_EQ(stats().hits, s.hits + 1);
  ASSERT_TRUE(query(1).ok());
  EXPECT_EQ(stats().misses, s.misses + 1);
  EXPECT_EQ(stats().evictions, extra + 1);
}

TEST_F(PlanCacheEngineTest, FailedExecutionDiscardsItsPlan) {
  // A miss, then a hit: the entry holds one idle plan.
  ASSERT_TRUE(db_.Query("SELECT id FROM t WHERE v / 1 = 2 AND id < 9").ok());
  ASSERT_TRUE(db_.Query("SELECT id FROM t WHERE v / 1 = 2 AND id < 9").ok());
  const PlanCacheStats warm = stats();
  EXPECT_EQ(warm.entries, 1u);
  EXPECT_EQ(warm.hits, 1u);
  // Same shape; the slot value 0 makes the execution fail.
  auto failed = db_.Query("SELECT id FROM t WHERE v / 0 = 2 AND id < 9");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message(), "division by zero");
  EXPECT_EQ(stats().hits, warm.hits + 1);
  EXPECT_LT(stats().bytes, warm.bytes);  // the entry has no idle plan now
  // So the next execution plans afresh, and is still right.
  Checked("SELECT id FROM t WHERE v / 2 = 1 AND id < 9");
  EXPECT_GT(stats().misses, warm.misses);
  EXPECT_EQ(stats().entries, 1u);
}

TEST_F(PlanCacheEngineTest, MissingParameterStillFails) {
  auto r = db_.Query("SELECT name FROM t WHERE id = ? AND v = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "missing bind parameter 1");
}

TEST_F(PlanCacheEngineTest, DmlQualifyingScansUseTheCache) {
  ASSERT_TRUE(db_.Execute("UPDATE t SET name = 'u' WHERE id = 3").ok());
  const PlanCacheStats first = stats();
  EXPECT_EQ(first.entries, 1u);
  ASSERT_TRUE(db_.Execute("UPDATE t SET name = 'w' WHERE id = 4").ok());
  auto deleted = db_.Execute("DELETE FROM t WHERE id = 5");
  ASSERT_TRUE(deleted.ok());
  // The DELETE's scan is the same shape as the UPDATE's.
  EXPECT_EQ(stats().entries, 1u);
  EXPECT_EQ(stats().hits, first.hits + 2);
  auto rows = db_.Query("SELECT id, name FROM t WHERE id < 6 ORDER BY id");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 4u);
  EXPECT_EQ(rows->rows[2][1].AsString(), "u");
  EXPECT_EQ(rows->rows[3][1].AsString(), "w");
}

// Eight sessions run one shape with different literals at once while a
// ninth toggles an index (invalidating the cache) — the TSan canary.
TEST(PlanCacheConcurrencyTest, EightThreadsRunOneShape) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id BIGINT, v BIGINT)").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", " + std::to_string(i * 3) + ")")
                    .ok());
  }
  constexpr int kThreads = 8;
  constexpr int kIters = 150;
  std::atomic<int> wrong{0};
  std::atomic<bool> stop{false};
  int ddl_rounds = 0;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Session session = db.OpenSession();
      for (int i = 0; i < kIters; ++i) {
        const int id = (w * kIters + i) % 200;
        auto r = session.Query("SELECT v FROM t WHERE id = " +
                               std::to_string(id) + " AND v >= 0");
        if (!r.ok() || r->rows.size() != 1 ||
            r->rows[0][0].AsInt64() != id * 3) {
          wrong++;
        }
      }
    });
  }
  std::thread ddl([&] {
    Session session = db.OpenSession();
    for (; ddl_rounds < 4 && !stop; ++ddl_rounds) {
      if (!session.Execute("CREATE INDEX ix_t_id ON t (id)").ok()) wrong++;
      if (!session.Execute("DROP INDEX ix_t_id").ok()) wrong++;
    }
  });
  for (std::thread& t : threads) t.join();
  stop = true;
  ddl.join();
  EXPECT_EQ(wrong.load(), 0);
  const PlanCacheStats s = db.Stats().plan_cache;
  EXPECT_EQ(s.hits + s.misses, static_cast<uint64_t>(kThreads * kIters));
  EXPECT_LE(s.entries, 1u);
  EXPECT_EQ(s.invalidations, 2u * static_cast<uint64_t>(ddl_rounds));
}

}  // namespace
}  // namespace mtdb
