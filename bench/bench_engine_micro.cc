// Google-benchmark microbenchmarks for the engine substrates: B+Tree
// point operations, key encoding, row codec, buffer pool fetch, and the
// SQL front door. These are the primitive costs underlying Figures 9-12.
#include <benchmark/benchmark.h>

#include "common/key_encoding.h"
#include "common/rng.h"
#include "core/basic_layout.h"
#include "core/pivot_layout.h"
#include "core/tenant_session.h"
#include "engine/database.h"
#include "engine/plan_cache.h"
#include "engine/planner.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/shape.h"
#include "index/btree.h"
#include "storage/row_codec.h"
#include "testbed/crm_schema.h"

namespace mtdb {
namespace {

void BM_KeyEncodeComposite(benchmark::State& state) {
  std::vector<Value> key{Value::Int32(17), Value::Int32(3), Value::Int32(2),
                         Value::Int64(123456)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyEncoder::EncodeKey(key));
  }
}
BENCHMARK(BM_KeyEncodeComposite);

void BM_RowCodecRoundTrip(benchmark::State& state) {
  RowCodec codec({TypeId::kInt64, TypeId::kInt32, TypeId::kString,
                  TypeId::kDate, TypeId::kDouble});
  Row row{Value::Int64(1), Value::Int32(2), Value::String("hello world"),
          Value::Date(12345), Value::Double(3.25)};
  for (auto _ : state) {
    std::string image;
    Status st = codec.Encode(row, &image);
    benchmark::DoNotOptimize(st);
    auto decoded = codec.Decode(image.data(),
                                static_cast<uint32_t>(image.size()));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RowCodecRoundTrip);

void BM_BTreeInsert(benchmark::State& state) {
  PageStore store;
  BufferPool pool(&store, 4096);
  BTree tree(&pool);
  Rng rng(1);
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = KeyEncoder::EncodeKey({Value::Int64(rng.Next() % 1000000)});
    Status st = tree.Insert(key, Rid{static_cast<PageId>(i / 100),
                                     static_cast<uint16_t>(i % 100)});
    benchmark::DoNotOptimize(st);
    ++i;
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  PageStore store;
  BufferPool pool(&store, 4096);
  BTree tree(&pool);
  for (int64_t i = 0; i < 100000; ++i) {
    std::string key = KeyEncoder::EncodeKey({Value::Int64(i)});
    Status st = tree.Insert(key, Rid{static_cast<PageId>(i / 100),
                                     static_cast<uint16_t>(i % 100)});
    benchmark::DoNotOptimize(st);
  }
  Rng rng(2);
  for (auto _ : state) {
    std::string key =
        KeyEncoder::EncodeKey({Value::Int64(rng.Uniform(0, 99999))});
    auto rids = tree.Lookup(key);
    benchmark::DoNotOptimize(rids);
  }
}
BENCHMARK(BM_BTreeLookup);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  PageStore store;
  BufferPool pool(&store, 64);
  Page* page = pool.NewPage(PageType::kHeap);
  PageId id = page->id();
  pool.UnpinPage(id, false);
  for (auto _ : state) {
    auto p = pool.FetchPage(id);
    benchmark::DoNotOptimize(p);
    pool.UnpinPage(id, false);
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_SqlPointQuery(benchmark::State& state) {
  Database db;
  Status st = db.Execute("CREATE TABLE t (id BIGINT, v INT)").status();
  benchmark::DoNotOptimize(st);
  st = db.Execute("CREATE UNIQUE INDEX ux ON t (id)").status();
  for (int i = 0; i < 10000; ++i) {
    st = db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                    std::to_string(i * 3) + ")")
             .status();
  }
  Rng rng(3);
  for (auto _ : state) {
    auto r = db.Query("SELECT v FROM t WHERE id = ?",
                      {Value::Int64(rng.Uniform(0, 9999))});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SqlPointQuery);

void BM_SqlParse(benchmark::State& state) {
  Database db;
  for (auto _ : state) {
    auto r = sql::ParseSelect(
        "SELECT p.id, p.a, c.b FROM parent p, child c "
        "WHERE p.id = c.parent AND p.id = ? AND c.x > 10 ORDER BY p.a");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SqlParse);

/// A pivot-style reconstruction over `pieces` aliases of one table: the
/// first piece is found by its value, every other piece is aligned to it
/// on (tenant, tbl, col, row) — four conjuncts per piece, as the Pivot
/// layout's point SELECT emits one join per column.
std::string PivotReconstruction(int pieces) {
  std::string items, from, where;
  for (int i = 0; i < pieces; ++i) {
    const std::string p = "p" + std::to_string(i);
    if (i > 0) items += ", ", from += ", ", where += " AND ";
    items += p + ".val AS c" + std::to_string(i);
    from += "pivot " + p;
    where += p + ".tenant = 17 AND " + p + ".tbl = 0 AND " + p +
             ".col = " + std::to_string(i) + " AND ";
    where += i == 0 ? p + ".val = ?" : p + ".row = p0.row";
  }
  return "SELECT " + items + " FROM " + from + " WHERE " + where;
}

struct PivotFixture {
  Database db;
  std::unique_ptr<sql::SelectStmt> stmt;

  explicit PivotFixture(int pieces) {
    Status st = db.Execute("CREATE TABLE pivot (tenant INT, tbl INT, col INT, "
                           "row BIGINT, val BIGINT)")
                    .status();
    if (st.ok()) {
      st = db.Execute("CREATE UNIQUE INDEX ux_pivot_tcr ON pivot "
                      "(tenant, tbl, col, row)")
               .status();
    }
    if (st.ok()) {
      st = db.Execute("CREATE INDEX ix_pivot_val ON pivot "
                      "(val, tenant, tbl, col)")
               .status();
    }
    auto parsed = sql::ParseSelect(PivotReconstruction(pieces));
    if (st.ok() && parsed.ok()) stmt = std::move(*parsed);
  }
};

/// Planning alone (no execution, no plan text): the cost every pivot,
/// chunk and vertical point SELECT pays before its first row.
void BM_PlanReconstruction(benchmark::State& state) {
  PivotFixture f(static_cast<int>(state.range(0)));
  if (f.stmt == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    auto plan = PlanSelect(*f.stmt, f.db.catalog(), PlannerMode::kAdvanced);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanReconstruction)->Arg(1)->Arg(4)->Arg(12)->Arg(24);

/// What a plan-cache hit costs instead of planning: encode the shape,
/// take the idle tree out of its entry, release it and put it back.
void BM_PlanCacheHit(benchmark::State& state) {
  PivotFixture f(static_cast<int>(state.range(0)));
  if (f.stmt == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  PlanCache cache;
  sql::SelectShape shape;
  shape.key.push_back(static_cast<char>(PlannerMode::kAdvanced));
  sql::EncodeShape(*f.stmt, &shape);
  std::unique_ptr<sql::SelectStmt> lifted = f.stmt->Clone();
  sql::LiftSlots(lifted.get(), shape.first_slot);
  auto plan = PlanSelect(*lifted, f.db.catalog(), PlannerMode::kAdvanced);
  if (!plan.ok()) {
    state.SkipWithError("planning failed");
    return;
  }
  const auto key = std::make_shared<const std::string>(shape.key);
  cache.Put(key, cache.Take(*key, PlanCache::Want::kPlan).epoch,
            std::make_shared<PlanCache::Info>(), std::move(*plan), nullptr);
  for (auto _ : state) {
    sql::SelectShape s;
    s.key.push_back(static_cast<char>(PlannerMode::kAdvanced));
    sql::EncodeShape(*f.stmt, &s);
    PlanCache::Checkout c = cache.Take(s.key, PlanCache::Want::kPlan);
    c.plan->Release();
    cache.Put(key, c.epoch, std::move(c.info), std::move(c.plan), nullptr);
  }
}
BENCHMARK(BM_PlanCacheHit)->Arg(1)->Arg(24);

/// The shape key alone, against printing the same statement as SQL.
void BM_ShapeEncode(benchmark::State& state) {
  PivotFixture f(static_cast<int>(state.range(0)));
  if (f.stmt == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    sql::SelectShape shape;
    sql::EncodeShape(*f.stmt, &shape);
    benchmark::DoNotOptimize(shape);
  }
}
BENCHMARK(BM_ShapeEncode)->Arg(1)->Arg(24);

void BM_StatementToSql(benchmark::State& state) {
  PivotFixture f(static_cast<int>(state.range(0)));
  if (f.stmt == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::ToSql(*f.stmt));
  }
}
BENCHMARK(BM_StatementToSql)->Arg(1)->Arg(24);

/// Planning plus the EXPLAIN text (Database::ExplainAst on a miss).
void BM_PlanAndExplain(benchmark::State& state) {
  PivotFixture f(static_cast<int>(state.range(0)));
  if (f.stmt == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    auto text = ExplainSelect(*f.stmt, f.db.catalog(), PlannerMode::kAdvanced);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_PlanAndExplain)->Arg(24);

/// Database::ExplainAst on a warm cache: the cached plan's text with the
/// statement's own literals.
void BM_ExplainCached(benchmark::State& state) {
  PivotFixture f(static_cast<int>(state.range(0)));
  if (f.stmt == nullptr || !f.db.ExplainAst(*f.stmt).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    auto text = f.db.ExplainAst(*f.stmt);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_ExplainCached)->Arg(24);

/// One tenant of the CRM application on the Basic (kind 0) or Pivot
/// (kind 1) layout, with the healthcare extension on Pivot and 64
/// accounts, and a session for it.
struct SessionFixture {
  static constexpr int64_t kAccounts = 64;
  mapping::AppSchema app = testbed::BuildCrmAppSchema();
  Database db;
  std::unique_ptr<mapping::SchemaMapping> layout;
  mapping::TenantSession session;
  bool ok = false;

  explicit SessionFixture(int64_t kind) {
    std::vector<mapping::LogicalColumn> cols =
        app.FindTable("account")->columns;
    if (kind == 0) {
      layout = std::make_unique<mapping::BasicLayout>(&db, &app);
    } else {
      layout = std::make_unique<mapping::PivotTableLayout>(&db, &app);
    }
    if (!layout->Bootstrap().ok() || !layout->CreateTenant(0).ok()) return;
    if (kind != 0) {
      if (!layout->EnableExtension(0, "healthcare_account").ok()) return;
      for (const auto& c : app.FindExtension("healthcare_account")->columns) {
        cols.push_back(c);
      }
    }
    session = layout->OpenSession(0);
    for (int64_t id = 1; id <= kAccounts; ++id) {
      Row row;
      for (const mapping::LogicalColumn& c : cols) {
        if (c.name == "id") {
          row.push_back(Value::Int64(id));
        } else if (c.type == TypeId::kString) {
          row.push_back(Value::String(c.name + std::to_string(id)));
        } else if (c.type == TypeId::kDouble) {
          row.push_back(Value::Double(static_cast<double>(id)));
        } else if (c.type == TypeId::kInt32) {
          row.push_back(Value::Int32(static_cast<int32_t>(id)));
        } else if (c.type == TypeId::kDate) {
          row.push_back(Value::Date(static_cast<int32_t>(18000 + id)));
        } else if (c.type == TypeId::kBool) {
          row.push_back(Value::Bool(id % 2 == 0));
        } else {
          row.push_back(Value::Int64(id));
        }
      }
      if (!session.InsertRow("account", row).ok()) return;
    }
    ok = true;
  }
};

/// `n` spellings of the point SELECT that differ only in whitespace:
/// each of its seven gaps between tokens is one to four spaces.
std::vector<std::string> PointSpellings(size_t n) {
  const char* tokens[] = {"SELECT", "*",  "FROM", "account",
                          "WHERE",  "id", "=",    "?"};
  std::vector<std::string> out;
  for (size_t k = 0; k < n; ++k) {
    std::string sql = tokens[0];
    size_t code = k;
    for (size_t t = 1; t < std::size(tokens); ++t) {
      sql.append(1 + code % 4, ' ');
      code /= 4;
      sql += tokens[t];
    }
    out.push_back(std::move(sql));
  }
  return out;
}

/// A TenantSession point SELECT whose statement is cached: the plan runs
/// from the SQL text without parse or transform.
void BM_SessionQueryHit(benchmark::State& state, int kind) {
  SessionFixture f(kind);
  if (!f.ok) {
    state.SkipWithError("setup failed");
    return;
  }
  const std::string sql = PointSpellings(1)[0];
  int64_t id = 0;
  for (auto _ : state) {
    auto r = f.session.Query(sql, {Value::Int64(1 + id++ % f.kAccounts)});
    benchmark::DoNotOptimize(r);
  }
  state.counters["hits"] = static_cast<double>(
      f.layout->stats().stmt_cache.hits.value());
}
BENCHMARK_CAPTURE(BM_SessionQueryHit, basic, 0);
BENCHMARK_CAPTURE(BM_SessionQueryHit, pivot, 1);

/// The same statement with a cold statement cache: every iteration runs
/// one of twice the cache's capacity of spellings in turn, so each is
/// parsed, transformed and shape-encoded, then runs its cached plan.
void BM_SessionQueryMiss(benchmark::State& state, int kind) {
  SessionFixture f(kind);
  if (!f.ok) {
    state.SkipWithError("setup failed");
    return;
  }
  const std::vector<std::string> spellings =
      PointSpellings(2 * mapping::StatementCache::kMaxEntries);
  size_t k = 0;
  for (auto _ : state) {
    auto r = f.session.Query(spellings[k % spellings.size()],
                             {Value::Int64(1 + k % f.kAccounts)});
    k++;
    benchmark::DoNotOptimize(r);
  }
  state.counters["hits"] = static_cast<double>(
      f.layout->stats().stmt_cache.hits.value());
}
BENCHMARK_CAPTURE(BM_SessionQueryMiss, basic, 0);
BENCHMARK_CAPTURE(BM_SessionQueryMiss, pivot, 1);

}  // namespace
}  // namespace mtdb

BENCHMARK_MAIN();
