// Observability surface: metrics registry consistency under concurrent
// writers, histogram bucketing, per-session statement tracing, the
// composed Database::Stats() snapshot, and EXPLAIN MAPPING correctness
// for every layout (asserted against what real execution actually
// emits, via the PhysicalStatementObserver).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/tenant_session.h"
#include "engine/database.h"
#include "engine/session.h"
#include "mapping_test_util.h"
#include "sql/printer.h"

namespace mtdb {
namespace {

using mapping::AppSchema;
using mapping::LayoutKind;
using mapping::LayoutKindName;
using mapping::MakeLayout;
using mapping::SchemaMapping;
using mapping::TenantSession;

// --- MetricsRegistry ----------------------------------------------------

TEST(MetricsRegistryTest, CountersAndHistogramsSurviveConcurrentWriters) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Shared series exercise the relaxed hot path; per-thread series
      // exercise create-on-first-use under contention.
      Counter* shared = registry.GetCounter("test.shared");
      Counter* own = registry.GetCounter("test.own." + std::to_string(t));
      LatencyHistogram* hist = registry.GetHistogram("test.latency");
      for (int i = 0; i < kIters; ++i) {
        shared->Add(1);
        own->Add(2);
        hist->Record(static_cast<uint64_t>(i % 50));
      }
    });
  }
  for (auto& th : threads) th.join();

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("test.shared"),
            static_cast<uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.CounterValue("test.own." + std::to_string(t)),
              2u * kIters);
  }
  const auto* hist = snap.FindHistogram("test.latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<uint64_t>(kThreads) * kIters);
  uint64_t bucket_total = 0;
  for (uint64_t b : hist->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hist->count);
  EXPECT_EQ(snap.dropped_series, 0u);
}

TEST(MetricsRegistryTest, HistogramBucketBoundaries) {
  MetricsRegistry registry;
  LatencyHistogram* h = registry.GetHistogram("bounds");
  const auto& bounds = LatencyHistogram::BucketBoundsUs();
  ASSERT_EQ(bounds.size(), LatencyHistogram::kBuckets);
  EXPECT_EQ(bounds.front(), 1u);
  EXPECT_EQ(bounds.back(), 1000000u);

  // A value exactly on a bound lands in that bound's bucket (bounds are
  // inclusive); one past it lands in the next.
  h->Record(0);        // <= 1us
  h->Record(1);        // <= 1us
  h->Record(2);        // <= 2us
  h->Record(3);        // <= 5us
  h->Record(1000000);  // last bounded bucket
  h->Record(2000000);  // overflow
  EXPECT_EQ(h->bucket(0), 2u);
  EXPECT_EQ(h->bucket(1), 1u);
  EXPECT_EQ(h->bucket(2), 1u);
  EXPECT_EQ(h->bucket(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h->bucket(LatencyHistogram::kBuckets), 1u);  // overflow bucket
  EXPECT_EQ(h->count(), 6u);
  EXPECT_EQ(h->sum_us(), 0u + 1 + 2 + 3 + 1000000 + 2000000);
}

TEST(MetricsRegistryTest, CardinalityCapDegradesToOverflowSeries) {
  MetricsRegistry registry(/*max_series=*/4);
  Counter* a = registry.GetCounter("a");
  Counter* b = registry.GetCounter("b");
  Counter* c = registry.GetCounter("c");
  Counter* d = registry.GetCounter("d");
  Counter* e1 = registry.GetCounter("e1");  // past the cap
  Counter* e2 = registry.GetCounter("e2");  // past the cap
  EXPECT_NE(a, b);
  EXPECT_NE(c, d);
  // Refused series share the overflow counter instead of failing.
  EXPECT_EQ(e1, e2);
  e1->Add(1);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.dropped_series, 2u);
  // Existing series are unaffected by later refusals.
  a->Add(5);
  EXPECT_EQ(registry.Snapshot().CounterValue("a"), 5u);
}

// --- statement tracing --------------------------------------------------

TEST(TracingTest, SessionTraceAggregatesIntoRegistry) {
  Database db;
  Session session = db.OpenSession();
  session.EnableTracing();
  ASSERT_TRUE(session.Execute("CREATE TABLE t (a INT, b STRING)").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
  auto q = session.Query("SELECT a FROM t WHERE b = 'x'");
  ASSERT_TRUE(q.ok());

  ASSERT_NE(session.tracer(), nullptr);
  EXPECT_GE(session.tracer()->statements_traced(), 3u);
  const trace::StatementTrace* last = session.tracer()->last();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->kind, "select");
  EXPECT_EQ(last->layout, "engine");
  ASSERT_NE(last->root, nullptr);
  // The select opened a child span for the scan.
  EXPECT_FALSE(last->root->children.empty());
  EXPECT_FALSE(session.tracer()->DumpLast().empty());

  MetricsSnapshot snap = db.Stats().metrics;
  EXPECT_EQ(snap.CounterValue("stmt.count.engine.select.t-1"), 1u);
  EXPECT_EQ(snap.CounterValue("stmt.count.engine.insert.t-1"), 1u);
  EXPECT_EQ(snap.CounterValue("stmt.errors.engine.select.t-1"), 0u);
  const auto* lat = snap.FindHistogram("stmt.latency_us.engine.select.t-1");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 1u);
}

TEST(TracingTest, DisabledTracingLeavesRegistryUntouched) {
  Database db;
  Session session = db.OpenSession();
  // Explicit off, so the test holds even under the CI trace-forced job
  // (MTDB_TRACE=1 opens sessions traced).
  session.EnableTracing(false);
  ASSERT_TRUE(session.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(session.Query("SELECT a FROM t").ok());

  // No stmt.* series may exist: the disabled path never touches the
  // registry (zero-cost-when-off is the tentpole's contract).
  MetricsSnapshot snap = db.Stats().metrics;
  for (const auto& c : snap.counters) {
    EXPECT_NE(c.name.rfind("stmt.", 0), 0u)
        << "unexpected trace series: " << c.name;
  }
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(TracingTest, TenantSessionTraceLabelsTenantAndLayout) {
  AppSchema app = mapping::FigureFourSchema();
  Database db;
  auto layout = MakeLayout(LayoutKind::kChunk, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(mapping::LoadFigureFourData(layout.get()).ok());

  TenantSession session = layout->OpenSession(17);
  session.EnableTracing();
  ASSERT_TRUE(session.Query("SELECT name FROM account WHERE aid = 1").ok());
  ASSERT_TRUE(
      session.Execute("UPDATE account SET name = 'Neo' WHERE aid = 1").ok());

  MetricsSnapshot snap = db.Stats().metrics;
  EXPECT_EQ(snap.CounterValue("stmt.count.chunk.select.t17"), 1u);
  EXPECT_EQ(snap.CounterValue("stmt.count.chunk.update.t17"), 1u);
  const trace::StatementTrace* last = session.tracer()->last();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->tenant, 17);
  EXPECT_EQ(last->layout, "chunk");
  EXPECT_EQ(last->kind, "update");
}

// --- composed Stats() snapshot ------------------------------------------

TEST(StatsTest, ComposedSnapshotCarriesGaugesAndIoFaults) {
  Database db;
  Session session = db.OpenSession();
  ASSERT_TRUE(session.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(session.Query("SELECT a FROM t").ok());

  EngineStats stats = db.Stats();
  // Engine gauges joined the registry namespace.
  EXPECT_GT(stats.metrics.CounterValue("buffer.logical_reads"), 0u);
  EXPECT_EQ(stats.metrics.CounterValue("io.read_faults"), 0u);
  EXPECT_EQ(stats.io_faults.read_faults, 0u);
  // And render as JSON for mtdb_stats.
  std::string json = stats.metrics.ToJson();
  EXPECT_NE(json.find("\"buffer.logical_reads\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_series\""), std::string::npos);
}

TEST(StatsTest, PlanCacheCountersInStatsAndRegistry) {
  Database db;
  Session session = db.OpenSession();
  ASSERT_TRUE(session.Execute("CREATE TABLE t (a INT, b INT)").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (1, 10)").ok());
  // One shape, two literals: a miss, then a hit on the same entry.
  ASSERT_TRUE(session.Query("SELECT b FROM t WHERE a = 1").ok());
  ASSERT_TRUE(session.Query("SELECT b FROM t WHERE a = 2").ok());

  EngineStats stats = db.Stats();
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  EXPECT_EQ(stats.plan_cache.hits, 1u);
  EXPECT_EQ(stats.plan_cache.entries, 1u);
  EXPECT_GT(stats.plan_cache.bytes, 0u);
  EXPECT_EQ(stats.plan_cache.evictions, 0u);
  EXPECT_EQ(stats.plan_cache.invalidations, 0u);
  const MetricsSnapshot& m = stats.metrics;
  EXPECT_EQ(m.CounterValue("plan_cache.hits"), 1u);
  EXPECT_EQ(m.CounterValue("plan_cache.misses"), 1u);
  EXPECT_EQ(m.CounterValue("plan_cache.entries"), 1u);
  EXPECT_EQ(m.CounterValue("plan_cache.bytes"), stats.plan_cache.bytes);
  EXPECT_EQ(m.CounterValue("plan_cache.evictions"), 0u);

  // DDL purges the cache and counts an invalidation.
  ASSERT_TRUE(session.Execute("CREATE INDEX ix_t_a ON t (a)").ok());
  stats = db.Stats();
  EXPECT_EQ(stats.plan_cache.entries, 0u);
  EXPECT_EQ(stats.plan_cache.bytes, 0u);
  EXPECT_EQ(stats.plan_cache.invalidations, 1u);
  EXPECT_EQ(stats.metrics.CounterValue("plan_cache.invalidations"), 1u);
  EXPECT_NE(stats.metrics.ToJson().find("\"plan_cache.hits\""),
            std::string::npos);
}

TEST(StatsTest, StatementCacheCountersInLayoutStatsAndRegistry) {
  AppSchema app = mapping::FigureFourSchema();
  Database db;
  auto layout = MakeLayout(LayoutKind::kChunk, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(mapping::LoadFigureFourData(layout.get()).ok());
  const mapping::StmtCacheCounters& c = layout->stats().stmt_cache;
  const uint64_t invalidations = c.invalidations.value();
  EXPECT_GT(invalidations, 0u);  // every admin operation clears the cache
  const uint64_t transformed = layout->stats().queries_transformed.value();

  const char* q = "SELECT name FROM account WHERE aid = ?";
  ASSERT_TRUE(layout->Query(17, q, {Value::Int64(1)}).ok());  // miss
  ASSERT_TRUE(layout->Query(17, q, {Value::Int64(2)}).ok());  // hit
  ASSERT_TRUE(layout->Query(35, q, {Value::Int64(1)}).ok());  // miss
  db.set_planner_mode(PlannerMode::kNaive);
  ASSERT_TRUE(layout->Query(17, q, {Value::Int64(1)}).ok());  // fallback
  db.set_planner_mode(PlannerMode::kAdvanced);
  EXPECT_EQ(c.hits.value(), 1u);
  EXPECT_EQ(c.misses.value(), 2u);
  EXPECT_EQ(c.fallbacks.value(), 1u);
  EXPECT_EQ(c.entries.value(), 2u);
  EXPECT_GT(c.bytes.value(), 0u);
  EXPECT_EQ(c.evictions.value(), 0u);
  // Only the statements that were parsed and transformed count here.
  EXPECT_EQ(layout->stats().queries_transformed.value(), transformed + 3);

  EngineStats stats = db.Stats();
  const MetricsSnapshot& m = stats.metrics;
  EXPECT_EQ(m.CounterValue("stmt_cache.hits"), 1u);
  EXPECT_EQ(m.CounterValue("stmt_cache.misses"), 2u);
  EXPECT_EQ(m.CounterValue("stmt_cache.fallbacks"), 1u);
  EXPECT_EQ(m.CounterValue("stmt_cache.entries"), 2u);
  EXPECT_EQ(m.CounterValue("stmt_cache.bytes"), c.bytes.value());
  EXPECT_EQ(m.CounterValue("stmt_cache.evictions"), 0u);
  EXPECT_EQ(m.CounterValue("stmt_cache.invalidations"), invalidations);

  // An admin operation empties the cache and counts an invalidation.
  ASSERT_TRUE(layout->EnableExtension(35, "automotive").ok());
  EXPECT_EQ(c.entries.value(), 0u);
  EXPECT_EQ(c.bytes.value(), 0u);
  EXPECT_GT(c.invalidations.value(), invalidations);
  stats = db.Stats();
  EXPECT_EQ(stats.metrics.CounterValue("stmt_cache.entries"), 0u);
  EXPECT_EQ(stats.metrics.CounterValue("stmt_cache.bytes"), 0u);
  EXPECT_EQ(stats.metrics.CounterValue("stmt_cache.invalidations"),
            c.invalidations.value());
  EXPECT_NE(stats.metrics.ToJson().find("\"stmt_cache.hits\""),
            std::string::npos);
}

// --- EXPLAIN MAPPING ----------------------------------------------------

/// Captures what the mapping layer actually emits, rendered to SQL.
class CaptureObserver : public mapping::PhysicalStatementObserver {
 public:
  void OnSelect(TenantId, const sql::SelectStmt& stmt) override {
    sql_.push_back(sql::ToSql(stmt));
  }
  void OnStatement(TenantId, const sql::Statement& stmt) override {
    sql_.push_back(sql::ToSql(stmt));
  }
  const std::vector<std::string>& sql() const { return sql_; }
  void Clear() { sql_.clear(); }

 private:
  std::vector<std::string> sql_;
};

class ExplainMappingTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(ExplainMappingTest, MatchesRealExecutionForEveryStatementKind) {
  const LayoutKind kind = GetParam();
  AppSchema app = mapping::FigureFourSchema();
  Database db;
  auto layout = MakeLayout(kind, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  const TenantId tenant = 17;
  if (kind == LayoutKind::kBasic) {
    // Basic cannot host extensions; load the common subset.
    ASSERT_TRUE(layout->CreateTenant(17).ok());
    ASSERT_TRUE(layout->CreateTenant(35).ok());
    ASSERT_TRUE(
        layout
            ->Execute(17,
                      "INSERT INTO account (aid, name) VALUES "
                      "(1, 'Acme'), (2, 'Gump')")
            .ok());
  } else {
    ASSERT_TRUE(mapping::LoadFigureFourData(layout.get()).ok());
  }

  CaptureObserver capture;
  const char* kStatements[] = {
      "INSERT INTO account (aid, name) VALUES (7, 'Zeta')",
      "SELECT name FROM account WHERE aid = 1",
      "UPDATE account SET name = 'Neo' WHERE aid = 1",
      "DELETE FROM account WHERE aid = 2",
  };
  for (const char* logical : kStatements) {
    SCOPED_TRACE(std::string(LayoutKindName(kind)) + ": " + logical);
    // Explain FIRST: it must not change state, so the real execution
    // right after emits exactly the statements the explain predicted.
    auto explained = layout->ExplainMapping(tenant, logical);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    EXPECT_EQ(explained->layout, layout->name());
    EXPECT_EQ(explained->tenant, tenant);
    ASSERT_FALSE(explained->statements.empty());
    for (const auto& plan : explained->statements) {
      EXPECT_FALSE(plan.op.empty());
      EXPECT_FALSE(plan.table.empty());
      EXPECT_FALSE(plan.sql.empty());
    }
    EXPECT_FALSE(explained->ToText().empty());

    capture.Clear();
    layout->set_statement_observer(&capture);
    bool is_select = std::string(logical).rfind("SELECT", 0) == 0;
    if (is_select) {
      ASSERT_TRUE(layout->Query(tenant, logical).ok());
    } else {
      ASSERT_TRUE(layout->Execute(tenant, logical).ok());
    }
    layout->set_statement_observer(nullptr);

    std::vector<std::string> explained_sql;
    for (const auto& plan : explained->statements) {
      explained_sql.push_back(plan.sql);
    }
    EXPECT_EQ(explained_sql, capture.sql());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, ExplainMappingTest,
    ::testing::Values(LayoutKind::kBasic, LayoutKind::kPrivate,
                      LayoutKind::kExtension, LayoutKind::kUniversal,
                      LayoutKind::kPivot, LayoutKind::kChunk,
                      LayoutKind::kVertical, LayoutKind::kChunkFolding),
    [](const ::testing::TestParamInfo<LayoutKind>& info) {
      return LayoutKindName(info.param);
    });

TEST(ExplainMappingTest, ExplainDoesNotExecuteOrConsumeRowIds) {
  AppSchema app = mapping::FigureFourSchema();
  Database db;
  auto layout = MakeLayout(LayoutKind::kChunk, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(mapping::LoadFigureFourData(layout.get()).ok());

  auto count = [&] {
    auto r = layout->Query(17, "SELECT aid FROM account");
    return r.ok() ? static_cast<int>(r->rows.size()) : -1;
  };
  const int before = count();
  const uint64_t phys_before = layout->stats().physical_statements.value();

  auto ins = layout->ExplainMapping(
      17, "INSERT INTO account (aid, name) VALUES (7, 'Zeta')");
  ASSERT_TRUE(ins.ok());
  auto del = layout->ExplainMapping(17, "DELETE FROM account WHERE aid = 1");
  ASSERT_TRUE(del.ok());
  // Explains moved no mapping-layer execution counters and no rows.
  EXPECT_EQ(layout->stats().physical_statements.value(), phys_before);
  EXPECT_EQ(count(), before);

  // Row ids were not consumed: the real insert emits exactly the
  // physical statements the explain predicted (same row slots).
  CaptureObserver capture;
  layout->set_statement_observer(&capture);
  ASSERT_TRUE(layout
                  ->Execute(17,
                            "INSERT INTO account (aid, name) VALUES "
                            "(7, 'Zeta')")
                  .ok());
  layout->set_statement_observer(nullptr);
  std::vector<std::string> predicted;
  for (const auto& plan : ins->statements) predicted.push_back(plan.sql);
  EXPECT_EQ(predicted, capture.sql());
}

TEST(ExplainMappingTest, SelectExplainIncludesEnginePlan) {
  AppSchema app = mapping::FigureFourSchema();
  Database db;
  auto layout = MakeLayout(LayoutKind::kUniversal, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(mapping::LoadFigureFourData(layout.get()).ok());
  TenantSession session = layout->OpenSession(17);
  auto explained =
      session.Explain("EXPLAIN MAPPING SELECT name FROM account WHERE aid = 1");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_FALSE(explained->plan_text.empty());
  ASSERT_EQ(explained->statements.size(), 1u);
  EXPECT_EQ(explained->statements[0].op, "select");
}

TEST(ExplainMappingTest, EngineSessionFrontDoor) {
  Database db;
  Session session = db.OpenSession();
  ASSERT_TRUE(session.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (1)").ok());

  auto r = session.Execute("EXPLAIN MAPPING INSERT INTO t VALUES (2)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(HasExplanation(*r));
  const MappingExplanation& e = ExplanationOf(*r);
  EXPECT_EQ(e.layout, "engine");
  ASSERT_EQ(e.statements.size(), 1u);
  EXPECT_EQ(e.statements[0].op, "insert");
  EXPECT_EQ(e.statements[0].table, "t");
  // Nothing executed.
  auto q = session.Query("SELECT a FROM t");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->rows.size(), 1u);

  auto sel = session.Execute("EXPLAIN MAPPING SELECT a FROM t WHERE a = 1");
  ASSERT_TRUE(sel.ok());
  ASSERT_TRUE(HasExplanation(*sel));
  EXPECT_FALSE(ExplanationOf(*sel).plan_text.empty());

  // EXPLAIN MAPPING does not nest.
  auto nested = session.Execute("EXPLAIN MAPPING EXPLAIN MAPPING SELECT 1");
  EXPECT_FALSE(nested.ok());
}

}  // namespace
}  // namespace mtdb
