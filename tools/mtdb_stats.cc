// mtdb_stats: runs a small traced multi-tenant workload on one layout
// and dumps the engine's composed metrics snapshot as JSON — the
// observability quickstart's companion CLI.
//
// Usage: mtdb_stats [layout] [--explain "<logical sql>"]
//   layout     basic|private|extension|universal|pivot|chunk|chunkfolding
//              (default chunk)
//   --explain  additionally prints EXPLAIN MAPPING for the given logical
//              statement (tenant 0) before the JSON dump, to stderr so
//              the stdout stays machine-readable.
// The plan-cache and statement-cache counters are summarised on stderr
// too; the JSON carries them as the plan_cache.* gauges and the
// stmt_cache.* counters.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/basic_layout.h"
#include "core/chunk_folding_layout.h"
#include "core/chunk_layout.h"
#include "core/extension_layout.h"
#include "core/pivot_layout.h"
#include "core/private_layout.h"
#include "core/tenant_session.h"
#include "core/universal_layout.h"
#include "engine/database.h"

using namespace mtdb;           // NOLINT: tool brevity
using namespace mtdb::mapping;  // NOLINT

namespace {

AppSchema MakeSchema() {
  AppSchema app;
  LogicalTable account;
  account.name = "account";
  account.columns = {{"aid", TypeId::kInt64, true},
                     {"name", TypeId::kString, false},
                     {"status", TypeId::kString, false},
                     {"amount", TypeId::kDouble, false}};
  (void)app.AddTable(std::move(account));
  ExtensionDef health;
  health.name = "healthcare";
  health.base_table = "account";
  health.columns = {{"hospital", TypeId::kString, false},
                    {"beds", TypeId::kInt32, false}};
  (void)app.AddExtension(std::move(health));
  return app;
}

std::unique_ptr<SchemaMapping> MakeByName(const std::string& name,
                                          Database* db, AppSchema* app) {
  if (name == "basic") return std::make_unique<BasicLayout>(db, app);
  if (name == "private") return std::make_unique<PrivateTableLayout>(db, app);
  if (name == "extension") {
    return std::make_unique<ExtensionTableLayout>(db, app);
  }
  if (name == "universal") {
    return std::make_unique<UniversalTableLayout>(db, app);
  }
  if (name == "pivot") return std::make_unique<PivotTableLayout>(db, app);
  if (name == "chunkfolding") {
    return std::make_unique<ChunkFoldingLayout>(db, app);
  }
  return std::make_unique<ChunkTableLayout>(db, app);
}

}  // namespace

int main(int argc, char** argv) {
  std::string layout_name = "chunk";
  std::string explain_sql;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--explain") == 0 && i + 1 < argc) {
      explain_sql = argv[++i];
    } else {
      layout_name = argv[i];
    }
  }

  AppSchema app = MakeSchema();
  auto opened = Database::Open(DatabaseOptions{});
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Database> db = std::move(*opened);
  auto layout = MakeByName(layout_name, db.get(), &app);
  if (!layout->Bootstrap().ok()) {
    std::fprintf(stderr, "bootstrap failed for layout %s\n",
                 layout_name.c_str());
    return 1;
  }

  constexpr int kTenants = 4;
  constexpr int kRows = 25;
  const bool extensible = layout_name != "basic";
  for (TenantId t = 0; t < kTenants; ++t) {
    if (!layout->CreateTenant(t).ok()) return 1;
    if (extensible && t % 2 == 0 &&
        !layout->EnableExtension(t, "healthcare").ok()) {
      return 1;
    }
    TenantSession session = layout->OpenSession(t);
    session.EnableTracing();
    for (int i = 1; i <= kRows; ++i) {
      Row row{Value::Int64(i), Value::String("n" + std::to_string(i)),
              Value::String(i % 2 == 0 ? "open" : "won"),
              Value::Double(i * 10.0)};
      if (extensible && t % 2 == 0) {
        row.push_back(Value::String("hosp" + std::to_string(i % 7)));
        row.push_back(Value::Int32(i * 3));
      }
      if (!session.InsertRow("account", row).ok()) return 1;
    }
    auto q = session.Query("SELECT name, amount FROM account WHERE aid = ?",
                           {Value::Int64(7)});
    if (!q.ok()) return 1;
    auto u = session.Execute(
        "UPDATE account SET status = 'lost' WHERE aid = ?", {Value::Int64(3)});
    if (!u.ok()) return 1;
    auto d = session.Execute("DELETE FROM account WHERE aid = ?",
                             {Value::Int64(9)});
    if (!d.ok()) return 1;
  }

  if (!explain_sql.empty()) {
    auto session = layout->OpenSession(0);
    auto explained = session.Explain(explain_sql);
    if (!explained.ok()) {
      std::fprintf(stderr, "explain failed: %s\n",
                   explained.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%s\n", explained->ToText().c_str());
  }

  const EngineStats stats = db->Stats();
  const PlanCacheStats& plans = stats.plan_cache;
  std::fprintf(stderr,
               "plan cache: %llu hits, %llu misses, %llu entries, %llu bytes, "
               "%llu evictions, %llu invalidations\n",
               static_cast<unsigned long long>(plans.hits),
               static_cast<unsigned long long>(plans.misses),
               static_cast<unsigned long long>(plans.entries),
               static_cast<unsigned long long>(plans.bytes),
               static_cast<unsigned long long>(plans.evictions),
               static_cast<unsigned long long>(plans.invalidations));
  const StmtCacheCounters& stmts = layout->stats().stmt_cache;
  std::fprintf(stderr,
               "statement cache: %llu hits, %llu misses, %llu fallbacks, "
               "%llu entries, %llu bytes, %llu evictions, %llu "
               "invalidations\n",
               static_cast<unsigned long long>(stmts.hits.value()),
               static_cast<unsigned long long>(stmts.misses.value()),
               static_cast<unsigned long long>(stmts.fallbacks.value()),
               static_cast<unsigned long long>(stmts.entries.value()),
               static_cast<unsigned long long>(stmts.bytes.value()),
               static_cast<unsigned long long>(stmts.evictions.value()),
               static_cast<unsigned long long>(stmts.invalidations.value()));
  std::printf("%s\n", stats.metrics.ToJson().c_str());
  return 0;
}
