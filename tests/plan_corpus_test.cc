// Plan corpus: the EXPLAIN text of every physical SELECT that the
// benchmark's logical statements map to, on all eight layouts, plus the
// §6.2 Test 1/Test 2 queries (E3/E4) and the wide Q2 and grouping
// queries of E5/E9, each planned in both planner modes. The corpus is
// compared byte for byte with tests/data/plan_corpus.golden, so a
// planner change that moves a join order, an index choice or a filter
// placement shows up here as a named entry.
//
// Covered per layout and tenant: the point, narrow, join and report
// SELECTs, the mapping layer's UPDATE/DELETE Phase (a) reconstruction
// SELECTs, and the engine's Phase (a) SELECT for every physical UPDATE
// or DELETE ("SELECT * FROM t WHERE <where>"). A last section plans
// engine-level queries that reach the planner's other paths.
//
// The golden holds the plans of the planner before its rewrite to
// linear-time join planning; the only entries allowed to differ are
// listed in DriverChanges() with their new plans. On a mismatch the
// produced corpus is written to plan_corpus.actual in the working
// directory, for review.
#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "chunk_bench_common.h"
#include "engine/database.h"
#include "mapping_test_util.h"
#include "sql/parser.h"
#include "testbed/crm_schema.h"

namespace mtdb {
namespace {

using mapping::LayoutKind;

// The benchmark's statement texts (perfbench/mtbench.cc).
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

/// Entry id -> plan text, in insertion order.
using Corpus = std::vector<std::pair<std::string, std::string>>;

/// Copies every physical SELECT, and the engine's Phase (a) SELECT of
/// every physical UPDATE/DELETE, that a layout emits.
class Capture : public mapping::PhysicalStatementObserver {
 public:
  struct Entry {
    std::string kind;  // "select" or "dml"
    std::unique_ptr<sql::SelectStmt> select;
  };

  void OnSelect(TenantId, const sql::SelectStmt& stmt) override {
    entries.push_back({"select", stmt.Clone()});
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
    // Database::ExecuteUpdate/ExecuteDelete plan exactly this.
    auto select = std::make_unique<sql::SelectStmt>();
    select->select_star = true;
    sql::TableRef ref;
    ref.table_name = *table;
    select->from.push_back(std::move(ref));
    if (where != nullptr) select->where = where->Clone();
    entries.push_back({"dml", std::move(select)});
  }

  std::vector<Entry> entries;
};

void ExplainBoth(Database* db, const std::string& id,
                 const sql::SelectStmt& stmt, Corpus* out) {
  for (PlannerMode mode : {PlannerMode::kNaive, PlannerMode::kAdvanced}) {
    db->set_planner_mode(mode);
    auto plan = db->ExplainAst(stmt);
    out->emplace_back(
        id + (mode == PlannerMode::kNaive ? "/naive" : "/advanced"),
        plan.ok() ? *plan : "ERROR " + plan.status().ToString());
  }
  db->set_planner_mode(PlannerMode::kAdvanced);
}

Value FillerValue(TypeId type, int64_t seed) {
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(seed % 2 == 0);
    case TypeId::kInt32:
      return Value::Int32(static_cast<int32_t>(seed % 1000));
    case TypeId::kInt64:
      return Value::Int64(seed);
    case TypeId::kDouble:
      return Value::Double(static_cast<double>(seed % 5000));
    case TypeId::kDate:
      return Value::Date(static_cast<int32_t>(18000 + seed % 2000));
    default:
      return Value::String("v" + std::to_string(seed));
  }
}

Row MakeRow(const std::vector<mapping::LogicalColumn>& cols, int64_t id,
            int64_t parent) {
  Row row;
  for (size_t i = 0; i < cols.size(); ++i) {
    const std::string& name = cols[i].name;
    if (name == "id") {
      row.push_back(Value::Int64(id));
    } else if (name == "account_id") {
      row.push_back(Value::Int64(parent));
    } else if (name == "status") {
      row.push_back(Value::String(id % 2 == 0 ? "open" : "won"));
    } else {
      const int64_t seed = id * 31 + static_cast<int64_t>(i);
      row.push_back(FillerValue(cols[i].type, seed));
    }
  }
  return row;
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

/// The benchmark's statements on one layout, three tenants (healthcare,
/// automotive, no extension), three accounts with one opportunity each.
void AddLayout(LayoutKind kind, Corpus* out) {
  const std::string layout_name = mapping::LayoutKindName(kind);
  SCOPED_TRACE(layout_name);
  mapping::AppSchema app = testbed::BuildCrmAppSchema();
  DatabaseOptions options;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(kind, db.get(), &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  const bool extensible = kind != LayoutKind::kBasic;
  for (int32_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(layout->CreateTenant(t).ok());
    std::vector<mapping::LogicalColumn> cols =
        app.FindTable("account")->columns;
    const char* ext = extensible ? ExtensionOf(t) : nullptr;
    if (ext != nullptr) {
      ASSERT_TRUE(layout->EnableExtension(t, ext).ok());
      for (const auto& c : app.FindExtension(ext)->columns) cols.push_back(c);
    }
    const auto& opp_cols = app.FindTable("opportunity")->columns;
    for (int64_t id = 1; id <= 3; ++id) {
      ASSERT_TRUE(layout->InsertRow(t, "account", MakeRow(cols, id, 0)).ok());
      ASSERT_TRUE(
          layout->InsertRow(t, "opportunity", MakeRow(opp_cols, id, id)).ok());
    }
  }

  struct Op {
    const char* name;
    const char* sql;
    std::vector<Value> params;
    bool select;
  };
  const std::vector<Op> ops = {
      {"point", kPointSql, {Value::Int64(2)}, true},
      {"narrow", kNarrowSql, {Value::Int64(2)}, true},
      {"join", kJoinSql, {Value::Int64(2)}, true},
      {"report", kReportSql, {}, true},
      {"update",
       kUpdateSql,
       {Value::Double(7), Value::String("won"), Value::Int64(2)},
       false},
      {"delete", kDeleteSql, {Value::Int64(3)}, false},
  };
  for (int32_t t = 0; t < 3; ++t) {
    for (const Op& op : ops) {
      Capture capture;
      layout->set_statement_observer(&capture);
      Status st = op.select ? layout->Query(t, op.sql, op.params).status()
                            : layout->Execute(t, op.sql, op.params).status();
      layout->set_statement_observer(nullptr);
      ASSERT_TRUE(st.ok()) << op.name << ": " << st.ToString();
      for (size_t i = 0; i < capture.entries.size(); ++i) {
        const Capture::Entry& e = capture.entries[i];
        ExplainBoth(db.get(),
                    layout_name + "/t" + std::to_string(t) + "/" + op.name +
                        "/" + std::to_string(i) + "/" + e.kind,
                    *e.select, out);
      }
    }
  }
}

/// §6.2's Q2 and grouping queries over Chunk Tables (E3, E4, E5, E9).
void AddChunkQueries(Corpus* out) {
  bench::ChunkBenchConfig config;
  config.parents = 4;
  config.children_per_parent = 2;
  for (int width : {3, 6}) {
    auto made = bench::MakeDeployment(config, width);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    bench::Deployment* d = made->get();
    struct Query {
      std::string name;
      std::string sql;
    };
    std::vector<Query> queries;
    if (width == 6) {
      queries = {{"q2_6", bench::BuildQ2(6)}, {"q2_3", bench::BuildQ2(3)}};
    } else {
      queries = {{"q2_90", bench::BuildQ2(90)},
                 {"group_16", bench::BuildGroupingQuery(16)}};
    }
    for (mapping::EmitMode emit :
         {mapping::EmitMode::kNested, mapping::EmitMode::kFlattened}) {
      for (mapping::PredicateOrder order :
           {mapping::PredicateOrder::kSelectiveFirst,
            mapping::PredicateOrder::kMetadataFirst}) {
        d->layout->transform_options().emit_mode = emit;
        d->layout->transform_options().predicate_order = order;
        for (const Query& q : queries) {
          auto physical = d->layout->ShowTransformed(0, q.sql);
          ASSERT_TRUE(physical.ok()) << physical.status().ToString();
          auto stmt = sql::ParseSelect(*physical);
          ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
          ExplainBoth(
              d->db.get(),
              d->label + "/" + q.name + "/" +
                  (emit == mapping::EmitMode::kNested ? "nested" : "flat") +
                  "/" +
                  (order == mapping::PredicateOrder::kSelectiveFirst
                       ? "selective_first"
                       : "metadata_first"),
              **stmt, out);
        }
      }
    }
  }
}

/// Planner paths the mapping layer's statements do not reach — hash and
/// cross joins, derived-table drivers, constant conjuncts, HAVING,
/// ORDER BY over hidden columns, LIMIT, DISTINCT — and error cases, on
/// three plain tables.
void AddEngineQueries(Corpus* out) {
  Database db;
  for (const char* ddl :
       {"CREATE TABLE a (id BIGINT, grp INT, name VARCHAR, v BIGINT)",
        "CREATE UNIQUE INDEX ux_a_id ON a (id)",
        "CREATE INDEX ix_a_grp ON a (grp)",
        "CREATE TABLE b (id BIGINT, a_id BIGINT, w BIGINT, tag VARCHAR)",
        "CREATE UNIQUE INDEX ux_b_id ON b (id)",
        "CREATE TABLE c (k INT, x BIGINT)"}) {
    ASSERT_TRUE(db.Execute(ddl).ok()) << ddl;
  }
  const char* queries[] = {
      "SELECT a.name, b.w FROM a, b WHERE b.a_id = a.id AND a.grp = 3",
      "SELECT a.name, b.w FROM b, a WHERE b.a_id = a.id AND b.id = ?",
      "SELECT a.id, c.x FROM a, c WHERE a.id = 1",
      "SELECT a.id, c.x FROM a, c WHERE a.v > c.x AND c.k = 2",
      "SELECT name FROM a WHERE 1 = 1 AND v > 5 ORDER BY v DESC LIMIT 3 "
      "OFFSET 1",
      "SELECT DISTINCT grp FROM a WHERE name LIKE 'x%' OR v IS NULL",
      "SELECT grp, COUNT(*), SUM(v) FROM a GROUP BY grp "
      "HAVING COUNT(*) > 1 ORDER BY SUM(v) DESC",
      "SELECT a.grp, MAX(b.w) AS top FROM a, b WHERE a.id = b.a_id "
      "GROUP BY a.grp ORDER BY top",
      "SELECT t.g, t.n FROM (SELECT grp AS g, COUNT(*) AS n FROM a "
      "GROUP BY grp) AS t, c WHERE t.g = c.k",
      "SELECT t.name FROM (SELECT name, id FROM a WHERE grp = 2) AS t "
      "WHERE t.id = ?",
      "SELECT * FROM a WHERE id = ? ORDER BY v",
      "SELECT x.id, y.id FROM a x, a y WHERE x.id = y.v AND y.grp = ? "
      "AND -x.v < 0",
      "SELECT c.k FROM c, (SELECT grp FROM a GROUP BY grp) AS g WHERE 2 = 2",
      "SELECT g.grp, c.k FROM (SELECT grp FROM a GROUP BY grp) AS g, c "
      "WHERE 2 = 2 AND c.k = g.grp",
      "SELECT b.tag FROM a JOIN b ON b.a_id = a.id JOIN c ON c.x = b.w "
      "WHERE a.name = 'n1'",
      "SELECT a.id FROM a, b WHERE id = 1",
      "SELECT id FROM a, b",
      "SELECT nosuch FROM a",
      "SELECT grp, v FROM a GROUP BY grp",
  };
  int n = 0;
  for (const char* q : queries) {
    auto stmt = sql::ParseSelect(q);
    ASSERT_TRUE(stmt.ok()) << q;
    ExplainBoth(&db, "engine/q" + std::to_string(n++), **stmt, out);
  }
}

Corpus BuildCorpus() {
  Corpus corpus;
  for (LayoutKind kind :
       {LayoutKind::kBasic, LayoutKind::kPrivate, LayoutKind::kExtension,
        LayoutKind::kUniversal, LayoutKind::kPivot, LayoutKind::kChunk,
        LayoutKind::kVertical, LayoutKind::kChunkFolding}) {
    AddLayout(kind, &corpus);
  }
  AddChunkQueries(&corpus);
  AddEngineQueries(&corpus);
  return corpus;
}

std::string Render(const Corpus& corpus) {
  std::string out;
  for (const auto& [id, text] : corpus) {
    out += "### " + id + "\n" + text + "\n";
  }
  return out;
}

std::map<std::string, std::string> ParseGolden(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line, id, text;
  bool have = false;
  auto flush = [&] {
    if (!have) return;
    if (!text.empty()) text.pop_back();  // the entry's last newline
    out[id] = text;
  };
  while (std::getline(in, line)) {
    if (line.rfind("### ", 0) == 0) {
      flush();
      id = line.substr(4);
      text.clear();
      have = true;
    } else {
      text += line + "\n";
    }
  }
  flush();
  return out;
}

// Chunk Folding's point lookup by id, driven from cf_account's
// (tenant, id) index: with an extension (tenant 0: two chunks in the
// folded tables) and with one chunk (tenant 1).
constexpr const char* kFoldDriverTwoChunks = R"(Project
  IndexNLJoin fold_chunkdata (account$2) index=ux_foldchunk_tcr keys=[tenant=0, tbl=0, chunk=1, row=account$0.row]
    IndexNLJoin fold_chunkidx (account$1) index=ux_foldidx_tcr keys=[tenant=0, tbl=0, chunk=0, row=account$0.row]
      IndexScan cf_account (account$0) index=ix_cf_account_id prefix=[tenant=0, id=?])";
constexpr const char* kFoldDriverOneChunk = R"(Project
  IndexNLJoin fold_chunkdata (account$1) index=ux_foldchunk_tcr keys=[tenant=1, tbl=2, chunk=0, row=account$0.row]
    IndexScan cf_account (account$0) index=ix_cf_account_id prefix=[tenant=1, id=?])";

/// The entries that deliberately differ from the golden corpus, each
/// with its plan. The driver choice scores a fully matched non-unique
/// index above a longer partial prefix, so Chunk Folding's lookups by id
/// (the point SELECT and the UPDATE/DELETE Phase (a) reconstructions)
/// start at cf_account's (tenant, id) index. Before, they scanned the
/// tenant's whole chunk index and probed cf_account once per row. Only
/// kAdvanced chooses a driver, so kNaive plans have no exceptions.
const std::map<std::string, std::string>& DriverChanges() {
  static const auto* kChanges = new std::map<std::string, std::string>{
      {"chunkfolding/t0/point/0/select/advanced", kFoldDriverTwoChunks},
      {"chunkfolding/t0/update/0/select/advanced", kFoldDriverTwoChunks},
      {"chunkfolding/t0/delete/0/select/advanced", kFoldDriverTwoChunks},
      {"chunkfolding/t1/point/0/select/advanced", kFoldDriverOneChunk},
      {"chunkfolding/t1/update/0/select/advanced", kFoldDriverOneChunk},
      {"chunkfolding/t1/delete/0/select/advanced", kFoldDriverOneChunk},
  };
  return *kChanges;
}

TEST(PlanCorpusTest, MatchesGolden) {
  Corpus corpus = BuildCorpus();
  ASSERT_FALSE(HasFatalFailure());
  std::map<std::string, std::string> golden = ParseGolden(MTDB_PLAN_CORPUS);
  if (golden.empty()) std::ofstream("plan_corpus.actual") << Render(corpus);
  ASSERT_FALSE(golden.empty()) << "cannot read " << MTDB_PLAN_CORPUS;

  int mismatches = 0;
  for (const auto& [id, text] : corpus) {
    auto it = golden.find(id);
    if (it == golden.end()) {
      ADD_FAILURE() << "entry missing from the golden corpus: " << id;
      mismatches++;
      continue;
    }
    auto change = DriverChanges().find(id);
    const std::string& expected =
        change == DriverChanges().end() ? it->second : change->second;
    EXPECT_EQ(text, expected) << id;
    if (text != expected) mismatches++;
  }
  for (const auto& [id, text] : DriverChanges()) {
    EXPECT_TRUE(id.size() > 9 && id.substr(id.size() - 9) == "/advanced")
        << id;
    ASSERT_TRUE(golden.count(id)) << id;
    EXPECT_NE(golden.at(id), text) << id << " is listed but did not change";
  }
  EXPECT_EQ(corpus.size(), golden.size());
  if (mismatches > 0 || corpus.size() != golden.size()) {
    std::ofstream("plan_corpus.actual") << Render(corpus);
  }
}

}  // namespace
}  // namespace mtdb
