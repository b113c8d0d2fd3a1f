#include <gtest/gtest.h>

#include "core/chunk_folding_layout.h"
#include "engine/database.h"
#include "testbed/crm_schema.h"

namespace mtdb {
namespace {

/// Plan-shape tests (the paper's Test 2 explains plans for Q2 over
/// chunked and conventional schemas).
class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : db_(EngineOptions()) {
    // A chunk-table-like physical schema: meta columns + data columns.
    EXPECT_TRUE(db_.Execute("CREATE TABLE chunkdata (tenant INT, tbl INT, "
                            "chunk INT, row BIGINT, int1 BIGINT, str1 VARCHAR)")
                    .ok());
    EXPECT_TRUE(db_.Execute("CREATE UNIQUE INDEX ux_tcr ON chunkdata "
                            "(tenant, tbl, chunk, row)")
                    .ok());
    EXPECT_TRUE(db_.Execute("CREATE INDEX ix_itcr ON chunkdata "
                            "(int1, tenant, tbl, chunk)")
                    .ok());
    for (int row = 0; row < 50; ++row) {
      EXPECT_TRUE(db_.Execute("INSERT INTO chunkdata VALUES (17, 0, 0, " +
                              std::to_string(row) + ", " +
                              std::to_string(row * 2) + ", 'v" +
                              std::to_string(row) + "')")
                      .ok());
      EXPECT_TRUE(db_.Execute("INSERT INTO chunkdata VALUES (17, 0, 1, " +
                              std::to_string(row) + ", " +
                              std::to_string(row * 3) + ", 'w" +
                              std::to_string(row) + "')")
                      .ok());
    }
  }

  Database db_;
};

TEST_F(PlannerTest, MetadataPredicatesUseThePartitionedBTree) {
  auto plan = db_.Explain(
      "SELECT s0.int1 FROM chunkdata s0 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 1");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("ux_tcr"), std::string::npos) << *plan;
}

TEST_F(PlannerTest, AligningJoinUsesIndexNestedLoop) {
  auto plan = db_.Explain(
      "SELECT s0.int1, s1.str1 FROM chunkdata s0, chunkdata s1 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0 "
      "AND s1.tenant = 17 AND s1.tbl = 0 AND s1.chunk = 1 "
      "AND s0.row = s1.row");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexNLJoin"), std::string::npos) << *plan;
}

TEST_F(PlannerTest, ValueIndexDrivesSelectiveProbe) {
  db_.set_planner_mode(PlannerMode::kAdvanced);
  auto plan = db_.Explain(
      "SELECT s0.row FROM chunkdata s0 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0 AND s0.int1 = ?");
  ASSERT_TRUE(plan.ok());
  // The advanced planner must pick the itcr value index (int1 leading).
  EXPECT_NE(plan->find("ix_itcr"), std::string::npos) << *plan;
}

TEST_F(PlannerTest, NaivePlannerFollowsWrittenPredicateOrder) {
  db_.set_planner_mode(PlannerMode::kNaive);
  // Meta-data-first: naive picks the tcr index on the weak tenant prefix.
  auto meta_first = db_.Explain(
      "SELECT s0.row FROM chunkdata s0 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0 AND s0.int1 = ?");
  ASSERT_TRUE(meta_first.ok());
  EXPECT_NE(meta_first->find("ux_tcr"), std::string::npos) << *meta_first;
  // Selective-first: naive now probes the value index.
  auto selective_first = db_.Explain(
      "SELECT s0.row FROM chunkdata s0 "
      "WHERE s0.int1 = ? AND s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0");
  ASSERT_TRUE(selective_first.ok());
  EXPECT_NE(selective_first->find("ix_itcr"), std::string::npos)
      << *selective_first;
}

TEST_F(PlannerTest, AdvancedIgnoresWrittenPredicateOrder) {
  db_.set_planner_mode(PlannerMode::kAdvanced);
  auto a = db_.Explain(
      "SELECT s0.row FROM chunkdata s0 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0 AND s0.int1 = ?");
  auto b = db_.Explain(
      "SELECT s0.row FROM chunkdata s0 "
      "WHERE s0.int1 = ? AND s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(PlannerTest, NestedQueryUnnestedByAdvancedPlanner) {
  db_.set_planner_mode(PlannerMode::kAdvanced);
  // The §6.1 reconstruction-query shape for Q1.
  auto plan = db_.Explain(
      "SELECT account17.beds FROM (SELECT s0.str1 AS hospital, "
      "s0.int1 AS beds FROM chunkdata s0 WHERE s0.tenant = 17 AND "
      "s0.tbl = 0 AND s0.chunk = 1) AS account17 "
      "WHERE account17.hospital = 'w3'");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("Materialize"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
}

TEST_F(PlannerTest, NestedAndFlattenedReturnSameRows) {
  const std::string nested =
      "SELECT account17.beds FROM (SELECT s0.str1 AS hospital, "
      "s0.int1 AS beds FROM chunkdata s0 WHERE s0.tenant = 17 AND "
      "s0.tbl = 0 AND s0.chunk = 1) AS account17 "
      "WHERE account17.hospital = 'w3'";
  const std::string flat =
      "SELECT s0.int1 FROM chunkdata s0 WHERE s0.str1 = 'w3' AND "
      "s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 1";
  for (PlannerMode mode : {PlannerMode::kNaive, PlannerMode::kAdvanced}) {
    db_.set_planner_mode(mode);
    auto a = db_.Query(nested);
    auto b = db_.Query(flat);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->rows.size(), 1u);
    ASSERT_EQ(b->rows.size(), 1u);
    EXPECT_EQ(a->rows[0][0].AsInt64(), b->rows[0][0].AsInt64());
  }
}

TEST_F(PlannerTest, JoinOrderIndependenceOfResults) {
  // Both FROM orders must give identical results in both modes.
  const std::string q1 =
      "SELECT s0.int1, s1.int1 FROM chunkdata s0, chunkdata s1 "
      "WHERE s0.chunk = 0 AND s1.chunk = 1 AND s0.tenant = 17 AND "
      "s1.tenant = 17 AND s0.tbl = 0 AND s1.tbl = 0 AND s0.row = s1.row "
      "AND s0.row < 5 ORDER BY s0.int1";
  const std::string q2 =
      "SELECT s0.int1, s1.int1 FROM chunkdata s1, chunkdata s0 "
      "WHERE s0.chunk = 0 AND s1.chunk = 1 AND s0.tenant = 17 AND "
      "s1.tenant = 17 AND s0.tbl = 0 AND s1.tbl = 0 AND s0.row = s1.row "
      "AND s0.row < 5 ORDER BY s0.int1";
  for (PlannerMode mode : {PlannerMode::kNaive, PlannerMode::kAdvanced}) {
    db_.set_planner_mode(mode);
    auto a = db_.Query(q1);
    auto b = db_.Query(q2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->rows.size(), 5u);
    ASSERT_EQ(b->rows.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(a->rows[i][0].AsInt64(), b->rows[i][0].AsInt64());
      EXPECT_EQ(a->rows[i][1].AsInt64(), b->rows[i][1].AsInt64());
    }
  }
}

TEST_F(PlannerTest, DuplicateAggregateCallsShareOneAggregate) {
  auto plan = db_.Explain("SELECT COUNT(*), count(*) FROM chunkdata");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("HashAgg groups=0 aggs=1"), std::string::npos)
      << *plan;
  auto rows = db_.Query("SELECT COUNT(*), count(*) FROM chunkdata");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt64(), 100);
  EXPECT_EQ(rows->rows[0][1].AsInt64(), 100);
}

TEST_F(PlannerTest, BareColumnMatchesQualifiedGroupBy) {
  for (const char* sql :
       {"SELECT chunk, COUNT(*) FROM chunkdata s0 GROUP BY s0.chunk "
        "ORDER BY chunk",
        "SELECT S0.Chunk, COUNT(*) FROM chunkdata s0 GROUP BY s0.chunk "
        "ORDER BY s0.chunk"}) {
    auto rows = db_.Query(sql);
    ASSERT_TRUE(rows.ok()) << sql << ": " << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), 2u) << sql;
    for (int64_t chunk = 0; chunk < 2; ++chunk) {
      EXPECT_EQ(rows->rows[chunk][0].AsInt64(), chunk) << sql;
      EXPECT_EQ(rows->rows[chunk][1].AsInt64(), 50) << sql;
    }
  }
  // A column that is not grouped is still rejected.
  EXPECT_FALSE(
      db_.Query("SELECT row, COUNT(*) FROM chunkdata GROUP BY chunk").ok());
}

TEST_F(PlannerTest, OrderByAliasAndAggregateUseProjectedColumns) {
  const std::string by_alias =
      "SELECT int1 AS v FROM chunkdata WHERE chunk = 1 AND row < 4 "
      "ORDER BY v DESC";
  auto plan = db_.Explain(by_alias);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Sort"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("drop hidden"), std::string::npos) << *plan;
  auto rows = db_.Query(by_alias);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rows->rows[i][0].AsInt64(), static_cast<int64_t>(9 - 3 * i));
  }

  const std::string by_aggregate =
      "SELECT chunk, SUM(int1) FROM chunkdata GROUP BY chunk "
      "ORDER BY sum(INT1) DESC";
  plan = db_.Explain(by_aggregate);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("aggs=1"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("drop hidden"), std::string::npos) << *plan;
  rows = db_.Query(by_aggregate);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[0][0].AsInt64(), 1);  // 3 * (0 + ... + 49)
  EXPECT_EQ(rows->rows[1][0].AsInt64(), 0);  // 2 * (0 + ... + 49)
}

// An index fully matched by constant equalities drives the plan even when
// another table offers a longer partial prefix. Chunk Folding's lookup by
// id starts at cf_account's (tenant, id) index rather than scanning the
// tenant's rows in the folded chunk table and probing cf_account per row.
TEST(PlannerDriverTest, ChunkFoldingLookupByIdDrivesFromConventionalTable) {
  mapping::AppSchema app = testbed::BuildCrmAppSchema();
  Database db;
  mapping::ChunkFoldingLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(layout.CreateTenant(0).ok());
  ASSERT_TRUE(layout.EnableExtension(0, "healthcare_account").ok());
  ASSERT_TRUE(layout
                  .Execute(0,
                           "INSERT INTO account (id, name, beds) VALUES "
                           "(1, 'a', 10), (2, 'b', 20), (3, 'c', 30)")
                  .ok());

  for (const char* sql : {"SELECT * FROM account WHERE id = ?",
                          "SELECT name, beds FROM account WHERE id = ?"}) {
    auto explained = layout.ExplainMapping(0, sql, {Value::Int64(2)});
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    const std::string& plan = explained->plan_text;
    // The driver is the innermost operator: the plan's last line.
    const std::string driver = plan.substr(plan.rfind('\n') + 1);
    EXPECT_NE(driver.find("IndexScan cf_account"), std::string::npos) << plan;
    EXPECT_NE(driver.find("index=ix_cf_account_id"), std::string::npos)
        << plan;
    EXPECT_NE(driver.find("id=?"), std::string::npos) << plan;

    auto rows = layout.Query(0, sql, {Value::Int64(2)});
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), 1u);
  }
  auto beds = layout.Query(0, "SELECT beds FROM account WHERE id = ?",
                           {Value::Int64(3)});
  ASSERT_TRUE(beds.ok());
  ASSERT_EQ(beds->rows.size(), 1u);
  EXPECT_EQ(beds->rows[0][0].AsInt64(), 30);
}

}  // namespace
}  // namespace mtdb
