#include <gtest/gtest.h>

#include <set>

#include "mapping_test_util.h"
#include "testbed/crm_schema.h"

namespace mtdb {
namespace {

using mapping::AppSchema;
using mapping::ChunkFoldingLayout;
using mapping::ChunkFoldingOptions;
using mapping::SchemaMapping;

/// End-to-end: the full CRM application schema running through Chunk
/// Folding, with multiple tenants, extensions, queries, and DML.
class CrmOnChunkFoldingTest : public ::testing::Test {
 protected:
  CrmOnChunkFoldingTest()
      : app_(testbed::BuildCrmAppSchema()), db_(EngineOptions()) {
    layout_ = std::make_unique<ChunkFoldingLayout>(&db_, &app_);
    EXPECT_TRUE(layout_->Bootstrap().ok());
    for (TenantId t = 1; t <= 3; ++t) {
      EXPECT_TRUE(layout_->CreateTenant(t).ok());
    }
    EXPECT_TRUE(layout_->EnableExtension(1, "healthcare_account").ok());
    EXPECT_TRUE(layout_->EnableExtension(2, "automotive_account").ok());
    EXPECT_TRUE(layout_->EnableExtension(2, "project_opportunity").ok());
  }

  AppSchema app_;
  Database db_;
  std::unique_ptr<SchemaMapping> layout_;
};

TEST_F(CrmOnChunkFoldingTest, MultiTenantCrmLifecycle) {
  // Load a few accounts per tenant with tenant-specific extensions.
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(layout_
                    ->Execute(1,
                              "INSERT INTO account (id, campaign_id, name, "
                              "status, hospital, beds) VALUES (?, 0, ?, "
                              "'open', ?, ?)",
                              {Value::Int64(i),
                               Value::String("clinic" + std::to_string(i)),
                               Value::String("hosp" + std::to_string(i)),
                               Value::Int32(i * 100)})
                    .ok());
    ASSERT_TRUE(layout_
                    ->Execute(2,
                              "INSERT INTO account (id, campaign_id, name, "
                              "status, dealers) VALUES (?, 0, ?, 'won', ?)",
                              {Value::Int64(i),
                               Value::String("motor" + std::to_string(i)),
                               Value::Int32(i)})
                    .ok());
    ASSERT_TRUE(layout_
                    ->Execute(3,
                              "INSERT INTO account (id, campaign_id, name, "
                              "status) VALUES (?, 0, ?, 'new')",
                              {Value::Int64(i),
                               Value::String("plain" + std::to_string(i))})
                    .ok());
  }

  // Tenant 1 queries across base + extension columns.
  auto r = layout_->Query(
      1, "SELECT name, beds FROM account WHERE beds >= 300 ORDER BY beds");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][1].AsInt64(), 300);

  // Tenant 2's extension is invisible to tenant 1 and vice versa.
  EXPECT_FALSE(layout_->Query(1, "SELECT dealers FROM account").ok());
  EXPECT_FALSE(layout_->Query(2, "SELECT beds FROM account").ok());

  // Aggregate per status across the shared physical tables.
  auto agg = layout_->Query(
      2, "SELECT status, COUNT(*) FROM account GROUP BY status");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg->rows.size(), 1u);
  EXPECT_EQ(agg->rows[0][1].AsInt64(), 5);

  // Update through the mapping, then verify.
  ASSERT_TRUE(
      layout_->Execute(1, "UPDATE account SET beds = beds + 10 WHERE id = 2")
          .ok());
  auto beds = layout_->Query(1, "SELECT beds FROM account WHERE id = 2");
  ASSERT_TRUE(beds.ok());
  EXPECT_EQ(beds->rows[0][0].AsInt64(), 210);

  // Delete and confirm isolation.
  ASSERT_TRUE(layout_->Execute(3, "DELETE FROM account WHERE id = 1").ok());
  auto t3 = layout_->Query(3, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(t3->rows[0][0].AsInt64(), 4);
  auto t1 = layout_->Query(1, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1->rows[0][0].AsInt64(), 5);
}

TEST_F(CrmOnChunkFoldingTest, ParentChildJoinThroughMapping) {
  ASSERT_TRUE(layout_
                  ->Execute(1,
                            "INSERT INTO account (id, campaign_id, name, "
                            "status) VALUES (1, 0, 'acme', 'open')")
                  .ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(layout_
                    ->Execute(1,
                              "INSERT INTO opportunity (id, account_id, name, "
                              "status, amount) VALUES (?, 1, ?, 'open', ?)",
                              {Value::Int64(i),
                               Value::String("opp" + std::to_string(i)),
                               Value::Double(i * 1000.0)})
                    .ok());
  }
  auto r = layout_->Query(
      1,
      "SELECT a.name, COUNT(*), SUM(o.amount) FROM account a, opportunity o "
      "WHERE o.account_id = a.id GROUP BY a.name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsInt64(), 4);
  EXPECT_DOUBLE_EQ(r->rows[0][2].AsDouble(), 10000.0);
}

TEST_F(CrmOnChunkFoldingTest, OnlineExtensionEnableIsVisibleImmediately) {
  ASSERT_TRUE(layout_
                  ->Execute(3,
                            "INSERT INTO account (id, campaign_id, name, "
                            "status) VALUES (1, 0, 'n', 's')")
                  .ok());
  // Before: the extension column does not exist for tenant 3.
  EXPECT_FALSE(layout_->Query(3, "SELECT beds FROM account").ok());
  // Enabling an extension is pure meta-data bookkeeping for chunked
  // layouts — no physical DDL, usable immediately (§3's on-line schema
  // modification advantage of generic structures).
  size_t tables_before = db_.Stats().tables;
  ASSERT_TRUE(layout_->EnableExtension(3, "healthcare_account").ok());
  EXPECT_EQ(db_.Stats().tables, tables_before);
  auto r = layout_->Query(3, "SELECT name, beds FROM account");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->rows[0][1].is_null());  // old rows: extension NULL
  ASSERT_TRUE(
      layout_->Execute(3, "UPDATE account SET beds = 50 WHERE id = 1").ok());
  auto updated = layout_->Query(3, "SELECT beds FROM account WHERE id = 1");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->rows[0][0].AsInt64(), 50);
}

/// Enabling an extension changes the tenant's mapping — and on some
/// layouts the physical schema — under statements whose plans are
/// already cached. The same statements, run before and after, must see
/// the new columns and the old rows, on every extensible layout.
class ExtensionEnableTest
    : public ::testing::TestWithParam<mapping::LayoutKind> {};

TEST_P(ExtensionEnableTest, StatementsBeforeAndAfterEnableExtension) {
  AppSchema app = testbed::BuildCrmAppSchema();
  Database db;
  auto layout = MakeLayout(GetParam(), &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  for (TenantId t = 1; t <= 2; ++t) {
    ASSERT_TRUE(layout->CreateTenant(t).ok());
    ASSERT_TRUE(layout
                    ->Execute(t,
                              "INSERT INTO account (id, campaign_id, name, "
                              "status) VALUES (1, 0, 'n', 's')")
                    .ok());
  }
  ASSERT_TRUE(layout->EnableExtension(2, "healthcare_account").ok());
  const char* point = "SELECT * FROM account WHERE id = 1";
  const char* narrow = "SELECT name FROM account WHERE id = 1";
  auto before = layout->Query(1, point);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(layout->Query(1, point).ok());  // cached by now
  ASSERT_TRUE(layout->Query(1, narrow).ok());
  EXPECT_FALSE(layout->Query(1, "SELECT beds FROM account").ok());

  ASSERT_TRUE(layout->EnableExtension(1, "healthcare_account").ok());
  auto after = layout->Query(1, point);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->columns.size(),
            before->columns.size() +
                app.FindExtension("healthcare_account")->columns.size());
  ASSERT_EQ(after->rows.size(), 1u);
  auto name = layout->Query(1, narrow);
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  ASSERT_EQ(name->rows.size(), 1u);
  EXPECT_EQ(name->rows[0][0].AsString(), "n");
  ASSERT_TRUE(
      layout->Execute(1, "UPDATE account SET beds = 50 WHERE id = 1").ok());
  auto beds = layout->Query(1, "SELECT beds FROM account WHERE id = 1");
  ASSERT_TRUE(beds.ok()) << beds.status().ToString();
  ASSERT_EQ(beds->rows.size(), 1u);
  EXPECT_EQ(beds->rows[0][0].AsInt64(), 50);
  // The tenant that had the extension all along is untouched.
  auto other = layout->Query(2, "SELECT beds FROM account WHERE id = 1");
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  ASSERT_EQ(other->rows.size(), 1u);
  EXPECT_TRUE(other->rows[0][0].is_null());
}

INSTANTIATE_TEST_SUITE_P(
    ExtensibleLayouts, ExtensionEnableTest,
    ::testing::Values(mapping::LayoutKind::kPrivate,
                      mapping::LayoutKind::kExtension,
                      mapping::LayoutKind::kUniversal,
                      mapping::LayoutKind::kPivot, mapping::LayoutKind::kChunk,
                      mapping::LayoutKind::kVertical,
                      mapping::LayoutKind::kChunkFolding),
    [](const ::testing::TestParamInfo<mapping::LayoutKind>& info) {
      return std::string(mapping::LayoutKindName(info.param));
    });

/// Chunk Tables with the trashcan: healthcare_account adds an indexed
/// column, which shifts every data chunk, so EnableExtension repacks the
/// tenant's rows — the deleted ones too.
class ExtensionEnableTrashcanTest : public ::testing::Test {
 protected:
  ExtensionEnableTrashcanTest() : app_(testbed::BuildCrmAppSchema()) {
    mapping::ChunkLayoutOptions options;
    options.trashcan = true;
    layout_ = std::make_unique<mapping::ChunkTableLayout>(&db_, &app_, options);
    EXPECT_TRUE(layout_->Bootstrap().ok());
    for (TenantId t = 1; t <= 2; ++t) {
      EXPECT_TRUE(layout_->CreateTenant(t).ok());
    }
    EXPECT_TRUE(layout_->EnableExtension(2, "healthcare_account").ok());
    for (TenantId t = 1; t <= 2; ++t) {
      EXPECT_TRUE(layout_
                      ->Execute(t,
                                "INSERT INTO account (id, campaign_id, name, "
                                "status) VALUES (1, 7, 'one', 'open'), "
                                "(2, 8, 'two', 'won')")
                      .ok());
    }
  }

  /// The tenant's rows as text, in id order.
  std::vector<std::string> Rows(TenantId t, const std::string& sql) {
    auto r = layout_->Query(t, sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::string> out;
    if (r.ok()) {
      for (const Row& row : r->rows) out.push_back(RowToString(row));
    }
    return out;
  }

  /// Every physical chunk row of tenant `t`, as text.
  std::vector<std::string> Chunks(TenantId t) {
    std::vector<std::string> out;
    for (const char* table : {"chunkdata", "chunkidx"}) {
      auto r = db_.Query(std::string("SELECT * FROM ") + table +
                         " WHERE tenant = " + std::to_string(t) +
                         " ORDER BY chunk, row");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) continue;
      for (const Row& row : r->rows) {
        out.push_back(std::string(table) + " " + RowToString(row));
      }
    }
    return out;
  }

  AppSchema app_;
  Database db_;
  std::unique_ptr<mapping::ChunkTableLayout> layout_;
};

TEST_F(ExtensionEnableTrashcanTest, DeletedRowsRestoreAfterRepacking) {
  const char* all = "SELECT id, campaign_id, name, status FROM account "
                    "ORDER BY id";
  const std::vector<std::string> before = Rows(1, all);
  ASSERT_EQ(before.size(), 2u);
  ASSERT_TRUE(layout_->Execute(1, "DELETE FROM account WHERE id = 2").ok());
  EXPECT_EQ(Rows(1, all).size(), 1u);  // the plan is cached by now

  ASSERT_TRUE(layout_->EnableExtension(1, "healthcare_account").ok());
  EXPECT_EQ(Rows(1, all), std::vector<std::string>{before[0]});
  auto restored = layout_->RestoreDeleted(1, "account");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(Rows(1, all), before);
  EXPECT_EQ(Rows(1, "SELECT medicare_id FROM account WHERE id = 2"),
            std::vector<std::string>{RowToString({Value()})});
}

TEST_F(ExtensionEnableTrashcanTest, FailedMigrationLeavesRowsAndMapping) {
  // Block the migration's last write: a stray row holding the key of the
  // data chunk the repacking adds at the end (tenant 2, with the
  // extension already, shows which chunks the new mapping uses).
  auto chunks_of = [&](TenantId t) {
    std::set<int32_t> out;
    auto r = db_.Query("SELECT chunk FROM chunkdata WHERE tenant = " +
                       std::to_string(t));
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      for (const Row& row : r->rows) out.insert(row[0].AsInt32());
    }
    return out;
  };
  const std::set<int32_t> mine = chunks_of(1);
  std::vector<int32_t> added;
  for (int32_t c : chunks_of(2)) {
    if (!mine.contains(c)) added.push_back(c);
  }
  ASSERT_FALSE(added.empty());
  auto key = db_.Query("SELECT tbl, row FROM chunkdata WHERE tenant = 1 "
                       "ORDER BY row");
  ASSERT_TRUE(key.ok() && !key->rows.empty());
  const std::string stray = "chunkdata WHERE tenant = 1 AND chunk = " +
                            std::to_string(added.back());
  ASSERT_TRUE(db_.Execute("INSERT INTO chunkdata (tenant, tbl, chunk, row, "
                          "del) VALUES (1, " +
                          key->rows[0][0].ToString() + ", " +
                          std::to_string(added.back()) + ", " +
                          key->rows[0][1].ToString() + ", 0)")
                  .ok());
  const char* all = "SELECT * FROM account ORDER BY id";
  const std::vector<std::string> logical = Rows(1, all);
  const std::vector<std::string> physical = Chunks(1);

  EXPECT_FALSE(layout_->EnableExtension(1, "healthcare_account").ok());
  EXPECT_EQ(Chunks(1), physical);
  EXPECT_EQ(Rows(1, all), logical);
  EXPECT_FALSE(layout_->Query(1, "SELECT medicare_id FROM account").ok());
  EXPECT_GT(layout_->stats().undo_statements.load(), 0u);

  ASSERT_TRUE(db_.Execute("DELETE FROM " + stray).ok());
  ASSERT_TRUE(layout_->EnableExtension(1, "healthcare_account").ok());
  auto after = layout_->Query(1, "SELECT id, name, medicare_id FROM account "
                                 "ORDER BY id");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->rows.size(), 2u);
  EXPECT_EQ(after->rows[1][1].AsString(), "two");
  EXPECT_TRUE(after->rows[1][2].is_null());
}

/// The consolidation story: physical table counts per layout for the
/// full CRM app with N tenants (the Figure 2 / §3 tradeoff).
TEST(ConsolidationTest, TableCountsAcrossLayouts) {
  using mapping::LayoutKind;
  AppSchema app = testbed::BuildCrmAppSchema();
  std::map<LayoutKind, size_t> tables;
  for (LayoutKind kind :
       {LayoutKind::kPrivate, LayoutKind::kExtension, LayoutKind::kUniversal,
        LayoutKind::kPivot, LayoutKind::kChunk, LayoutKind::kChunkFolding}) {
    Database db;
    auto layout = MakeLayout(kind, &db, &app);
    ASSERT_TRUE(layout->Bootstrap().ok());
    for (TenantId t = 0; t < 8; ++t) {
      ASSERT_TRUE(layout->CreateTenant(t).ok());
      if (t % 2 == 0) {
        ASSERT_TRUE(layout->EnableExtension(t, "healthcare_account").ok());
      }
    }
    tables[kind] = db.Stats().tables;
  }
  // Private: 10 tables x 8 tenants. Extension: 10 base + 1 ext. Others
  // are tenant-independent.
  EXPECT_EQ(tables[LayoutKind::kPrivate], 80u);
  EXPECT_EQ(tables[LayoutKind::kExtension], 11u);
  EXPECT_EQ(tables[LayoutKind::kUniversal], 1u);
  EXPECT_EQ(tables[LayoutKind::kPivot], 4u);
  EXPECT_EQ(tables[LayoutKind::kChunk], 2u);
  EXPECT_EQ(tables[LayoutKind::kChunkFolding], 12u);  // 10 base + 2 chunk
}

}  // namespace
}  // namespace mtdb
