#include <gtest/gtest.h>

#include "core/migrator.h"
#include "mapping_test_util.h"

namespace mtdb {
namespace mapping {
namespace {

/// Migration between any pair of extensible layouts must preserve every
/// tenant's logical data exactly (§7: "migrate data from one
/// representation to another on-the-fly").
class MigrationTest
    : public ::testing::TestWithParam<std::tuple<LayoutKind, LayoutKind>> {};

TEST_P(MigrationTest, RoundTripPreservesLogicalData) {
  auto [from_kind, to_kind] = GetParam();
  AppSchema app = FigureFourSchema();

  Database from_db, to_db;
  auto from = MakeLayout(from_kind, &from_db, &app);
  auto to = MakeLayout(to_kind, &to_db, &app);
  ASSERT_TRUE(from->Bootstrap().ok());
  ASSERT_TRUE(to->Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(from.get()).ok());

  auto report = LayoutMigrator::MigrateAll(from.get(), to.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->tenants_migrated, 3);
  EXPECT_EQ(report->rows_migrated, 4);  // 2 + 1 + 1 accounts

  // Tenant 17's full logical view must match on both sides.
  for (TenantId tenant : {17, 35, 42}) {
    auto a = from->Query(tenant, "SELECT * FROM account ORDER BY aid");
    auto b = to->Query(tenant, "SELECT * FROM account ORDER BY aid");
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a->columns, b->columns) << "tenant " << tenant;
    ASSERT_EQ(a->rows.size(), b->rows.size());
    for (size_t i = 0; i < a->rows.size(); ++i) {
      for (size_t c = 0; c < a->rows[i].size(); ++c) {
        EXPECT_EQ(a->rows[i][c].Compare(b->rows[i][c]), 0)
            << "tenant " << tenant << " row " << i << " col " << c;
      }
    }
  }

  // The target keeps working as a live layout (DML after migration).
  ASSERT_TRUE(
      to->Execute(17, "UPDATE account SET beds = 1 WHERE aid = 1").ok());
  auto updated = to->Query(17, "SELECT beds FROM account WHERE aid = 1");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->rows[0][0].AsInt64(), 1);
}

/// Migrating a tenant in runs DDL on the target (per-tenant tables,
/// extension tables, indexes) while another tenant's statements there
/// already have cached plans. Those statements must return the same
/// rows after it, and the new tenant's statements must be right.
TEST_P(MigrationTest, CachedStatementsStayRightAcrossMigrationDdl) {
  auto [from_kind, to_kind] = GetParam();
  AppSchema app = FigureFourSchema();
  Database from_db, to_db;
  auto from = MakeLayout(from_kind, &from_db, &app);
  auto to = MakeLayout(to_kind, &to_db, &app);
  ASSERT_TRUE(from->Bootstrap().ok());
  ASSERT_TRUE(to->Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(from.get()).ok());

  ASSERT_TRUE(LayoutMigrator::MigrateTenant(from.get(), to.get(), 35).ok());
  const char* point = "SELECT * FROM account WHERE aid = 1";
  auto before = to->Query(35, point);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(to->Query(35, point).ok());  // now from the plan cache

  ASSERT_TRUE(LayoutMigrator::MigrateTenant(from.get(), to.get(), 17).ok());
  ASSERT_TRUE(LayoutMigrator::MigrateTenant(from.get(), to.get(), 42).ok());
  auto after = to->Query(35, point);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->columns, before->columns);
  ASSERT_EQ(after->rows.size(), before->rows.size());
  for (size_t i = 0; i < after->rows.size(); ++i) {
    EXPECT_EQ(RowToString(after->rows[i]), RowToString(before->rows[i]));
  }
  for (TenantId tenant : {17, 42}) {
    auto a = from->Query(tenant, point);
    auto b = to->Query(tenant, point);
    ASSERT_TRUE(a.ok() && b.ok()) << "tenant " << tenant;
    EXPECT_EQ(a->columns, b->columns) << "tenant " << tenant;
    ASSERT_EQ(a->rows.size(), b->rows.size()) << "tenant " << tenant;
    for (size_t i = 0; i < a->rows.size(); ++i) {
      for (size_t c = 0; c < a->rows[i].size(); ++c) {
        EXPECT_EQ(a->rows[i][c].Compare(b->rows[i][c]), 0)
            << "tenant " << tenant << " col " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, MigrationTest,
    ::testing::Values(
        std::make_tuple(LayoutKind::kPrivate, LayoutKind::kChunkFolding),
        std::make_tuple(LayoutKind::kChunkFolding, LayoutKind::kPrivate),
        std::make_tuple(LayoutKind::kExtension, LayoutKind::kChunk),
        std::make_tuple(LayoutKind::kChunk, LayoutKind::kUniversal),
        std::make_tuple(LayoutKind::kUniversal, LayoutKind::kPivot),
        std::make_tuple(LayoutKind::kPivot, LayoutKind::kExtension),
        std::make_tuple(LayoutKind::kVertical, LayoutKind::kChunk)),
    [](const ::testing::TestParamInfo<std::tuple<LayoutKind, LayoutKind>>&
           info) {
      return std::string(LayoutKindName(std::get<0>(info.param))) + "_to_" +
             LayoutKindName(std::get<1>(info.param));
    });

TEST(MigrationErrorTest, TargetTenantCollisionFails) {
  AppSchema app = FigureFourSchema();
  Database from_db, to_db;
  ChunkTableLayout from(&from_db, &app), to(&to_db, &app);
  ASSERT_TRUE(from.Bootstrap().ok());
  ASSERT_TRUE(to.Bootstrap().ok());
  ASSERT_TRUE(from.CreateTenant(1).ok());
  ASSERT_TRUE(to.CreateTenant(1).ok());  // already present in target
  EXPECT_FALSE(LayoutMigrator::MigrateTenant(&from, &to, 1).ok());
}

// --- §6.3 Trashcan deletes ---------------------------------------------

class TrashcanTest : public ::testing::Test {
 protected:
  TrashcanTest() : app_(FigureFourSchema()) {
    ChunkLayoutOptions options;
    options.trashcan = true;
    layout_ = std::make_unique<ChunkTableLayout>(&db_, &app_, options);
    EXPECT_TRUE(layout_->Bootstrap().ok());
    EXPECT_TRUE(LoadFigureFourData(layout_.get()).ok());
  }

  AppSchema app_;
  Database db_;
  std::unique_ptr<ChunkTableLayout> layout_;
};

TEST_F(TrashcanTest, DeleteHidesRowsWithoutDestroyingThem) {
  ASSERT_TRUE(layout_->trashcan_deletes());
  auto n = layout_->Execute(17, "DELETE FROM account WHERE aid = 2");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1);
  // Invisible to queries...
  auto visible = layout_->Query(17, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(visible.ok());
  EXPECT_EQ(visible->rows[0][0].AsInt64(), 1);
  // ...but the physical rows still exist (marked del=1).
  auto raw = db_.Query("SELECT COUNT(*) FROM chunkdata WHERE del = 1");
  ASSERT_TRUE(raw.ok());
  EXPECT_GT(raw->rows[0][0].AsInt64(), 0);
}

TEST_F(TrashcanTest, RestoreBringsRowsBack) {
  ASSERT_TRUE(layout_->Execute(17, "DELETE FROM account WHERE aid = 2").ok());
  auto restored = layout_->RestoreDeleted(17, "account");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(*restored, 0);
  auto r = layout_->Query(17, "SELECT name FROM account WHERE aid = 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "Gump");
}

TEST_F(TrashcanTest, RestoreIsTenantScoped) {
  ASSERT_TRUE(layout_->Execute(17, "DELETE FROM account WHERE aid = 2").ok());
  ASSERT_TRUE(layout_->Execute(35, "DELETE FROM account WHERE aid = 1").ok());
  // Restoring tenant 17 must not resurrect tenant 35's row.
  ASSERT_TRUE(layout_->RestoreDeleted(17, "account").ok());
  auto t35 = layout_->Query(35, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(t35.ok());
  EXPECT_EQ(t35->rows[0][0].AsInt64(), 0);
}

TEST_F(TrashcanTest, UpdateAfterDeleteTouchesNothing) {
  ASSERT_TRUE(layout_->Execute(17, "DELETE FROM account WHERE aid = 2").ok());
  auto n = layout_->Execute(17, "UPDATE account SET beds = 9 WHERE aid = 2");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0);  // invisible rows are not updatable
}

TEST(TrashcanOffTest, RestoreRejectedWithoutTrashcan) {
  AppSchema app = FigureFourSchema();
  Database db;
  ChunkTableLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(layout.CreateTenant(1).ok());
  EXPECT_FALSE(layout.RestoreDeleted(1, "account").ok());
}

}  // namespace
}  // namespace mapping
}  // namespace mtdb
