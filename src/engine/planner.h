#ifndef MTDB_ENGINE_PLANNER_H_
#define MTDB_ENGINE_PLANNER_H_

#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "exec/executor.h"
#include "sql/ast.h"
#include "sql/printer.h"

namespace mtdb {

/// Optimizer sophistication, modeling the §6.2 Test 1 contrast:
///  * kAdvanced (DB2-like): unnests conjunctive derived tables
///    (Fegaras & Maier rule N8), considers all conjuncts for index
///    selection (longest prefix), and greedily orders joins by estimated
///    selectivity.
///  * kNaive (MySQL-like): derived tables are fully materialized before
///    any outer predicate applies, joins run in the written FROM order,
///    and index selection on a table considers only the first indexable
///    conjunct in written order — so the SQL author's predicate order
///    matters, as the paper measured (a factor of 5).
enum class PlannerMode { kNaive, kAdvanced };

/// Compiles a bound-free SELECT AST against the catalog into an
/// executor tree. No plan text is built.
Result<ExecutorPtr> PlanSelect(const sql::SelectStmt& stmt, Catalog* catalog,
                               PlannerMode mode);

/// Plans `stmt` exactly as PlanSelect does and returns the plan as
/// indented text, one operator per line (the "debug/explain facility"
/// used in Test 1/2).
Result<std::string> ExplainSelect(const sql::SelectStmt& stmt,
                                  Catalog* catalog, PlannerMode mode);

/// An executor tree and its EXPLAIN text.
struct ExplainedPlan {
  ExecutorPtr exec;
  std::string text;
};

/// PlanSelect and ExplainSelect in one planning run. When `param` is
/// given, the text's parameters are printed through it instead of `?`.
Result<ExplainedPlan> PlanAndExplainSelect(
    const sql::SelectStmt& stmt, Catalog* catalog, PlannerMode mode,
    const sql::ParamPrinter* param = nullptr);

}  // namespace mtdb

#endif  // MTDB_ENGINE_PLANNER_H_
