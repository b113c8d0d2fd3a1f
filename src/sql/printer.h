#ifndef MTDB_SQL_PRINTER_H_
#define MTDB_SQL_PRINTER_H_

#include <functional>
#include <string>

#include "sql/ast.h"

namespace mtdb {
namespace sql {

/// Renders an AST back to SQL text. The mapping layer uses this to show
/// the physical queries it generates (as in the paper's Q1 examples) and
/// tests use it for round-trip checks.
std::string ToSql(const ParsedExpr& expr);

/// Appends the text of parameter `ordinal` to `out`.
using ParamPrinter = std::function<void(size_t ordinal, std::string* out)>;

/// Renders `expr` with every parameter printed by `param` instead of `?`.
std::string ToSql(const ParsedExpr& expr, const ParamPrinter& param);
std::string ToSql(const SelectStmt& stmt);
std::string ToSql(const Statement& stmt);

}  // namespace sql
}  // namespace mtdb

#endif  // MTDB_SQL_PRINTER_H_
