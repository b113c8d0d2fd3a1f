#ifndef MTDB_SQL_AST_H_
#define MTDB_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"

namespace mtdb {
namespace sql {

// ----------------------------------------------------------- expressions

enum class PExprKind {
  kLiteral,
  kColumnRef,
  kParam,
  kUnary,    // NOT, unary -
  kBinary,   // comparisons, arithmetic, AND, OR
  kIsNull,   // IS [NOT] NULL
  kLike,     // [NOT] LIKE with %/_ wildcards
  kFuncCall, // COUNT/SUM/AVG/MIN/MAX
  kStar,     // the * inside COUNT(*)
};

enum class BinaryOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv, kMod,
  kAnd, kOr,
};

enum class UnaryOp { kNot, kNeg };

/// Unbound (parsed) expression. The binder in src/engine resolves
/// ColumnRefs against the plan's input schema; the mapping layer rewrites
/// these trees directly.
struct ParsedExpr {
  PExprKind kind;

  // kLiteral
  Value literal;
  // kColumnRef
  std::string table;   // alias or table name; may be empty
  std::string column;
  // kParam
  size_t param_ordinal = 0;
  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kEq;
  std::unique_ptr<ParsedExpr> left;
  std::unique_ptr<ParsedExpr> right;
  // kIsNull / kLike
  bool is_null_negated = false;
  bool like_negated = false;
  // kFuncCall
  std::string func_name;
  std::vector<std::unique_ptr<ParsedExpr>> args;
  bool func_star = false;  // COUNT(*)

  std::unique_ptr<ParsedExpr> Clone() const;
};

using ParsedExprPtr = std::unique_ptr<ParsedExpr>;

ParsedExprPtr MakeLiteral(Value v);
ParsedExprPtr MakeColumnRef(std::string table, std::string column);
ParsedExprPtr MakeParam(size_t ordinal);
ParsedExprPtr MakeBinary(BinaryOp op, ParsedExprPtr l, ParsedExprPtr r);
ParsedExprPtr MakeUnary(UnaryOp op, ParsedExprPtr c);
ParsedExprPtr MakeIsNull(ParsedExprPtr c, bool negated);
ParsedExprPtr MakeLike(ParsedExprPtr value, ParsedExprPtr pattern,
                       bool negated);
ParsedExprPtr MakeFunc(std::string name, std::vector<ParsedExprPtr> args,
                       bool star);

/// Structural equality: the same tree of operators, functions and
/// values. Identifiers compare case-insensitively, as SQL resolves them;
/// literals compare by type and value; parameters by ordinal. The
/// planner matches GROUP BY, aggregate and ORDER BY expressions with it
/// instead of comparing their printed SQL.
bool ExprEquals(const ParsedExpr& a, const ParsedExpr& b);

/// ANDs two (possibly null) predicates together.
ParsedExprPtr AndTogether(ParsedExprPtr a, ParsedExprPtr b);

// ------------------------------------------------------------ statements

struct SelectStmt;

/// One entry in the FROM list: either a base table or a derived table
/// (subquery). Explicit JOIN ... ON syntax is flattened by the parser
/// into the ref list plus WHERE conjuncts; `join_order_pinned` records
/// that the query author fixed the order (naive planners preserve it).
struct TableRef {
  std::string table_name;                 // empty for derived tables
  std::unique_ptr<SelectStmt> subquery;   // set for derived tables
  std::string alias;                      // effective binding name

  TableRef() = default;
  TableRef(const TableRef&) = delete;
  TableRef& operator=(const TableRef&) = delete;
  TableRef(TableRef&&) = default;
  TableRef& operator=(TableRef&&) = default;

  bool is_subquery() const { return subquery != nullptr; }
  const std::string& binding_name() const {
    return alias.empty() ? table_name : alias;
  }
  TableRef Clone() const;
};

struct SelectItem {
  ParsedExprPtr expr;
  std::string alias;

  SelectItem Clone() const;
};

struct OrderItem {
  ParsedExprPtr expr;
  bool descending = false;
};

struct SelectStmt {
  std::vector<SelectItem> items;   // empty => SELECT *
  bool select_star = false;
  bool distinct = false;
  std::vector<TableRef> from;
  ParsedExprPtr where;
  std::vector<ParsedExprPtr> group_by;
  ParsedExprPtr having;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;
  int64_t offset = 0;

  std::unique_ptr<SelectStmt> Clone() const;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty => schema order
  std::vector<std::vector<ParsedExprPtr>> rows;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ParsedExprPtr>> assignments;
  ParsedExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ParsedExprPtr where;
};

struct ColumnDef {
  std::string name;
  TypeId type;
  bool not_null = false;
};

struct CreateTableStmt {
  std::string table;
  std::vector<ColumnDef> columns;
};

struct CreateIndexStmt {
  std::string index;
  std::string table;
  std::vector<std::string> columns;
  bool unique = false;
};

struct DropTableStmt {
  std::string table;
};

struct DropIndexStmt {
  std::string index;
};

enum class StatementKind {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kCreateIndex,
  kDropTable,
  kDropIndex,
  kExplainMapping,
  // Transaction control. These carry no payload: the session layer owns
  // the transaction state machine, the parser just recognises the verbs.
  kBegin,
  kCommit,
  kRollback,
};

struct ExplainStmt;  // holds a Statement; defined below

/// A parsed SQL statement (tagged union of the structs above).
struct Statement {
  StatementKind kind;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<DropTableStmt> drop_table;
  std::unique_ptr<DropIndexStmt> drop_index;
  std::unique_ptr<ExplainStmt> explain;
};

/// EXPLAIN MAPPING <stmt>: asks the mapping layer to report which
/// physical statements the target would produce, without executing it.
/// The target may be any DML statement; nesting EXPLAIN is rejected by
/// the parser.
struct ExplainStmt {
  std::unique_ptr<Statement> target;
};

/// Lowercase label for a statement kind ("select", "explain_mapping",
/// ...), used for metric series names and trace spans.
const char* KindLabel(StatementKind kind);

}  // namespace sql
}  // namespace mtdb

#endif  // MTDB_SQL_AST_H_
