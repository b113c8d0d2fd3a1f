#include "sql/printer.h"

namespace mtdb {
namespace sql {

namespace {

const char* BinaryOpSql(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

/// Appends `expr` to `out`; parameters go through `param` when set.
void Print(const ParsedExpr& expr, const ParamPrinter* param,
           std::string* out) {
  switch (expr.kind) {
    case PExprKind::kLiteral:
      out->append(expr.literal.ToSqlLiteral());
      return;
    case PExprKind::kColumnRef:
      if (!expr.table.empty()) {
        out->append(expr.table);
        out->push_back('.');
      }
      out->append(expr.column);
      return;
    case PExprKind::kParam:
      if (param != nullptr) {
        (*param)(expr.param_ordinal, out);
      } else {
        out->push_back('?');
      }
      return;
    case PExprKind::kUnary:
      out->append(expr.unary_op == UnaryOp::kNot ? "(NOT " : "(-");
      Print(*expr.left, param, out);
      out->push_back(')');
      return;
    case PExprKind::kBinary:
      out->push_back('(');
      Print(*expr.left, param, out);
      out->push_back(' ');
      out->append(BinaryOpSql(expr.binary_op));
      out->push_back(' ');
      Print(*expr.right, param, out);
      out->push_back(')');
      return;
    case PExprKind::kIsNull:
      out->push_back('(');
      Print(*expr.left, param, out);
      out->append(expr.is_null_negated ? " IS NOT NULL)" : " IS NULL)");
      return;
    case PExprKind::kLike:
      out->push_back('(');
      Print(*expr.left, param, out);
      out->append(expr.like_negated ? " NOT LIKE " : " LIKE ");
      Print(*expr.right, param, out);
      out->push_back(')');
      return;
    case PExprKind::kFuncCall:
      out->append(expr.func_name);
      out->push_back('(');
      if (expr.func_star) {
        out->push_back('*');
      } else {
        for (size_t i = 0; i < expr.args.size(); ++i) {
          if (i > 0) out->append(", ");
          Print(*expr.args[i], param, out);
        }
      }
      out->push_back(')');
      return;
    case PExprKind::kStar:
      out->push_back('*');
      return;
  }
  out->push_back('?');
}

}  // namespace

std::string ToSql(const ParsedExpr& expr) {
  std::string out;
  Print(expr, nullptr, &out);
  return out;
}

std::string ToSql(const ParsedExpr& expr, const ParamPrinter& param) {
  std::string out;
  Print(expr, &param, &out);
  return out;
}

std::string ToSql(const SelectStmt& stmt) {
  std::string out = "SELECT ";
  if (stmt.distinct) out += "DISTINCT ";
  if (stmt.select_star) {
    out += "*";
  } else {
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      if (i > 0) out += ", ";
      out += ToSql(*stmt.items[i].expr);
      if (!stmt.items[i].alias.empty()) out += " AS " + stmt.items[i].alias;
    }
  }
  out += " FROM ";
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    if (i > 0) out += ", ";
    const TableRef& ref = stmt.from[i];
    if (ref.is_subquery()) {
      out += "(" + ToSql(*ref.subquery) + ") AS " + ref.alias;
    } else {
      out += ref.table_name;
      if (!ref.alias.empty()) out += " " + ref.alias;
    }
  }
  if (stmt.where != nullptr) {
    out += " WHERE " + ToSql(*stmt.where);
  }
  if (!stmt.group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += ToSql(*stmt.group_by[i]);
    }
  }
  if (stmt.having != nullptr) {
    out += " HAVING " + ToSql(*stmt.having);
  }
  if (!stmt.order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += ToSql(*stmt.order_by[i].expr);
      if (stmt.order_by[i].descending) out += " DESC";
    }
  }
  if (stmt.limit >= 0) {
    out += " LIMIT " + std::to_string(stmt.limit);
    if (stmt.offset > 0) out += " OFFSET " + std::to_string(stmt.offset);
  }
  return out;
}

std::string ToSql(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ToSql(*stmt.select);
    case StatementKind::kInsert: {
      std::string out = "INSERT INTO " + stmt.insert->table;
      if (!stmt.insert->columns.empty()) {
        out += " (";
        for (size_t i = 0; i < stmt.insert->columns.size(); ++i) {
          if (i > 0) out += ", ";
          out += stmt.insert->columns[i];
        }
        out += ")";
      }
      out += " VALUES ";
      for (size_t r = 0; r < stmt.insert->rows.size(); ++r) {
        if (r > 0) out += ", ";
        out += "(";
        for (size_t i = 0; i < stmt.insert->rows[r].size(); ++i) {
          if (i > 0) out += ", ";
          out += ToSql(*stmt.insert->rows[r][i]);
        }
        out += ")";
      }
      return out;
    }
    case StatementKind::kUpdate: {
      std::string out = "UPDATE " + stmt.update->table + " SET ";
      for (size_t i = 0; i < stmt.update->assignments.size(); ++i) {
        if (i > 0) out += ", ";
        out += stmt.update->assignments[i].first + " = " +
               ToSql(*stmt.update->assignments[i].second);
      }
      if (stmt.update->where != nullptr) {
        out += " WHERE " + ToSql(*stmt.update->where);
      }
      return out;
    }
    case StatementKind::kDelete: {
      std::string out = "DELETE FROM " + stmt.del->table;
      if (stmt.del->where != nullptr) {
        out += " WHERE " + ToSql(*stmt.del->where);
      }
      return out;
    }
    case StatementKind::kCreateTable: {
      std::string out = "CREATE TABLE " + stmt.create_table->table + " (";
      for (size_t i = 0; i < stmt.create_table->columns.size(); ++i) {
        if (i > 0) out += ", ";
        const ColumnDef& c = stmt.create_table->columns[i];
        out += c.name;
        out += " ";
        out += TypeName(c.type);
        if (c.not_null) out += " NOT NULL";
      }
      out += ")";
      return out;
    }
    case StatementKind::kCreateIndex: {
      std::string out = "CREATE ";
      if (stmt.create_index->unique) out += "UNIQUE ";
      out += "INDEX " + stmt.create_index->index + " ON " +
             stmt.create_index->table + " (";
      for (size_t i = 0; i < stmt.create_index->columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += stmt.create_index->columns[i];
      }
      out += ")";
      return out;
    }
    case StatementKind::kDropTable:
      return "DROP TABLE " + stmt.drop_table->table;
    case StatementKind::kDropIndex:
      return "DROP INDEX " + stmt.drop_index->index;
    case StatementKind::kExplainMapping:
      return "EXPLAIN MAPPING " + ToSql(*stmt.explain->target);
    case StatementKind::kBegin:
      return "BEGIN";
    case StatementKind::kCommit:
      return "COMMIT";
    case StatementKind::kRollback:
      return "ROLLBACK";
  }
  return "";
}

}  // namespace sql
}  // namespace mtdb
