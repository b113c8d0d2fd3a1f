#include "sql/ast.h"

#include "catalog/schema.h"

namespace mtdb {
namespace sql {

ParsedExprPtr ParsedExpr::Clone() const {
  auto out = std::make_unique<ParsedExpr>();
  out->kind = kind;
  out->literal = literal;
  out->table = table;
  out->column = column;
  out->param_ordinal = param_ordinal;
  out->unary_op = unary_op;
  out->binary_op = binary_op;
  if (left != nullptr) out->left = left->Clone();
  if (right != nullptr) out->right = right->Clone();
  out->is_null_negated = is_null_negated;
  out->like_negated = like_negated;
  out->func_name = func_name;
  for (const auto& a : args) out->args.push_back(a->Clone());
  out->func_star = func_star;
  return out;
}

bool ExprEquals(const ParsedExpr& a, const ParsedExpr& b) {
  if (a.kind != b.kind) return false;
  auto same = [](const ParsedExprPtr& x, const ParsedExprPtr& y) {
    if (x == nullptr || y == nullptr) return x == y;
    return ExprEquals(*x, *y);
  };
  switch (a.kind) {
    case PExprKind::kLiteral:
      return a.literal.type() == b.literal.type() &&
             a.literal.is_null() == b.literal.is_null() &&
             (a.literal.is_null() || a.literal == b.literal);
    case PExprKind::kColumnRef:
      return IdentEquals(a.table, b.table) && IdentEquals(a.column, b.column);
    case PExprKind::kParam:
      return a.param_ordinal == b.param_ordinal;
    case PExprKind::kUnary:
      return a.unary_op == b.unary_op && same(a.left, b.left);
    case PExprKind::kBinary:
      return a.binary_op == b.binary_op && same(a.left, b.left) &&
             same(a.right, b.right);
    case PExprKind::kIsNull:
      return a.is_null_negated == b.is_null_negated && same(a.left, b.left);
    case PExprKind::kLike:
      return a.like_negated == b.like_negated && same(a.left, b.left) &&
             same(a.right, b.right);
    case PExprKind::kFuncCall:
      if (!IdentEquals(a.func_name, b.func_name) ||
          a.func_star != b.func_star || a.args.size() != b.args.size()) {
        return false;
      }
      for (size_t i = 0; i < a.args.size(); ++i) {
        if (!same(a.args[i], b.args[i])) return false;
      }
      return true;
    case PExprKind::kStar:
      return true;
  }
  return false;
}

ParsedExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<ParsedExpr>();
  e->kind = PExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ParsedExprPtr MakeColumnRef(std::string table, std::string column) {
  auto e = std::make_unique<ParsedExpr>();
  e->kind = PExprKind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ParsedExprPtr MakeParam(size_t ordinal) {
  auto e = std::make_unique<ParsedExpr>();
  e->kind = PExprKind::kParam;
  e->param_ordinal = ordinal;
  return e;
}

ParsedExprPtr MakeBinary(BinaryOp op, ParsedExprPtr l, ParsedExprPtr r) {
  auto e = std::make_unique<ParsedExpr>();
  e->kind = PExprKind::kBinary;
  e->binary_op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

ParsedExprPtr MakeUnary(UnaryOp op, ParsedExprPtr c) {
  auto e = std::make_unique<ParsedExpr>();
  e->kind = PExprKind::kUnary;
  e->unary_op = op;
  e->left = std::move(c);
  return e;
}

ParsedExprPtr MakeIsNull(ParsedExprPtr c, bool negated) {
  auto e = std::make_unique<ParsedExpr>();
  e->kind = PExprKind::kIsNull;
  e->left = std::move(c);
  e->is_null_negated = negated;
  return e;
}

ParsedExprPtr MakeLike(ParsedExprPtr value, ParsedExprPtr pattern,
                       bool negated) {
  auto e = std::make_unique<ParsedExpr>();
  e->kind = PExprKind::kLike;
  e->left = std::move(value);
  e->right = std::move(pattern);
  e->like_negated = negated;
  return e;
}

ParsedExprPtr MakeFunc(std::string name, std::vector<ParsedExprPtr> args,
                       bool star) {
  auto e = std::make_unique<ParsedExpr>();
  e->kind = PExprKind::kFuncCall;
  e->func_name = std::move(name);
  e->args = std::move(args);
  e->func_star = star;
  return e;
}

ParsedExprPtr AndTogether(ParsedExprPtr a, ParsedExprPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  return MakeBinary(BinaryOp::kAnd, std::move(a), std::move(b));
}

TableRef TableRef::Clone() const {
  TableRef out;
  out.table_name = table_name;
  if (subquery != nullptr) out.subquery = subquery->Clone();
  out.alias = alias;
  return out;
}

SelectItem SelectItem::Clone() const {
  SelectItem out;
  if (expr != nullptr) out.expr = expr->Clone();
  out.alias = alias;
  return out;
}

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto out = std::make_unique<SelectStmt>();
  for (const SelectItem& i : items) out->items.push_back(i.Clone());
  out->select_star = select_star;
  out->distinct = distinct;
  for (const TableRef& r : from) out->from.push_back(r.Clone());
  if (where != nullptr) out->where = where->Clone();
  for (const auto& g : group_by) out->group_by.push_back(g->Clone());
  if (having != nullptr) out->having = having->Clone();
  for (const OrderItem& o : order_by) {
    OrderItem item;
    item.expr = o.expr->Clone();
    item.descending = o.descending;
    out->order_by.push_back(std::move(item));
  }
  out->limit = limit;
  out->offset = offset;
  return out;
}

}  // namespace sql
}  // namespace mtdb
