#include "engine/planner.h"

#include <algorithm>
#include <unordered_map>

#include "sql/ast_util.h"
#include "sql/printer.h"

namespace mtdb {

namespace {

using sql::BinaryOp;
using sql::ParsedExpr;
using sql::ParsedExprPtr;
using sql::PExprKind;
using sql::SelectStmt;
using sql::TableRef;

// ------------------------------------------------------------------ scope

/// The columns of one FROM binding: a base table's schema or a derived
/// table's output. Borrowed, never copied; both outlive the planning.
class Columns {
 public:
  Columns() = default;
  explicit Columns(const Schema* table) : table_(table) {}
  explicit Columns(const OutputSchema* output) : output_(output) {}

  size_t size() const {
    return table_ != nullptr ? table_->size() : output_->size();
  }
  const std::string& name(size_t i) const {
    return table_ != nullptr ? table_->at(i).name : output_->names[i];
  }
  TypeId type(size_t i) const {
    return table_ != nullptr ? table_->at(i).type : output_->types[i];
  }

  /// Columns named `column` (case-insensitively) and the first of them.
  struct Match {
    uint32_t count = 0;
    size_t first = 0;
  };
  Match Find(const std::string& column) const {
    Match m;
    for (size_t i = 0; i < size(); ++i) {
      if (IdentEquals(name(i), column)) {
        if (m.count++ == 0) m.first = i;
      }
    }
    return m;
  }

 private:
  const Schema* table_ = nullptr;
  const OutputSchema* output_ = nullptr;
};

/// Resolves qualified/unqualified column references against the
/// concatenated output of the tables planned so far. Qualified names
/// find their binding through a map extended as bindings are added, so
/// a lookup scans one binding's columns however many tables are in
/// scope.
class Scope {
 public:
  void Add(const std::string& binding, Columns columns) {
    by_name_.emplace(IdentLower(binding), bindings_.size());
    bindings_.push_back(Binding{columns, width_});
    width_ += columns.size();
  }

  /// Returns (offset, type) of `table`.`column`; table may be empty.
  Result<std::pair<size_t, TypeId>> Resolve(const std::string& table,
                                            const std::string& column) const {
    uint32_t count = 0;
    std::pair<size_t, TypeId> found{0, TypeId::kNull};
    auto visit = [&](const Binding& b) {
      Columns::Match m = b.columns.Find(column);
      if (m.count > 0 && count == 0) {
        found = {b.offset + m.first, b.columns.type(m.first)};
      }
      count += m.count;
    };
    if (table.empty()) {
      for (const Binding& b : bindings_) visit(b);
    } else {
      auto range = by_name_.equal_range(IdentLower(table));
      for (auto it = range.first; it != range.second; ++it) {
        visit(bindings_[it->second]);
      }
    }
    if (count > 1) {
      return Status::InvalidArgument("ambiguous column: " + column);
    }
    if (count == 0) {
      return Status::NotFound("column not found: " +
                              (table.empty() ? column : table + "." + column));
    }
    return found;
  }

 private:
  struct Binding {
    Columns columns;
    size_t offset;
  };
  std::vector<Binding> bindings_;
  std::unordered_multimap<std::string, size_t> by_name_;  // lower -> index
  size_t width_ = 0;
};

// ----------------------------------------------------------- expr binding

bool IsAggregateName(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

bool HasAggregate(const ParsedExpr& e) {
  if (e.kind == PExprKind::kFuncCall && IsAggregateName(e.func_name)) {
    return true;
  }
  if (e.left != nullptr && HasAggregate(*e.left)) return true;
  if (e.right != nullptr && HasAggregate(*e.right)) return true;
  for (const auto& a : e.args) {
    if (HasAggregate(*a)) return true;
  }
  return false;
}

/// Maps the transformation layer's cast pseudo-functions to target types.
std::optional<TypeId> CastTargetOf(const std::string& func_name) {
  if (func_name == "cast_int") return TypeId::kInt32;
  if (func_name == "cast_bigint") return TypeId::kInt64;
  if (func_name == "cast_double") return TypeId::kDouble;
  if (func_name == "cast_date") return TypeId::kDate;
  if (func_name == "cast_str") return TypeId::kString;
  if (func_name == "cast_bool") return TypeId::kBool;
  return std::nullopt;
}

CompareOp ToCompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return CompareOp::kEq;
    case BinaryOp::kNe:
      return CompareOp::kNe;
    case BinaryOp::kLt:
      return CompareOp::kLt;
    case BinaryOp::kLe:
      return CompareOp::kLe;
    case BinaryOp::kGt:
      return CompareOp::kGt;
    default:
      return CompareOp::kGe;
  }
}

/// Binds a parsed expression against `scope`. Aggregate calls are
/// rejected (they are planned separately by the aggregation step).
Result<ExprPtr> BindExpr(const ParsedExpr& e, const Scope& scope) {
  switch (e.kind) {
    case PExprKind::kLiteral:
      return ExprPtr(std::make_unique<LiteralExpr>(e.literal));
    case PExprKind::kParam:
      return ExprPtr(std::make_unique<ParamExpr>(e.param_ordinal));
    case PExprKind::kColumnRef: {
      MTDB_ASSIGN_OR_RETURN(auto loc, scope.Resolve(e.table, e.column));
      std::string display =
          e.table.empty() ? e.column : e.table + "." + e.column;
      return ExprPtr(std::make_unique<ColumnRefExpr>(loc.first, display));
    }
    case PExprKind::kUnary: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr c, BindExpr(*e.left, scope));
      if (e.unary_op == sql::UnaryOp::kNot) {
        return ExprPtr(std::make_unique<NotExpr>(std::move(c)));
      }
      return ExprPtr(std::make_unique<ArithmeticExpr>(
          ArithOp::kSub, std::make_unique<LiteralExpr>(Value::Int64(0)),
          std::move(c)));
    }
    case PExprKind::kBinary: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr l, BindExpr(*e.left, scope));
      MTDB_ASSIGN_OR_RETURN(ExprPtr r, BindExpr(*e.right, scope));
      switch (e.binary_op) {
        case BinaryOp::kAnd:
          return ExprPtr(std::make_unique<AndExpr>(std::move(l), std::move(r)));
        case BinaryOp::kOr:
          return ExprPtr(std::make_unique<OrExpr>(std::move(l), std::move(r)));
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return ExprPtr(std::make_unique<CompareExpr>(
              ToCompareOp(e.binary_op), std::move(l), std::move(r)));
        case BinaryOp::kAdd:
          return ExprPtr(std::make_unique<ArithmeticExpr>(
              ArithOp::kAdd, std::move(l), std::move(r)));
        case BinaryOp::kSub:
          return ExprPtr(std::make_unique<ArithmeticExpr>(
              ArithOp::kSub, std::move(l), std::move(r)));
        case BinaryOp::kMul:
          return ExprPtr(std::make_unique<ArithmeticExpr>(
              ArithOp::kMul, std::move(l), std::move(r)));
        case BinaryOp::kDiv:
          return ExprPtr(std::make_unique<ArithmeticExpr>(
              ArithOp::kDiv, std::move(l), std::move(r)));
        case BinaryOp::kMod:
          return ExprPtr(std::make_unique<ArithmeticExpr>(
              ArithOp::kMod, std::move(l), std::move(r)));
      }
      return Status::Internal("unknown binary op");
    }
    case PExprKind::kIsNull: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr c, BindExpr(*e.left, scope));
      return ExprPtr(std::make_unique<IsNullExpr>(std::move(c),
                                                  e.is_null_negated));
    }
    case PExprKind::kLike: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr v, BindExpr(*e.left, scope));
      MTDB_ASSIGN_OR_RETURN(ExprPtr pat, BindExpr(*e.right, scope));
      return ExprPtr(std::make_unique<LikeExpr>(std::move(v), std::move(pat),
                                                e.like_negated));
    }
    case PExprKind::kFuncCall: {
      std::optional<TypeId> cast = CastTargetOf(e.func_name);
      if (cast.has_value() && e.args.size() == 1) {
        MTDB_ASSIGN_OR_RETURN(ExprPtr c, BindExpr(*e.args[0], scope));
        return ExprPtr(std::make_unique<CastExpr>(std::move(c), *cast));
      }
      return Status::InvalidArgument("aggregate/function " + e.func_name +
                                     " not allowed here");
    }
    case PExprKind::kStar:
      return Status::InvalidArgument("* not allowed here");
  }
  return Status::Internal("unknown expression kind");
}

/// True if `e` references no columns at all (bindable before any table).
bool IsConstant(const ParsedExpr& e) {
  if (e.kind == PExprKind::kColumnRef) return false;
  if (e.kind == PExprKind::kFuncCall) return false;
  if (e.left != nullptr && !IsConstant(*e.left)) return false;
  if (e.right != nullptr && !IsConstant(*e.right)) return false;
  for (const auto& a : e.args) {
    if (!IsConstant(*a)) return false;
  }
  return true;
}

/// Calls `fn` on every column reference in `e`, left to right.
template <typename Fn>
void ForEachColumnRef(const ParsedExpr& e, const Fn& fn) {
  if (e.kind == PExprKind::kColumnRef) fn(e);
  if (e.left != nullptr) ForEachColumnRef(*e.left, fn);
  if (e.right != nullptr) ForEachColumnRef(*e.right, fn);
  for (const auto& a : e.args) ForEachColumnRef(*a, fn);
}

// ----------------------------------------------------------- flattening

/// Rewrites table qualifiers of every column ref per `rename` (old
/// binding name -> new binding name, lower-cased keys).
void RenameBindings(
    ParsedExpr* e,
    const std::unordered_map<std::string, std::string>& rename) {
  if (e->kind == PExprKind::kColumnRef && !e->table.empty()) {
    auto it = rename.find(IdentLower(e->table));
    if (it != rename.end()) e->table = it->second;
  }
  if (e->left != nullptr) RenameBindings(e->left.get(), rename);
  if (e->right != nullptr) RenameBindings(e->right.get(), rename);
  for (auto& a : e->args) RenameBindings(a.get(), rename);
}

/// Substitution of outer references to a flattened derived table:
/// (alias, item-name) -> replacement expression.
struct Substitution {
  std::string alias;  // lower
  std::unordered_map<std::string, ParsedExprPtr> items;  // name(lower)->expr
};

void ApplySubstitutions(ParsedExprPtr* e,
                        const std::vector<Substitution>& subs) {
  ParsedExpr* node = e->get();
  if (node->kind == PExprKind::kColumnRef) {
    std::string t = IdentLower(node->table);
    std::string c = IdentLower(node->column);
    for (const Substitution& s : subs) {
      if (!t.empty() && t != s.alias) continue;
      auto it = s.items.find(c);
      if (it != s.items.end()) {
        *e = it->second->Clone();
        return;
      }
      if (!t.empty()) return;  // qualified but no such item: leave for error
    }
    return;
  }
  if (node->left != nullptr) ApplySubstitutions(&node->left, subs);
  if (node->right != nullptr) ApplySubstitutions(&node->right, subs);
  for (auto& a : node->args) ApplySubstitutions(&a, subs);
}

bool IsFlattenable(const SelectStmt& sub) {
  if (sub.select_star) return false;
  if (sub.distinct) return false;
  if (!sub.group_by.empty() || sub.having != nullptr) return false;
  if (!sub.order_by.empty() || sub.limit >= 0) return false;
  for (const auto& item : sub.items) {
    if (HasAggregate(*item.expr)) return false;
  }
  return true;
}

/// True if FlattenDerivedTables would inline anything.
bool HasFlattenable(const SelectStmt& stmt) {
  if (stmt.select_star) return false;
  for (const TableRef& ref : stmt.from) {
    if (ref.is_subquery() && IsFlattenable(*ref.subquery)) return true;
  }
  return false;
}

/// Fegaras & Maier rule N8: inline conjunctive derived tables into the
/// outer FROM/WHERE. Runs to fixpoint (flattens nested derived tables).
void FlattenDerivedTables(SelectStmt* stmt) {
  if (stmt->select_star) return;  // would need item expansion
  bool changed = true;
  int unique = 0;
  while (changed) {
    changed = false;
    std::vector<TableRef> new_from;
    std::vector<Substitution> subs;
    std::vector<ParsedExprPtr> extra_conjuncts;
    for (TableRef& ref : stmt->from) {
      if (!ref.is_subquery() || !IsFlattenable(*ref.subquery)) {
        new_from.push_back(std::move(ref));
        continue;
      }
      changed = true;
      SelectStmt* sub = ref.subquery.get();
      // Rename the subquery's bindings to avoid collisions outside.
      std::unordered_map<std::string, std::string> rename;
      for (TableRef& inner : sub->from) {
        std::string old_name = inner.binding_name();
        std::string fresh = ref.alias + "$" + std::to_string(unique++);
        rename[IdentLower(old_name)] = fresh;
        inner.alias = fresh;
        new_from.push_back(std::move(inner));
      }
      if (sub->where != nullptr) {
        RenameBindings(sub->where.get(), rename);
        extra_conjuncts.push_back(std::move(sub->where));
      }
      Substitution s;
      s.alias = IdentLower(ref.alias);
      for (sql::SelectItem& item : sub->items) {
        RenameBindings(item.expr.get(), rename);
        std::string name = item.alias;
        if (name.empty() && item.expr->kind == PExprKind::kColumnRef) {
          name = item.expr->column;
        }
        if (!name.empty()) {
          s.items[IdentLower(name)] = item.expr->Clone();
        }
      }
      subs.push_back(std::move(s));
    }
    stmt->from = std::move(new_from);
    if (!subs.empty()) {
      for (sql::SelectItem& item : stmt->items) {
        ApplySubstitutions(&item.expr, subs);
      }
      if (stmt->where != nullptr) ApplySubstitutions(&stmt->where, subs);
      for (auto& g : stmt->group_by) ApplySubstitutions(&g, subs);
      if (stmt->having != nullptr) ApplySubstitutions(&stmt->having, subs);
      for (auto& o : stmt->order_by) ApplySubstitutions(&o.expr, subs);
    }
    for (auto& c : extra_conjuncts) {
      stmt->where = sql::AndTogether(std::move(stmt->where), std::move(c));
    }
  }
}

// ------------------------------------------------------------- plan text

/// EXPLAIN output as a tree of labelled nodes. The planner builds it only
/// when the caller asked for the text, and renders it once at the end.
struct PlanText {
  std::string label;
  std::vector<PlanText> children;
};

/// Appends `node` and its subtree, every line indented two spaces per
/// level of depth.
void Render(const PlanText& node, size_t depth, std::string* out) {
  size_t start = 0;
  while (true) {
    const size_t end = node.label.find('\n', start);
    out->append(2 * depth, ' ');
    out->append(node.label, start,
                end == std::string::npos ? std::string::npos : end - start);
    out->push_back('\n');
    if (end == std::string::npos) break;
    start = end + 1;
  }
  for (const PlanText& child : node.children) Render(child, depth + 1, out);
}

// ------------------------------------------------------------ the planner

struct Built {
  ExecutorPtr exec;
  PlanText text;  // empty unless the plan text was asked for
};

class SelectPlanner {
 public:
  SelectPlanner(Catalog* catalog, PlannerMode mode, bool explain,
                const sql::ParamPrinter* param)
      : catalog_(catalog), mode_(mode), explain_(explain), param_(param) {}

  Result<Built> Plan(const SelectStmt& stmt);

  Catalog* catalog() const { return catalog_; }
  PlannerMode mode() const { return mode_; }

  /// `e` as the plan text shows it.
  std::string Sql(const ParsedExpr& e) const {
    return param_ != nullptr ? sql::ToSql(e, *param_) : sql::ToSql(e);
  }

  Result<Built> PlanDerived(const TableRef& ref) const;

  /// Puts `b`'s plan text under a new node labelled `label()`. The label
  /// is only built when explaining.
  template <typename LabelFn>
  void Wrap(Built* b, const LabelFn& label) const {
    if (!explain_) return;
    PlanText node{label(), {}};
    node.children.push_back(std::move(b->text));
    b->text = std::move(node);
  }

  /// Sets `left`'s plan text to `label` over the two inputs' texts.
  void WrapJoin(Built* left, Built* right, const std::string& label) const {
    if (!explain_) return;
    PlanText node{label, {}};
    node.children.push_back(std::move(left->text));
    node.children.push_back(std::move(right->text));
    left->text = std::move(node);
  }

  /// Sets `b`'s plan text to a leaf labelled `label()`.
  template <typename LabelFn>
  void Leaf(Built* b, const LabelFn& label) const {
    if (explain_) b->text.label = label();
  }

 private:
  Catalog* catalog_;
  PlannerMode mode_;
  bool explain_;
  const sql::ParamPrinter* param_;  // prints the text's parameters
};

Result<Built> SelectPlanner::PlanDerived(const TableRef& ref) const {
  SelectPlanner sub(catalog_, mode_, explain_, param_);
  MTDB_ASSIGN_OR_RETURN(Built b, sub.Plan(*ref.subquery));
  // Derived tables are materialized: in kNaive mode this is the "generate
  // the full relation first" behaviour; in kAdvanced mode this path is
  // only reached for non-flattenable subqueries (aggregations), where
  // materialization is the standard strategy too.
  b.exec = std::make_unique<MaterializeExecutor>(std::move(b.exec));
  Wrap(&b, [&] { return "Materialize (" + ref.alias + ")"; });
  return b;
}

/// Plans one FROM/WHERE block: access paths, join order and filter
/// placement. Each conjunct is analysed once up front: which pending
/// tables its column references can resolve in, and, for an equality,
/// which pending base table's column each operand names and whether
/// the other operand is constant. As tables join the scope, each
/// reference's count of matching columns is updated, so "is this
/// operand bound now?" is a counter test. Every decision below reads
/// this state: a join step costs time linear in the conjuncts, and a
/// block of n tables and c conjuncts plans in O(n·c).
class JoinPlanner {
 public:
  JoinPlanner(const SelectPlanner& planner, Scope* scope)
      : planner_(planner), scope_(scope) {}

  Result<Built> Plan(const SelectStmt& stmt,
                     const std::vector<const ParsedExpr*>& conjuncts);

 private:
  /// A column reference inside a conjunct.
  struct Ref {
    uint32_t conjunct;
    uint8_t side;           // equality operand (0 left, 1 right); else 0
    uint32_t in_scope = 0;  // columns it matches in the planned tables
  };
  /// The columns of one pending table that a reference matches.
  struct Hit {
    uint32_t ref;
    uint32_t count;
  };
  /// An equality conjunct `<column of this table> = <other operand>`.
  struct EqSide {
    uint32_t conjunct;
    size_t column;
    uint8_t other;  // the other operand's side
    bool other_constant;
  };
  struct Conjunct {
    const ParsedExpr* expr = nullptr;
    const ParsedExpr* side[2] = {nullptr, nullptr};
    uint32_t refs = 0;
    /// References of each operand that do not resolve to exactly one
    /// column of the tables in scope.
    uint32_t unresolved[2] = {0, 0};
    bool used = false;

    bool Bound() const { return unresolved[0] == 0 && unresolved[1] == 0; }
  };
  struct Pending {
    const TableRef* ref = nullptr;
    TableInfo* table = nullptr;  // null for derived tables
    Built derived;               // derived tables are planned up front
    Columns columns;
    std::vector<Hit> hits;
    std::vector<EqSide> eqs;  // written order
    bool planned = false;
  };

  void Analyse(const std::vector<const ParsedExpr*>& conjuncts);
  int DriverScore(const Pending& p) const;
  size_t NextTable() const;
  Result<Built> PlanAccess(Pending* p);
  Result<Built> JoinBase(Built current, Pending* p);
  /// Puts `p` in scope and appends the conjuncts it touched.
  void AddToScope(Pending* p, std::vector<uint32_t>* touched);
  /// The unused conjuncts among `ids` that the scope now binds, sorted.
  std::vector<uint32_t> BoundIn(std::vector<uint32_t> ids) const;
  /// Binds conjuncts `ids` against `scope`, marks them used and puts a
  /// filter on them over `b`.
  Status AddFilter(Built* b, const std::vector<uint32_t>& ids,
                   const Scope& scope);

  const SelectPlanner& planner_;
  Scope* scope_;
  std::vector<Pending> pending_;
  std::vector<Conjunct> conj_;
  std::vector<Ref> refs_;
  std::vector<uint32_t> constant_;  // conjuncts without column refs
  std::vector<uint32_t> local_hits_;
};

void JoinPlanner::Analyse(const std::vector<const ParsedExpr*>& conjuncts) {
  std::unordered_multimap<std::string, uint32_t> by_binding;
  for (size_t i = 0; i < pending_.size(); ++i) {
    by_binding.emplace(IdentLower(pending_[i].ref->binding_name()),
                       static_cast<uint32_t>(i));
  }
  conj_.resize(conjuncts.size());
  local_hits_.assign(conjuncts.size(), 0);
  // Pending base tables, with the column position, that each equality
  // operand names.
  std::vector<std::pair<uint32_t, size_t>> named[2];
  for (uint32_t ci = 0; ci < conjuncts.size(); ++ci) {
    named[0].clear();
    named[1].clear();
    Conjunct& c = conj_[ci];
    c.expr = conjuncts[ci];
    const bool eq = c.expr->kind == PExprKind::kBinary &&
                    c.expr->binary_op == BinaryOp::kEq;
    if (eq) {
      c.side[0] = c.expr->left.get();
      c.side[1] = c.expr->right.get();
    } else {
      c.side[0] = c.expr;
    }
    for (uint8_t s = 0; s < 2 && c.side[s] != nullptr; ++s) {
      ForEachColumnRef(*c.side[s], [&](const ParsedExpr& r) {
        const auto id = static_cast<uint32_t>(refs_.size());
        refs_.push_back(Ref{ci, s});
        c.refs++;
        c.unresolved[s]++;
        auto visit = [&](uint32_t pi) {
          Pending& p = pending_[pi];
          Columns::Match m = p.columns.Find(r.column);
          if (m.count == 0) return;
          p.hits.push_back(Hit{id, m.count});
          if (eq && &r == c.side[s] && p.table != nullptr) {
            named[s].emplace_back(pi, m.first);
          }
        };
        if (r.table.empty()) {
          for (uint32_t pi = 0; pi < pending_.size(); ++pi) visit(pi);
        } else {
          auto range = by_binding.equal_range(IdentLower(r.table));
          for (auto it = range.first; it != range.second; ++it) {
            visit(it->second);
          }
        }
      });
    }
    if (c.refs == 0) constant_.push_back(ci);
    if (!eq) continue;
    const bool constant[2] = {IsConstant(*c.side[0]), IsConstant(*c.side[1])};
    for (const auto& [pi, col] : named[0]) {
      pending_[pi].eqs.push_back(EqSide{ci, col, 1, constant[1]});
    }
    // The left operand wins when both name a column of the same table.
    for (const auto& [pi, col] : named[1]) {
      bool left_too = false;
      for (const auto& l : named[0]) left_too = left_too || l.first == pi;
      if (!left_too) {
        pending_[pi].eqs.push_back(EqSide{ci, col, 0, constant[0]});
      }
    }
  }
}

int JoinPlanner::DriverScore(const Pending& p) const {
  if (p.table == nullptr) return 0;
  auto constant_eq = [&](size_t column) {
    for (const EqSide& e : p.eqs) {
      if (e.column == column && e.other_constant) return true;
    }
    return false;
  };
  int best = 0;
  for (const auto& idx : p.table->indexes) {
    size_t matched = 0;
    while (matched < idx->key_columns.size() &&
           constant_eq(idx->key_columns[matched])) {
      matched++;
    }
    // Ten per matched key column. A fully matched index outscores a
    // partial prefix up to four columns longer: its probe returns only
    // rows equal on every key, where a partial prefix scans a whole
    // range (for a chunk table, every row of the tenant). A unique one
    // returns at most one row.
    int score = static_cast<int>(matched) * 10;
    if (matched > 0 && matched == idx->key_columns.size()) {
      score += idx->unique ? 100 : 50;
    }
    best = std::max(best, score);
  }
  return best;
}

size_t JoinPlanner::NextTable() const {
  // Prefer a table connected by an equality conjunct to the current
  // scope; among those, prefer index-joinable base tables.
  size_t next = pending_.size();
  int best = -1;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Pending& p = pending_[i];
    if (p.planned) continue;
    int score = 0;
    if (p.table != nullptr) {
      for (const EqSide& e : p.eqs) {
        const Conjunct& c = conj_[e.conjunct];
        if (c.used || c.unresolved[e.other] != 0) continue;
        score = 10;
        bool leads = false;
        for (const auto& idx : p.table->indexes) {
          leads = leads || (!idx->key_columns.empty() &&
                            idx->key_columns[0] == e.column);
        }
        if (leads) {
          score = 20;
          break;
        }
      }
    }
    if (score > best) {
      best = score;
      next = i;
    }
  }
  return next;
}

Result<Built> JoinPlanner::PlanAccess(Pending* p) {
  TableInfo* table = p->table;
  const std::string& binding = p->ref->binding_name();
  // Constant equality conjuncts on this table: the first per column, in
  // written order.
  std::vector<const EqSide*> eqs;
  auto find = [&](size_t column) -> const EqSide* {
    for (const EqSide* e : eqs) {
      if (e->column == column) return e;
    }
    return nullptr;
  };
  for (const EqSide& e : p->eqs) {
    if (conj_[e.conjunct].used || !e.other_constant) continue;
    if (find(e.column) == nullptr) eqs.push_back(&e);
  }
  auto prefix_of = [&](const IndexInfo& idx) {
    size_t n = 0;
    while (n < idx.key_columns.size() && find(idx.key_columns[n]) != nullptr) {
      n++;
    }
    return n;
  };

  const IndexInfo* chosen = nullptr;
  size_t prefix_len = 0;
  if (planner_.mode() == PlannerMode::kAdvanced) {
    // Longest matched prefix over all indexes.
    for (const auto& idx : table->indexes) {
      const size_t n = prefix_of(*idx);
      if (n > prefix_len) {
        prefix_len = n;
        chosen = idx.get();
      }
    }
  } else {
    // Naive: the index is picked by the FIRST equality conjunct (in
    // written order) whose column leads some index — the MySQL-style
    // sensitivity to the SQL author's predicate order — but the probe
    // prefix is then extended greedily (ref access).
    for (const EqSide* e : eqs) {
      for (const auto& idx : table->indexes) {
        if (!idx->key_columns.empty() && idx->key_columns[0] == e->column) {
          chosen = idx.get();
          break;
        }
      }
      if (chosen != nullptr) break;
    }
    if (chosen != nullptr) prefix_len = prefix_of(*chosen);
  }

  Built out;
  if (chosen != nullptr && prefix_len > 0) {
    std::vector<ExprPtr> prefix_values;
    for (size_t k = 0; k < prefix_len; ++k) {
      const EqSide* e = find(chosen->key_columns[k]);
      Conjunct& c = conj_[e->conjunct];
      c.used = true;
      MTDB_ASSIGN_OR_RETURN(ExprPtr v, BindExpr(*c.side[e->other], Scope()));
      prefix_values.push_back(std::move(v));
    }
    out.exec = std::make_unique<IndexScanExecutor>(
        table, chosen, std::move(prefix_values), nullptr);
    planner_.Leaf(&out, [&] {
      std::string prefix;
      for (size_t k = 0; k < prefix_len; ++k) {
        const EqSide* e = find(chosen->key_columns[k]);
        if (k > 0) prefix += ", ";
        prefix += table->schema.at(e->column).name + "=" +
                  planner_.Sql(*conj_[e->conjunct].side[e->other]);
      }
      return "IndexScan " + table->name + " (" + binding + ") index=" +
             chosen->name + " prefix=[" + prefix + "]";
    });
  } else {
    out.exec = std::make_unique<SeqScanExecutor>(table, nullptr);
    planner_.Leaf(&out, [&] {
      return "SeqScan " + table->name + " (" + binding + ")";
    });
  }

  // Remaining conjuncts that this table alone binds (each reference
  // matching exactly one of its columns), and constant ones, become a
  // pushed-down filter.
  std::vector<uint32_t> local;
  for (uint32_t ci : constant_) {
    if (!conj_[ci].used) local.push_back(ci);
  }
  for (const Hit& h : p->hits) {
    if (h.count != 1) continue;
    const uint32_t ci = refs_[h.ref].conjunct;
    if (++local_hits_[ci] == conj_[ci].refs && !conj_[ci].used) {
      local.push_back(ci);
    }
  }
  for (const Hit& h : p->hits) local_hits_[refs_[h.ref].conjunct] = 0;
  std::sort(local.begin(), local.end());
  Scope scope;
  scope.Add(binding, p->columns);
  MTDB_RETURN_IF_ERROR(AddFilter(&out, local, scope));
  return out;
}

Result<Built> JoinPlanner::JoinBase(Built current, Pending* p) {
  TableInfo* table = p->table;
  const std::string& binding = p->ref->binding_name();
  // Equality conjuncts whose other operand the scope binds, in written
  // order, and the first of them per column.
  std::vector<const EqSide*> usable, first;
  auto find = [&](size_t column) -> const EqSide* {
    for (const EqSide* e : first) {
      if (e->column == column) return e;
    }
    return nullptr;
  };
  for (const EqSide& e : p->eqs) {
    const Conjunct& c = conj_[e.conjunct];
    if (c.used || c.unresolved[e.other] != 0) continue;
    usable.push_back(&e);
    if (find(e.column) == nullptr) first.push_back(&e);
  }
  auto prefix_of = [&](const IndexInfo& idx) {
    size_t n = 0;
    while (n < idx.key_columns.size() && find(idx.key_columns[n]) != nullptr) {
      n++;
    }
    return n;
  };

  // An index-join path: an index of the new table whose prefix columns
  // all have such conjuncts.
  const IndexInfo* join_index = nullptr;
  size_t key_count = 0;
  if (planner_.mode() == PlannerMode::kAdvanced) {
    for (const auto& idx : table->indexes) {
      const size_t n = prefix_of(*idx);
      if (n > key_count) {
        key_count = n;
        join_index = idx.get();
      }
    }
  } else {
    // Naive: the index is dictated by the first (written order) usable
    // equality conjunct on this table; the probe prefix is then extended
    // along that index (MySQL-style ref access).
    for (const EqSide* e : usable) {
      for (const auto& idx : table->indexes) {
        if (!idx->key_columns.empty() && idx->key_columns[0] == e->column) {
          join_index = idx.get();
          break;
        }
      }
      if (join_index != nullptr) break;
    }
    if (join_index != nullptr) key_count = prefix_of(*join_index);
  }

  if (join_index != nullptr && key_count > 0) {
    std::vector<ExprPtr> keys;
    for (size_t k = 0; k < key_count; ++k) {
      const EqSide* e = find(join_index->key_columns[k]);
      MTDB_ASSIGN_OR_RETURN(
          ExprPtr kv, BindExpr(*conj_[e->conjunct].side[e->other], *scope_));
      keys.push_back(std::move(kv));
    }
    for (size_t k = 0; k < key_count; ++k) {
      conj_[find(join_index->key_columns[k])->conjunct].used = true;
    }
    current.exec = std::make_unique<IndexNestedLoopJoinExecutor>(
        std::move(current.exec), table, join_index, std::move(keys), nullptr);
    planner_.Wrap(&current, [&] {
      std::string text;
      for (size_t k = 0; k < key_count; ++k) {
        const EqSide* e = find(join_index->key_columns[k]);
        if (k > 0) text += ", ";
        text += table->schema.at(e->column).name + "=" +
                planner_.Sql(*conj_[e->conjunct].side[e->other]);
      }
      return "IndexNLJoin " + table->name + " (" + binding + ") index=" +
             join_index->name + " keys=[" + text + "]";
    });
    return current;
  }

  // Hash join when an equality conjunct exists, else NL cross join.
  const EqSide* hash = nullptr;
  for (const EqSide* e : usable) {
    if (!e->other_constant) {
      hash = e;
      break;
    }
  }
  MTDB_ASSIGN_OR_RETURN(Built right, PlanAccess(p));
  if (hash != nullptr) {
    Conjunct& c = conj_[hash->conjunct];
    c.used = true;
    std::vector<ExprPtr> lk, rk;
    MTDB_ASSIGN_OR_RETURN(ExprPtr l, BindExpr(*c.side[hash->other], *scope_));
    lk.push_back(std::move(l));
    const std::string& column = table->schema.at(hash->column).name;
    rk.push_back(std::make_unique<ColumnRefExpr>(hash->column, column));
    current.exec = std::make_unique<HashJoinExecutor>(
        std::move(current.exec), std::move(right.exec), std::move(lk),
        std::move(rk), nullptr);
    planner_.WrapJoin(&current, &right, "HashJoin on " + column);
  } else {
    auto mat = std::make_unique<MaterializeExecutor>(std::move(right.exec));
    current.exec = std::make_unique<NestedLoopJoinExecutor>(
        std::move(current.exec), std::move(mat), nullptr);
    planner_.WrapJoin(&current, &right, "NLJoin");
  }
  return current;
}

void JoinPlanner::AddToScope(Pending* p, std::vector<uint32_t>* touched) {
  scope_->Add(p->ref->binding_name(), p->columns);
  p->planned = true;
  for (const Hit& h : p->hits) {
    Ref& r = refs_[h.ref];
    const bool was = r.in_scope == 1;
    r.in_scope += h.count;
    const bool now = r.in_scope == 1;
    uint32_t& unresolved = conj_[r.conjunct].unresolved[r.side];
    if (was && !now) unresolved++;
    if (!was && now) unresolved--;
    touched->push_back(r.conjunct);
  }
}

std::vector<uint32_t> JoinPlanner::BoundIn(std::vector<uint32_t> ids) const {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ids.erase(std::remove_if(ids.begin(), ids.end(),
                           [&](uint32_t ci) {
                             return conj_[ci].used || !conj_[ci].Bound();
                           }),
            ids.end());
  return ids;
}

Status JoinPlanner::AddFilter(Built* b, const std::vector<uint32_t>& ids,
                              const Scope& scope) {
  if (ids.empty()) return Status::OK();
  std::vector<ExprPtr> preds;
  for (uint32_t ci : ids) {
    MTDB_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*conj_[ci].expr, scope));
    preds.push_back(std::move(e));
    conj_[ci].used = true;
  }
  b->exec = std::make_unique<FilterExecutor>(std::move(b->exec),
                                             JoinConjuncts(std::move(preds)));
  planner_.Wrap(b, [&] {
    std::string text = "Filter [";
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) text += " AND ";
      text += planner_.Sql(*conj_[ids[i]].expr);
    }
    return text + "]";
  });
  return Status::OK();
}

Result<Built> JoinPlanner::Plan(
    const SelectStmt& stmt, const std::vector<const ParsedExpr*>& conjuncts) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM list must not be empty");
  }
  pending_.resize(stmt.from.size());
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    Pending& p = pending_[i];
    p.ref = &stmt.from[i];
    if (!p.ref->is_subquery()) {
      p.table = planner_.catalog()->GetTable(p.ref->table_name);
      if (p.table == nullptr) {
        return Status::NotFound("no such table: " + p.ref->table_name);
      }
      p.columns = Columns(&p.table->schema);
    }
  }
  // Derived tables do not see the outer scope, so they are planned first:
  // the analysis needs their output columns.
  for (Pending& p : pending_) {
    if (p.table != nullptr) continue;
    MTDB_ASSIGN_OR_RETURN(p.derived, planner_.PlanDerived(*p.ref));
    p.columns = Columns(&p.derived.exec->schema());
  }
  Analyse(conjuncts);

  // Pick the driving table.
  size_t driver = 0;
  if (planner_.mode() == PlannerMode::kAdvanced) {
    int best = -1;
    for (size_t i = 0; i < pending_.size(); ++i) {
      const int score = DriverScore(pending_[i]);
      if (score > best) {
        best = score;
        driver = i;
      }
    }
  }
  Built current;
  std::vector<uint32_t> touched;
  {
    Pending& p = pending_[driver];
    if (p.table != nullptr) {
      MTDB_ASSIGN_OR_RETURN(current, PlanAccess(&p));
    } else {
      current = std::move(p.derived);
    }
    AddToScope(&p, &touched);
  }
  // A base driver has filtered on everything it binds; what a derived
  // driver binds (constant conjuncts included) waits for the first join.
  touched.insert(touched.end(), constant_.begin(), constant_.end());

  for (size_t remaining = pending_.size() - 1; remaining > 0; --remaining) {
    size_t next = pending_.size();
    if (planner_.mode() == PlannerMode::kNaive) {
      for (size_t i = 0; i < pending_.size() && next == pending_.size(); ++i) {
        if (!pending_[i].planned) next = i;
      }
    } else {
      next = NextTable();
    }
    Pending& p = pending_[next];
    if (p.table != nullptr) {
      MTDB_ASSIGN_OR_RETURN(current, JoinBase(std::move(current), &p));
    } else {
      // Derived table: materialized, nested-loop joined.
      current.exec = std::make_unique<NestedLoopJoinExecutor>(
          std::move(current.exec), std::move(p.derived.exec), nullptr);
      planner_.WrapJoin(&current, &p.derived, "NLJoin");
    }
    AddToScope(&p, &touched);
    // Apply all now-bound conjuncts, preserving written order (this is
    // where kNaive keeps the author's predicate order).
    MTDB_RETURN_IF_ERROR(AddFilter(&current, BoundIn(std::move(touched)),
                                   *scope_));
    touched.clear();
  }

  // Any unused conjunct now must bind (or it references unknown tables).
  std::vector<uint32_t> rest;
  for (uint32_t ci = 0; ci < conj_.size(); ++ci) {
    if (!conj_[ci].used) rest.push_back(ci);
  }
  MTDB_RETURN_IF_ERROR(AddFilter(&current, rest, *scope_));
  return current;
}

/// Collects aggregate calls in an expression, each distinct call once.
void CollectAggregates(const ParsedExpr& e,
                       std::vector<const ParsedExpr*>* aggs) {
  if (e.kind == PExprKind::kFuncCall && IsAggregateName(e.func_name)) {
    for (const ParsedExpr* a : *aggs) {
      if (sql::ExprEquals(*a, e)) return;
    }
    aggs->push_back(&e);
    return;
  }
  if (e.left != nullptr) CollectAggregates(*e.left, aggs);
  if (e.right != nullptr) CollectAggregates(*e.right, aggs);
  for (const auto& a : e.args) CollectAggregates(*a, aggs);
}

/// Rewrites an expression over the aggregate output: leaves equal to a
/// group expression or an aggregate call become column refs into the
/// HashAgg output row.
Result<ExprPtr> BindOverAggOutput(const ParsedExpr& e,
                                  const std::vector<const ParsedExpr*>& groups,
                                  const std::vector<const ParsedExpr*>& aggs,
                                  const std::vector<std::string>& out_names) {
  for (size_t i = 0; i < groups.size(); ++i) {
    if (sql::ExprEquals(*groups[i], e)) {
      return ExprPtr(std::make_unique<ColumnRefExpr>(i, out_names[i]));
    }
  }
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (sql::ExprEquals(*aggs[i], e)) {
      size_t pos = groups.size() + i;
      return ExprPtr(std::make_unique<ColumnRefExpr>(pos, out_names[pos]));
    }
  }
  // Also allow a bare column name to match a group expr of form t.col.
  if (e.kind == PExprKind::kColumnRef && e.table.empty()) {
    for (size_t i = 0; i < groups.size(); ++i) {
      if (groups[i]->kind == PExprKind::kColumnRef &&
          IdentEquals(groups[i]->column, e.column)) {
        return ExprPtr(std::make_unique<ColumnRefExpr>(i, out_names[i]));
      }
    }
  }
  auto bind = [&](const ParsedExpr& child) {
    return BindOverAggOutput(child, groups, aggs, out_names);
  };
  switch (e.kind) {
    case PExprKind::kBinary: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr l, bind(*e.left));
      MTDB_ASSIGN_OR_RETURN(ExprPtr r, bind(*e.right));
      switch (e.binary_op) {
        case BinaryOp::kAnd:
          return ExprPtr(std::make_unique<AndExpr>(std::move(l), std::move(r)));
        case BinaryOp::kOr:
          return ExprPtr(std::make_unique<OrExpr>(std::move(l), std::move(r)));
        case BinaryOp::kAdd:
          return ExprPtr(std::make_unique<ArithmeticExpr>(ArithOp::kAdd,
                                                          std::move(l),
                                                          std::move(r)));
        case BinaryOp::kSub:
          return ExprPtr(std::make_unique<ArithmeticExpr>(ArithOp::kSub,
                                                          std::move(l),
                                                          std::move(r)));
        case BinaryOp::kMul:
          return ExprPtr(std::make_unique<ArithmeticExpr>(ArithOp::kMul,
                                                          std::move(l),
                                                          std::move(r)));
        case BinaryOp::kDiv:
          return ExprPtr(std::make_unique<ArithmeticExpr>(ArithOp::kDiv,
                                                          std::move(l),
                                                          std::move(r)));
        case BinaryOp::kMod:
          return ExprPtr(std::make_unique<ArithmeticExpr>(ArithOp::kMod,
                                                          std::move(l),
                                                          std::move(r)));
        default:
          return ExprPtr(std::make_unique<CompareExpr>(
              ToCompareOp(e.binary_op), std::move(l), std::move(r)));
      }
    }
    case PExprKind::kLiteral:
      return ExprPtr(std::make_unique<LiteralExpr>(e.literal));
    case PExprKind::kParam:
      return ExprPtr(std::make_unique<ParamExpr>(e.param_ordinal));
    case PExprKind::kUnary: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr c, bind(*e.left));
      if (e.unary_op == sql::UnaryOp::kNot) {
        return ExprPtr(std::make_unique<NotExpr>(std::move(c)));
      }
      return ExprPtr(std::make_unique<ArithmeticExpr>(
          ArithOp::kSub, std::make_unique<LiteralExpr>(Value::Int64(0)),
          std::move(c)));
    }
    case PExprKind::kIsNull: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr c, bind(*e.left));
      return ExprPtr(std::make_unique<IsNullExpr>(std::move(c),
                                                  e.is_null_negated));
    }
    case PExprKind::kLike: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr v, bind(*e.left));
      MTDB_ASSIGN_OR_RETURN(ExprPtr pat, bind(*e.right));
      return ExprPtr(std::make_unique<LikeExpr>(std::move(v), std::move(pat),
                                                e.like_negated));
    }
    case PExprKind::kFuncCall: {
      std::optional<TypeId> cast = CastTargetOf(e.func_name);
      if (cast.has_value() && e.args.size() == 1) {
        MTDB_ASSIGN_OR_RETURN(ExprPtr c, bind(*e.args[0]));
        return ExprPtr(std::make_unique<CastExpr>(std::move(c), *cast));
      }
      break;
    }
    default:
      break;
  }
  return Status::InvalidArgument(
      "expression references a non-grouped column: " + sql::ToSql(e));
}

Result<Built> SelectPlanner::Plan(const SelectStmt& input) {
  // Unnesting rewrites the statement, so only then is it copied.
  std::unique_ptr<SelectStmt> owned;
  const SelectStmt* stmt = &input;
  if (mode_ == PlannerMode::kAdvanced && HasFlattenable(input)) {
    owned = input.Clone();
    FlattenDerivedTables(owned.get());
    stmt = owned.get();
  }
  std::vector<const ParsedExpr*> conjuncts;
  sql::CollectConjuncts(stmt->where.get(), &conjuncts);
  Scope scope;
  MTDB_ASSIGN_OR_RETURN(Built current,
                        JoinPlanner(*this, &scope).Plan(*stmt, conjuncts));

  // Aggregation.
  bool has_agg = !stmt->group_by.empty();
  for (const auto& item : stmt->items) {
    if (item.expr != nullptr && HasAggregate(*item.expr)) has_agg = true;
  }
  if (stmt->having != nullptr && HasAggregate(*stmt->having)) has_agg = true;

  std::vector<const ParsedExpr*> groups, aggs;
  std::vector<std::string> agg_out_names;
  if (has_agg) {
    if (stmt->select_star) {
      return Status::InvalidArgument("SELECT * with aggregation");
    }
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> out_names;
    std::vector<TypeId> out_types;
    for (const auto& g : stmt->group_by) {
      MTDB_ASSIGN_OR_RETURN(ExprPtr b, BindExpr(*g, scope));
      groups.push_back(g.get());
      out_names.push_back(sql::ToSql(*g));
      out_types.push_back(TypeId::kNull);
      group_exprs.push_back(std::move(b));
    }
    for (const auto& item : stmt->items) CollectAggregates(*item.expr, &aggs);
    if (stmt->having != nullptr) CollectAggregates(*stmt->having, &aggs);
    for (const auto& o : stmt->order_by) CollectAggregates(*o.expr, &aggs);

    std::vector<AggSpec> specs;
    for (const ParsedExpr* a : aggs) {
      AggSpec spec;
      spec.name = sql::ToSql(*a);
      out_names.push_back(spec.name);
      out_types.push_back(TypeId::kNull);
      if (a->func_star) {
        spec.kind = AggKind::kCountStar;
      } else {
        if (a->args.size() != 1) {
          return Status::InvalidArgument("aggregate needs one argument: " +
                                         spec.name);
        }
        MTDB_ASSIGN_OR_RETURN(spec.arg, BindExpr(*a->args[0], scope));
        if (a->func_name == "count") {
          spec.kind = AggKind::kCount;
        } else if (a->func_name == "sum") {
          spec.kind = AggKind::kSum;
        } else if (a->func_name == "avg") {
          spec.kind = AggKind::kAvg;
        } else if (a->func_name == "min") {
          spec.kind = AggKind::kMin;
        } else {
          spec.kind = AggKind::kMax;
        }
      }
      specs.push_back(std::move(spec));
    }
    agg_out_names = out_names;
    current.exec = std::make_unique<HashAggExecutor>(
        std::move(current.exec), std::move(group_exprs), std::move(specs),
        std::move(out_names), std::move(out_types));
    Wrap(&current, [&] {
      return "HashAgg groups=" + std::to_string(groups.size()) +
             " aggs=" + std::to_string(aggs.size());
    });

    if (stmt->having != nullptr) {
      MTDB_ASSIGN_OR_RETURN(
          ExprPtr pred,
          BindOverAggOutput(*stmt->having, groups, aggs, agg_out_names));
      current.exec = std::make_unique<FilterExecutor>(std::move(current.exec),
                                                      std::move(pred));
      Wrap(&current, [] { return std::string("Filter [HAVING]"); });
    }
  }
  auto bind_output = [&](const ParsedExpr& e) -> Result<ExprPtr> {
    if (has_agg) return BindOverAggOutput(e, groups, aggs, agg_out_names);
    return BindExpr(e, scope);
  };

  // Projection (+ hidden columns for ORDER BY expressions not projected).
  std::vector<ExprPtr> proj;
  std::vector<std::string> proj_names;
  std::vector<const ParsedExpr*> proj_exprs;
  const bool identity = stmt->select_star;
  if (!identity) {
    for (const auto& item : stmt->items) {
      MTDB_ASSIGN_OR_RETURN(ExprPtr bound, bind_output(*item.expr));
      std::string name = item.alias;
      if (name.empty()) {
        if (item.expr->kind == PExprKind::kColumnRef) {
          name = item.expr->column;
        } else {
          name = sql::ToSql(*item.expr);
        }
      }
      proj_exprs.push_back(item.expr.get());
      proj_names.push_back(std::move(name));
      proj.push_back(std::move(bound));
    }
  }

  // ORDER BY handling.
  struct BoundOrder {
    size_t column;
    bool descending;
  };
  std::vector<BoundOrder> bound_order;
  size_t hidden = 0;
  if (!stmt->order_by.empty() && !identity) {
    for (const auto& o : stmt->order_by) {
      const ParsedExpr& e = *o.expr;
      const bool column = e.kind == PExprKind::kColumnRef;
      // Match a projected item by expression or by alias.
      std::optional<size_t> pos;
      for (size_t i = 0; i < proj_exprs.size() && !pos.has_value(); ++i) {
        if (sql::ExprEquals(*proj_exprs[i], e) ||
            (column && e.table.empty() &&
             IdentEquals(proj_names[i], e.column))) {
          pos = i;
        }
      }
      for (size_t i = 0; column && i < proj_names.size() && !pos.has_value();
           ++i) {
        if (IdentEquals(proj_names[i], e.column)) pos = i;
      }
      if (!pos.has_value()) {
        // Append as hidden projection column.
        MTDB_ASSIGN_OR_RETURN(ExprPtr bound, bind_output(e));
        pos = proj.size();
        proj.push_back(std::move(bound));
        proj_names.push_back("$order" + std::to_string(hidden++));
        proj_exprs.push_back(&e);
      }
      bound_order.push_back({*pos, o.descending});
    }
  }

  if (!identity) {
    std::vector<TypeId> types(proj.size(), TypeId::kNull);
    current.exec = std::make_unique<ProjectExecutor>(
        std::move(current.exec), std::move(proj), proj_names, std::move(types));
    Wrap(&current, [] { return std::string("Project"); });
    if (!bound_order.empty()) {
      std::vector<SortKey> keys;
      for (const BoundOrder& bo : bound_order) {
        keys.push_back(SortKey{
            std::make_unique<ColumnRefExpr>(bo.column, proj_names[bo.column]),
            bo.descending});
      }
      current.exec =
          std::make_unique<SortExecutor>(std::move(current.exec), std::move(keys));
      Wrap(&current, [] { return std::string("Sort"); });
    }
    if (hidden > 0) {
      // Drop the hidden order-by columns.
      size_t keep = proj_names.size() - hidden;
      std::vector<ExprPtr> narrow;
      std::vector<std::string> names;
      std::vector<TypeId> types;
      for (size_t i = 0; i < keep; ++i) {
        narrow.push_back(
            std::make_unique<ColumnRefExpr>(i, proj_names[i]));
        names.push_back(proj_names[i]);
        types.push_back(TypeId::kNull);
      }
      current.exec = std::make_unique<ProjectExecutor>(
          std::move(current.exec), std::move(narrow), std::move(names),
          std::move(types));
      Wrap(&current, [] { return std::string("Project (drop hidden)"); });
    }
  } else if (!stmt->order_by.empty()) {
    // Identity projection with ORDER BY: sort over the full row.
    std::vector<SortKey> keys;
    for (const auto& o : stmt->order_by) {
      MTDB_ASSIGN_OR_RETURN(ExprPtr b, BindExpr(*o.expr, scope));
      keys.push_back(SortKey{std::move(b), o.descending});
    }
    current.exec =
        std::make_unique<SortExecutor>(std::move(current.exec), std::move(keys));
    Wrap(&current, [] { return std::string("Sort"); });
  }

  if (stmt->distinct) {
    current.exec = std::make_unique<DistinctExecutor>(std::move(current.exec));
    Wrap(&current, [] { return std::string("Distinct"); });
  }
  if (stmt->limit >= 0 || stmt->offset > 0) {
    current.exec = std::make_unique<LimitExecutor>(std::move(current.exec),
                                                   stmt->limit, stmt->offset);
    Wrap(&current, [&] {
      return "Limit " + std::to_string(stmt->limit) + " offset " +
             std::to_string(stmt->offset);
    });
  }
  return current;
}

}  // namespace

Result<ExecutorPtr> PlanSelect(const sql::SelectStmt& stmt, Catalog* catalog,
                               PlannerMode mode) {
  SelectPlanner planner(catalog, mode, /*explain=*/false, nullptr);
  MTDB_ASSIGN_OR_RETURN(Built b, planner.Plan(stmt));
  return std::move(b.exec);
}

Result<ExplainedPlan> PlanAndExplainSelect(const sql::SelectStmt& stmt,
                                           Catalog* catalog, PlannerMode mode,
                                           const sql::ParamPrinter* param) {
  SelectPlanner planner(catalog, mode, /*explain=*/true, param);
  MTDB_ASSIGN_OR_RETURN(Built b, planner.Plan(stmt));
  ExplainedPlan out;
  out.exec = std::move(b.exec);
  Render(b.text, 0, &out.text);
  out.text.pop_back();  // the last line's newline
  return out;
}

Result<std::string> ExplainSelect(const sql::SelectStmt& stmt,
                                  Catalog* catalog, PlannerMode mode) {
  MTDB_ASSIGN_OR_RETURN(ExplainedPlan p,
                        PlanAndExplainSelect(stmt, catalog, mode));
  return std::move(p.text);
}

}  // namespace mtdb
