#ifndef MTDB_EXEC_EXPR_H_
#define MTDB_EXEC_EXPR_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/value.h"

namespace mtdb {

/// Per-statement execution context: parameters bound at execution time
/// (SQL `?` placeholders) plus the statement's deadline, checked at the
/// executors' cooperative cancellation points (scan/join/agg loops).
struct ExecContext {
  std::vector<Value> params;
  deadline::Deadline deadline;

  /// OK while no deadline is set or time remains; kDeadlineExceeded
  /// past it. The no-deadline fast path is a single branch.
  Status CheckDeadline() const {
    if (!deadline.active) return Status::OK();
    if (std::chrono::steady_clock::now() >= deadline.at) {
      return Status::DeadlineExceeded("statement deadline exceeded");
    }
    return Status::OK();
  }
};

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kParam,
  kCompare,
  kAnd,
  kOr,
  kNot,
  kArithmetic,
  kIsNull,
  kCast,
  kLike,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };

/// A bound (column references resolved to row positions) expression tree,
/// evaluated against a row of the operator's input schema.
class Expr {
 public:
  virtual ~Expr() = default;
  virtual ExprKind kind() const = 0;
  virtual Result<Value> Eval(const Row& row, const ExecContext& ctx) const = 0;
  virtual std::unique_ptr<Expr> Clone() const = 0;
  virtual std::string ToString() const = 0;
  /// Approximate heap bytes of this tree (nodes and owned strings).
  virtual size_t Footprint() const = 0;
};

/// Footprint of an optional (possibly null) subtree.
inline size_t FootprintOf(const std::unique_ptr<Expr>& e) {
  return e != nullptr ? e->Footprint() : 0;
}

using ExprPtr = std::unique_ptr<Expr>;

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  ExprKind kind() const override { return ExprKind::kLiteral; }
  Result<Value> Eval(const Row&, const ExecContext&) const override {
    return value_;
  }
  ExprPtr Clone() const override {
    return std::make_unique<LiteralExpr>(value_);
  }
  std::string ToString() const override { return value_.ToSqlLiteral(); }
  size_t Footprint() const override {
    return sizeof(*this) +
           (value_.type() == TypeId::kString && !value_.is_null()
                ? value_.AsString().capacity()
                : 0);
  }
  const Value& value() const { return value_; }

 private:
  Value value_;
};

class ColumnRefExpr final : public Expr {
 public:
  ColumnRefExpr(size_t index, std::string name)
      : index_(index), name_(std::move(name)) {}
  ExprKind kind() const override { return ExprKind::kColumnRef; }
  Result<Value> Eval(const Row& row, const ExecContext&) const override {
    if (index_ >= row.size()) {
      return Status::Internal("column index out of range: " + name_);
    }
    return row[index_];
  }
  ExprPtr Clone() const override {
    return std::make_unique<ColumnRefExpr>(index_, name_);
  }
  std::string ToString() const override { return name_; }
  size_t Footprint() const override { return sizeof(*this) + name_.capacity(); }
  size_t index() const { return index_; }
  const std::string& name() const { return name_; }
  void set_index(size_t i) { index_ = i; }

 private:
  size_t index_;
  std::string name_;
};

class ParamExpr final : public Expr {
 public:
  explicit ParamExpr(size_t ordinal) : ordinal_(ordinal) {}
  ExprKind kind() const override { return ExprKind::kParam; }
  Result<Value> Eval(const Row&, const ExecContext& ctx) const override {
    if (ordinal_ >= ctx.params.size()) {
      return Status::InvalidArgument("missing bind parameter " +
                                     std::to_string(ordinal_ + 1));
    }
    return ctx.params[ordinal_];
  }
  ExprPtr Clone() const override {
    return std::make_unique<ParamExpr>(ordinal_);
  }
  std::string ToString() const override { return "?"; }
  size_t Footprint() const override { return sizeof(*this); }
  size_t ordinal() const { return ordinal_; }

 private:
  size_t ordinal_;
};

class CompareExpr final : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  ExprKind kind() const override { return ExprKind::kCompare; }
  Result<Value> Eval(const Row& row, const ExecContext& ctx) const override;
  ExprPtr Clone() const override {
    return std::make_unique<CompareExpr>(op_, left_->Clone(), right_->Clone());
  }
  std::string ToString() const override;
  size_t Footprint() const override {
    return sizeof(*this) + left_->Footprint() + right_->Footprint();
  }
  CompareOp op() const { return op_; }
  const Expr* left() const { return left_.get(); }
  const Expr* right() const { return right_.get(); }

 private:
  CompareOp op_;
  ExprPtr left_, right_;
};

class AndExpr final : public Expr {
 public:
  AndExpr(ExprPtr left, ExprPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}
  ExprKind kind() const override { return ExprKind::kAnd; }
  Result<Value> Eval(const Row& row, const ExecContext& ctx) const override;
  ExprPtr Clone() const override {
    return std::make_unique<AndExpr>(left_->Clone(), right_->Clone());
  }
  std::string ToString() const override {
    return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
  }
  size_t Footprint() const override {
    return sizeof(*this) + left_->Footprint() + right_->Footprint();
  }
  const Expr* left() const { return left_.get(); }
  const Expr* right() const { return right_.get(); }

 private:
  ExprPtr left_, right_;
};

class OrExpr final : public Expr {
 public:
  OrExpr(ExprPtr left, ExprPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}
  ExprKind kind() const override { return ExprKind::kOr; }
  Result<Value> Eval(const Row& row, const ExecContext& ctx) const override;
  ExprPtr Clone() const override {
    return std::make_unique<OrExpr>(left_->Clone(), right_->Clone());
  }
  std::string ToString() const override {
    return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
  }
  size_t Footprint() const override {
    return sizeof(*this) + left_->Footprint() + right_->Footprint();
  }

 private:
  ExprPtr left_, right_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr child) : child_(std::move(child)) {}
  ExprKind kind() const override { return ExprKind::kNot; }
  Result<Value> Eval(const Row& row, const ExecContext& ctx) const override;
  ExprPtr Clone() const override {
    return std::make_unique<NotExpr>(child_->Clone());
  }
  std::string ToString() const override {
    return "(NOT " + child_->ToString() + ")";
  }
  size_t Footprint() const override {
    return sizeof(*this) + child_->Footprint();
  }

 private:
  ExprPtr child_;
};

class ArithmeticExpr final : public Expr {
 public:
  ArithmeticExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  ExprKind kind() const override { return ExprKind::kArithmetic; }
  Result<Value> Eval(const Row& row, const ExecContext& ctx) const override;
  ExprPtr Clone() const override {
    return std::make_unique<ArithmeticExpr>(op_, left_->Clone(),
                                            right_->Clone());
  }
  std::string ToString() const override;
  size_t Footprint() const override {
    return sizeof(*this) + left_->Footprint() + right_->Footprint();
  }

 private:
  ArithOp op_;
  ExprPtr left_, right_;
};

class IsNullExpr final : public Expr {
 public:
  IsNullExpr(ExprPtr child, bool negated)
      : child_(std::move(child)), negated_(negated) {}
  ExprKind kind() const override { return ExprKind::kIsNull; }
  Result<Value> Eval(const Row& row, const ExecContext& ctx) const override {
    MTDB_ASSIGN_OR_RETURN(Value v, child_->Eval(row, ctx));
    return Value::Bool(negated_ ? !v.is_null() : v.is_null());
  }
  ExprPtr Clone() const override {
    return std::make_unique<IsNullExpr>(child_->Clone(), negated_);
  }
  std::string ToString() const override {
    return "(" + child_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL") +
           ")";
  }
  size_t Footprint() const override {
    return sizeof(*this) + child_->Footprint();
  }

 private:
  ExprPtr child_;
  bool negated_;
};

/// SQL LIKE with % (any run) and _ (any single char) wildcards.
class LikeExpr final : public Expr {
 public:
  LikeExpr(ExprPtr value, ExprPtr pattern, bool negated)
      : value_(std::move(value)), pattern_(std::move(pattern)),
        negated_(negated) {}
  ExprKind kind() const override { return ExprKind::kLike; }
  Result<Value> Eval(const Row& row, const ExecContext& ctx) const override;
  ExprPtr Clone() const override {
    return std::make_unique<LikeExpr>(value_->Clone(), pattern_->Clone(),
                                      negated_);
  }
  std::string ToString() const override {
    return "(" + value_->ToString() + (negated_ ? " NOT LIKE " : " LIKE ") +
           pattern_->ToString() + ")";
  }
  size_t Footprint() const override {
    return sizeof(*this) + value_->Footprint() + pattern_->Footprint();
  }

 private:
  ExprPtr value_, pattern_;
  bool negated_;
};

/// True when `text` matches the SQL LIKE `pattern` (exposed for tests).
bool LikeMatch(const std::string& text, const std::string& pattern);

/// Converts its input to a target type — the query-transformation layer
/// wraps generic-structure data columns (e.g. the flexible VARCHAR
/// columns of Universal/Pivot Tables) so predicates see native types.
class CastExpr final : public Expr {
 public:
  CastExpr(ExprPtr child, TypeId target)
      : child_(std::move(child)), target_(target) {}
  ExprKind kind() const override { return ExprKind::kCast; }
  Result<Value> Eval(const Row& row, const ExecContext& ctx) const override {
    MTDB_ASSIGN_OR_RETURN(Value v, child_->Eval(row, ctx));
    return v.CastTo(target_);
  }
  ExprPtr Clone() const override {
    return std::make_unique<CastExpr>(child_->Clone(), target_);
  }
  std::string ToString() const override {
    return std::string("CAST(") + child_->ToString() + " AS " +
           TypeName(target_) + ")";
  }
  size_t Footprint() const override {
    return sizeof(*this) + child_->Footprint();
  }

 private:
  ExprPtr child_;
  TypeId target_;
};

/// Evaluates `expr` as a predicate: NULL counts as false (SQL semantics).
Result<bool> EvalPredicate(const Expr& expr, const Row& row,
                           const ExecContext& ctx);

/// Splits a predicate into its AND-ed conjuncts (each cloned).
void SplitConjuncts(const Expr& expr, std::vector<ExprPtr>* out);

/// Re-joins conjuncts into a single AND tree; returns nullptr when empty.
ExprPtr JoinConjuncts(std::vector<ExprPtr> conjuncts);

const char* CompareOpName(CompareOp op);

}  // namespace mtdb

#endif  // MTDB_EXEC_EXPR_H_
