#include "sql/shape.h"

#include <algorithm>
#include <cstring>

namespace mtdb {
namespace sql {

namespace {

/// Writes the shape key. Every node is a head byte (kind and which
/// children follow), its kind's own fields, then its children; lists
/// carry their counts and strings their lengths. The key is a
/// prefix-free encoding, so equal keys mean equal statements.
class Encoder {
 public:
  explicit Encoder(SelectShape* out) : out_(out), size_(out->key.size()) {
    out_->key.resize(size_ + 1024);
    out_->slots.reserve(16);
  }
  ~Encoder() {
    out_->key.resize(size_);
    out_->first_slot = params_;
  }

  void Select(const SelectStmt& s) {
    Byte('S');
    Byte(static_cast<uint8_t>((s.select_star ? 1 : 0) | (s.distinct ? 2 : 0)));
    Count(s.items.size());
    for (const SelectItem& item : s.items) {
      Optional(item.expr.get(), /*lift=*/false);
      String(item.alias);
    }
    Count(s.from.size());
    for (const TableRef& ref : s.from) {
      if (ref.is_subquery()) {
        Byte('Q');
        Select(*ref.subquery);
      } else {
        Byte('T');
        String(ref.table_name);
      }
      String(ref.alias);
    }
    Optional(s.where.get(), /*lift=*/true);
    Count(s.group_by.size());
    for (const ParsedExprPtr& g : s.group_by) Expr(*g, /*lift=*/false);
    Optional(s.having.get(), /*lift=*/false);
    Count(s.order_by.size());
    for (const OrderItem& o : s.order_by) {
      Expr(*o.expr, /*lift=*/false);
      Byte(o.descending ? 1 : 0);
    }
    Fixed(static_cast<uint64_t>(s.limit));
    Fixed(static_cast<uint64_t>(s.offset));
  }

 private:
  /// A node is one head byte — its kind and which children follow —
  /// then its kind's own fields, then the children.
  void Expr(const ParsedExpr& e, bool lift) {
    const uint8_t head = static_cast<uint8_t>(
        static_cast<uint8_t>(e.kind) | (e.left != nullptr ? 0x10 : 0) |
        (e.right != nullptr ? 0x20 : 0) | (!e.args.empty() ? 0x40 : 0));
    switch (e.kind) {
      case PExprKind::kLiteral:
        if (lift) {
          // A typed slot: the value goes to the slots, not the key.
          Bytes(head | 0x80,
                static_cast<uint8_t>(static_cast<uint8_t>(e.literal.type()) |
                                     (e.literal.is_null() ? 0x80 : 0)));
          out_->slots.push_back(&e.literal);
        } else {
          Byte(head);
          Literal(e.literal);
        }
        break;
      case PExprKind::kColumnRef:
        Byte(head);
        String(e.table);
        String(e.column);
        break;
      case PExprKind::kParam:
        Byte(head);
        Count(e.param_ordinal);
        if (e.param_ordinal + 1 > params_) params_ = e.param_ordinal + 1;
        break;
      case PExprKind::kUnary:
        Bytes(head, static_cast<uint8_t>(e.unary_op));
        break;
      case PExprKind::kBinary:
        Bytes(head, static_cast<uint8_t>(e.binary_op));
        break;
      case PExprKind::kIsNull:
        Bytes(head, e.is_null_negated ? 1 : 0);
        break;
      case PExprKind::kLike:
        Bytes(head, e.like_negated ? 1 : 0);
        break;
      case PExprKind::kFuncCall:
        Byte(head);
        String(e.func_name);
        Byte(e.func_star ? 1 : 0);
        break;
      case PExprKind::kStar:
        Byte(head);
        break;
    }
    if (e.left != nullptr) Expr(*e.left, lift);
    if (e.right != nullptr) Expr(*e.right, lift);
    if (!e.args.empty()) {
      Count(e.args.size());
      for (const ParsedExprPtr& a : e.args) Expr(*a, lift);
    }
  }

  void Optional(const ParsedExpr* e, bool lift) {
    Byte(e != nullptr ? 1 : 0);
    if (e != nullptr) Expr(*e, lift);
  }

  void Literal(const Value& v) {
    Byte(static_cast<uint8_t>(v.type()));
    Byte(v.is_null() ? 1 : 0);
    if (v.is_null()) return;
    if (v.type() == TypeId::kString) {
      String(v.AsString());
    } else if (v.type() == TypeId::kDouble) {
      const double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof bits);
      Fixed(bits);
    } else {
      Fixed(static_cast<uint64_t>(v.AsInt64()));
    }
  }

  /// Room for `n` more bytes; returns where they go. The key is grown
  /// by hand and trimmed at the end, so a write is a store, not a
  /// std::string append.
  char* Reserve(size_t n) {
    if (size_ + n > out_->key.size()) {
      out_->key.resize(std::max(2 * out_->key.size(), size_ + n));
    }
    char* at = out_->key.data() + size_;
    size_ += n;
    return at;
  }

  void Byte(uint8_t b) { *Reserve(1) = static_cast<char>(b); }

  void Bytes(uint8_t a, uint8_t b) {
    char* at = Reserve(2);
    at[0] = static_cast<char>(a);
    at[1] = static_cast<char>(b);
  }

  /// LEB128.
  void Count(size_t n) {
    while (n >= 0x80) {
      Byte(static_cast<uint8_t>(n | 0x80));
      n >>= 7;
    }
    Byte(static_cast<uint8_t>(n));
  }

  void Fixed(uint64_t v) { std::memcpy(Reserve(sizeof v), &v, sizeof v); }

  void String(const std::string& s) {
    Count(s.size());
    if (!s.empty()) std::memcpy(Reserve(s.size()), s.data(), s.size());
  }

  SelectShape* out_;
  size_t size_;  // bytes of out_->key written so far
  size_t params_ = 0;
};

void LiftExpr(ParsedExpr* e, size_t* next) {
  if (e->kind == PExprKind::kLiteral) {
    e->kind = PExprKind::kParam;
    e->param_ordinal = (*next)++;
    e->literal = Value();
    return;
  }
  // The encoder's order: left, right, then the arguments.
  if (e->left != nullptr) LiftExpr(e->left.get(), next);
  if (e->right != nullptr) LiftExpr(e->right.get(), next);
  for (ParsedExprPtr& a : e->args) LiftExpr(a.get(), next);
}

void LiftScope(SelectStmt* s, size_t* next) {
  // The encoder reaches the derived tables' WHEREs (in FROM) before the
  // scope's own.
  for (TableRef& ref : s->from) {
    if (ref.is_subquery()) LiftScope(ref.subquery.get(), next);
  }
  if (s->where != nullptr) LiftExpr(s->where.get(), next);
}

}  // namespace

void EncodeShape(const SelectStmt& stmt, SelectShape* out) {
  Encoder(out).Select(stmt);
}

void LiftSlots(SelectStmt* stmt, size_t first_slot) {
  size_t next = first_slot;
  LiftScope(stmt, &next);
}

}  // namespace sql
}  // namespace mtdb
