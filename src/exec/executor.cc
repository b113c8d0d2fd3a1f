#include "exec/executor.h"

#include <algorithm>

#include "common/key_encoding.h"

namespace mtdb {

namespace {

void AppendTableColumns(const TableInfo* table, OutputSchema* out) {
  for (const Column& c : table->schema.columns()) {
    out->names.push_back(c.name);
    out->types.push_back(c.type);
  }
}

OutputSchema SchemaOfTable(const TableInfo* table) {
  OutputSchema out;
  AppendTableColumns(table, &out);
  return out;
}

size_t FootprintOf(const std::vector<ExprPtr>& exprs) {
  size_t n = exprs.capacity() * sizeof(ExprPtr);
  for (const ExprPtr& e : exprs) n += e->Footprint();
  return n;
}

}  // namespace

const OutputSchema& Executor::schema() const {
  if (!schema_ready_) {
    AppendColumns(&schema_);
    schema_ready_ = true;
  }
  return schema_;
}

void Executor::AppendColumns(OutputSchema* out) const {
  out->names.insert(out->names.end(), schema_.names.begin(),
                    schema_.names.end());
  out->types.insert(out->types.end(), schema_.types.begin(),
                    schema_.types.end());
}

void Executor::SetSchema(OutputSchema schema) {
  schema_ = std::move(schema);
  schema_ready_ = true;
}

size_t Executor::SchemaFootprint() const {
  size_t n = schema_.names.capacity() * sizeof(std::string) +
             schema_.types.capacity() * sizeof(TypeId);
  for (const std::string& name : schema_.names) n += name.capacity();
  return n;
}

std::string HashKeyOf(const std::vector<ExprPtr>& exprs, const Row& row,
                      const ExecContext& ctx, Status* status) {
  std::string key;
  for (const ExprPtr& e : exprs) {
    Result<Value> v = e->Eval(row, ctx);
    if (!v.ok()) {
      *status = v.status();
      return key;
    }
    KeyEncoder::Encode(*v, &key);
  }
  *status = Status::OK();
  return key;
}

// ---------------------------------------------------------------- SeqScan

SeqScanExecutor::SeqScanExecutor(TableInfo* table, ExprPtr predicate)
    : table_(table), predicate_(std::move(predicate)) {
  SetSchema(SchemaOfTable(table_));
}

Status SeqScanExecutor::Init(const ExecContext&) {
  it_ = std::make_unique<TableHeap::Iterator>(table_->heap->Begin());
  return Status::OK();
}

Result<bool> SeqScanExecutor::Next(Row* out, const ExecContext& ctx) {
  std::string image;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    MTDB_ASSIGN_OR_RETURN(bool more, it_->Next(&image, &rid_));
    if (!more) break;
    MTDB_ASSIGN_OR_RETURN(
        Row row,
        table_->codec->Decode(image.data(), static_cast<uint32_t>(image.size())));
    if (predicate_ != nullptr) {
      MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate_, row, ctx));
      if (!keep) continue;
    }
    *out = std::move(row);
    return true;
  }
  return false;
}

void SeqScanExecutor::Release() { it_.reset(); }

size_t SeqScanExecutor::Footprint() const {
  return sizeof(*this) + SchemaFootprint() + FootprintOf(predicate_);
}

// -------------------------------------------------------------- IndexScan

IndexScanExecutor::IndexScanExecutor(TableInfo* table, const IndexInfo* index,
                                     std::vector<ExprPtr> prefix_values,
                                     ExprPtr residual)
    : table_(table),
      index_(index),
      prefix_values_(std::move(prefix_values)),
      residual_(std::move(residual)) {
  SetSchema(SchemaOfTable(table_));
}

Status IndexScanExecutor::Init(const ExecContext& ctx) {
  std::vector<Value> prefix;
  for (const ExprPtr& e : prefix_values_) {
    MTDB_ASSIGN_OR_RETURN(Value v, e->Eval(Row{}, ctx));
    prefix.push_back(std::move(v));
  }
  std::string lo, hi;
  KeyEncoder::EncodePrefixRange(prefix, &lo, &hi);
  MTDB_ASSIGN_OR_RETURN(BTree::Iterator it, index_->tree->Scan(lo, hi));
  it_ = std::make_unique<BTree::Iterator>(std::move(it));
  return Status::OK();
}

Result<bool> IndexScanExecutor::Next(Row* out, const ExecContext& ctx) {
  Rid rid;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    MTDB_ASSIGN_OR_RETURN(bool more, it_->Next(&rid));
    if (!more) break;
    std::string image;
    Status st = table_->heap->Get(rid, &image);
    if (st.code() == StatusCode::kNotFound) continue;  // dangling entry
    MTDB_RETURN_IF_ERROR(st);
    MTDB_ASSIGN_OR_RETURN(
        Row row,
        table_->codec->Decode(image.data(), static_cast<uint32_t>(image.size())));
    if (residual_ != nullptr) {
      MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, row, ctx));
      if (!keep) continue;
    }
    rid_ = rid;
    *out = std::move(row);
    return true;
  }
  return false;
}

void IndexScanExecutor::Release() { it_.reset(); }

size_t IndexScanExecutor::Footprint() const {
  return sizeof(*this) + SchemaFootprint() + FootprintOf(prefix_values_) +
         FootprintOf(residual_);
}

// ----------------------------------------------------------------- Filter

FilterExecutor::FilterExecutor(ExecutorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

void FilterExecutor::AppendColumns(OutputSchema* out) const {
  child_->AppendColumns(out);
}

Status FilterExecutor::Init(const ExecContext& ctx) { return child_->Init(ctx); }

Result<bool> FilterExecutor::Next(Row* out, const ExecContext& ctx) {
  while (true) {
    MTDB_ASSIGN_OR_RETURN(bool more, child_->Next(out, ctx));
    if (!more) return false;
    MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate_, *out, ctx));
    if (keep) return true;
  }
}

void FilterExecutor::Release() { child_->Release(); }

size_t FilterExecutor::Footprint() const {
  return sizeof(*this) + SchemaFootprint() + child_->Footprint() +
         predicate_->Footprint();
}

// ---------------------------------------------------------------- Project

ProjectExecutor::ProjectExecutor(ExecutorPtr child, std::vector<ExprPtr> exprs,
                                 std::vector<std::string> names,
                                 std::vector<TypeId> types)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  SetSchema(OutputSchema{std::move(names), std::move(types)});
}

Status ProjectExecutor::Init(const ExecContext& ctx) {
  return child_->Init(ctx);
}

Result<bool> ProjectExecutor::Next(Row* out, const ExecContext& ctx) {
  Row in;
  MTDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in, ctx));
  if (!more) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    MTDB_ASSIGN_OR_RETURN(Value v, e->Eval(in, ctx));
    out->push_back(std::move(v));
  }
  return true;
}

void ProjectExecutor::Release() { child_->Release(); }

size_t ProjectExecutor::Footprint() const {
  return sizeof(*this) + SchemaFootprint() + child_->Footprint() +
         FootprintOf(exprs_);
}

// ----------------------------------------------------------- NestedLoopJoin

NestedLoopJoinExecutor::NestedLoopJoinExecutor(ExecutorPtr left,
                                               ExecutorPtr right,
                                               ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)) {}

void NestedLoopJoinExecutor::AppendColumns(OutputSchema* out) const {
  left_->AppendColumns(out);
  right_->AppendColumns(out);
}

Status NestedLoopJoinExecutor::Init(const ExecContext& ctx) {
  have_left_ = false;
  return left_->Init(ctx);
}

Result<bool> NestedLoopJoinExecutor::Next(Row* out, const ExecContext& ctx) {
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    if (!have_left_) {
      MTDB_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_, ctx));
      if (!more) return false;
      have_left_ = true;
      MTDB_RETURN_IF_ERROR(right_->Init(ctx));
    }
    Row right_row;
    MTDB_ASSIGN_OR_RETURN(bool rmore, right_->Next(&right_row, ctx));
    if (!rmore) {
      have_left_ = false;
      continue;
    }
    Row combined = left_row_;
    combined.insert(combined.end(), right_row.begin(), right_row.end());
    if (predicate_ != nullptr) {
      MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate_, combined, ctx));
      if (!keep) continue;
    }
    *out = std::move(combined);
    return true;
  }
}

void NestedLoopJoinExecutor::Release() {
  Row().swap(left_row_);
  have_left_ = false;
  left_->Release();
  right_->Release();
}

size_t NestedLoopJoinExecutor::Footprint() const {
  return sizeof(*this) + SchemaFootprint() + left_->Footprint() +
         right_->Footprint() + FootprintOf(predicate_);
}

// ------------------------------------------------------ IndexNestedLoopJoin

IndexNestedLoopJoinExecutor::IndexNestedLoopJoinExecutor(
    ExecutorPtr left, TableInfo* right, const IndexInfo* right_index,
    std::vector<ExprPtr> key_exprs, ExprPtr residual)
    : left_(std::move(left)),
      right_(right),
      right_index_(right_index),
      key_exprs_(std::move(key_exprs)),
      residual_(std::move(residual)) {}

void IndexNestedLoopJoinExecutor::AppendColumns(OutputSchema* out) const {
  left_->AppendColumns(out);
  AppendTableColumns(right_, out);
}

Status IndexNestedLoopJoinExecutor::Init(const ExecContext& ctx) {
  have_left_ = false;
  matches_.clear();
  match_pos_ = 0;
  return left_->Init(ctx);
}

Result<bool> IndexNestedLoopJoinExecutor::AdvanceLeft(const ExecContext& ctx) {
  MTDB_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_, ctx));
  if (!more) return false;
  have_left_ = true;
  std::vector<Value> key_vals;
  for (const ExprPtr& e : key_exprs_) {
    MTDB_ASSIGN_OR_RETURN(Value v, e->Eval(left_row_, ctx));
    key_vals.push_back(std::move(v));
  }
  std::string lo, hi;
  KeyEncoder::EncodePrefixRange(key_vals, &lo, &hi);
  matches_.clear();
  match_pos_ = 0;
  MTDB_ASSIGN_OR_RETURN(BTree::Iterator it,
                        right_index_->tree->Scan(lo, hi));
  Rid rid;
  while (true) {
    MTDB_ASSIGN_OR_RETURN(bool has_match, it.Next(&rid));
    if (!has_match) break;
    matches_.push_back(rid);
  }
  return true;
}

Result<bool> IndexNestedLoopJoinExecutor::Next(Row* out,
                                               const ExecContext& ctx) {
  while (true) {
    if (!have_left_ || match_pos_ >= matches_.size()) {
      MTDB_ASSIGN_OR_RETURN(bool more, AdvanceLeft(ctx));
      if (!more) return false;
      continue;
    }
    Rid rid = matches_[match_pos_++];
    std::string image;
    Status st = right_->heap->Get(rid, &image);
    if (st.code() == StatusCode::kNotFound) continue;  // dangling entry
    MTDB_RETURN_IF_ERROR(st);
    MTDB_ASSIGN_OR_RETURN(
        Row right_row,
        right_->codec->Decode(image.data(), static_cast<uint32_t>(image.size())));
    Row combined = left_row_;
    combined.insert(combined.end(), right_row.begin(), right_row.end());
    if (residual_ != nullptr) {
      MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, combined, ctx));
      if (!keep) continue;
    }
    *out = std::move(combined);
    return true;
  }
}

void IndexNestedLoopJoinExecutor::Release() {
  Row().swap(left_row_);
  std::vector<Rid>().swap(matches_);
  match_pos_ = 0;
  have_left_ = false;
  left_->Release();
}

size_t IndexNestedLoopJoinExecutor::Footprint() const {
  return sizeof(*this) + SchemaFootprint() + left_->Footprint() +
         FootprintOf(key_exprs_) + FootprintOf(residual_);
}

// --------------------------------------------------------------- HashJoin

HashJoinExecutor::HashJoinExecutor(ExecutorPtr left, ExecutorPtr right,
                                   std::vector<ExprPtr> left_keys,
                                   std::vector<ExprPtr> right_keys,
                                   ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)) {}

void HashJoinExecutor::AppendColumns(OutputSchema* out) const {
  left_->AppendColumns(out);
  right_->AppendColumns(out);
}

Status HashJoinExecutor::Init(const ExecContext& ctx) {
  table_.clear();
  have_left_ = false;
  MTDB_RETURN_IF_ERROR(right_->Init(ctx));
  Row row;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    Result<bool> more = right_->Next(&row, ctx);
    if (!more.ok()) return more.status();
    if (!*more) break;
    Status st;
    std::string key = HashKeyOf(right_keys_, row, ctx, &st);
    MTDB_RETURN_IF_ERROR(st);
    table_.emplace(std::move(key), row);
  }
  return left_->Init(ctx);
}

Result<bool> HashJoinExecutor::Next(Row* out, const ExecContext& ctx) {
  while (true) {
    if (!have_left_) {
      MTDB_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_, ctx));
      if (!more) return false;
      Status st;
      std::string key = HashKeyOf(left_keys_, left_row_, ctx, &st);
      MTDB_RETURN_IF_ERROR(st);
      range_ = table_.equal_range(key);
      have_left_ = true;
    }
    if (range_.first == range_.second) {
      have_left_ = false;
      continue;
    }
    const Row& right_row = range_.first->second;
    ++range_.first;
    Row combined = left_row_;
    combined.insert(combined.end(), right_row.begin(), right_row.end());
    if (residual_ != nullptr) {
      MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, combined, ctx));
      if (!keep) continue;
    }
    *out = std::move(combined);
    return true;
  }
}

void HashJoinExecutor::Release() {
  std::unordered_multimap<std::string, Row>().swap(table_);
  range_ = {table_.end(), table_.end()};
  Row().swap(left_row_);
  have_left_ = false;
  left_->Release();
  right_->Release();
}

size_t HashJoinExecutor::Footprint() const {
  return sizeof(*this) + SchemaFootprint() + left_->Footprint() +
         right_->Footprint() + FootprintOf(left_keys_) +
         FootprintOf(right_keys_) + FootprintOf(residual_);
}

// ---------------------------------------------------------------- HashAgg

HashAggExecutor::HashAggExecutor(ExecutorPtr child,
                                 std::vector<ExprPtr> group_exprs,
                                 std::vector<AggSpec> aggs,
                                 std::vector<std::string> names,
                                 std::vector<TypeId> types)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)) {
  SetSchema(OutputSchema{std::move(names), std::move(types)});
}

Status HashAggExecutor::Init(const ExecContext& ctx) {
  states_.clear();
  emit_pos_ = 0;
  MTDB_RETURN_IF_ERROR(child_->Init(ctx));

  std::unordered_map<std::string, size_t> groups;
  Row row;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    Result<bool> more = child_->Next(&row, ctx);
    if (!more.ok()) return more.status();
    if (!*more) break;
    Status st;
    std::string key = HashKeyOf(group_exprs_, row, ctx, &st);
    MTDB_RETURN_IF_ERROR(st);
    auto [it, inserted] = groups.emplace(key, states_.size());
    if (inserted) {
      AggState state;
      for (const ExprPtr& g : group_exprs_) {
        Result<Value> v = g->Eval(row, ctx);
        if (!v.ok()) return v.status();
        state.group.push_back(*v);
      }
      state.acc.assign(aggs_.size(), Value());
      state.counts.assign(aggs_.size(), 0);
      states_.push_back(std::move(state));
    }
    AggState& state = states_[it->second];
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggSpec& spec = aggs_[i];
      if (spec.kind == AggKind::kCountStar) {
        state.counts[i]++;
        continue;
      }
      Result<Value> v = spec.arg->Eval(row, ctx);
      if (!v.ok()) return v.status();
      if (v->is_null()) continue;
      state.counts[i]++;
      Value& acc = state.acc[i];
      switch (spec.kind) {
        case AggKind::kCount:
          break;
        case AggKind::kSum:
        case AggKind::kAvg:
          if (acc.is_null()) {
            acc = *v;
          } else if (acc.type() == TypeId::kDouble ||
                     v->type() == TypeId::kDouble) {
            acc = Value::Double(acc.AsDouble() + v->AsDouble());
          } else {
            acc = Value::Int64(acc.AsInt64() + v->AsInt64());
          }
          break;
        case AggKind::kMin:
          if (acc.is_null() || v->Compare(acc) < 0) acc = *v;
          break;
        case AggKind::kMax:
          if (acc.is_null() || v->Compare(acc) > 0) acc = *v;
          break;
        case AggKind::kCountStar:
          break;
      }
    }
  }
  // SQL: aggregate over an empty input with no GROUP BY yields one row.
  if (states_.empty() && group_exprs_.empty()) {
    AggState state;
    state.acc.assign(aggs_.size(), Value());
    state.counts.assign(aggs_.size(), 0);
    states_.push_back(std::move(state));
  }
  return Status::OK();
}

Result<bool> HashAggExecutor::Next(Row* out, const ExecContext&) {
  if (emit_pos_ >= states_.size()) return false;
  const AggState& state = states_[emit_pos_++];
  out->clear();
  for (const Value& g : state.group) out->push_back(g);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    switch (aggs_[i].kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        out->push_back(Value::Int64(state.counts[i]));
        break;
      case AggKind::kSum:
      case AggKind::kMin:
      case AggKind::kMax:
        out->push_back(state.acc[i]);
        break;
      case AggKind::kAvg:
        if (state.counts[i] == 0) {
          out->push_back(Value::Null(TypeId::kDouble));
        } else {
          out->push_back(Value::Double(state.acc[i].AsDouble() /
                                       static_cast<double>(state.counts[i])));
        }
        break;
    }
  }
  return true;
}

void HashAggExecutor::Release() {
  std::vector<AggState>().swap(states_);
  emit_pos_ = 0;
  child_->Release();
}

size_t HashAggExecutor::Footprint() const {
  size_t n = sizeof(*this) + SchemaFootprint() + child_->Footprint() +
             FootprintOf(group_exprs_) + aggs_.capacity() * sizeof(AggSpec);
  for (const AggSpec& a : aggs_) n += FootprintOf(a.arg) + a.name.capacity();
  return n;
}

// ------------------------------------------------------------------- Sort

SortExecutor::SortExecutor(ExecutorPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {}

void SortExecutor::AppendColumns(OutputSchema* out) const {
  child_->AppendColumns(out);
}

Status SortExecutor::Init(const ExecContext& ctx) {
  rows_.clear();
  pos_ = 0;
  MTDB_RETURN_IF_ERROR(child_->Init(ctx));
  Row row;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    Result<bool> more = child_->Next(&row, ctx);
    if (!more.ok()) return more.status();
    if (!*more) break;
    rows_.push_back(std::move(row));
  }
  Status sort_status;
  std::stable_sort(rows_.begin(), rows_.end(),
                   [&](const Row& a, const Row& b) {
                     for (const SortKey& k : keys_) {
                       Result<Value> va = k.expr->Eval(a, ctx);
                       Result<Value> vb = k.expr->Eval(b, ctx);
                       if (!va.ok() || !vb.ok()) {
                         if (sort_status.ok()) {
                           sort_status = va.ok() ? vb.status() : va.status();
                         }
                         return false;
                       }
                       int c = va->Compare(*vb);
                       if (c != 0) return k.descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
  return sort_status;
}

Result<bool> SortExecutor::Next(Row* out, const ExecContext&) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

void SortExecutor::Release() {
  std::vector<Row>().swap(rows_);
  pos_ = 0;
  child_->Release();
}

size_t SortExecutor::Footprint() const {
  size_t n = sizeof(*this) + SchemaFootprint() + child_->Footprint() +
             keys_.capacity() * sizeof(SortKey);
  for (const SortKey& k : keys_) n += k.expr->Footprint();
  return n;
}

// ------------------------------------------------------------------ Limit

LimitExecutor::LimitExecutor(ExecutorPtr child, int64_t limit, int64_t offset)
    : child_(std::move(child)), limit_(limit), offset_(offset) {}

void LimitExecutor::AppendColumns(OutputSchema* out) const {
  child_->AppendColumns(out);
}

Status LimitExecutor::Init(const ExecContext& ctx) {
  seen_ = 0;
  emitted_ = 0;
  return child_->Init(ctx);
}

Result<bool> LimitExecutor::Next(Row* out, const ExecContext& ctx) {
  while (true) {
    if (limit_ >= 0 && emitted_ >= limit_) return false;
    MTDB_ASSIGN_OR_RETURN(bool more, child_->Next(out, ctx));
    if (!more) return false;
    if (seen_++ < offset_) continue;
    emitted_++;
    return true;
  }
}

void LimitExecutor::Release() { child_->Release(); }

size_t LimitExecutor::Footprint() const {
  return sizeof(*this) + SchemaFootprint() + child_->Footprint();
}

// --------------------------------------------------------------- Distinct

DistinctExecutor::DistinctExecutor(ExecutorPtr child)
    : child_(std::move(child)) {}

void DistinctExecutor::AppendColumns(OutputSchema* out) const {
  child_->AppendColumns(out);
}

Status DistinctExecutor::Init(const ExecContext& ctx) {
  seen_.clear();
  return child_->Init(ctx);
}

Result<bool> DistinctExecutor::Next(Row* out, const ExecContext& ctx) {
  while (true) {
    MTDB_ASSIGN_OR_RETURN(bool more, child_->Next(out, ctx));
    if (!more) return false;
    std::string key;
    for (const Value& v : *out) KeyEncoder::Encode(v, &key);
    if (seen_.emplace(std::move(key), true).second) return true;
  }
}

void DistinctExecutor::Release() {
  std::unordered_map<std::string, bool>().swap(seen_);
  child_->Release();
}

size_t DistinctExecutor::Footprint() const {
  return sizeof(*this) + SchemaFootprint() + child_->Footprint();
}

// ----------------------------------------------------------------- Values

ValuesExecutor::ValuesExecutor(std::vector<std::vector<ExprPtr>> rows,
                               std::vector<std::string> names,
                               std::vector<TypeId> types)
    : rows_(std::move(rows)) {
  SetSchema(OutputSchema{std::move(names), std::move(types)});
}

Status ValuesExecutor::Init(const ExecContext&) {
  pos_ = 0;
  return Status::OK();
}

Result<bool> ValuesExecutor::Next(Row* out, const ExecContext& ctx) {
  if (pos_ >= rows_.size()) return false;
  const std::vector<ExprPtr>& exprs = rows_[pos_++];
  out->clear();
  for (const ExprPtr& e : exprs) {
    MTDB_ASSIGN_OR_RETURN(Value v, e->Eval(Row{}, ctx));
    out->push_back(std::move(v));
  }
  return true;
}

void ValuesExecutor::Release() { pos_ = 0; }

size_t ValuesExecutor::Footprint() const {
  size_t n = sizeof(*this) + SchemaFootprint() +
             rows_.capacity() * sizeof(std::vector<ExprPtr>);
  for (const auto& row : rows_) n += FootprintOf(row);
  return n;
}

// ------------------------------------------------------------ Materialize

MaterializeExecutor::MaterializeExecutor(ExecutorPtr child)
    : child_(std::move(child)) {}

void MaterializeExecutor::AppendColumns(OutputSchema* out) const {
  child_->AppendColumns(out);
}

Status MaterializeExecutor::Init(const ExecContext& ctx) {
  pos_ = 0;
  if (materialized_) return Status::OK();
  MTDB_RETURN_IF_ERROR(child_->Init(ctx));
  Row row;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    Result<bool> more = child_->Next(&row, ctx);
    if (!more.ok()) return more.status();
    if (!*more) break;
    rows_.push_back(std::move(row));
  }
  materialized_ = true;
  return Status::OK();
}

Result<bool> MaterializeExecutor::Next(Row* out, const ExecContext&) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

void MaterializeExecutor::Release() {
  std::vector<Row>().swap(rows_);
  pos_ = 0;
  materialized_ = false;
  child_->Release();
}

size_t MaterializeExecutor::Footprint() const {
  return sizeof(*this) + SchemaFootprint() + child_->Footprint();
}

}  // namespace mtdb
