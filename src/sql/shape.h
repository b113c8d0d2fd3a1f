#ifndef MTDB_SQL_SHAPE_H_
#define MTDB_SQL_SHAPE_H_

#include <string>
#include <vector>

#include "sql/ast.h"

namespace mtdb {
namespace sql {

/// The shape of a SELECT: a compact structural encoding of the statement
/// in which every literal of a WHERE predicate (ON predicates are WHERE
/// conjuncts after parsing), at any derived-table depth, is a typed slot.
/// Two statements have the same key iff they are equal node for node:
/// slots by type and nullness, every other literal by type and value
/// (doubles bit for bit), parameters by ordinal and identifiers byte for
/// byte. Identifiers are not folded to one case: result column names and
/// EXPLAIN text echo their spelling.
///
/// Slots are numbered after the statement's own `?` parameters:
/// slot i is parameter `first_slot + i`, with value `*slots[i]` — a
/// literal of the encoded statement, which must outlive the shape.
struct SelectShape {
  std::string key;
  std::vector<const Value*> slots;
  size_t first_slot = 0;  // the statement's parameter count (max ordinal + 1)
};

/// Appends the shape of `stmt` to `out->key` and its slot values to
/// `out->slots`, and sets `out->first_slot`.
void EncodeShape(const SelectStmt& stmt, SelectShape* out);

/// Replaces the slot literals of `stmt` by parameters `first_slot`,
/// `first_slot + 1`, ... in the order EncodeShape numbers them. `stmt`
/// must be a copy of the statement encoded with that `first_slot`.
void LiftSlots(SelectStmt* stmt, size_t first_slot);

}  // namespace sql
}  // namespace mtdb

#endif  // MTDB_SQL_SHAPE_H_
