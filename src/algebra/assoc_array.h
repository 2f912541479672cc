// AssocArray: the associative-array value type of the semi-ring kernel
// layer (Lara's tables, D4M's associative arrays).
//
// An associative array is a finite map from composite keys to one scalar
// value. It is represented as a Table whose first `num_keys` columns are
// the key attributes and whose last column is the value — so it bridges
// both worlds for free: any Table with chosen key columns is an
// associative array (relational side), and a list of linalg::Triplet
// coordinates is an associative array with two int64 keys (sparse-tensor
// side). Entry *order* is preserved from construction: the kernels define
// their output order in terms of it (first-seen key order, probe order),
// which is what makes algebra-routed execution byte-identical to the
// engines it lowers.
//
// Invariants: keys are non-null (an associative array's keys are a set,
// not SQL groups), the value column is numeric (int64/float64), and keys
// need not be unique — Normalize(⊕) collapses duplicates on demand.
#ifndef NEXUS_ALGEBRA_ASSOC_ARRAY_H_
#define NEXUS_ALGEBRA_ASSOC_ARRAY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/sparse.h"
#include "types/table.h"

namespace nexus {
namespace algebra {

class AssocArray {
 public:
  AssocArray() = default;

  /// Views `key_cols` + `value_col` of a table as an associative array
  /// (projecting in that order). Keys may be any column type but must be
  /// non-null; the value must be numeric.
  static Result<AssocArray> FromTable(const TablePtr& table,
                                      const std::vector<std::string>& key_cols,
                                      const std::string& value_col);

  /// Wraps a table whose first `num_keys` columns are the keys and whose
  /// last column is the value (no projection; validates the invariants).
  static Result<AssocArray> Wrap(TablePtr table, int num_keys);

  /// Coordinate bridge: triplets (in the given order) become a 2-key array.
  static Result<AssocArray> FromTriplets(
      const std::vector<linalg::Triplet>& triplets, const std::string& row_key,
      const std::string& col_key, const std::string& value_name);

  const TablePtr& table() const { return table_; }
  int num_keys() const { return num_keys_; }
  int64_t num_entries() const { return table_ == nullptr ? 0 : table_->num_rows(); }

  const Column& key_column(int i) const { return table_->column(i); }
  const Column& value_column() const { return table_->column(num_keys_); }
  const std::string& key_name(int i) const {
    return table_->schema()->field(i).name;
  }
  const std::string& value_name() const {
    return table_->schema()->field(num_keys_).name;
  }
  DataType value_type() const { return value_column().type(); }

  /// Index of the named key, or -1.
  int FindKey(const std::string& name) const;

  /// Order-sensitive equality of the underlying tables.
  bool Equals(const AssocArray& other) const;

 private:
  TablePtr table_;
  int num_keys_ = 0;
};

}  // namespace algebra
}  // namespace nexus

#endif  // NEXUS_ALGEBRA_ASSOC_ARRAY_H_
