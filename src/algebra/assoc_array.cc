#include "algebra/assoc_array.h"

#include <utility>

#include "common/str_util.h"
#include "types/schema.h"

namespace nexus {
namespace algebra {

namespace {

Status ValidateValueColumn(const Column& c, const std::string& name) {
  if (c.type() != DataType::kInt64 && c.type() != DataType::kFloat64) {
    return Status::TypeError(
        StrCat("associative-array value '", name, "' must be numeric"));
  }
  if (c.has_nulls()) {
    return Status::InvalidArgument(
        StrCat("associative-array value '", name, "' may not be null"));
  }
  return Status::OK();
}

}  // namespace

Result<AssocArray> AssocArray::FromTable(
    const TablePtr& table, const std::vector<std::string>& key_cols,
    const std::string& value_col) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (key_cols.empty()) {
    return Status::InvalidArgument("associative array needs >= 1 key column");
  }
  std::vector<Field> fields;
  std::vector<Column> cols;
  for (const std::string& k : key_cols) {
    NEXUS_ASSIGN_OR_RETURN(int i, table->schema()->FindFieldOrError(k));
    if (table->column(i).has_nulls()) {
      return Status::InvalidArgument(
          StrCat("associative-array key '", k, "' may not be null"));
    }
    fields.push_back(table->schema()->field(i));
    cols.push_back(table->column(i));
  }
  NEXUS_ASSIGN_OR_RETURN(int vi, table->schema()->FindFieldOrError(value_col));
  NEXUS_RETURN_NOT_OK(ValidateValueColumn(table->column(vi), value_col));
  fields.push_back(table->schema()->field(vi));
  cols.push_back(table->column(vi));
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  NEXUS_ASSIGN_OR_RETURN(TablePtr t, Table::Make(schema, std::move(cols)));
  AssocArray a;
  a.table_ = std::move(t);
  a.num_keys_ = static_cast<int>(key_cols.size());
  return a;
}

Result<AssocArray> AssocArray::Wrap(TablePtr table, int num_keys) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (num_keys < 1 || num_keys != table->num_columns() - 1) {
    return Status::InvalidArgument(
        StrCat("bad key count ", num_keys, " for ", table->num_columns(),
               "-column associative array"));
  }
  for (int i = 0; i < num_keys; ++i) {
    if (table->column(i).has_nulls()) {
      return Status::InvalidArgument(
          StrCat("associative-array key '", table->schema()->field(i).name,
                 "' may not be null"));
    }
  }
  NEXUS_RETURN_NOT_OK(ValidateValueColumn(
      table->column(num_keys), table->schema()->field(num_keys).name));
  AssocArray a;
  a.table_ = std::move(table);
  a.num_keys_ = num_keys;
  return a;
}

Result<AssocArray> AssocArray::FromTriplets(
    const std::vector<linalg::Triplet>& triplets, const std::string& row_key,
    const std::string& col_key, const std::string& value_name) {
  std::vector<int64_t> rows, cols;
  std::vector<double> vals;
  rows.reserve(triplets.size());
  cols.reserve(triplets.size());
  vals.reserve(triplets.size());
  for (const linalg::Triplet& t : triplets) {
    rows.push_back(t.row);
    cols.push_back(t.col);
    vals.push_back(t.value);
  }
  NEXUS_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      Schema::Make({Field::Attr(row_key, DataType::kInt64),
                    Field::Attr(col_key, DataType::kInt64),
                    Field::Attr(value_name, DataType::kFloat64)}));
  NEXUS_ASSIGN_OR_RETURN(
      TablePtr t, Table::Make(schema, {Column::FromInt64(std::move(rows)),
                                       Column::FromInt64(std::move(cols)),
                                       Column::FromFloat64(std::move(vals))}));
  AssocArray a;
  a.table_ = std::move(t);
  a.num_keys_ = 2;
  return a;
}

int AssocArray::FindKey(const std::string& name) const {
  for (int i = 0; i < num_keys_; ++i) {
    if (key_name(i) == name) return i;
  }
  return -1;
}

bool AssocArray::Equals(const AssocArray& other) const {
  if (num_keys_ != other.num_keys_) return false;
  if (table_ == nullptr || other.table_ == nullptr) {
    return table_ == other.table_;
  }
  return table_->Equals(*other.table_);
}

}  // namespace algebra
}  // namespace nexus
