// The linear-algebra provider ("linalg"): claims MatMul, ElemWise, and 2-d
// Transpose natively. MatMul picks a dense blocked GEMM or a sparse SpGEMM
// by occupancy — the choice a numeric package would make internally.
#include "algebra/kernels.h"
#include "algebra/semiring.h"
#include "linalg/dense.h"
#include "linalg/sparse.h"
#include "provider/provider.h"
#include "relational/engine.h"
#include "telemetry/telemetry.h"

namespace nexus {

namespace {

class LinalgProvider : public Provider {
 public:
  std::string name() const override { return "linalg"; }

  // linalg speaks NXB1 natively: its operands live in the same
  // columnar vectors the wire blocks are lifted from.
  bool AcceptsBinaryWire() const override { return true; }

  bool Claims(OpKind kind) const override {
    switch (kind) {
      case OpKind::kScan:
      case OpKind::kValues:
      case OpKind::kMatMul:
      case OpKind::kElemWise:
      case OpKind::kTranspose:
      case OpKind::kExchange:
        return true;
      case OpKind::kAggregate:
        // Semi-ring lowering lets linalg run ⊕-fold aggregates through the
        // shared algebra kernels — byte-identical on every engine.
        return algebra::SemiringLoweringEnabled();
      default:
        return false;
    }
  }

  Result<Dataset> Execute(const Plan& plan) override { return Exec(plan); }

 private:
  /// Per-operator tracing shim around ExecNode; recursion re-enters here,
  /// so every plan node gets a span when tracing is on.
  Result<Dataset> Exec(const Plan& plan) {
    if (!telemetry::Enabled()) return ExecNode(plan);
    telemetry::SpanGuard span(telemetry::kCategoryOperator, plan.NodeLabel());
    auto result = ExecNode(plan);
    if (result.ok() && span.active()) {
      span.AddCounter("rows", result.ValueOrDie().num_rows());
      span.AddCounter("bytes", result.ValueOrDie().ByteSize());
    }
    return result;
  }
  Result<Dataset> ExecNode(const Plan& plan);
  Result<NDArrayPtr> ExecA(const Plan& plan) {
    NEXUS_ASSIGN_OR_RETURN(Dataset d, Exec(plan));
    return d.AsArray();
  }
};

// Density of an array's occupied cells.
double Occupancy(const NDArray& a) {
  return static_cast<double>(a.NumCellsOccupied()) /
         static_cast<double>(a.NumCellsTotal());
}

// Extracts absolute-coordinate triplets from a 2-d single-attribute array.
Result<std::vector<linalg::Triplet>> ToTriplets(const NDArray& a,
                                                int64_t row_off, int64_t col_off) {
  std::vector<linalg::Triplet> out;
  out.reserve(static_cast<size_t>(a.NumCellsOccupied()));
  for (const ArrayChunk* chunk : a.chunks()) {
    int64_t volume = chunk->Volume();
    const Column& attr = chunk->attrs[0];
    for (int64_t off = 0; off < volume; ++off) {
      if (!chunk->occupied[static_cast<size_t>(off)] || attr.IsNull(off)) continue;
      std::vector<int64_t> local = chunk->LocalCoords(off);
      out.push_back(linalg::Triplet{chunk->lo[0] + local[0] - row_off,
                                    chunk->lo[1] + local[1] - col_off,
                                    attr.NumericAt(off)});
    }
  }
  return out;
}

Result<Dataset> LinalgProvider::ExecNode(const Plan& plan) {
  switch (plan.kind()) {
    case OpKind::kScan:
      return catalog_.Get(plan.As<ScanOp>().table);
    case OpKind::kValues:
      return plan.As<ValuesOp>().data;
    case OpKind::kExchange:
      return Exec(*plan.child(0));
    case OpKind::kTranspose: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, ExecA(*plan.child(0)));
      if (in->num_dims() != 2) {
        return Status::Unsupported("linalg transpose requires a 2-d array");
      }
      const auto& order = plan.As<TransposeOp>().dim_order;
      if (order.size() != 2 || order[0] != in->dim(1).name ||
          order[1] != in->dim(0).name) {
        return Status::Unsupported("linalg transpose only swaps the two dims");
      }
      // Swap coordinates cell-wise (sparse-safe).
      NEXUS_ASSIGN_OR_RETURN(
          std::shared_ptr<NDArray> out,
          NDArray::Make({in->dim(1), in->dim(0)}, in->attr_schema()));
      Status st = Status::OK();
      in->ForEachCell([&](const std::vector<int64_t>& c, std::vector<Value> attrs) {
        if (!st.ok()) return;
        st = out->Set({c[1], c[0]}, attrs);
      });
      NEXUS_RETURN_NOT_OK(st);
      return Dataset(NDArrayPtr(std::move(out)));
    }
    case OpKind::kMatMul: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr a, ExecA(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr b, ExecA(*plan.child(1)));
      if (a->num_dims() != 2 || b->num_dims() != 2 ||
          a->attr_schema()->num_fields() != 1 || b->attr_schema()->num_fields() != 1) {
        return Status::Unsupported("linalg matmul requires 2-d single-attr arrays");
      }
      const auto& op = plan.As<MatMulOp>();
      // Contraction coordinates join by value: align both sides on the
      // union of the k ranges.
      int64_t k_off = std::min(a->dim(1).start, b->dim(0).start);
      int64_t k_end = std::max(a->dim(1).end(), b->dim(0).end());
      int64_t k_len = k_end - k_off;
      int64_t rows = a->dim(0).length, cols = b->dim(1).length;
      int64_t row_off = a->dim(0).start, col_off = b->dim(1).start;
      std::string row_name = a->dim(0).name;
      std::string col_name = b->dim(1).name;
      if (col_name == row_name) col_name += "_2";

      double occ = std::min(Occupancy(*a), Occupancy(*b));
      if (occ > 0.5 && rows * k_len < (1 << 22) && k_len * cols < (1 << 22)) {
        // Dense blocked GEMM.
        linalg::DenseMatrix da(rows, k_len), db(k_len, cols);
        NEXUS_ASSIGN_OR_RETURN(auto ta, ToTriplets(*a, row_off, k_off));
        NEXUS_ASSIGN_OR_RETURN(auto tb, ToTriplets(*b, k_off, col_off));
        for (const auto& t : ta) da.Set(t.row, t.col, t.value);
        for (const auto& t : tb) db.Set(t.row, t.col, t.value);
        NEXUS_ASSIGN_OR_RETURN(linalg::DenseMatrix dc,
                               linalg::MatMulBlocked(da, db));
        NEXUS_ASSIGN_OR_RETURN(
            NDArrayPtr out,
            linalg::ToNDArray(dc, row_name, col_name, op.result_attr, row_off,
                              col_off, a->dim(0).chunk_size, /*drop_zeros=*/true));
        return Dataset(out);
      }
      // Sparse SpGEMM path.
      NEXUS_ASSIGN_OR_RETURN(auto ta, ToTriplets(*a, row_off, k_off));
      NEXUS_ASSIGN_OR_RETURN(auto tb, ToTriplets(*b, k_off, col_off));
      NEXUS_ASSIGN_OR_RETURN(linalg::SparseMatrixCSR sa,
                             linalg::SparseMatrixCSR::FromTriplets(rows, k_len, ta));
      NEXUS_ASSIGN_OR_RETURN(linalg::SparseMatrixCSR sb,
                             linalg::SparseMatrixCSR::FromTriplets(k_len, cols, tb));
      NEXUS_ASSIGN_OR_RETURN(linalg::SparseMatrixCSR sc, sa.SpGEMM(sb));
      NEXUS_ASSIGN_OR_RETURN(
          SchemaPtr attrs,
          Schema::Make({Field::Attr(op.result_attr, DataType::kFloat64)}));
      NEXUS_ASSIGN_OR_RETURN(
          std::shared_ptr<NDArray> out,
          NDArray::Make({DimensionSpec{row_name, row_off, rows,
                                       a->dim(0).chunk_size},
                         DimensionSpec{col_name, col_off, cols,
                                       b->dim(1).chunk_size}},
                        attrs));
      for (const linalg::Triplet& t : sc.ToTriplets()) {
        NEXUS_RETURN_NOT_OK(out->Set({t.row + row_off, t.col + col_off},
                                     {Value::Float64(t.value)}));
      }
      return Dataset(NDArrayPtr(std::move(out)));
    }
    case OpKind::kAggregate: {
      NEXUS_ASSIGN_OR_RETURN(Dataset in_ds, Exec(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, in_ds.AsTable());
      const auto& spec = plan.As<AggregateOp>();
      if (algebra::SemiringLoweringEnabled() &&
          algebra::AggregateLowerable(spec)) {
        NEXUS_ASSIGN_OR_RETURN(TablePtr out, algebra::LowerAggregate(in, spec));
        return Dataset(out);
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, relational::HashAggregate(in, spec));
      return Dataset(out);
    }
    case OpKind::kElemWise: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr a, ExecA(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr b, ExecA(*plan.child(1)));
      BinaryOp op = plan.As<ElemWiseOpSpec>().op;
      if (a->num_dims() != 2 || b->num_dims() != 2) {
        return Status::Unsupported("linalg elemwise requires 2-d arrays");
      }
      if (a->attr_schema()->field(0).type != DataType::kFloat64 ||
          b->attr_schema()->field(0).type != DataType::kFloat64) {
        // Integer arithmetic stays on the array/relational providers so the
        // result type matches the algebra's promotion rules exactly.
        return Status::Unsupported("linalg elemwise requires float64 attributes");
      }
      // Sparse-safe elementwise over the occupancy intersection, keyed by
      // absolute coordinates.
      NEXUS_ASSIGN_OR_RETURN(auto tb, ToTriplets(*b, 0, 0));
      std::map<std::pair<int64_t, int64_t>, double> rhs;
      for (const auto& t : tb) rhs[{t.row, t.col}] = t.value;
      NEXUS_ASSIGN_OR_RETURN(
          SchemaPtr attrs,
          Schema::Make({Field::Attr(a->attr_schema()->field(0).name,
                                    DataType::kFloat64)}));
      NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> out,
                             NDArray::Make(a->dims(), attrs));
      NEXUS_ASSIGN_OR_RETURN(auto ta, ToTriplets(*a, 0, 0));
      for (const auto& t : ta) {
        auto it = rhs.find({t.row, t.col});
        if (it == rhs.end()) continue;
        double v = 0;
        switch (op) {
          case BinaryOp::kAdd:
            v = t.value + it->second;
            break;
          case BinaryOp::kSub:
            v = t.value - it->second;
            break;
          case BinaryOp::kMul:
            v = t.value * it->second;
            break;
          case BinaryOp::kDiv:
            if (it->second == 0.0) {
              NEXUS_RETURN_NOT_OK(out->Set({t.row, t.col}, {Value::Null()}));
              continue;
            }
            v = t.value / it->second;
            break;
          default:
            return Status::Unsupported("linalg elemwise supports + - * /");
        }
        NEXUS_RETURN_NOT_OK(out->Set({t.row, t.col}, {Value::Float64(v)}));
      }
      return Dataset(NDArrayPtr(std::move(out)));
    }
    default:
      return Status::Unsupported(
          std::string("linalg does not implement ") + OpKindName(plan.kind()));
  }
}

}  // namespace

ProviderPtr MakeLinalgProvider() { return std::make_shared<LinalgProvider>(); }

}  // namespace nexus
