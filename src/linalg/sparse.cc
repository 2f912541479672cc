#include "linalg/sparse.h"

#include <algorithm>
#include <numeric>

#include "common/str_util.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace linalg {

Result<SparseMatrixCSR> SparseMatrixCSR::FromTriplets(
    int64_t rows, int64_t cols, std::vector<Triplet> triplets) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative sparse matrix shape");
  }
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      return Status::IndexError(StrCat("triplet (", t.row, ", ", t.col,
                                       ") outside ", rows, "x", cols));
    }
  }
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  // Explicit zeros are *kept*: a 0-valued triplet (and duplicates summing to
  // exactly 0) stays a stored entry. The semi-ring contract only requires
  // that absent entries behave as the ring zero — stored zeros must flow
  // through SpMV/SpGEMM like any value (they contribute ±0.0 terms).
  SparseMatrixCSR m;
  m.m_.rows = rows;
  m.m_.cols = cols;
  m.m_.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  for (size_t i = 0; i < triplets.size();) {
    // Sum duplicates.
    size_t j = i + 1;
    double sum = triplets[i].value;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m.m_.col_idx.push_back(triplets[i].col);
    m.m_.values.push_back(sum);
    m.m_.row_ptr[static_cast<size_t>(triplets[i].row) + 1]++;
    i = j;
  }
  std::partial_sum(m.m_.row_ptr.begin(), m.m_.row_ptr.end(), m.m_.row_ptr.begin());
  return m;
}

namespace {

const algebra::Semiring& PlusTimes() {
  static const algebra::Semiring& ring = *algebra::FindSemiring("plus_times");
  return ring;
}

}  // namespace

Result<std::vector<double>> SparseMatrixCSR::SpMV(
    const std::vector<double>& x) const {
  if (static_cast<int64_t>(x.size()) != m_.cols) {
    return Status::InvalidArgument("SpMV shape mismatch");
  }
  // y = A·x as MxV over plus_times: each row folds 0.0 + a·x terms in
  // column order, so empty rows stay 0.0 and stored zeros still contribute.
  algebra::CountLowered("algebra.spmv_lowered");
  std::vector<double> y(static_cast<size_t>(m_.rows), 0.0);
  NEXUS_RETURN_NOT_OK(algebra::MxV(PlusTimes(), m_.view(), x, &y));
  return y;
}

Result<SparseMatrixCSR> SparseMatrixCSR::SpGEMM(const SparseMatrixCSR& b) const {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "la.SpGEMM");
  span.AddCounter("nnz_left", nnz());
  if (m_.cols != b.m_.rows) {
    return Status::InvalidArgument("SpGEMM shape mismatch");
  }
  // Gustavson over plus_times; MxM's rows are already column-sorted with
  // exact-zero sums dropped, which is the CSR form FromTriplets would build.
  algebra::CountLowered("algebra.spgemm_lowered");
  SparseMatrixCSR c;
  NEXUS_ASSIGN_OR_RETURN(c.m_, algebra::MxM(PlusTimes(), m_.view(), b.m_.view()));
  return c;
}

DenseMatrix SparseMatrixCSR::ToDense() const {
  DenseMatrix m(m_.rows, m_.cols);
  for (int64_t r = 0; r < m_.rows; ++r) {
    for (int64_t i = m_.row_ptr[static_cast<size_t>(r)];
         i < m_.row_ptr[static_cast<size_t>(r) + 1]; ++i) {
      m.Set(r, m_.col_idx[static_cast<size_t>(i)], m_.values[static_cast<size_t>(i)]);
    }
  }
  return m;
}

std::vector<Triplet> SparseMatrixCSR::ToTriplets() const {
  std::vector<Triplet> out;
  out.reserve(m_.values.size());
  for (int64_t r = 0; r < m_.rows; ++r) {
    for (int64_t i = m_.row_ptr[static_cast<size_t>(r)];
         i < m_.row_ptr[static_cast<size_t>(r) + 1]; ++i) {
      out.push_back(Triplet{r, m_.col_idx[static_cast<size_t>(i)],
                            m_.values[static_cast<size_t>(i)]});
    }
  }
  return out;
}

}  // namespace linalg
}  // namespace nexus
