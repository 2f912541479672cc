// Sparse linear algebra: CSR matrices with SpMV and SpGEMM, which run on
// the CSR semi-ring kernels (algebra/csr.h) over plus_times. Used by the
// linalg provider when an input array's occupancy is sparse.
#ifndef NEXUS_LINALG_SPARSE_H_
#define NEXUS_LINALG_SPARSE_H_

#include <cstdint>
#include <vector>

#include "algebra/csr.h"
#include "common/result.h"
#include "linalg/dense.h"

namespace nexus {
namespace linalg {

/// One nonzero in coordinate form.
struct Triplet {
  int64_t row = 0;
  int64_t col = 0;
  double value = 0.0;
};

/// Compressed sparse row matrix of float64.
class SparseMatrixCSR {
 public:
  /// Builds from coordinate triplets; duplicates are summed.
  static Result<SparseMatrixCSR> FromTriplets(int64_t rows, int64_t cols,
                                              std::vector<Triplet> triplets);

  int64_t rows() const { return m_.rows; }
  int64_t cols() const { return m_.cols; }
  int64_t nnz() const { return static_cast<int64_t>(m_.values.size()); }

  /// Row r's entries occupy [row_ptr()[r], row_ptr()[r+1]).
  const std::vector<int64_t>& row_ptr() const { return m_.row_ptr; }
  const std::vector<int64_t>& col_idx() const { return m_.col_idx; }
  const std::vector<double>& values() const { return m_.values; }

  /// y = A * x.
  Result<std::vector<double>> SpMV(const std::vector<double>& x) const;

  /// C = A * B (Gustavson's row-by-row SpGEMM); exact-zero sums are dropped.
  Result<SparseMatrixCSR> SpGEMM(const SparseMatrixCSR& b) const;

  /// Densifies (for small matrices / testing).
  DenseMatrix ToDense() const;

  /// All nonzeros in row-major order.
  std::vector<Triplet> ToTriplets() const;

 private:
  algebra::CsrMatrix m_;  // stored values, never a pattern
};

}  // namespace linalg
}  // namespace nexus

#endif  // NEXUS_LINALG_SPARSE_H_
