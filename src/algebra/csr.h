// CSR semi-ring kernels: the one implementation of SpMV, SpGEMM, BFS and
// PageRank, generic over any registered Semiring.
//
// D4M stores an associative array as a sparse matrix over dense integer
// keys; LaraDB runs Ext/Join/Union over key-sorted streams. On that layout
// Join⊗ on the shared key is Gustavson's product and a row Reduce⊕ is the
// CSR dot-product loop, so the engines call these kernels directly:
//   MxV  pull: y[i] = y[i] ⊕ (⊕_k A[i,k] ⊗ x[k])      (SpMV, PageRank)
//   VxM  push: y[v] = ⊕_u x[u] ⊗ A[u,v], sparse x     (BFS)
//   MxM  Gustavson: C = A ⊗ B with a dense workspace  (SpGEMM)
//
// Fold order is the contract: every output folds its terms left to right,
// seeded as documented, in the operands' storage order, and one thread
// folds each row. Results are therefore identical at any thread count and
// bit-identical to the plain loops the kernels replaced. A lifted ring
// (count) reads every stored entry, matrix or vector, as `one`.
#ifndef NEXUS_ALGEBRA_CSR_H_
#define NEXUS_ALGEBRA_CSR_H_

#include <cstdint>
#include <vector>

#include "algebra/semiring.h"
#include "common/result.h"

namespace nexus {
namespace algebra {

class AssocArray;

/// Non-owning CSR matrix: row r's entries are [row_ptr[r], row_ptr[r+1]) of
/// col_idx (each in [0, cols)) and values. A pattern matrix has no values
/// and stores `pattern_value` everywhere, as a graph's adjacency does.
struct CsrView {
  int64_t rows = 0;
  int64_t cols = 0;
  const int64_t* row_ptr = nullptr;
  const int64_t* col_idx = nullptr;
  const double* values = nullptr;  ///< nullptr: pattern matrix
  double pattern_value = 1.0;

  int64_t nnz() const { return rows == 0 ? 0 : row_ptr[rows]; }
};

/// Owning CSR matrix; empty `values` means a pattern matrix.
struct CsrMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> row_ptr;
  std::vector<int64_t> col_idx;
  std::vector<double> values;
  double pattern_value = 1.0;

  CsrView view() const;
};

/// Stored entries of a sparse vector, in a defined order.
struct SparseVector {
  std::vector<int64_t> index;
  std::vector<double> value;
};

/// Dense accumulator plus column mask reused across VxM calls, so a step
/// costs O(touched), not O(cols). Masked columns stay masked.
class PushWorkspace {
 public:
  explicit PushWorkspace(int64_t size)
      : acc_(static_cast<size_t>(size)), state_(static_cast<size_t>(size), 0) {}
  int64_t size() const { return static_cast<int64_t>(state_.size()); }
  /// Drops column v from every later VxM's output (a settled BFS node).
  void Mask(int64_t v) { state_[static_cast<size_t>(v)] |= kMasked; }

 private:
  friend Result<SparseVector> VxM(const Semiring& sr, const SparseVector& x,
                                  const CsrView& a, PushWorkspace* ws);
  static constexpr uint8_t kSeen = 1;  // touched by the running VxM
  static constexpr uint8_t kMasked = 2;
  std::vector<double> acc_;
  std::vector<uint8_t> state_;
};

/// Pull SpMV: `y` holds a.rows seeds (the ring zero for a plain product, the
/// base vector for PageRank); y[i] becomes seed ⊕ A[i,k0] ⊗ x[k0] ⊕ ... over
/// row i in storage order. Rows run in parallel.
Status MxV(const Semiring& sr, const CsrView& a, const std::vector<double>& x,
           std::vector<double>* y);

/// Push step: for each entry (u, xu) of x in order and each A[u,v] of row u
/// in storage order, v not masked in `ws` (a.cols slots), y[v] folds
/// xu ⊗ A[u,v] from the ring zero. Returns y's entries in first-touch order.
Result<SparseVector> VxM(const Semiring& sr, const SparseVector& x,
                         const CsrView& a, PushWorkspace* ws);

/// Gustavson: each C[i,j] folds A[i,k] ⊗ B[k,j] from the ring zero, in
/// A-row then B-row storage order. Rows come out column-sorted; outputs
/// equal to the ring zero are not stored. Rows run in parallel.
Result<CsrMatrix> MxM(const Semiring& sr, const CsrView& a, const CsrView& b);

/// Aᵀ by a stable counting sort: row j of the result lists column j of A in
/// (row-ascending, storage) order. A pattern stays a pattern.
CsrMatrix Transpose(const CsrView& a);

/// Bridge from a 2-key associative array with int64 keys in the dense range
/// [0, rows) x [0, cols): row-major, column-sorted, duplicate keys folded
/// with ⊕ in entry order as Normalize folds them. Stored zeros stay stored.
Result<CsrMatrix> CsrFromAssoc(const AssocArray& a, const Semiring& sr,
                               int64_t rows, int64_t cols);

/// Counts one engine op run on these kernels: `op_counter` (e.g.
/// "algebra.spmv_lowered") and "algebra.ops_lowered", which EXPLAIN
/// ANALYZE's algebra: line reports.
void CountLowered(const char* op_counter);

}  // namespace algebra
}  // namespace nexus

#endif  // NEXUS_ALGEBRA_CSR_H_
