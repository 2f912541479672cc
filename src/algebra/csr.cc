#include "algebra/csr.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "algebra/assoc_array.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "telemetry/metrics.h"

namespace nexus {
namespace algebra {

namespace {

// ⊕/⊗ policies. The engines' rings get inlined scalar ops (the same
// expressions as ApplyF, so bits agree); any other pairing uses ApplyF.
struct PlusTimes {
  double Plus(double a, double b) const { return a + b; }
  double Times(double a, double b) const { return a * b; }
};
struct MinPlus {
  double Plus(double a, double b) const { return std::min(a, b); }
  double Times(double a, double b) const { return a + b; }
};
struct AnyRing {
  MonoidOp plus, times;
  double Plus(double a, double b) const { return ApplyF(plus, a, b); }
  double Times(double a, double b) const { return ApplyF(times, a, b); }
};

template <typename Fn>
void WithRing(const Semiring& sr, Fn&& fn) {
  if (sr.plus == MonoidOp::kAdd && sr.times == MonoidOp::kMul) {
    fn(PlusTimes{});
  } else if (sr.plus == MonoidOp::kMin && sr.times == MonoidOp::kAdd) {
    fn(MinPlus{});
  } else {
    fn(AnyRing{sr.plus, sr.times});
  }
}

// Matrix values: stored, a pattern, or a pattern of 1.0 under × — which
// skips the multiply, since 1.0 · x is exactly x.
struct StoredValues {
  static constexpr bool kUnit = false;
  const double* v;
  double operator[](int64_t i) const { return v[i]; }
};
struct PatternValues {
  static constexpr bool kUnit = false;
  double c;
  double operator[](int64_t) const { return c; }
};
struct UnitValues {
  static constexpr bool kUnit = true;
  double operator[](int64_t) const { return 1.0; }
};

// A lifted ring reads every stored entry as `one`.
template <typename Fn>
void WithValues(const Semiring& sr, const CsrView& a, Fn&& fn) {
  const double pattern = sr.lift ? sr.one_f : a.pattern_value;
  if (a.values != nullptr && !sr.lift) {
    fn(StoredValues{a.values});
  } else if (pattern == 1.0 && sr.times == MonoidOp::kMul) {
    fn(UnitValues{});
  } else {
    fn(PatternValues{pattern});
  }
}

// A[i] ⊗ x and x ⊗ A[i]: operand order matters to a non-commutative ⊗.
template <typename Ring, typename Vals>
double TimesLeft(const Ring& ring, const Vals& a, int64_t i, double x) {
  if constexpr (Vals::kUnit) return x; else return ring.Times(a[i], x);
}
template <typename Ring, typename Vals>
double TimesRight(const Ring& ring, double x, const Vals& a, int64_t i) {
  if constexpr (Vals::kUnit) return x; else return ring.Times(x, a[i]);
}

// Rows per morsel so one morsel covers about kMorselRows stored entries.
int64_t RowGrain(const CsrView& a) {
  return std::max<int64_t>(64, kMorselRows * a.rows / std::max<int64_t>(a.nnz(), 1));
}

}  // namespace

CsrView CsrMatrix::view() const {
  return CsrView{rows, cols, row_ptr.data(), col_idx.data(),
                 values.empty() ? nullptr : values.data(), pattern_value};
}

Status MxV(const Semiring& sr, const CsrView& a, const std::vector<double>& x_in,
           std::vector<double>* y) {
  if (static_cast<int64_t>(x_in.size()) != a.cols ||
      static_cast<int64_t>(y->size()) != a.rows) {
    return Status::InvalidArgument(StrCat("MxV shape mismatch: ", a.rows, "x", a.cols,
                                          " by ", x_in.size(), " into ", y->size()));
  }
  const std::vector<double> lifted(sr.lift ? x_in.size() : 0, sr.one_f);
  const double* x = sr.lift ? lifted.data() : x_in.data();
  double* out = y->data();
  WithRing(sr, [&](auto ring) {
    WithValues(sr, a, [&](auto vals) {
      ParallelFor(a.rows, RowGrain(a), [&, vals](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          double s = out[r];
          for (int64_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
            s = ring.Plus(s, TimesLeft(ring, vals, i, x[a.col_idx[i]]));
          }
          out[r] = s;
        }
      });
    });
  });
  return Status::OK();
}

Result<SparseVector> VxM(const Semiring& sr, const SparseVector& x, const CsrView& a,
                         PushWorkspace* ws) {
  if (x.index.size() != x.value.size() || ws->size() != a.cols) {
    return Status::InvalidArgument("VxM: vector or workspace does not fit the matrix");
  }
  for (int64_t u : x.index) {
    if (u < 0 || u >= a.rows) {
      return Status::IndexError(StrCat("VxM entry ", u, " outside ", a.rows, " rows"));
    }
  }
  // With an idempotent ⊕ and one common term t (a pattern matrix times equal
  // x values: a BFS frontier), (z ⊕ t) ⊕ t = z ⊕ t: the first touch settles
  // y[v], repeat touches are skipped like masked columns, and every output
  // is the same z ⊕ t, kept once instead of per column.
  const bool idempotent = sr.plus == MonoidOp::kMin || sr.plus == MonoidOp::kMax ||
                          sr.plus == MonoidOp::kOr || sr.plus == MonoidOp::kAnd;
  const bool settle =
      idempotent && (a.values == nullptr || sr.lift) &&
      (sr.lift || std::all_of(x.value.begin(), x.value.end(), [&](double v) {
         return std::bit_cast<uint64_t>(v) == std::bit_cast<uint64_t>(x.value[0]);
       }));
  const uint8_t skip = PushWorkspace::kMasked | (settle ? PushWorkspace::kSeen : 0);
  double* acc = ws->acc_.data();
  uint8_t* state = ws->state_.data();
  double common = 0.0;
  SparseVector y;
  WithRing(sr, [&](auto ring) {
    WithValues(sr, a, [&](auto vals) {
      for (size_t e = 0; e < x.index.size(); ++e) {
        const int64_t u = x.index[e];
        const double xu = sr.lift ? sr.one_f : x.value[e];
        for (int64_t i = a.row_ptr[u]; i < a.row_ptr[u + 1]; ++i) {
          const int64_t v = a.col_idx[i];
          const uint8_t s = state[v];
          if ((s & skip) != 0) continue;
          const double t = TimesRight(ring, xu, vals, i);
          if ((s & PushWorkspace::kSeen) != 0) {
            acc[v] = ring.Plus(acc[v], t);
          } else {
            state[v] = s | PushWorkspace::kSeen;
            (settle ? common : acc[v]) = ring.Plus(sr.zero_f, t);
            y.index.push_back(v);
          }
        }
      }
    });
  });
  y.value.resize(y.index.size());
  for (size_t j = 0; j < y.index.size(); ++j) {
    y.value[j] = settle ? common : acc[y.index[j]];
    state[y.index[j]] &= static_cast<uint8_t>(~PushWorkspace::kSeen);
  }
  return y;
}

Result<CsrMatrix> MxM(const Semiring& sr, const CsrView& a, const CsrView& b) {
  if (a.cols != b.rows) {
    return Status::InvalidArgument(StrCat("MxM shape mismatch: ", a.rows, "x", a.cols,
                                          " times ", b.rows, "x", b.cols));
  }
  CsrMatrix c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.row_ptr.assign(static_cast<size_t>(a.rows) + 1, 0);
  // Each morsel of rows fills its own slice (slices concatenate in order)
  // with its own b.cols-wide workspace, so there are at most a few per thread.
  const int64_t spread = 4 * static_cast<int64_t>(GetThreadCount());
  const int64_t grain = std::max(RowGrain(a), (a.rows + spread - 1) / spread);
  const size_t parts = static_cast<size_t>((a.rows + grain - 1) / grain);
  std::vector<std::vector<int64_t>> part_cols(parts);
  std::vector<std::vector<double>> part_vals(parts);
  const double zero = sr.zero_f;
  WithRing(sr, [&](auto ring) {
    WithValues(sr, a, [&](auto avals) {
      WithValues(sr, b, [&](auto bvals) {
        ParallelFor(a.rows, grain, [&](int64_t r0, int64_t r1) {
          std::vector<double> acc(static_cast<size_t>(b.cols));
          std::vector<uint8_t> seen(static_cast<size_t>(b.cols), 0);
          std::vector<int64_t> touched;
          std::vector<int64_t>& cols = part_cols[static_cast<size_t>(r0 / grain)];
          std::vector<double>& vals = part_vals[static_cast<size_t>(r0 / grain)];
          for (int64_t r = r0; r < r1; ++r) {
            touched.clear();
            for (int64_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
              const int64_t k = a.col_idx[i];
              for (int64_t j = b.row_ptr[k]; j < b.row_ptr[k + 1]; ++j) {
                const int64_t col = b.col_idx[j];
                const double t = TimesRight(ring, avals[i], bvals, j);
                if (seen[col] != 0) {
                  acc[col] = ring.Plus(acc[col], t);
                } else {
                  seen[col] = 1;
                  acc[col] = ring.Plus(zero, t);
                  touched.push_back(col);
                }
              }
            }
            std::sort(touched.begin(), touched.end());
            for (int64_t col : touched) {
              seen[col] = 0;
              if (acc[col] == zero) continue;  // annihilated: not stored
              cols.push_back(col);
              vals.push_back(acc[col]);
              ++c.row_ptr[static_cast<size_t>(r) + 1];
            }
          }
        });
      });
    });
  });
  std::partial_sum(c.row_ptr.begin(), c.row_ptr.end(), c.row_ptr.begin());
  for (size_t p = 0; p < parts; ++p) {
    c.col_idx.insert(c.col_idx.end(), part_cols[p].begin(), part_cols[p].end());
    c.values.insert(c.values.end(), part_vals[p].begin(), part_vals[p].end());
  }
  return c;
}

CsrMatrix Transpose(const CsrView& a) {
  CsrMatrix t;
  t.rows = a.cols;
  t.cols = a.rows;
  t.pattern_value = a.pattern_value;
  t.row_ptr.assign(static_cast<size_t>(a.cols) + 1, 0);
  for (int64_t i = 0; i < a.nnz(); ++i) ++t.row_ptr[static_cast<size_t>(a.col_idx[i]) + 1];
  std::partial_sum(t.row_ptr.begin(), t.row_ptr.end(), t.row_ptr.begin());
  t.col_idx.resize(static_cast<size_t>(a.nnz()));
  if (a.values != nullptr) t.values.resize(t.col_idx.size());
  // One morsel of destination rows per thread: each scans all of A in
  // storage order (keeping the sort stable) but places only its own
  // entries, so its writes stay within its own slice of the output. The
  // writes land at random; each slot is prefetched a few entries ahead.
  constexpr int64_t kAhead = 16;
  const int64_t threads = GetThreadCount();
  ParallelFor(a.cols, std::max<int64_t>(1, (a.cols + threads - 1) / threads),
              [&](int64_t v0, int64_t v1) {
    std::vector<int64_t> cursor(t.row_ptr.begin() + v0, t.row_ptr.begin() + v1);
    for (int64_t r = 0; r < a.rows; ++r) {
      for (int64_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        if (i + kAhead < a.nnz()) {
          const int64_t ahead = a.col_idx[i + kAhead];
          if (ahead >= v0 && ahead < v1) {
            NEXUS_PREFETCH_WRITE(t.col_idx.data() + cursor[static_cast<size_t>(ahead - v0)]);
          }
        }
        const int64_t v = a.col_idx[i];
        if (v < v0 || v >= v1) continue;
        const int64_t pos = cursor[static_cast<size_t>(v - v0)]++;
        t.col_idx[static_cast<size_t>(pos)] = r;
        if (a.values != nullptr) t.values[static_cast<size_t>(pos)] = a.values[i];
      }
    }
  });
  return t;
}

Result<CsrMatrix> CsrFromAssoc(const AssocArray& a, const Semiring& sr, int64_t rows,
                               int64_t cols) {
  if (a.num_keys() != 2 || a.key_column(0).type() != DataType::kInt64 ||
      a.key_column(1).type() != DataType::kInt64) {
    return Status::TypeError("CSR bridge needs exactly two int64 keys");
  }
  if (rows < 0 || cols < 0) return Status::InvalidArgument("negative CSR shape");
  const std::vector<int64_t>& rk = a.key_column(0).ints();
  const std::vector<int64_t>& ck = a.key_column(1).ints();
  const size_t n = static_cast<size_t>(a.num_entries());
  for (size_t e = 0; e < n; ++e) {
    if (rk[e] < 0 || rk[e] >= rows || ck[e] < 0 || ck[e] >= cols) {
      return Status::IndexError(
          StrCat("key (", rk[e], ", ", ck[e], ") outside ", rows, "x", cols));
    }
  }
  const Column& vc = a.value_column();
  auto value = [&](size_t e) {
    if (sr.lift) return sr.one_f;
    return vc.type() == DataType::kInt64 ? static_cast<double>(vc.ints()[e])
                                         : vc.doubles()[e];
  };
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return rk[x] != rk[y] ? rk[x] < rk[y] : ck[x] < ck[y];
  });
  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  for (size_t i = 0; i < n;) {
    const size_t first = order[i];
    // Normalize's fold: `+` seeded from the ring zero, other ⊕ from the
    // first value.
    double acc = sr.plus == MonoidOp::kAdd ? ApplyF(sr.plus, sr.zero_f, value(first))
                                           : value(first);
    for (++i; i < n && rk[order[i]] == rk[first] && ck[order[i]] == ck[first]; ++i) {
      acc = ApplyF(sr.plus, acc, value(order[i]));
    }
    m.col_idx.push_back(ck[first]);
    m.values.push_back(acc);
    ++m.row_ptr[static_cast<size_t>(rk[first]) + 1];
  }
  std::partial_sum(m.row_ptr.begin(), m.row_ptr.end(), m.row_ptr.begin());
  return m;
}

void CountLowered(const char* op_counter) {
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.counter(op_counter)->Increment();
  registry.counter("algebra.ops_lowered")->Increment();
}

}  // namespace algebra
}  // namespace nexus
