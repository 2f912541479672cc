// Tests for the semi-ring kernel subsystem: registry contracts, the
// associative-array bridge, the Ext/Join/Union kernels, the aggregate
// lowering's byte-identity to HashAggregate, and the CSR kernels'
// bit-identity to the reference loops for SpMV, SpGEMM, BFS and PageRank.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "algebra/assoc_array.h"
#include "algebra/csr.h"
#include "algebra/kernels.h"
#include "algebra/semiring.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "expr/builder.h"
#include "graph/graph.h"
#include "linalg/sparse.h"
#include "optimizer/lower_semiring.h"
#include "relational/engine.h"
#include "telemetry/metrics.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using algebra::AssocArray;
using algebra::Semiring;
using linalg::SparseMatrixCSR;
using linalg::Triplet;
using testing::F;
using testing::I;
using testing::MakeSchema;
using testing::MakeTable;
using testing::N;
using testing::S;

/// Restores the process-wide lowering switch (and thread count) on exit.
struct LoweringGuard {
  int saved_threads = GetThreadCount();
  ~LoweringGuard() {
    algebra::ClearSemiringLoweringOverride();
    SetThreadCount(saved_threads);
  }
};

const Semiring& Ring(const std::string& name) {
  const Semiring* s = algebra::FindSemiring(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

// ---------------------------------------------------------------------------
// Registry and contracts.
// ---------------------------------------------------------------------------

TEST(SemiringTest, RegistryShipsTheFiveRingsAndAllPassContracts) {
  const auto& rings = algebra::SemiringRegistry();
  ASSERT_EQ(rings.size(), 5u);
  for (const Semiring& s : rings) {
    EXPECT_OK(algebra::VerifyContracts(s));
    EXPECT_EQ(algebra::FindSemiring(s.name), &s);
  }
  EXPECT_EQ(algebra::FindSemiring("frobnicate"), nullptr);
}

TEST(SemiringTest, TropicalIdentities) {
  const Semiring& mp = Ring("min_plus");
  EXPECT_EQ(mp.zero_f, std::numeric_limits<double>::infinity());
  EXPECT_EQ(mp.one_f, 0.0);
  EXPECT_EQ(algebra::ApplyF(mp.plus, 3.0, 5.0), 3.0);
  EXPECT_EQ(algebra::ApplyF(mp.times, 3.0, 5.0), 8.0);
  const Semiring& mt = Ring("max_times");
  EXPECT_EQ(algebra::ApplyF(mt.plus, 0.25, 0.5), 0.5);
  EXPECT_EQ(algebra::ApplyF(mt.times, 0.25, 0.5), 0.125);
  const Semiring& oa = Ring("or_and");
  EXPECT_EQ(algebra::ApplyI(oa.plus, 0, 1), 1);
  EXPECT_EQ(algebra::ApplyI(oa.times, 1, 0), 0);
  EXPECT_TRUE(Ring("count").lift);
}

TEST(SemiringTest, BrokenRingFailsContracts) {
  // (−, ×) is not a semi-ring: ⊕ is neither associative nor commutative.
  Semiring bad;
  bad.name = "sub_times";
  bad.plus = algebra::MonoidOp::kMul;  // 1 is not a ⊕-identity with zero_f=0
  EXPECT_FALSE(algebra::VerifyContracts(bad).ok());
}

TEST(SemiringTest, OverrideSwitch) {
  LoweringGuard guard;
  algebra::SetSemiringLoweringOverride(false);
  EXPECT_FALSE(algebra::SemiringLoweringEnabled());
  algebra::SetSemiringLoweringOverride(true);
  EXPECT_TRUE(algebra::SemiringLoweringEnabled());
}

// ---------------------------------------------------------------------------
// Associative arrays.
// ---------------------------------------------------------------------------

TEST(AssocArrayTest, FromTableProjectsKeysAndValue) {
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("junk", DataType::kString),
                            Field::Attr("v", DataType::kFloat64)});
  TablePtr t = MakeTable(s, {{I(7), S("x"), F(1.5)}, {I(3), S("y"), F(2.5)}});
  ASSERT_OK_AND_ASSIGN(AssocArray a, AssocArray::FromTable(t, {"k"}, "v"));
  EXPECT_EQ(a.num_keys(), 1);
  EXPECT_EQ(a.num_entries(), 2);
  EXPECT_EQ(a.key_name(0), "k");
  EXPECT_EQ(a.value_name(), "v");
  // Entry order is preserved from the table.
  EXPECT_EQ(a.key_column(0).ints()[0], 7);
  EXPECT_EQ(a.value_column().doubles()[1], 2.5);
}

TEST(AssocArrayTest, RejectsNullKeysAndNonNumericValues) {
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64)});
  TablePtr null_key = MakeTable(s, {{N(), F(1.0)}});
  EXPECT_FALSE(AssocArray::FromTable(null_key, {"k"}, "v").ok());
  SchemaPtr s2 = MakeSchema({Field::Attr("k", DataType::kInt64),
                             Field::Attr("v", DataType::kBool)});
  TablePtr bool_val = MakeTable(s2, {{I(1), testing::B(true)}});
  EXPECT_FALSE(AssocArray::FromTable(bool_val, {"k"}, "v").ok());
}

TEST(AssocArrayTest, TripletBridge) {
  std::vector<Triplet> trips = {{1, 0, 2.0}, {0, 2, 3.0}};
  ASSERT_OK_AND_ASSIGN(AssocArray a,
                       AssocArray::FromTriplets(trips, "i", "j", "v"));
  ASSERT_EQ(a.num_keys(), 2);
  // FromTriplets preserves the given order (unlike CSR construction).
  EXPECT_EQ(a.key_column(0).ints(), (std::vector<int64_t>{1, 0}));
  EXPECT_EQ(a.key_column(1).ints(), (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(a.value_column().doubles(), (std::vector<double>{2.0, 3.0}));
}

// ---------------------------------------------------------------------------
// Kernels.
// ---------------------------------------------------------------------------

AssocArray Entries(const std::vector<std::pair<int64_t, double>>& kv,
                   const std::string& key = "k",
                   const std::string& val = "v") {
  SchemaPtr s = MakeSchema({Field::Attr(key, DataType::kInt64),
                            Field::Attr(val, DataType::kFloat64)});
  std::vector<std::vector<Value>> rows;
  for (const auto& [k, v] : kv) rows.push_back({I(k), F(v)});
  auto r = AssocArray::FromTable(MakeTable(s, rows), {key}, val);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.MoveValue();
}

TEST(KernelTest, ExtFlatmapsInEntryOrder) {
  AssocArray a = Entries({{1, 2.0}, {2, 3.0}});
  // Emit (k, v) and (k + 10, v * 2) per entry.
  ASSERT_OK_AND_ASSIGN(
      AssocArray out,
      algebra::Ext(a, {Field::Attr("k", DataType::kInt64)},
                   Field::Attr("v", DataType::kFloat64),
                   [](const std::vector<Value>& keys, const Value& v,
                      const std::function<void(std::vector<Value>, Value)>& emit)
                       -> Status {
                     emit({keys[0]}, v);
                     emit({Value::Int64(keys[0].AsInt64() + 10)},
                          Value::Float64(v.AsDouble() * 2));
                     return Status::OK();
                   }));
  ASSERT_EQ(out.num_entries(), 4);
  EXPECT_EQ(out.key_column(0).ints()[0], 1);
  EXPECT_EQ(out.key_column(0).ints()[1], 11);
  EXPECT_EQ(out.value_column().doubles()[1], 4.0);
  EXPECT_EQ(out.key_column(0).ints()[2], 2);
}

TEST(KernelTest, JoinCombinesWithTimesInProbeOrder) {
  AssocArray a = Entries({{1, 2.0}, {2, 3.0}, {1, 5.0}});
  AssocArray b = Entries({{1, 10.0}, {1, 100.0}}, "k", "w");
  ASSERT_OK_AND_ASSIGN(AssocArray j, algebra::Join(a, b, Ring("plus_times")));
  // a-entry order, with b-matches in b-entry order; value name is "v_w".
  ASSERT_EQ(j.num_entries(), 4);
  EXPECT_EQ(j.value_name(), "v_w");
  const auto& vals = j.value_column().doubles();
  EXPECT_EQ(vals[0], 20.0);
  EXPECT_EQ(vals[1], 200.0);
  EXPECT_EQ(vals[2], 50.0);
  EXPECT_EQ(vals[3], 500.0);
  // No shared key name at all is an error, not a cross product.
  AssocArray c = Entries({{1, 1.0}}, "other");
  EXPECT_FALSE(algebra::Join(a, c, Ring("plus_times")).ok());
}

TEST(KernelTest, JoinUnderLiftedRingCountsPairs) {
  AssocArray a = Entries({{1, 2.0}, {2, 3.0}});
  AssocArray b = Entries({{1, 9.0}, {1, 8.0}}, "k", "w");
  ASSERT_OK_AND_ASSIGN(AssocArray j, algebra::Join(a, b, Ring("count")));
  ASSERT_EQ(j.num_entries(), 2);
  for (double v : j.value_column().doubles()) EXPECT_EQ(v, 1.0);
}

TEST(KernelTest, UnionFoldsDuplicatesFirstSeenOrder) {
  AssocArray a = Entries({{5, 1.0}, {3, 2.0}});
  AssocArray b = Entries({{3, 10.0}, {9, 4.0}});
  ASSERT_OK_AND_ASSIGN(AssocArray u, algebra::Union(a, b, Ring("plus_times")));
  ASSERT_EQ(u.num_entries(), 3);
  // First-seen key order: 5, 3, 9; key 3 folds 2.0 ⊕ 10.0.
  EXPECT_EQ(u.key_column(0).ints()[0], 5);
  EXPECT_EQ(u.key_column(0).ints()[1], 3);
  EXPECT_EQ(u.key_column(0).ints()[2], 9);
  EXPECT_EQ(u.value_column().doubles()[1], 12.0);
  // min_plus ⊕ keeps the smaller value.
  ASSERT_OK_AND_ASSIGN(AssocArray m, algebra::Union(a, b, Ring("min_plus")));
  EXPECT_EQ(m.value_column().doubles()[1], 2.0);
  // Schema mismatches are type errors.
  AssocArray c = Entries({{1, 1.0}}, "other");
  EXPECT_FALSE(algebra::Union(a, c, Ring("plus_times")).ok());
}

TEST(KernelTest, ReduceProjectsThenFolds) {
  // Two-key array reduced to its first key: ⊕-sums across the dropped key.
  std::vector<Triplet> trips = {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 4.0}};
  ASSERT_OK_AND_ASSIGN(AssocArray a,
                       AssocArray::FromTriplets(trips, "i", "j", "v"));
  ASSERT_OK_AND_ASSIGN(AssocArray r,
                       algebra::Reduce(a, {"i"}, Ring("plus_times")));
  ASSERT_EQ(r.num_entries(), 2);
  EXPECT_EQ(r.value_column().doubles()[0], 3.0);
  EXPECT_EQ(r.value_column().doubles()[1], 4.0);
  // A full scalar reduction must keep at least one key.
  EXPECT_FALSE(algebra::Reduce(a, {}, Ring("plus_times")).ok());
}

TEST(KernelTest, OrAndReachabilityStep) {
  // frontier ∨⊗∧ edges: one step of boolean reachability.
  AssocArray frontier = Entries({{0, 1.0}}, "u", "f");
  std::vector<Triplet> edges = {{0, 1, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}};
  ASSERT_OK_AND_ASSIGN(AssocArray e,
                       AssocArray::FromTriplets(edges, "u", "w", "f"));
  ASSERT_OK_AND_ASSIGN(AssocArray step,
                       algebra::Join(frontier, e, Ring("or_and")));
  ASSERT_OK_AND_ASSIGN(AssocArray reached,
                       algebra::Reduce(step, {"w"}, Ring("or_and")));
  ASSERT_EQ(reached.num_entries(), 2);  // nodes 1 and 2, not 3
  for (double v : reached.value_column().doubles()) EXPECT_EQ(v, 1.0);
}

// ---------------------------------------------------------------------------
// LowerAggregate ≡ HashAggregate.
// ---------------------------------------------------------------------------

TablePtr RandomSales(int64_t n, uint64_t seed) {
  SchemaPtr s = MakeSchema({Field::Attr("g", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64),
                            Field::Attr("c", DataType::kInt64)});
  TableBuilder b(s);
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    Value v = rng.NextInt(0, 9) == 0 ? Value::Null()
                                     : F(rng.NextDouble(-100, 100));
    EXPECT_OK(b.AppendRow({I(rng.NextInt(0, 11)), v, I(rng.NextInt(-5, 5))}));
  }
  return b.Finish().ValueOrDie();
}

void ExpectLoweredMatchesEngine(const TablePtr& t, const AggregateOp& op) {
  ASSERT_TRUE(algebra::AggregateLowerable(op));
  ASSERT_OK_AND_ASSIGN(TablePtr want, relational::HashAggregate(t, op));
  LoweringGuard guard;
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    ASSERT_OK_AND_ASSIGN(TablePtr got, algebra::LowerAggregate(t, op));
    EXPECT_TRUE(got->Equals(*want)) << "threads=" << threads;
    EXPECT_TRUE(got->schema()->Equals(*want->schema()));
  }
}

TEST(LowerAggregateTest, GroupedFoldsMatchHashAggregate) {
  TablePtr t = RandomSales(40000, 17);  // multiple morsels
  AggregateOp op;
  op.group_by = {"g"};
  op.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
             AggSpec{AggFunc::kSum, Col("c"), "sc"},
             AggSpec{AggFunc::kMin, Col("v"), "lo"},
             AggSpec{AggFunc::kMax, Col("c"), "hi"},
             AggSpec{AggFunc::kCount, Col("v"), "nv"},
             AggSpec{AggFunc::kCount, nullptr, "n"}};
  ExpectLoweredMatchesEngine(t, op);
}

TEST(LowerAggregateTest, GlobalAndEmptyInputsMatchHashAggregate) {
  AggregateOp global;
  global.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
                 AggSpec{AggFunc::kMin, Col("v"), "lo"},
                 AggSpec{AggFunc::kCount, nullptr, "n"}};
  ExpectLoweredMatchesEngine(RandomSales(500, 3), global);
  // Empty input: global aggregates yield one all-null/zero row.
  ExpectLoweredMatchesEngine(RandomSales(0, 3), global);
  AggregateOp grouped = global;
  grouped.group_by = {"g"};
  ExpectLoweredMatchesEngine(RandomSales(0, 3), grouped);
}

TEST(LowerAggregateTest, AvgIsNotLowerable) {
  AggregateOp op;
  op.aggs = {AggSpec{AggFunc::kAvg, Col("v"), "m"}};
  EXPECT_FALSE(algebra::AggregateLowerable(op));
}

// ---------------------------------------------------------------------------
// CSR kernels against plain reference loops. SpMV, SpGEMM, BFS and PageRank
// have no other implementation in the engines, so each is checked bit for
// bit against the textbook loop it replaced, kept here.
// ---------------------------------------------------------------------------

std::vector<Triplet> RandomTriplets(int64_t rows, int64_t cols, int n,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Triplet{rng.NextInt(0, rows - 1), rng.NextInt(0, cols - 1),
                          rng.NextDouble(-1, 1)});
  }
  return out;
}

/// Small integers (exact sums that cancel to 0), explicit stored zeros, and
/// a -0.0 — the values where a reordered or re-seeded fold shows.
std::vector<Triplet> AwkwardTriplets(int64_t rows, int64_t cols, int n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> out;
  for (int i = 0; i < n; ++i) {
    double v = static_cast<double>(rng.NextInt(-2, 2));
    if (i % 17 == 0) v = -0.0;
    out.push_back(Triplet{rng.NextInt(0, rows - 1), rng.NextInt(0, cols - 1), v});
  }
  return out;
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

void ExpectBitwise(const std::vector<double>& got, const std::vector<double>& want,
                   const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " [" << i << "]: " << got[i] << " vs " << want[i];
  }
}

void ExpectBitwise(const SparseMatrixCSR& got, const SparseMatrixCSR& want,
                   const std::string& what) {
  EXPECT_EQ(got.rows(), want.rows()) << what;
  EXPECT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(got.row_ptr(), want.row_ptr()) << what;
  EXPECT_EQ(got.col_idx(), want.col_idx()) << what;
  ExpectBitwise(got.values(), want.values(), what);
}

algebra::CsrView ViewOf(const SparseMatrixCSR& m) {
  return algebra::CsrView{m.rows(), m.cols(), m.row_ptr().data(),
                          m.col_idx().data(), m.values().data()};
}

// CSR dot product, as SpMV was written before the kernels.
std::vector<double> RefSpMV(const SparseMatrixCSR& m, const std::vector<double>& x) {
  std::vector<double> y(static_cast<size_t>(m.rows()), 0.0);
  for (int64_t r = 0; r < m.rows(); ++r) {
    double s = 0.0;
    for (int64_t i = m.row_ptr()[r]; i < m.row_ptr()[r + 1]; ++i) {
      s += m.values()[i] * x[m.col_idx()[i]];
    }
    y[r] = s;
  }
  return y;
}

// Gustavson with a zero-tested dense workspace, as SpGEMM was written
// before the kernels.
SparseMatrixCSR RefSpGEMM(const SparseMatrixCSR& a, const SparseMatrixCSR& b) {
  std::vector<double> workspace(static_cast<size_t>(b.cols()), 0.0);
  std::vector<int64_t> touched;
  std::vector<Triplet> out;
  for (int64_t r = 0; r < a.rows(); ++r) {
    touched.clear();
    for (int64_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      int64_t k = a.col_idx()[i];
      double av = a.values()[i];
      for (int64_t j = b.row_ptr()[k]; j < b.row_ptr()[k + 1]; ++j) {
        int64_t c = b.col_idx()[j];
        if (workspace[c] == 0.0) touched.push_back(c);
        workspace[c] += av * b.values()[j];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (int64_t c : touched) {
      double v = workspace[c];
      workspace[c] = 0.0;
      if (v != 0.0) out.push_back(Triplet{r, c, v});
    }
  }
  return SparseMatrixCSR::FromTriplets(a.rows(), b.cols(), out).ValueOrDie();
}

// Queue BFS.
std::vector<int64_t> RefBfs(const graph::CsrGraph& g, int64_t source) {
  std::vector<int64_t> level(static_cast<size_t>(g.num_nodes()), -1);
  if (source < 0 || source >= g.num_nodes()) return level;
  std::vector<int64_t> queue = {source};
  level[source] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    int64_t u = queue[head];
    for (const int64_t* v = g.neighbors_begin(u); v != g.neighbors_end(u); ++v) {
      if (level[*v] < 0) {
        level[*v] = level[u] + 1;
        queue.push_back(*v);
      }
    }
  }
  return level;
}

// Push-scatter PageRank with uniform dangling redistribution.
graph::PageRankResult RefPageRank(const graph::CsrGraph& g,
                                  const graph::PageRankOptions& opts) {
  graph::PageRankResult out;
  int64_t n = g.num_nodes();
  if (n == 0) return out;
  out.rank.assign(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (int64_t iter = 0; iter < opts.max_iters; ++iter) {
    double dangling = 0.0;
    for (int64_t u = 0; u < n; ++u) {
      if (g.out_degree(u) == 0) dangling += out.rank[u];
    }
    double base = (1.0 - opts.damping) / static_cast<double>(n) +
                  opts.damping * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (int64_t u = 0; u < n; ++u) {
      int64_t deg = g.out_degree(u);
      if (deg == 0) continue;
      double share = opts.damping * out.rank[u] / static_cast<double>(deg);
      for (const int64_t* v = g.neighbors_begin(u); v != g.neighbors_end(u); ++v) {
        next[*v] += share;
      }
    }
    double delta = 0.0;
    for (int64_t u = 0; u < n; ++u) delta += std::fabs(next[u] - out.rank[u]);
    out.rank.swap(next);
    out.final_delta = delta;
    ++out.iterations;
    if (delta < opts.epsilon) break;
  }
  return out;
}

// Ring-generic references: the same loops with ⊕/⊗ from the registry and
// lifted values mapped to `one`.
double Lifted(const Semiring& sr, double v) { return sr.lift ? sr.one_f : v; }

std::vector<double> RefMxV(const Semiring& sr, const SparseMatrixCSR& m,
                           const std::vector<double>& x, std::vector<double> y) {
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t i = m.row_ptr()[r]; i < m.row_ptr()[r + 1]; ++i) {
      double t = algebra::ApplyF(sr.times, Lifted(sr, m.values()[i]),
                                 Lifted(sr, x[m.col_idx()[i]]));
      y[r] = algebra::ApplyF(sr.plus, y[r], t);
    }
  }
  return y;
}

std::vector<Triplet> RefMxM(const Semiring& sr, const SparseMatrixCSR& a,
                            const SparseMatrixCSR& b) {
  std::vector<Triplet> out;
  for (int64_t r = 0; r < a.rows(); ++r) {
    std::map<int64_t, double> row;  // column -> fold
    for (int64_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      int64_t k = a.col_idx()[i];
      for (int64_t j = b.row_ptr()[k]; j < b.row_ptr()[k + 1]; ++j) {
        double t = algebra::ApplyF(sr.times, Lifted(sr, a.values()[i]),
                                   Lifted(sr, b.values()[j]));
        auto [it, fresh] = row.emplace(b.col_idx()[j], sr.zero_f);
        it->second = algebra::ApplyF(sr.plus, it->second, t);
      }
    }
    for (const auto& [c, v] : row) {
      if (v != sr.zero_f) out.push_back(Triplet{r, c, v});
    }
  }
  return out;
}

// One y[v] per touched v, in first-touch order.
algebra::SparseVector RefVxM(const Semiring& sr, const algebra::SparseVector& x,
                             const SparseMatrixCSR& m,
                             const std::vector<uint8_t>& mask) {
  algebra::SparseVector y;
  std::map<int64_t, size_t> slot;
  for (size_t e = 0; e < x.index.size(); ++e) {
    int64_t u = x.index[e];
    for (int64_t i = m.row_ptr()[u]; i < m.row_ptr()[u + 1]; ++i) {
      int64_t v = m.col_idx()[i];
      if (mask[v]) continue;
      double t = algebra::ApplyF(sr.times, Lifted(sr, x.value[e]),
                                 Lifted(sr, m.values()[i]));
      auto [it, fresh] = slot.emplace(v, y.index.size());
      if (fresh) {
        y.index.push_back(v);
        y.value.push_back(sr.zero_f);
      }
      y.value[it->second] = algebra::ApplyF(sr.plus, y.value[it->second], t);
    }
  }
  return y;
}

struct Shape {
  int64_t rows, cols;
  int nnz;
};

// Includes 1xN, Nx1, empty rows (sparser than rows), and a large case whose
// row range splits into several morsels.
const std::vector<Shape> kShapes = {
    {1, 40, 25}, {40, 1, 25}, {30, 20, 12}, {30, 20, 150}, {3000, 2000, 60000}};

TEST(CsrKernelTest, SpMVMatchesCsrDotProduct) {
  LoweringGuard guard;
  for (const Shape& sh : kShapes) {
    for (bool awkward : {false, true}) {
      std::vector<Triplet> trips = awkward ? AwkwardTriplets(sh.rows, sh.cols, sh.nnz, 7)
                                           : RandomTriplets(sh.rows, sh.cols, sh.nnz, 7);
      trips.push_back(Triplet{0, 0, 0.0});  // explicit stored zero
      ASSERT_OK_AND_ASSIGN(SparseMatrixCSR m,
                           SparseMatrixCSR::FromTriplets(sh.rows, sh.cols, trips));
      Rng rng(11);
      std::vector<double> x(static_cast<size_t>(sh.cols));
      for (double& v : x) v = awkward ? static_cast<double>(rng.NextInt(-3, 3)) : rng.NextDouble(-1, 1);
      std::vector<double> want = RefSpMV(m, x);
      for (int threads : {1, 4}) {
        SetThreadCount(threads);
        ASSERT_OK_AND_ASSIGN(std::vector<double> got, m.SpMV(x));
        ExpectBitwise(got, want, StrCat(sh.rows, "x", sh.cols, " nnz=", sh.nnz,
                                        " awkward=", awkward, " t=", threads));
      }
    }
  }
}

TEST(CsrKernelTest, SpGEMMMatchesGustavson) {
  LoweringGuard guard;
  struct Case {
    Shape a;
    int64_t b_cols;
    int b_nnz;
  };
  const std::vector<Case> cases = {
      {{1, 30, 20}, 1, 20},        // 1xN times Nx1
      {{30, 1, 20}, 25, 20},       // outer product
      {{12, 10, 60}, 14, 60},
      {{40, 30, 20}, 40, 25},      // mostly empty rows
      {{2000, 2000, 20000}, 2000, 20000},
  };
  for (const Case& c : cases) {
    for (bool awkward : {false, true}) {
      auto gen = awkward ? AwkwardTriplets : RandomTriplets;
      ASSERT_OK_AND_ASSIGN(
          SparseMatrixCSR a,
          SparseMatrixCSR::FromTriplets(c.a.rows, c.a.cols, gen(c.a.rows, c.a.cols, c.a.nnz, 5)));
      ASSERT_OK_AND_ASSIGN(
          SparseMatrixCSR b,
          SparseMatrixCSR::FromTriplets(c.a.cols, c.b_cols, gen(c.a.cols, c.b_cols, c.b_nnz, 9)));
      SparseMatrixCSR want = RefSpGEMM(a, b);
      for (int threads : {1, 4}) {
        SetThreadCount(threads);
        ASSERT_OK_AND_ASSIGN(SparseMatrixCSR got, a.SpGEMM(b));
        ExpectBitwise(got, want, StrCat(c.a.rows, "x", c.a.cols, "x", c.b_cols,
                                        " awkward=", awkward, " t=", threads));
      }
    }
  }
}

TEST(CsrKernelTest, EmptyAndShapeErrors) {
  ASSERT_OK_AND_ASSIGN(SparseMatrixCSR empty, SparseMatrixCSR::FromTriplets(3, 4, {}));
  ASSERT_OK_AND_ASSIGN(std::vector<double> y, empty.SpMV(std::vector<double>(4, 1.0)));
  ExpectBitwise(y, {0.0, 0.0, 0.0}, "empty SpMV");
  EXPECT_FALSE(empty.SpMV(std::vector<double>(3, 1.0)).ok());
  EXPECT_FALSE(empty.SpGEMM(empty).ok());
  const Semiring& pt = Ring("plus_times");
  std::vector<double> short_y(2);
  EXPECT_FALSE(algebra::MxV(pt, ViewOf(empty), std::vector<double>(4), &short_y).ok());
  algebra::PushWorkspace ws(4);
  EXPECT_FALSE(algebra::VxM(pt, {{3}, {1.0}}, ViewOf(empty), &ws).ok());
  EXPECT_FALSE(algebra::VxM(pt, {{0, 1}, {1.0}}, ViewOf(empty), &ws).ok());
  algebra::PushWorkspace small(2);
  EXPECT_FALSE(algebra::VxM(pt, {{0}, {1.0}}, ViewOf(empty), &small).ok());
}

// Every registered ring (including the lifted count ring and one ad-hoc
// pairing that takes the generic ApplyF path) on the same three kernels.
TEST(CsrKernelTest, EveryRingMatchesReferenceFolds) {
  LoweringGuard guard;
  std::vector<Semiring> rings = algebra::SemiringRegistry();
  rings.push_back(Semiring{"max_plus", algebra::MonoidOp::kMax, algebra::MonoidOp::kAdd,
                           -std::numeric_limits<double>::infinity(), 0.0, 0, 0, false});
  for (const Semiring& sr : rings) {
    // Non-negative small integers keep every ring on its domain; or_and
    // sees 0/1 values.
    Rng rng(31);
    auto value = [&] {
      return sr.plus == algebra::MonoidOp::kOr ? static_cast<double>(rng.NextInt(0, 1))
                                               : static_cast<double>(rng.NextInt(0, 4));
    };
    std::vector<Triplet> ta, tb;
    for (int i = 0; i < 30000; ++i) ta.push_back(Triplet{rng.NextInt(0, 2999), rng.NextInt(0, 299), value()});
    for (int i = 0; i < 3000; ++i) tb.push_back(Triplet{rng.NextInt(0, 299), rng.NextInt(0, 199), value()});
    ASSERT_OK_AND_ASSIGN(SparseMatrixCSR a, SparseMatrixCSR::FromTriplets(3000, 300, ta));
    ASSERT_OK_AND_ASSIGN(SparseMatrixCSR b, SparseMatrixCSR::FromTriplets(300, 200, tb));
    std::vector<double> x(300);
    for (double& v : x) v = value();
    std::vector<double> seeds(3000, sr.zero_f);
    for (size_t i = 0; i < seeds.size(); i += 7) seeds[i] = value();
    std::vector<double> want_y = RefMxV(sr, a, x, seeds);
    std::vector<Triplet> want_c = RefMxM(sr, a, b);
    algebra::SparseVector frontier{{5, 17, 5, 2999, 0}, {1.0, 2.0, 3.0, 0.0, 4.0}};
    std::vector<uint8_t> mask(300, 0);
    for (size_t i = 0; i < mask.size(); i += 3) mask[i] = 1;
    algebra::SparseVector want_push = RefVxM(sr, frontier, a, mask);
    // A BFS-shaped push: a pattern matrix (every entry 2.0) and equal x
    // values, where an idempotent ⊕ may skip repeat touches.
    std::vector<Triplet> tp = a.ToTriplets();
    for (Triplet& t : tp) t.value = 2.0;
    ASSERT_OK_AND_ASSIGN(SparseMatrixCSR a_pat, SparseMatrixCSR::FromTriplets(3000, 300, tp));
    algebra::CsrView pat_view = ViewOf(a);
    pat_view.values = nullptr;
    pat_view.pattern_value = 2.0;
    algebra::SparseVector flat{{5, 17, 5, 2999, 0}, {3.0, 3.0, 3.0, 3.0, 3.0}};
    algebra::SparseVector want_flat = RefVxM(sr, flat, a_pat, mask);
    for (int threads : {1, 4}) {
      SetThreadCount(threads);
      const std::string what = StrCat(sr.name, " t=", threads);
      std::vector<double> y = seeds;
      ASSERT_OK(algebra::MxV(sr, ViewOf(a), x, &y));
      ExpectBitwise(y, want_y, what + " MxV");
      ASSERT_OK_AND_ASSIGN(algebra::CsrMatrix c, algebra::MxM(sr, ViewOf(a), ViewOf(b)));
      ASSERT_EQ(c.row_ptr.back(), static_cast<int64_t>(want_c.size())) << what;
      for (size_t e = 0, r = 0; e < want_c.size(); ++e) {
        while (c.row_ptr[r + 1] <= static_cast<int64_t>(e)) ++r;
        EXPECT_EQ(static_cast<int64_t>(r), want_c[e].row) << what << " MxM " << e;
        EXPECT_EQ(c.col_idx[e], want_c[e].col) << what << " MxM " << e;
        EXPECT_EQ(Bits(c.values[e]), Bits(want_c[e].value)) << what << " MxM " << e;
      }
      algebra::PushWorkspace ws(300);
      for (size_t v = 0; v < mask.size(); ++v) {
        if (mask[v]) ws.Mask(static_cast<int64_t>(v));
      }
      for (int rep = 0; rep < 2; ++rep) {  // the accumulator comes back clear
        ASSERT_OK_AND_ASSIGN(algebra::SparseVector push,
                             algebra::VxM(sr, frontier, ViewOf(a), &ws));
        EXPECT_EQ(push.index, want_push.index) << what << " VxM";
        ExpectBitwise(push.value, want_push.value, what + " VxM");
        ASSERT_OK_AND_ASSIGN(algebra::SparseVector flat_push,
                             algebra::VxM(sr, flat, pat_view, &ws));
        EXPECT_EQ(flat_push.index, want_flat.index) << what << " uniform VxM";
        ExpectBitwise(flat_push.value, want_flat.value, what + " uniform VxM");
      }
    }
  }
}

TEST(CsrKernelTest, TransposeIsAStableCountingSort) {
  // Row 0 lists column 1 twice (a multi-edge); row 2 has a self-loop.
  const std::vector<int64_t> row_ptr = {0, 3, 3, 5};
  const std::vector<int64_t> col_idx = {1, 1, 2, 2, 0};
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0};
  algebra::CsrView a{3, 3, row_ptr.data(), col_idx.data(), values.data()};
  algebra::CsrMatrix t = algebra::Transpose(a);
  EXPECT_EQ(t.row_ptr, (std::vector<int64_t>{0, 1, 3, 5}));
  EXPECT_EQ(t.col_idx, (std::vector<int64_t>{2, 0, 0, 0, 2}));
  EXPECT_EQ(t.values, (std::vector<double>{5.0, 1.0, 2.0, 3.0, 4.0}));
  a.values = nullptr;
  a.pattern_value = 7.0;
  algebra::CsrMatrix tp = algebra::Transpose(a);
  EXPECT_TRUE(tp.values.empty());
  EXPECT_EQ(tp.view().pattern_value, 7.0);
  EXPECT_EQ(tp.col_idx, t.col_idx);
}

// Graphs covering self-loops, multi-edges, dangling nodes, isolated
// components and non-dense original ids; the last is large enough for the
// PageRank MxV to split into several morsels.
std::vector<graph::CsrGraph> TestGraphs() {
  std::vector<graph::CsrGraph> out;
  out.push_back(graph::CsrGraph::FromEdges({0, 0, 1, 2, 2, 3}, {0, 1, 1, 3, 3, 4}));
  out.push_back(graph::CsrGraph::FromEdges({-7, 1000000007, 42, 42, 1LL << 40},
                                           {42, -7, 1LL << 40, 1LL << 40, 9}));
  for (int64_t nodes : {50, 5000}) {
    Rng rng(23 + nodes);
    std::vector<int64_t> src, dst;
    for (int64_t i = 0; i < nodes * 8; ++i) {
      int64_t u = rng.NextInt(0, nodes - 1);
      if (u % 10 == 3) continue;  // every tenth node dangles
      src.push_back(u * 3);       // non-dense ids: multiples of 3
      dst.push_back(rng.NextInt(0, nodes - 1) * 3);
    }
    out.push_back(graph::CsrGraph::FromEdges(src, dst));
  }
  return out;
}

TEST(CsrKernelTest, BfsMatchesQueueBfs) {
  LoweringGuard guard;
  for (const graph::CsrGraph& g : TestGraphs()) {
    for (int64_t source : {int64_t{0}, int64_t{1}, g.num_nodes() / 2, g.num_nodes() - 1,
                           g.num_nodes(), int64_t{-1}}) {
      std::vector<int64_t> want = RefBfs(g, source);
      for (int threads : {1, 4}) {
        SetThreadCount(threads);
        EXPECT_EQ(graph::Bfs(g, source), want)
            << "nodes=" << g.num_nodes() << " source=" << source << " t=" << threads;
      }
    }
  }
}

TEST(CsrKernelTest, PageRankMatchesScatter) {
  LoweringGuard guard;
  for (const graph::CsrGraph& g : TestGraphs()) {
    graph::PageRankOptions opts;
    opts.max_iters = 30;
    graph::PageRankResult want = RefPageRank(g, opts);
    for (int threads : {1, 4}) {
      SetThreadCount(threads);
      graph::PageRankResult got = graph::PageRank(g, opts);
      const std::string what = StrCat("nodes=", g.num_nodes(), " t=", threads);
      EXPECT_EQ(got.iterations, want.iterations) << what;
      EXPECT_EQ(Bits(got.final_delta), Bits(want.final_delta)) << what;
      ExpectBitwise(got.rank, want.rank, what);
    }
  }
}

// The CSR bridge: an associative array over dense int keys becomes the
// matrix FromTriplets builds, and MxM on it is Join⊗ followed by Reduce⊕
// (and the Gustavson reference loop).
TEST(CsrKernelTest, AssocBridgeAndJoinReduceEquivalence) {
  const Semiring& pt = Ring("plus_times");
  // Unsorted, with a duplicate key (2,1) that folds in entry order.
  std::vector<Triplet> ta = {{2, 1, 1.5}, {0, 3, -2.0}, {2, 1, 0.25}, {1, 0, 0.0}, {0, 0, 4.0}};
  ASSERT_OK_AND_ASSIGN(AssocArray aa, AssocArray::FromTriplets(ta, "i", "k", "v"));
  ASSERT_OK_AND_ASSIGN(algebra::CsrMatrix a, algebra::CsrFromAssoc(aa, pt, 3, 4));
  ASSERT_OK_AND_ASSIGN(SparseMatrixCSR want, SparseMatrixCSR::FromTriplets(3, 4, ta));
  EXPECT_EQ(a.row_ptr, want.row_ptr());
  EXPECT_EQ(a.col_idx, want.col_idx());
  ExpectBitwise(a.values, want.values(), "bridge");  // stored zero kept
  ASSERT_OK_AND_ASSIGN(algebra::CsrMatrix counts,
                       algebra::CsrFromAssoc(aa, Ring("count"), 3, 4));
  EXPECT_EQ(counts.values, (std::vector<double>{1.0, 1.0, 1.0, 2.0}));
  EXPECT_FALSE(algebra::CsrFromAssoc(aa, pt, 2, 4).ok());  // row 2 out of range
  EXPECT_FALSE(algebra::CsrFromAssoc(Entries({{1, 1.0}}), pt, 2, 2).ok());

  // C = A·B three ways: MxM on bridged operands, Join⊗ + Reduce⊕ on the
  // associative arrays, and the SpGEMM reference loop.
  std::vector<Triplet> rand_a = RandomTriplets(20, 15, 90, 3);
  std::vector<Triplet> rand_b = RandomTriplets(15, 25, 90, 4);
  ASSERT_OK_AND_ASSIGN(SparseMatrixCSR sa, SparseMatrixCSR::FromTriplets(20, 15, rand_a));
  ASSERT_OK_AND_ASSIGN(SparseMatrixCSR sb, SparseMatrixCSR::FromTriplets(15, 25, rand_b));
  ASSERT_OK_AND_ASSIGN(AssocArray a2, AssocArray::FromTriplets(sa.ToTriplets(), "i", "k", "v"));
  ASSERT_OK_AND_ASSIGN(AssocArray b2, AssocArray::FromTriplets(sb.ToTriplets(), "k", "j", "v"));
  ASSERT_OK_AND_ASSIGN(algebra::CsrMatrix ca, algebra::CsrFromAssoc(a2, pt, 20, 15));
  ASSERT_OK_AND_ASSIGN(algebra::CsrMatrix cb, algebra::CsrFromAssoc(b2, pt, 15, 25));
  ASSERT_OK_AND_ASSIGN(algebra::CsrMatrix cc, algebra::MxM(pt, ca.view(), cb.view()));
  SparseMatrixCSR ref = RefSpGEMM(sa, sb);
  EXPECT_EQ(cc.row_ptr, ref.row_ptr());
  EXPECT_EQ(cc.col_idx, ref.col_idx());
  ExpectBitwise(cc.values, ref.values(), "MxM vs Gustavson");
  // Join⊗ + Reduce⊕ keeps annihilated (0.0) sums that MxM does not store.
  ASSERT_OK_AND_ASSIGN(AssocArray joined, algebra::Join(a2, b2, pt));
  ASSERT_OK_AND_ASSIGN(AssocArray reduced, algebra::Reduce(joined, {"i", "j"}, pt));
  ASSERT_OK_AND_ASSIGN(algebra::CsrMatrix via_join, algebra::CsrFromAssoc(reduced, pt, 20, 25));
  std::vector<int64_t> cols;
  std::vector<double> vals;
  for (int64_t r = 0; r < 20; ++r) {
    for (int64_t i = via_join.row_ptr[r]; i < via_join.row_ptr[r + 1]; ++i) {
      if (via_join.values[i] == 0.0) continue;
      cols.push_back(via_join.col_idx[i]);
      vals.push_back(via_join.values[i]);
    }
  }
  EXPECT_EQ(cols, cc.col_idx);
  ExpectBitwise(vals, cc.values, "MxM vs Join+Reduce");
}

TEST(CsrKernelTest, LoweredCountersTrackTheFourOps) {
  auto& reg = telemetry::MetricsRegistry::Global();
  auto value = [&](const char* name) { return reg.counter(name)->value(); };
  const int64_t ops0 = value("algebra.ops_lowered");
  const int64_t spmv0 = value("algebra.spmv_lowered");
  const int64_t spgemm0 = value("algebra.spgemm_lowered");
  const int64_t bfs0 = value("algebra.bfs_lowered");
  const int64_t pr0 = value("algebra.pagerank_lowered");
  ASSERT_OK_AND_ASSIGN(SparseMatrixCSR m,
                       SparseMatrixCSR::FromTriplets(2, 2, {{0, 1, 1.0}, {1, 0, 2.0}}));
  ASSERT_OK(m.SpMV({1.0, 1.0}).status());
  ASSERT_OK(m.SpGEMM(m).status());
  graph::CsrGraph g = graph::CsrGraph::FromEdges({0, 1}, {1, 0});
  graph::Bfs(g, 0);
  graph::PageRank(g, {});
  EXPECT_EQ(value("algebra.spmv_lowered") - spmv0, 1);
  EXPECT_EQ(value("algebra.spgemm_lowered") - spgemm0, 1);
  EXPECT_EQ(value("algebra.bfs_lowered") - bfs0, 1);
  EXPECT_EQ(value("algebra.pagerank_lowered") - pr0, 1);
  EXPECT_EQ(value("algebra.ops_lowered") - ops0, 4);
}

// ---------------------------------------------------------------------------
// Optimizer recognition.
// ---------------------------------------------------------------------------

TEST(LowerSemiringPassTest, CountsLowerableOps) {
  PlanPtr agg = Plan::Aggregate(Plan::Scan("t"), {"g"},
                                {AggSpec{AggFunc::kSum, Col("v"), "s"}});
  EXPECT_TRUE(SemiringLowerable(*agg));
  EXPECT_EQ(CountLowerableOps(*agg), 1);
  PlanPtr avg = Plan::Aggregate(Plan::Scan("t"), {"g"},
                                {AggSpec{AggFunc::kAvg, Col("v"), "m"}});
  EXPECT_FALSE(SemiringLowerable(*avg));
  PlanPtr mm = Plan::MatMul(Plan::Scan("a"), Plan::Scan("b"));
  EXPECT_TRUE(SemiringLowerable(*mm));
  // Nested: Aggregate over MatMul counts both.
  PlanPtr both = Plan::Aggregate(mm, {"i"},
                                 {AggSpec{AggFunc::kSum, Col("v"), "s"}});
  EXPECT_EQ(CountLowerableOps(*both), 2);
}

}  // namespace
}  // namespace nexus
