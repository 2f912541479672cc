// E17 — Semi-ring kernel subsystem ("one algebra under all four engines"):
// SpMV, SpGEMM, BFS and PageRank run on the CSR semi-ring kernels
// (algebra/csr.h) — their only implementation — and aggregates run as
// Union⊕ on every engine, byte-identically.
//
// Arms (timed arms record the median of 11 interleaved reps):
//   e17_<op>_native / e17_<op>_algebra for op in spmv (65536 rows, 1M
//     entries), spgemm (1024), bfs (4 sources) and pagerank (65536 nodes x
//     8 edges): a bench-local reference loop (CSR dot product, Gustavson
//     with a zero-tested workspace, queue BFS, push-scatter PageRank) vs
//     the engine call, which runs the kernel (MxV, MxM, VxM over min_plus,
//     MxV over plus_times). Gates: bitwise-equal outputs — recorded as
//     e17_<op>_identical (rows=1) — and, in CI, kernel <= 1.5x reference.
//   e17_agg_<engine>: one SUM/MIN/MAX/COUNT aggregate-as-Union⊕ plan
//     executed by every provider — reference, relstore, arraydb, linalg,
//     graphd. Gate: all byte-identical to reference — recorded as
//     e17_agg_engines_identical (rows = agreeing engines).
//   e17_lower_offon_identical: the same plan through relstore with
//     NEXUS_SEMIRING off vs on, byte-identical (rows=1).
//   e17_ops_lowered: a coordinator run; the lower_semiring pass must count
//     the aggregate (last_optimizer_stats().ops_lowered > 0) and
//     ExplainAnalyze must carry the "algebra:" summary line.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "algebra/semiring.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/timer.h"
#include "expr/builder.h"
#include "federation/coordinator.h"
#include "graph/graph.h"
#include "linalg/sparse.h"
#include "provider/provider.h"

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

constexpr int64_t kAggRows = 1'000'000;

double MinMillis(const std::function<void()>& fn, int reps = 3) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.ElapsedMillis());
  }
  return best;
}

std::vector<linalg::Triplet> RandomTriplets(int64_t rows, int64_t cols,
                                            int64_t nnz, uint64_t seed) {
  Rng rng(seed);
  std::vector<linalg::Triplet> out;
  out.reserve(static_cast<size_t>(nnz));
  for (int64_t i = 0; i < nnz; ++i) {
    out.push_back(linalg::Triplet{rng.NextInt(0, rows - 1),
                                  rng.NextInt(0, cols - 1),
                                  rng.NextDouble(-1, 1)});
  }
  return out;
}

// Medians of `reps` interleaved runs of two arms; the order alternates per
// rep so a drifting host penalizes neither arm.
std::pair<double, double> InterleavedMedians(const std::function<void()>& ref,
                                             const std::function<void()>& kernel,
                                             int reps = 11) {
  std::vector<double> ref_ms, kernel_ms;
  auto time = [](const std::function<void()>& fn, std::vector<double>* out) {
    WallTimer t;
    fn();
    out->push_back(t.ElapsedMillis());
  };
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 0) {
      time(ref, &ref_ms);
      time(kernel, &kernel_ms);
    } else {
      time(kernel, &kernel_ms);
      time(ref, &ref_ms);
    }
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {median(ref_ms), median(kernel_ms)};
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Records one timed op: reference vs kernel medians plus the identity flag
// (the caller has already NEXUS_CHECKed bitwise equality).
void RecordTimed(benchjson::Recorder* json, const std::string& op, long long size,
                 const std::pair<double, double>& ms, const char* ref_name,
                 const char* kernel_name) {
  json->Record("e17_" + op + "_native", size, ms.first);
  json->Record("e17_" + op + "_algebra", size, ms.second);
  json->Record("e17_" + op + "_identical", 1, 0.0);
  std::printf("%s (size %lld)\n", op.c_str(), size);
  std::printf("  reference %-22s %9.2f ms\n", ref_name, ms.first);
  std::printf("  kernel    %-22s %9.2f ms   %.2fx, bitwise identical\n",
              kernel_name, ms.second, ms.second / std::max(ms.first, 1e-9));
}

// --- Reference loops: the implementations the kernels replaced. ----------

std::vector<double> RefSpMV(const linalg::SparseMatrixCSR& m,
                            const std::vector<double>& x) {
  std::vector<double> y(static_cast<size_t>(m.rows()), 0.0);
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_idx();
  const auto& v = m.values();
  for (int64_t r = 0; r < m.rows(); ++r) {
    double s = 0.0;
    for (int64_t i = rp[r]; i < rp[r + 1]; ++i) s += v[i] * x[ci[i]];
    y[r] = s;
  }
  return y;
}

std::vector<linalg::Triplet> RefSpGEMM(const linalg::SparseMatrixCSR& a,
                                       const linalg::SparseMatrixCSR& b) {
  std::vector<double> workspace(static_cast<size_t>(b.cols()), 0.0);
  std::vector<int64_t> touched;
  std::vector<linalg::Triplet> out;
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
      if (v != 0.0) out.push_back(linalg::Triplet{r, c, v});
    }
  }
  return out;
}

std::vector<int64_t> RefBfs(const graph::CsrGraph& g, int64_t source) {
  std::vector<int64_t> level(static_cast<size_t>(g.num_nodes()), -1);
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

graph::PageRankResult RefPageRank(const graph::CsrGraph& g,
                                  const graph::PageRankOptions& opts) {
  graph::PageRankResult out;
  int64_t n = g.num_nodes();
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

void RunSparseArms(benchjson::Recorder* json) {
  // SpMV: 65536 x 65536, 16 entries per row.
  const int64_t n = 1 << 16;
  linalg::SparseMatrixCSR a =
      linalg::SparseMatrixCSR::FromTriplets(n, n, RandomTriplets(n, n, 16 * n, 7))
          .ValueOrDie();
  Rng rng(11);
  std::vector<double> x(static_cast<size_t>(n));
  for (double& v : x) v = rng.NextDouble(-1, 1);
  std::vector<double> y_ref = RefSpMV(a, x);
  std::vector<double> y_kernel = a.SpMV(x).ValueOrDie();
  NEXUS_CHECK(y_ref.size() == y_kernel.size());
  for (size_t i = 0; i < y_ref.size(); ++i) NEXUS_CHECK(SameBits(y_ref[i], y_kernel[i]));
  RecordTimed(json, "spmv", n,
              InterleavedMedians([&] { RefSpMV(a, x); }, [&] { a.SpMV(x).ValueOrDie(); }),
              "CSR dot product", "MxV plus_times");

  // SpGEMM: 1024 x 1024 times 1024 x 1024, 20 entries per row each.
  const int64_t m = 1024;
  linalg::SparseMatrixCSR ga =
      linalg::SparseMatrixCSR::FromTriplets(m, m, RandomTriplets(m, m, 20 * m, 5))
          .ValueOrDie();
  linalg::SparseMatrixCSR gb =
      linalg::SparseMatrixCSR::FromTriplets(m, m, RandomTriplets(m, m, 20 * m, 9))
          .ValueOrDie();
  std::vector<linalg::Triplet> tr = RefSpGEMM(ga, gb);
  std::vector<linalg::Triplet> tk = ga.SpGEMM(gb).ValueOrDie().ToTriplets();
  NEXUS_CHECK(tr.size() == tk.size());
  for (size_t i = 0; i < tr.size(); ++i) {
    NEXUS_CHECK(tr[i].row == tk[i].row && tr[i].col == tk[i].col &&
                SameBits(tr[i].value, tk[i].value));
  }
  RecordTimed(json, "spgemm", m,
              InterleavedMedians([&] { RefSpGEMM(ga, gb); },
                                 [&] { ga.SpGEMM(gb).ValueOrDie(); }),
              "Gustavson", "MxM plus_times");

  // BFS and PageRank: 65536 nodes, 8 random out-edges each (the E8 graph).
  const int64_t nodes = 1 << 16;
  Rng grng(11);
  std::vector<int64_t> src, dst;
  for (int64_t e = 0; e < nodes * 8; ++e) {
    src.push_back(grng.NextInt(0, nodes - 1));
    dst.push_back(grng.NextInt(0, nodes - 1));
  }
  graph::CsrGraph g = graph::CsrGraph::FromEdges(src, dst);
  // Four sources per rep, so one rep lasts long enough to time steadily.
  const std::vector<int64_t> sources = {0, nodes / 4, nodes / 2, 3 * nodes / 4};
  for (int64_t s : sources) NEXUS_CHECK(RefBfs(g, s) == graph::Bfs(g, s));
  RecordTimed(json, "bfs", nodes,
              InterleavedMedians(
                  [&] {
                    for (int64_t s : sources) RefBfs(g, s);
                  },
                  [&] {
                    for (int64_t s : sources) graph::Bfs(g, s);
                  }),
              "queue BFS x4 sources", "VxM min_plus");

  graph::PageRankOptions opts;
  graph::PageRankResult pr_ref = RefPageRank(g, opts);
  graph::PageRankResult pr_kernel = graph::PageRank(g, opts);
  NEXUS_CHECK(pr_ref.iterations == pr_kernel.iterations);
  for (size_t i = 0; i < pr_ref.rank.size(); ++i) {
    NEXUS_CHECK(SameBits(pr_ref.rank[i], pr_kernel.rank[i]));
  }
  RecordTimed(json, "pagerank", nodes,
              InterleavedMedians([&] { RefPageRank(g, opts); },
                                 [&] { graph::PageRank(g, opts); }),
              "push scatter", "MxV plus_times");
}

TablePtr Fact17() {
  SchemaPtr s = Schema::Make({Field::Attr("g", DataType::kInt64),
                              Field::Attr("v", DataType::kFloat64),
                              Field::Attr("c", DataType::kInt64)})
                    .ValueOrDie();
  Rng rng(23);
  TableBuilder b(s);
  // Integer-valued doubles keep the grouped sums exact, so every engine's
  // fold can be compared byte-for-byte.
  for (int64_t i = 0; i < kAggRows; ++i) {
    NEXUS_CHECK(
        b.AppendRow({Value::Int64(rng.NextInt(0, 63)),
                     Value::Float64(static_cast<double>(rng.NextInt(-50, 50))),
                     Value::Int64(rng.NextInt(-10, 10))})
            .ok());
  }
  return b.Finish().ValueOrDie();
}

PlanPtr AggPlan() {
  return Plan::Aggregate(Plan::Scan("fact17"), {"g"},
                         {AggSpec{AggFunc::kSum, Col("v"), "sv"},
                          AggSpec{AggFunc::kSum, Col("c"), "sc"},
                          AggSpec{AggFunc::kMin, Col("v"), "lo"},
                          AggSpec{AggFunc::kMax, Col("c"), "hi"},
                          AggSpec{AggFunc::kCount, nullptr, "n"}});
}

void RunEngineArms(benchjson::Recorder* json) {
  TablePtr fact = Fact17();
  PlanPtr plan = AggPlan();
  struct Engine {
    const char* name;
    ProviderPtr provider;
  };
  std::vector<Engine> engines = {{"reference", MakeReferenceProvider()},
                                 {"relstore", MakeRelationalProvider()},
                                 {"arraydb", MakeArrayProvider()},
                                 {"linalg", MakeLinalgProvider()},
                                 {"graphd", MakeGraphProvider()}};
  for (Engine& e : engines) {
    NEXUS_CHECK(e.provider->catalog()->Put("fact17", Dataset(fact)).ok());
  }

  algebra::SetSemiringLoweringOverride(true);
  std::printf("\nSUM/MIN/MAX/COUNT aggregate over %lld rows\n",
              static_cast<long long>(kAggRows));
  TablePtr baseline;
  int identical = 0;
  for (Engine& e : engines) {
    NEXUS_CHECK(e.provider->ClaimsTree(*plan));
    Dataset out = e.provider->Execute(*plan).ValueOrDie();
    double ms = MinMillis([&] { e.provider->Execute(*plan).ValueOrDie(); });
    TablePtr t = out.table();
    NEXUS_CHECK(t != nullptr);
    if (baseline == nullptr) {
      baseline = t;
    } else {
      NEXUS_CHECK(t->Equals(*baseline));
      ++identical;
    }
    json->Record(std::string("e17_agg_") + e.name,
                 static_cast<long long>(t->num_rows()), ms);
    std::printf("  %-10s %9.2f ms\n", e.name, ms);
  }
  json->Record("e17_agg_engines_identical", identical, 0.0);
  std::printf("  all %d engines byte-identical to reference\n", identical);

  // Off vs on through the relational provider: the switch must not change a
  // single byte.
  algebra::SetSemiringLoweringOverride(false);
  TablePtr off = engines[1].provider->Execute(*plan).ValueOrDie().table();
  algebra::SetSemiringLoweringOverride(true);
  TablePtr on = engines[1].provider->Execute(*plan).ValueOrDie().table();
  NEXUS_CHECK(off->Equals(*on));
  json->Record("e17_lower_offon_identical", 1, 0.0);
  std::printf("  NEXUS_SEMIRING off vs on: byte-identical\n");

  // Planner visibility: the lower_semiring pass counts the aggregate and
  // ExplainAnalyze carries the algebra summary line.
  Cluster cluster;
  NEXUS_CHECK(cluster.AddServer("relstore", MakeRelationalProvider()).ok());
  NEXUS_CHECK(cluster.AddServer("reference", MakeReferenceProvider()).ok());
  NEXUS_CHECK(cluster.PutData("relstore", "fact17", Dataset(fact)).ok());
  Coordinator coord(&cluster);
  Dataset via_coord = coord.Execute(plan).ValueOrDie();
  NEXUS_CHECK(via_coord.table()->Equals(*baseline));
  OptimizerStats stats = coord.last_optimizer_stats();
  NEXUS_CHECK(stats.ops_lowered > 0);
  std::string explain = coord.ExplainAnalyze(plan).ValueOrDie();
  NEXUS_CHECK(explain.find("algebra:") != std::string::npos);
  json->Record("e17_ops_lowered", stats.ops_lowered, 0.0);
  json->AnnotateOptimizer(stats);
  std::printf("  optimizer ops_lowered=%lld; ExplainAnalyze has algebra line\n",
              static_cast<long long>(stats.ops_lowered));
  algebra::ClearSemiringLoweringOverride();
}

}  // namespace

int main() {
  benchjson::Recorder json("algebra");
  std::printf("E17: one semi-ring algebra under all four engines\n");
  std::printf("threads=%d\n\n", GetThreadCount());
  RunSparseArms(&json);
  RunEngineArms(&json);
  std::printf("\nall byte-identity checks passed\n");
  return 0;
}
