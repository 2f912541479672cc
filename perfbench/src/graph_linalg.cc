// graph_linalg: the non-relational engines under one client. One closed-loop
// client runs
//   pagerank  PageRank over 8192 nodes x 8 out-edges on graphd (BDL)
//   spgemm    a sparse product on linalg (SpGEMM), row sums of the result
//   gemm      a dense product on linalg (la.MatMulBlk), row sums
//   array     window then regrid over a 256 x 256 grid on arraydb (BDL)
//   iterate   a client-driven Query::IterateUntil loop: each round multiplies
//             by a dense matrix on linalg and smooths with a window on
//             arraydb, so no single provider can run the loop whole
// With semi-ring lowering on (the default), the algebra kernels do most of
// the work here; relational, expressions and CSV barely show. Between reads
// the client also loads small batches into a relational side table and
// refreshes two views on it.
#include "common/random.h"
#include "frontend/query.h"
#include "provider/provider.h"
#include "workload.h"

namespace perfbench {

using namespace nexus;  // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

constexpr int64_t kNodes = 8192;
constexpr int64_t kOutEdges = 8;
constexpr int64_t kSparseN = 1024;
constexpr double kSparseDensity = 0.005;
constexpr int64_t kDenseN = 160;
constexpr int64_t kGrid = 256;
constexpr int64_t kLoopN = 256;
constexpr int64_t kLoopRounds = 6;

SchemaPtr MatrixSchema(const char* row, const char* col, const char* attr) {
  return Schema::Make({Field::Dim(row), Field::Dim(col),
                       Field::Attr(attr, DataType::kFloat64)})
      .ValueOrDie();
}

/// Coordinate-list CSV of a rows x cols matrix; each cell is present with
/// probability `density` and holds a value in [-1, 1) with 4 decimals.
std::string MatrixCsv(uint64_t seed, int64_t rows, int64_t cols, double density,
                      const char* row, const char* col, const char* attr) {
  Rng rng(seed);
  std::string out = std::string(row) + "," + col + "," + attr + "\n";
  char line[96];
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (density < 1.0 && !rng.NextBool(density)) continue;
      int64_t v = rng.NextInt(-10000, 9999);
      int n = std::snprintf(line, sizeof(line), "%lld,%lld,%s%lld.%04lld\n",
                            static_cast<long long>(r), static_cast<long long>(c),
                            v < 0 ? "-" : "", static_cast<long long>(std::llabs(v) / 10000),
                            static_cast<long long>(std::llabs(v) % 10000));
      out.append(line, static_cast<size_t>(n));
    }
  }
  return out;
}

std::string EdgesCsv(uint64_t seed) {
  Rng rng(seed);
  std::string out = "src,dst\n";
  char line[64];
  for (int64_t s = 0; s < kNodes; ++s) {
    for (int64_t e = 0; e < kOutEdges; ++e) {
      int n = std::snprintf(line, sizeof(line), "%lld,%lld\n", static_cast<long long>(s),
                            static_cast<long long>(rng.NextInt(0, kNodes - 1)));
      out.append(line, static_cast<size_t>(n));
    }
  }
  return out;
}

}  // namespace

Outcome RunGraphLinalg(const Options& options) {
  FeedSpec feed;
  feed.table = "events";
  feed.batch_rows = 250;
  feed.rate_per_s = 5.0;
  feed.base_rows = 100000;
  feed.views = {
      {"events_by_region",
       "from events where amount > 250.0 group by region "
       "aggregate sum(qty) as q, count(*) as n"},
      {"events_by_segment",
       "from events join cust_dim on cust = cust group by segment "
       "aggregate sum(qty) as q, count(*) as n"},
  };

  const uint64_t seed = options.seed;
  const std::string edges_csv = EdgesCsv(seed);
  const std::string s1_csv = MatrixCsv(seed + 1, kSparseN, kSparseN, kSparseDensity, "i", "k", "a");
  const std::string s2_csv = MatrixCsv(seed + 2, kSparseN, kSparseN, kSparseDensity, "k", "j", "b");
  const std::string d1_csv = MatrixCsv(seed + 3, kDenseN, kDenseN, 1.0, "i", "k", "a");
  const std::string d2_csv = MatrixCsv(seed + 4, kDenseN, kDenseN, 1.0, "k", "j", "b");
  const std::string grid_csv = MatrixCsv(seed + 5, kGrid, kGrid, 1.0, "x", "y", "t");
  const std::string p_csv = MatrixCsv(seed + 6, kLoopN, kLoopN, 1.0, "i", "k", "p");
  const std::string x0_csv = MatrixCsv(seed + 7, kLoopN, 1, 1.0, "i", "j", "v");
  const std::string dim_csv = CustsCsv(seed + 8, kDimCusts);
  const std::string events_csv = FeedCsv(seed + 9, 0, feed.base_rows, kDimCusts);
  feed.batches = FeedBatchCount(options, feed.rate_per_s);
  const std::vector<TablePtr> batches = FeedBatches(seed + 9, feed);

  Query loop_body = Query::From("P").MatMul(Query::Loop(), "v").Window({{"i", 1}});
  WorkloadSpec spec;
  spec.templates = {
      {"pagerank", "from edges pagerank src dst iters 16 eps 0.0", nullptr, {}},
      {"spgemm", "",
       Query::From("S1").MatMul(Query::From("S2"), "c").GroupBy({"i"}, {Sum(Col("c"), "s")})
           .OrderBy("i").plan(),
       {}},
      {"gemm", "",
       Query::From("D1").MatMul(Query::From("D2"), "c").GroupBy({"i"}, {Sum(Col("c"), "s")})
           .OrderBy("i").plan(),
       {}},
      {"array", "from grid window x 1, y 1 using avg regrid x/8, y/8 using max", nullptr, {}},
      {"iterate", "", Query::From("x0").IterateUntil(loop_body, kLoopRounds).plan(), {}},
  };
  spec.setup_reps = 8;
  spec.warmup_reps = 8;
  spec.nominal_qps_per_reader = 10.0;
  spec.build = [&](World* world) -> Status {
    world->cluster = std::make_unique<Cluster>();
    Cluster* c = world->cluster.get();
    NEXUS_RETURN_NOT_OK(c->AddServer("graphd", MakeGraphProvider()));
    NEXUS_RETURN_NOT_OK(c->AddServer("linalg", MakeLinalgProvider()));
    NEXUS_RETURN_NOT_OK(c->AddServer("arraydb", MakeArrayProvider()));
    NEXUS_RETURN_NOT_OK(c->AddServer("relstore", MakeRelationalProvider()));
    SchemaPtr edges = Schema::Make({Field::Attr("src", DataType::kInt64),
                                    Field::Attr("dst", DataType::kInt64)})
                          .ValueOrDie();
    struct Load {
      const char* server;
      const char* table;
      const std::string* csv;
      SchemaPtr schema;
    };
    const Load loads[] = {
        {"graphd", "edges", &edges_csv, edges},
        {"linalg", "S1", &s1_csv, MatrixSchema("i", "k", "a")},
        {"linalg", "S2", &s2_csv, MatrixSchema("k", "j", "b")},
        {"linalg", "D1", &d1_csv, MatrixSchema("i", "k", "a")},
        {"linalg", "D2", &d2_csv, MatrixSchema("k", "j", "b")},
        {"arraydb", "grid", &grid_csv, MatrixSchema("x", "y", "t")},
        {"linalg", "P", &p_csv, MatrixSchema("i", "k", "p")},
        {"arraydb", "x0", &x0_csv, MatrixSchema("i", "j", "v")},
        {"relstore", "cust_dim", &dim_csv, CustsSchema()},
        {"relstore", "events", &events_csv, FeedSchema()},
    };
    for (const Load& l : loads) {
      NEXUS_RETURN_NOT_OK(LoadCsvTable(c, l.server, l.table, *l.csv, l.schema, &world->load));
      world->tables.emplace_back(l.server, l.table);
    }
    world->feed = std::make_unique<IngestFeed>(c->provider("relstore")->catalog(), feed,
                                               batches);
    world->coordinator = std::make_unique<Coordinator>(c);
    return world->feed->RegisterViews();
  };
  spec.execute = ExecuteOnCoordinator;
  return RunWorkload(options, std::move(spec));
}

}  // namespace perfbench
