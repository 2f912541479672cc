// Tests for the graph analytics engine: CSR construction, PageRank, BFS,
// shortest paths, connected components, triangles.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using graph::CsrGraph;
using testing::I;
using testing::MakeSchema;
using testing::MakeTable;

TEST(CsrTest, CompactsSparseIds) {
  CsrGraph g = CsrGraph::FromEdges({100, 7, 100}, {7, 42, 42});
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  // Compact order is sorted original ids: 7, 42, 100.
  EXPECT_EQ(g.original_id(0), 7);
  EXPECT_EQ(g.original_id(2), 100);
  EXPECT_EQ(g.out_degree(2), 2);  // node 100
  EXPECT_EQ(g.out_degree(1), 0);  // node 42
}

// Every compaction path (identity 0..n-1, a dense span with holes or an
// offset, and a wide span including the int64 extremes) must produce the
// sorted-distinct-id numbering and the edge-order adjacency of the plain
// set + map construction.
TEST(CsrTest, CompactionMatchesSortedDistinctIds) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>> cases = {
      {{0, 1, 2, 2, 3}, {1, 2, 0, 3, 3}},                 // identity
      {{5, 9, 5, 7}, {7, 5, 12, 9}},                      // offset span, holes
      {{-3, -1, 0, 2, -3}, {2, -3, -1, 0, 2}},            // negative ids
      {{lo, hi, 0, 42}, {hi, lo, 42, lo}},                // extremes: hash path
      {{}, {}},
  };
  Rng rng(5);
  for (int64_t scale : {1, 3, 1000003}) {
    std::vector<int64_t> src, dst;
    for (int i = 0; i < 400; ++i) {
      src.push_back(rng.NextInt(0, 99) * scale);
      dst.push_back(rng.NextInt(0, 99) * scale);
    }
    cases.emplace_back(src, dst);
  }
  for (const auto& [src, dst] : cases) {
    std::set<int64_t> distinct(src.begin(), src.end());
    distinct.insert(dst.begin(), dst.end());
    std::vector<int64_t> ids(distinct.begin(), distinct.end());
    std::map<int64_t, int64_t> compact;
    for (size_t i = 0; i < ids.size(); ++i) compact[ids[i]] = static_cast<int64_t>(i);
    std::vector<std::vector<int64_t>> adj(ids.size());
    for (size_t e = 0; e < src.size(); ++e) adj[compact[src[e]]].push_back(compact[dst[e]]);

    CsrGraph g = CsrGraph::FromEdges(src, dst);
    ASSERT_EQ(g.num_nodes(), static_cast<int64_t>(ids.size()));
    ASSERT_EQ(g.num_edges(), static_cast<int64_t>(src.size()));
    for (int64_t u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(g.original_id(u), ids[u]);
      EXPECT_EQ(std::vector<int64_t>(g.neighbors_begin(u), g.neighbors_end(u)), adj[u])
          << "node " << ids[u];
    }
  }
}

TEST(CsrTest, FromTableValidates) {
  SchemaPtr s = MakeSchema({Field::Attr("src", DataType::kInt64),
                            Field::Attr("dst", DataType::kInt64)});
  TablePtr t = MakeTable(s, {{I(0), I(1)}, {I(1), I(2)}});
  ASSERT_OK_AND_ASSIGN(CsrGraph g, CsrGraph::FromTable(*t, "src", "dst"));
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_FALSE(CsrGraph::FromTable(*t, "zz", "dst").ok());
  TablePtr with_null = MakeTable(s, {{I(0), testing::N()}});
  EXPECT_FALSE(CsrGraph::FromTable(*with_null, "src", "dst").ok());
}

TEST(PageRankTest, UniformOnSymmetricCycle) {
  CsrGraph g = CsrGraph::FromEdges({0, 1, 2}, {1, 2, 0});
  graph::PageRankOptions opts;
  opts.epsilon = 1e-14;
  opts.max_iters = 200;
  graph::PageRankResult r = graph::PageRank(g, opts);
  for (double v : r.rank) EXPECT_NEAR(v, 1.0 / 3.0, 1e-10);
  EXPECT_LT(r.iterations, 200);
}

TEST(PageRankTest, SumsToOneWithDanglingNodes) {
  CsrGraph g = CsrGraph::FromEdges({0, 0, 1}, {1, 2, 3});  // 2, 3 dangle
  graph::PageRankOptions opts;
  opts.max_iters = 100;
  opts.epsilon = 1e-12;
  graph::PageRankResult r = graph::PageRank(g, opts);
  double total = 0;
  for (double v : r.rank) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PageRankTest, StarCenterDominates) {
  // Many nodes all pointing at node 0.
  std::vector<int64_t> src, dst;
  for (int64_t i = 1; i <= 20; ++i) {
    src.push_back(i);
    dst.push_back(0);
  }
  CsrGraph g = CsrGraph::FromEdges(src, dst);
  graph::PageRankResult r = graph::PageRank(g, {});
  for (int64_t i = 1; i <= 20; ++i) EXPECT_GT(r.rank[0], r.rank[static_cast<size_t>(i)]);
}

TEST(PageRankTest, ConvergenceMonotoneInEpsilon) {
  Rng rng(5);
  std::vector<int64_t> src, dst;
  for (int i = 0; i < 400; ++i) {
    src.push_back(rng.NextInt(0, 99));
    dst.push_back(rng.NextInt(0, 99));
  }
  CsrGraph g = CsrGraph::FromEdges(src, dst);
  graph::PageRankOptions loose, tight;
  loose.epsilon = 1e-3;
  tight.epsilon = 1e-10;
  loose.max_iters = tight.max_iters = 500;
  EXPECT_LE(graph::PageRank(g, loose).iterations,
            graph::PageRank(g, tight).iterations);
}

TEST(BfsTest, LevelsAndUnreachable) {
  // 0 -> 1 -> 2, 3 isolated (via self-loop to exist as a node).
  CsrGraph g = CsrGraph::FromEdges({0, 1, 3}, {1, 2, 3});
  std::vector<int64_t> levels = graph::Bfs(g, 0);
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(levels[1], 1);
  EXPECT_EQ(levels[2], 2);
  EXPECT_EQ(levels[3], -1);
}

TEST(BfsTest, EmptyGraph) {
  CsrGraph g = CsrGraph::FromEdges({}, {});
  EXPECT_TRUE(graph::Bfs(g, 0).empty());
}

TEST(BfsTest, SingleSelfLoop) {
  CsrGraph g = CsrGraph::FromEdges({5}, {5});
  ASSERT_EQ(g.num_nodes(), 1);
  std::vector<int64_t> levels = graph::Bfs(g, 0);
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0], 0);  // the self-loop must not re-level the source
  // Out-of-range sources leave every node unreached.
  for (int64_t lvl : graph::Bfs(g, 7)) EXPECT_EQ(lvl, -1);
  for (int64_t lvl : graph::Bfs(g, -1)) EXPECT_EQ(lvl, -1);
}

TEST(BfsTest, DisconnectedComponentStaysMinusOne) {
  // Two components: {0,1} and {2,3}; no path crosses.
  CsrGraph g = CsrGraph::FromEdges({0, 2}, {1, 3});
  std::vector<int64_t> from0 = graph::Bfs(g, 0);
  EXPECT_EQ(from0[0], 0);
  EXPECT_EQ(from0[1], 1);
  EXPECT_EQ(from0[2], -1);
  EXPECT_EQ(from0[3], -1);
  std::vector<int64_t> from2 = graph::Bfs(g, 2);
  EXPECT_EQ(from2[0], -1);
  EXPECT_EQ(from2[1], -1);
  EXPECT_EQ(from2[2], 0);
  EXPECT_EQ(from2[3], 1);
}

TEST(PageRankTest, DanglingChainConverges) {
  // 0 -> 1 -> 2 with 2 dangling: every step pours rank into the dangling
  // tail, the classic slow-convergence shape. Must still converge under
  // max_iters and keep a proper distribution.
  CsrGraph g = CsrGraph::FromEdges({0, 1}, {1, 2});
  graph::PageRankOptions opts;
  opts.epsilon = 1e-12;
  opts.max_iters = 300;
  graph::PageRankResult r = graph::PageRank(g, opts);
  EXPECT_LT(r.iterations, 300);
  double total = 0;
  for (double v : r.rank) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Rank accumulates down the chain.
  EXPECT_LT(r.rank[0], r.rank[1]);
  EXPECT_LT(r.rank[1], r.rank[2]);
}

TEST(ShortestPathsTest, DijkstraPicksCheaperLongerPath) {
  // 0->1 (cost 10), 0->2 (1), 2->1 (2): best 0->1 is 3 via 2.
  CsrGraph g = CsrGraph::FromEdges({0, 0, 2}, {1, 2, 1});
  // CSR adjacency order: node 0's edges in insertion order (1, then 2),
  // node 2's edge to 1.
  std::vector<double> weights = {10.0, 1.0, 2.0};
  ASSERT_OK_AND_ASSIGN(std::vector<double> dist, graph::ShortestPaths(g, 0, weights));
  EXPECT_EQ(dist[0], 0.0);
  EXPECT_EQ(dist[1], 3.0);
  EXPECT_EQ(dist[2], 1.0);
  EXPECT_FALSE(graph::ShortestPaths(g, 0, {1.0}).ok());
  EXPECT_FALSE(graph::ShortestPaths(g, 0, {1.0, -1.0, 1.0}).ok());
}

TEST(ShortestPathsTest, BfsEquivalenceOnUnitWeights) {
  Rng rng(11);
  std::vector<int64_t> src, dst;
  for (int i = 0; i < 300; ++i) {
    src.push_back(rng.NextInt(0, 49));
    dst.push_back(rng.NextInt(0, 49));
  }
  CsrGraph g = CsrGraph::FromEdges(src, dst);
  std::vector<double> unit(static_cast<size_t>(g.num_edges()), 1.0);
  ASSERT_OK_AND_ASSIGN(std::vector<double> dist, graph::ShortestPaths(g, 0, unit));
  std::vector<int64_t> levels = graph::Bfs(g, 0);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    if (levels[static_cast<size_t>(v)] < 0) {
      EXPECT_TRUE(std::isinf(dist[static_cast<size_t>(v)]));
    } else {
      EXPECT_EQ(dist[static_cast<size_t>(v)],
                static_cast<double>(levels[static_cast<size_t>(v)]));
    }
  }
}

TEST(ComponentsTest, LabelsByComponent) {
  // Two components: {0,1,2} and {3,4}.
  CsrGraph g = CsrGraph::FromEdges({0, 1, 3}, {1, 2, 4});
  std::vector<int64_t> label = graph::ConnectedComponents(g);
  EXPECT_EQ(label[0], label[1]);
  EXPECT_EQ(label[1], label[2]);
  EXPECT_EQ(label[3], label[4]);
  EXPECT_NE(label[0], label[3]);
  EXPECT_EQ(label[0], 0);  // smallest id labels the component
  EXPECT_EQ(label[3], 3);
}

TEST(TrianglesTest, CountsEachOnce) {
  // Triangle 0-1-2 plus a pendant edge 2-3.
  CsrGraph g = CsrGraph::FromEdges({0, 1, 2, 2}, {1, 2, 0, 3});
  EXPECT_EQ(graph::CountTriangles(g), 1);
  // Complete graph K4 (directed one way) has C(4,3) = 4 triangles.
  CsrGraph k4 = CsrGraph::FromEdges({0, 0, 0, 1, 1, 2}, {1, 2, 3, 2, 3, 3});
  EXPECT_EQ(graph::CountTriangles(k4), 4);
  // Self-loops and duplicate edges don't create phantom triangles.
  CsrGraph messy = CsrGraph::FromEdges({0, 0, 1, 2, 0, 0}, {1, 1, 2, 0, 0, 2});
  EXPECT_EQ(graph::CountTriangles(messy), 1);
}

TEST(PageRankTest, EmptyGraph) {
  CsrGraph g = CsrGraph::FromEdges({}, {});
  graph::PageRankResult r = graph::PageRank(g, {});
  EXPECT_TRUE(r.rank.empty());
  EXPECT_EQ(r.iterations, 0);
}

}  // namespace
}  // namespace nexus
