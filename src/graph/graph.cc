#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>

#include "common/logging.h"
#include "common/macros.h"
#include "common/str_util.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace graph {

namespace {

const algebra::Semiring& Ring(const char* name) {
  const algebra::Semiring* ring = algebra::FindSemiring(name);
  NEXUS_CHECK(ring != nullptr) << name;
  return *ring;
}

}  // namespace

CsrGraph CsrGraph::FromEdges(const std::vector<int64_t>& src,
                             const std::vector<int64_t>& dst) {
  CsrGraph g;
  // Compact ids are the distinct originals in ascending order, so compact
  // order is deterministic. Ids spanning at most twice as many values as
  // there are endpoints are ranked through a table over that span, and ids
  // that already are 0..n-1 (the usual edge list) need no mapping at all.
  // Wider spans dedupe through a hash map and sort only the distinct ids.
  const size_t endpoints = src.size() + dst.size();
  int64_t lo = 0;
  std::vector<int64_t> table;                       // original - lo -> compact
  std::unordered_map<int64_t, int64_t> hashed;      // original -> compact
  auto offset = [&lo](int64_t id) {
    return static_cast<size_t>(static_cast<uint64_t>(id) - static_cast<uint64_t>(lo));
  };
  if (endpoints > 0) {
    lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    for (const std::vector<int64_t>* ids : {&src, &dst}) {
      for (int64_t id : *ids) {
        lo = std::min(lo, id);
        hi = std::max(hi, id);
      }
    }
    if (offset(hi) < 2 * endpoints) {
      table.assign(offset(hi) + 1, -1);
      for (int64_t id : src) table[offset(id)] = 0;
      for (int64_t id : dst) table[offset(id)] = 0;
      for (size_t i = 0; i < table.size(); ++i) {
        if (table[i] < 0) continue;
        table[i] = g.num_nodes();
        g.original_id_.push_back(lo + static_cast<int64_t>(i));
      }
    } else {
      hashed.reserve(endpoints);
      for (int64_t id : src) hashed.emplace(id, 0);
      for (int64_t id : dst) hashed.emplace(id, 0);
      for (const auto& kv : hashed) g.original_id_.push_back(kv.first);
      std::sort(g.original_id_.begin(), g.original_id_.end());
      for (int64_t u = 0; u < g.num_nodes(); ++u) hashed[g.original_id(u)] = u;
    }
  }
  const bool identity = lo == 0 && table.size() == g.original_id_.size();
  const std::vector<int64_t>* csrc = &src;
  const std::vector<int64_t>* cdst = &dst;
  std::vector<int64_t> mapped_src, mapped_dst;
  if (!identity) {
    auto compact = [&](const std::vector<int64_t>& in) {
      std::vector<int64_t> out(in.size());
      for (size_t i = 0; i < in.size(); ++i) {
        out[i] = table.empty() ? hashed.find(in[i])->second : table[offset(in[i])];
      }
      return out;
    };
    mapped_src = compact(src);
    mapped_dst = compact(dst);
    csrc = &mapped_src;
    cdst = &mapped_dst;
  }
  const int64_t n = g.num_nodes();
  std::vector<int64_t>& offsets = g.adj_.row_ptr;
  std::vector<int64_t>& adj = g.adj_.col_idx;
  g.adj_.rows = g.adj_.cols = n;
  offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (int64_t s : *csrc) offsets[static_cast<size_t>(s) + 1]++;
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  adj.resize(src.size());
  std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
  constexpr size_t kAhead = 16;  // the writes land at random: prefetch ahead
  for (size_t e = 0; e < src.size(); ++e) {
    if (e + kAhead < src.size()) {
      NEXUS_PREFETCH_WRITE(adj.data() + cursor[static_cast<size_t>((*csrc)[e + kAhead])]);
    }
    int64_t u = (*csrc)[e];
    adj[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] = (*cdst)[e];
  }
  return g;
}

Result<CsrGraph> CsrGraph::FromTable(const Table& edges, const std::string& src_col,
                                     const std::string& dst_col) {
  NEXUS_ASSIGN_OR_RETURN(int sc, edges.schema()->FindFieldOrError(src_col));
  NEXUS_ASSIGN_OR_RETURN(int dc, edges.schema()->FindFieldOrError(dst_col));
  if (edges.schema()->field(sc).type != DataType::kInt64 ||
      edges.schema()->field(dc).type != DataType::kInt64) {
    return Status::TypeError("edge endpoints must be int64");
  }
  if (edges.column(sc).has_nulls() || edges.column(dc).has_nulls()) {
    return Status::InvalidArgument("edge endpoints may not be null");
  }
  return FromEdges(edges.column(sc).ints(), edges.column(dc).ints());
}

PageRankResult PageRank(const CsrGraph& g, const PageRankOptions& opts) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "graph.PageRank");
  span.AddCounter("nodes", g.num_nodes());
  span.AddCounter("edges", g.num_edges());
  PageRankResult out;
  int64_t n = g.num_nodes();
  if (n == 0) return out;
  algebra::CountLowered("algebra.pagerank_lowered");
  // Each step is next = base ⊕ Aᵀ ⊗ share, one MxV over plus_times. The
  // stable transpose lists v's in-edges in (u-ascending, adjacency) order
  // and every edge is 1.0, so next[v] folds base first and then exactly the
  // shares a push scatter `next[v] += share[u]` would add, in its order:
  // bit-identical to the scatter, but parallel by destination.
  static const algebra::Semiring& plus_times = Ring("plus_times");
  const algebra::CsrMatrix in_edges = algebra::Transpose(g.AdjacencyView());
  out.rank.assign(static_cast<size_t>(n), 1.0 / static_cast<double>(n));
  std::vector<double> share(static_cast<size_t>(n), 0.0);
  std::vector<double> next(static_cast<size_t>(n));
  for (int64_t iter = 0; iter < opts.max_iters; ++iter) {
    double dangling = 0.0;
    for (int64_t u = 0; u < n; ++u) {
      int64_t deg = g.out_degree(u);
      if (deg == 0) {
        dangling += out.rank[static_cast<size_t>(u)];
      } else {
        share[static_cast<size_t>(u)] =
            opts.damping * out.rank[static_cast<size_t>(u)] / static_cast<double>(deg);
      }
    }
    double base = (1.0 - opts.damping) / static_cast<double>(n) +
                  opts.damping * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    Status st = algebra::MxV(plus_times, in_edges.view(), share, &next);
    NEXUS_CHECK(st.ok()) << st.ToString();
    double delta = 0.0;
    for (int64_t u = 0; u < n; ++u) {
      delta += std::fabs(next[static_cast<size_t>(u)] - out.rank[static_cast<size_t>(u)]);
    }
    out.rank.swap(next);
    out.final_delta = delta;
    ++out.iterations;
    if (delta < opts.epsilon) break;
  }
  return out;
}

std::vector<int64_t> Bfs(const CsrGraph& g, int64_t source) {
  const int64_t n = g.num_nodes();
  std::vector<int64_t> level(static_cast<size_t>(n), -1);
  if (source < 0 || source >= n) return level;
  algebra::CountLowered("algebra.bfs_lowered");
  // Level-synchronous (min,+) relaxation: the frontier's levels ⊗ the 1.0
  // edges give level + 1, ⊕ keeps the minimum per target, and the settled
  // mask drops nodes that already have a level.
  static const algebra::Semiring& min_plus = Ring("min_plus");
  const algebra::CsrView edges = g.AdjacencyView();
  algebra::PushWorkspace ws(n);
  algebra::SparseVector frontier{{source}, {0.0}};
  level[static_cast<size_t>(source)] = 0;
  ws.Mask(source);
  while (!frontier.index.empty()) {
    Result<algebra::SparseVector> next = algebra::VxM(min_plus, frontier, edges, &ws);
    NEXUS_CHECK(next.ok()) << next.status().ToString();
    frontier = next.MoveValue();
    for (size_t j = 0; j < frontier.index.size(); ++j) {
      const int64_t v = frontier.index[j];
      level[static_cast<size_t>(v)] = static_cast<int64_t>(frontier.value[j]);
      ws.Mask(v);
    }
  }
  return level;
}

Result<std::vector<double>> ShortestPaths(const CsrGraph& g, int64_t source,
                                          const std::vector<double>& weights) {
  if (static_cast<int64_t>(weights.size()) != g.num_edges()) {
    return Status::InvalidArgument(
        StrCat("expected ", g.num_edges(), " edge weights, got ", weights.size()));
  }
  for (double w : weights) {
    if (w < 0) return Status::InvalidArgument("negative edge weight");
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<size_t>(g.num_nodes()), inf);
  if (source < 0 || source >= g.num_nodes()) return dist;
  using Item = std::pair<double, int64_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<size_t>(source)] = 0.0;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<size_t>(u)]) continue;
    const int64_t* begin = g.neighbors_begin(u);
    for (const int64_t* v = begin; v != g.neighbors_end(u); ++v) {
      size_t edge_idx = static_cast<size_t>(
          (begin - g.neighbors_begin(0)) + (v - begin));
      double nd = d + weights[edge_idx];
      if (nd < dist[static_cast<size_t>(*v)]) {
        dist[static_cast<size_t>(*v)] = nd;
        pq.emplace(nd, *v);
      }
    }
  }
  return dist;
}

std::vector<int64_t> ConnectedComponents(const CsrGraph& g) {
  int64_t n = g.num_nodes();
  std::vector<int64_t> parent(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) parent[static_cast<size_t>(i)] = i;
  std::function<int64_t(int64_t)> find = [&](int64_t x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  auto unite = [&](int64_t a, int64_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent[static_cast<size_t>(b)] = a;  // smaller id wins → stable labels
  };
  for (int64_t u = 0; u < n; ++u) {
    for (const int64_t* v = g.neighbors_begin(u); v != g.neighbors_end(u); ++v) {
      unite(u, *v);
    }
  }
  std::vector<int64_t> label(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) label[static_cast<size_t>(i)] = find(i);
  return label;
}

int64_t CountTriangles(const CsrGraph& g) {
  int64_t n = g.num_nodes();
  // Undirected neighbor sets, deduplicated, self-loops dropped.
  std::vector<std::vector<int64_t>> nbrs(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) {
    for (const int64_t* v = g.neighbors_begin(u); v != g.neighbors_end(u); ++v) {
      if (*v == u) continue;
      nbrs[static_cast<size_t>(u)].push_back(*v);
      nbrs[static_cast<size_t>(*v)].push_back(u);
    }
  }
  for (auto& list : nbrs) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  // Count each triangle once via the ordered-intersection method.
  int64_t triangles = 0;
  for (int64_t u = 0; u < n; ++u) {
    const auto& nu = nbrs[static_cast<size_t>(u)];
    for (int64_t v : nu) {
      if (v <= u) continue;
      const auto& nv = nbrs[static_cast<size_t>(v)];
      // Intersect neighbors greater than v.
      size_t i = 0, j = 0;
      while (i < nu.size() && j < nv.size()) {
        if (nu[i] < nv[j]) {
          ++i;
        } else if (nu[i] > nv[j]) {
          ++j;
        } else {
          if (nu[i] > v) ++triangles;
          ++i;
          ++j;
        }
      }
    }
  }
  return triangles;
}

}  // namespace graph
}  // namespace nexus
