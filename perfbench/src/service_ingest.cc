// service_ingest: the multi-tenant query service under reads and writes.
// One service::Server holds three closed-loop reader sessions, one per
// tenant, sending small interactive and standard BDL queries, including
// reads of the `live` table, with a short think time after each answer.
// Beside them one open-loop writer appends fixed-size batches to `live` at
// a fixed rate and, after each, refreshes a filter->aggregate and a
// join->aggregate view. Four load threads, as many as the host's cores.
//
// Small queries make per-query overhead dominate: BDL parse, optimizer,
// placement, plan codec, the provider plan cache and admission. The writer
// uses the same core catalog beside the reads, so a change that speeds
// reads by slowing Append or Refresh shows here.
#include <algorithm>
#include <array>
#include <chrono>

#include "provider/provider.h"
#include "types/csv.h"
#include "workload.h"

namespace perfbench {

using namespace nexus;  // NOLINT

namespace {

constexpr int64_t kOrders = 200000;
constexpr int64_t kCusts = 20000;
constexpr int kReaders = 3;
constexpr int kSetupReps = 8;
constexpr int kWarmupReps = 5;
/// Each reader pauses this long after every answer (untimed), so the
/// service runs below saturation: at saturation every latency, the
/// writer's refresh most of all, tracks the host's spare capacity.
constexpr auto kThinkTime = std::chrono::milliseconds(10);
/// Nominal reads per second per reader; sizes each reader's fixed list.
constexpr double kNominalQpsPerReader = 46.0;

const char* const kTenants[kReaders] = {"dash", "ops", "analyst"};

/// Per-region (rows, sum of qty) of the live table after k batches.
using RegionTotals = std::array<std::pair<int64_t, int64_t>, kRegions>;

void AddRegionTotals(const Table& t, RegionTotals* totals) {
  const Column& region = t.column(2);
  const Column& qty = t.column(3);
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string name = region.GetValue(r).AsString();
    for (int i = 0; i < kRegions; ++i) {
      if (name == RegionName(i)) {
        (*totals)[static_cast<size_t>(i)].first += 1;
        (*totals)[static_cast<size_t>(i)].second += qty.GetValue(r).AsInt64();
      }
    }
  }
}

/// The live read must equal the totals after some k in [lo, hi] batches: a
/// prefix of the appends, no older than the ones acknowledged at submit.
bool LivePrefixMatches(const Dataset& answer, const std::vector<RegionTotals>& prefix,
                       int64_t lo, int64_t hi) {
  auto table = answer.AsTable();
  if (!table.ok()) return false;
  const Table& t = *table.ValueOrDie();
  if (t.num_columns() != 3) return false;
  RegionTotals got{};
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (t.At(r, 0).type() != DataType::kString || t.At(r, 1).type() != DataType::kInt64 ||
        t.At(r, 2).type() != DataType::kInt64) {
      return false;
    }
    std::string name = t.At(r, 0).AsString();
    int i = 0;
    while (i < kRegions && name != RegionName(i)) ++i;
    if (i == kRegions) return false;
    got[static_cast<size_t>(i)] = {t.At(r, 1).AsInt64(), t.At(r, 2).AsInt64()};
  }
  hi = std::min<int64_t>(hi, static_cast<int64_t>(prefix.size()) - 1);
  for (int64_t k = std::max<int64_t>(lo, 0); k <= hi; ++k) {
    if (got == prefix[static_cast<size_t>(k)]) return true;
  }
  return false;
}

}  // namespace

Outcome RunServiceIngest(const Options& options) {
  const uint64_t seed = options.seed;
  FeedSpec feed;
  feed.table = "live";
  feed.batch_rows = 300;
  feed.rate_per_s = 10.0;
  feed.base_rows = 200000;
  feed.views = {
      {"live_by_region",
       "from live where amount > 250.0 group by region "
       "aggregate sum(qty) as q, count(*) as n"},
      {"live_by_segment",
       "from live join cust_dim on cust = cust group by segment "
       "aggregate sum(qty) as q, count(*) as n"},
  };
  const std::string orders_csv = FeedCsv(seed, 0, kOrders, kCusts);
  const std::string custs_csv = CustsCsv(seed, kCusts);
  const std::string dim_csv = CustsCsv(seed + 1, kDimCusts);
  const std::string live_csv = FeedCsv(seed + 2, 0, feed.base_rows, kDimCusts);
  feed.batches = FeedBatchCount(options, feed.rate_per_s);
  const std::vector<TablePtr> batches = FeedBatches(seed + 2, feed);

  // Per-region totals of `live` after each prefix of the batches: a read of
  // `live` must match one of them.
  std::vector<RegionTotals> prefix(1);
  {
    CsvReadOptions read;
    read.schema = FeedSchema();
    AddRegionTotals(*ReadCsv(live_csv, read).ValueOrDie(), &prefix[0]);
  }
  for (const TablePtr& b : batches) {
    prefix.push_back(prefix.back());
    AddRegionTotals(*b, &prefix.back());
  }

  WorkloadSpec spec;
  spec.templates = {
      {"lookup", "from orders where cust == 4242 select seq, qty, amount sort by seq", nullptr,
       {}, nullptr},
      {"top_custs",
       "from orders where region == \"west\" and qty >= 8 and amount > 900.0 "
       "group by cust aggregate sum(amount) as s sort by s desc, cust limit 10",
       nullptr, {}, nullptr},
      {"live", "from live group by region aggregate count(*) as n, sum(qty) as q sort by region",
       nullptr, {},
       [&prefix](const Dataset& got, int64_t acked, int64_t begun) {
         return LivePrefixMatches(got, prefix, acked, begun);
       }},
      {"credit", "from custs where segment == 3 and credit > 9000.0 select cust, credit sort by cust",
       nullptr, {}, nullptr},
      {"cross_join",
       "from orders where cust < 200 join custs on cust = cust group by segment "
       "aggregate count(*) as n, sum(amount) as amt sort by segment",
       nullptr, {}, nullptr},
  };
  const std::vector<service::QueryClass> classes = {
      service::QueryClass::kInteractive, service::QueryClass::kStandard,
      service::QueryClass::kInteractive, service::QueryClass::kInteractive,
      service::QueryClass::kStandard};
  spec.setup_reps = kSetupReps;
  spec.warmup_reps = kWarmupReps;
  spec.readers = kReaders;
  spec.nominal_qps_per_reader = kNominalQpsPerReader;
  spec.think_time = kThinkTime;
  spec.open_loop = true;
  spec.build = [&](World* world) -> Status {
    world->cluster = std::make_unique<Cluster>();
    Cluster* c = world->cluster.get();
    NEXUS_RETURN_NOT_OK(c->AddServer("relstore", MakeRelationalProvider()));
    NEXUS_RETURN_NOT_OK(c->AddServer("relstore2", MakeRelationalProvider()));
    world->tables = {{"relstore", "orders"},
                     {"relstore2", "custs"},
                     {"relstore", "cust_dim"},
                     {"relstore", "live"}};
    NEXUS_RETURN_NOT_OK(
        LoadCsvTable(c, "relstore", "orders", orders_csv, FeedSchema(), &world->load));
    NEXUS_RETURN_NOT_OK(
        LoadCsvTable(c, "relstore2", "custs", custs_csv, CustsSchema(), &world->load));
    NEXUS_RETURN_NOT_OK(
        LoadCsvTable(c, "relstore", "cust_dim", dim_csv, CustsSchema(), &world->load));
    NEXUS_RETURN_NOT_OK(
        LoadCsvTable(c, "relstore", "live", live_csv, FeedSchema(), &world->load));
    world->feed = std::make_unique<IngestFeed>(c->provider("relstore")->catalog(), feed,
                                               batches);
    NEXUS_RETURN_NOT_OK(world->feed->RegisterViews());
    world->server = std::make_unique<service::Server>(c);
    for (const char* tenant : kTenants) {
      NEXUS_RETURN_NOT_OK(world->server->RegisterTenant(tenant, service::TenantOptions{}));
      NEXUS_ASSIGN_OR_RETURN(int64_t session, world->server->OpenSession(tenant));
      world->sessions.push_back(session);
    }
    return Status::OK();
  };
  spec.execute = [&classes](World* world, int reader, size_t t, const PlanPtr& plan,
                            double* queue_wait_ms) -> Result<Dataset> {
    service::QueryOptions qo;
    qo.query_class = classes[t];
    service::QueryReport report;
    Result<Dataset> answer =
        world->server->Execute(world->sessions[static_cast<size_t>(reader)], plan, qo, &report);
    *queue_wait_ms = report.queue_wait_ms;
    return answer;
  };
  return RunWorkload(options, std::move(spec));
}

}  // namespace perfbench
