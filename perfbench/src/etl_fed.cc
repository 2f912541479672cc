// etl_fed: the paper's federated tabular path. One analyst (a closed-loop
// client) waits on each answer from two relational servers:
//   topk   BDL filter -> extend -> group-by -> top-k over 1M orders
//   join   a cross-server join plus aggregate; one side travels between the
//          servers as an NXB1 intermediate of a few MB
//   fetch  a wide fetch that returns ~100k rows to the client
// Most time goes to the relational engine, expressions, the NXB1 codec,
// federation placement and transfers, and CSV ingest at set-up; almost none
// to graph, linalg or the service layer. Between reads the analyst also
// loads small batches into a staging table and refreshes two views on it.
#include "provider/provider.h"
#include "workload.h"

namespace perfbench {

using namespace nexus;  // NOLINT

namespace {

constexpr int64_t kOrders = 1000000;
constexpr int64_t kCusts = 100000;

}  // namespace

Outcome RunEtlFed(const Options& options) {
  FeedSpec feed;
  feed.table = "staging";
  feed.batch_rows = 250;
  feed.rate_per_s = 5.0;
  feed.base_rows = 100000;
  feed.views = {
      {"staging_by_region",
       "from staging where amount > 250.0 group by region "
       "aggregate sum(qty) as q, count(*) as n"},
      {"staging_by_segment",
       "from staging join cust_dim on cust = cust group by segment "
       "aggregate sum(qty) as q, count(*) as n"},
  };

  // Inputs, generated from the seed before any timing.
  const std::string orders_csv = FeedCsv(options.seed, 0, kOrders, kCusts);
  const std::string custs_csv = CustsCsv(options.seed, kCusts);
  const std::string dim_csv = CustsCsv(options.seed + 1, kDimCusts);
  const std::string staging_csv = FeedCsv(options.seed + 2, 0, feed.base_rows, kDimCusts);
  feed.batches = FeedBatchCount(options, feed.rate_per_s);
  const std::vector<TablePtr> batches = FeedBatches(options.seed + 2, feed);

  WorkloadSpec spec;
  spec.templates = {
      {"topk",
       "from orders where qty >= 3 and amount < 900.0 extend rev := amount * qty "
       "group by region, qty aggregate sum(rev) as total, count(*) as n "
       "sort by total desc limit 10",
       nullptr, {}},
      {"join",
       "from orders where amount > 500.0 join custs on cust = cust "
       "group by segment, nation aggregate sum(amount) as amt, "
       "sum(credit) as credit, count(*) as n sort by segment, nation",
       nullptr, {}},
      {"fetch", "from orders where cust < 10000 select seq, cust, region, qty, amount",
       nullptr, {}},
  };
  spec.setup_reps = 4;
  spec.warmup_reps = 3;
  spec.nominal_qps_per_reader = 12.0;
  spec.build = [&](World* world) -> Status {
    world->cluster = std::make_unique<Cluster>();
    Cluster* c = world->cluster.get();
    NEXUS_RETURN_NOT_OK(c->AddServer("relstore", MakeRelationalProvider()));
    NEXUS_RETURN_NOT_OK(c->AddServer("relstore2", MakeRelationalProvider()));
    world->tables = {{"relstore", "orders"},
                     {"relstore2", "custs"},
                     {"relstore", "cust_dim"},
                     {"relstore", "staging"}};
    NEXUS_RETURN_NOT_OK(
        LoadCsvTable(c, "relstore", "orders", orders_csv, FeedSchema(), &world->load));
    NEXUS_RETURN_NOT_OK(
        LoadCsvTable(c, "relstore2", "custs", custs_csv, CustsSchema(), &world->load));
    NEXUS_RETURN_NOT_OK(
        LoadCsvTable(c, "relstore", "cust_dim", dim_csv, CustsSchema(), &world->load));
    NEXUS_RETURN_NOT_OK(
        LoadCsvTable(c, "relstore", "staging", staging_csv, FeedSchema(), &world->load));
    world->feed = std::make_unique<IngestFeed>(c->provider("relstore")->catalog(), feed,
                                               batches);
    world->coordinator = std::make_unique<Coordinator>(c);
    return world->feed->RegisterViews();
  };
  spec.execute = ExecuteOnCoordinator;
  return RunWorkload(options, std::move(spec));
}

}  // namespace perfbench
