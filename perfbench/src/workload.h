// Pieces the three workloads share: run options, query templates checked
// against the reference executor, the seeded operation list, the ingest
// feed with its registered views, and the traced layer breakdown.
#ifndef NEXUS_PERFBENCH_WORKLOAD_H_
#define NEXUS_PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/catalog.h"
#include "core/plan.h"
#include "exec/incremental/view.h"
#include "federation/coordinator.h"
#include "service/server.h"
#include "harness.h"
#include "types/dataset.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Self-check: corrupt the first timed answer; the run must then report
  /// a correctness failure.
  bool corrupt = false;
};

struct Outcome {
  Report report;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
};

Outcome RunEtlFed(const Options& options);
Outcome RunGraphLinalg(const Options& options);
Outcome RunServiceIngest(const Options& options);

/// The traced replays (--trace 1) run this share of the measured list.
inline constexpr int kReplayShare = 3;

/// Timestamped CSV load: ReadCsv then Cluster::PutData, both timed.
struct LoadTimes {
  double csv_parse_s = 0.0;
  double catalog_put_s = 0.0;
};
nexus::Status LoadCsvTable(nexus::Cluster* cluster, const std::string& server,
                           const std::string& table, const std::string& csv,
                           const nexus::SchemaPtr& schema, LoadTimes* times);

/// One static read-query template. The client submits BDL text when `bdl`
/// is set (parsing is part of the timed query) and the fluent plan otherwise.
struct Template {
  std::string name;
  std::string bdl;
  nexus::PlanPtr plan;
  nexus::Dataset expected;  ///< reference-executor answer
  /// Replaces the comparison with `expected` for reads of the feed's
  /// table: `acked` feed batches were acknowledged before submit and
  /// `begun` had begun by the time the answer arrived.
  std::function<bool(const nexus::Dataset& got, int64_t acked, int64_t begun)> check = nullptr;
};

nexus::Result<nexus::PlanPtr> SubmitPlan(const Template& t);

/// Fills every template's `expected` with the reference executor's answer
/// over `catalog` (which must hold every table the templates scan).
nexus::Status ComputeExpected(const nexus::InMemoryCatalog& catalog,
                              std::vector<Template>* templates);

/// Why `got` is not the reference answer `want`; empty when they agree.
/// They agree with equal schemas and row order, exact on every non-float
/// value, and floats equal up to a relative 1e-9 (engines may sum in a
/// different order than the row-at-a-time reference).
std::string AnswerDifference(const nexus::Dataset& got, const nexus::Dataset& want);

/// The self-check's corruption: the answer minus its last row (or with one
/// extra row when empty).
nexus::Dataset Corrupted(const nexus::Dataset& answer);

/// Seeded shuffle of `per_template` copies of each of `templates` indices.
std::vector<int> OpList(uint64_t seed, int templates, int per_template);

/// `name`: the tail of `samples_ms` by the TailOf rule, with its
/// percentile and counts in the note.
void SetTailMetric(Report* report, const std::string& name,
                   const std::vector<double>& samples_ms);

/// Latency metrics of one distribution: `<prefix>_p50_ms` (the median) and
/// `<prefix>_tail_ms`.
void SetLatencyMetrics(Report* report, const std::string& prefix,
                       const std::vector<double>& samples_ms);

/// The end-to-end metric names every run prints with --trace 0, and the
/// per-layer names every run prints with --trace 1 (value 0 where the
/// workload does not exercise the layer).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// Columns of the appended `live`-style tables: seq, cust, region, qty,
/// amount. Rows are a pure function of (seed, seq).
nexus::SchemaPtr FeedSchema();
std::string FeedCsv(uint64_t seed, int64_t first_seq, int64_t rows, int64_t custs);
inline constexpr int kRegions = 8;
const char* RegionName(int64_t i);

/// Customer dimension: cust, segment (0..9), nation, credit.
nexus::SchemaPtr CustsSchema();
std::string CustsCsv(uint64_t seed, int64_t rows);

/// Rows of the customer dimension (`cust_dim`) that every feed's join view
/// joins against; feed rows draw their `cust` from 0..kDimCusts-1.
inline constexpr int64_t kDimCusts = 1000;

/// The writer: appends fixed-size batches to one table and, after each,
/// refreshes every registered view. Open loop (service_ingest): a thread
/// writes at a fixed rate and latencies are timed from when each batch was
/// due, so a stall delays later batches. Closed loop (etl_fed,
/// graph_linalg): the client loads the next batch between its reads, and
/// a batch is due when the client issues it.
struct FeedSpec {
  std::string table;
  int64_t batch_rows;
  double rate_per_s;
  int batches;
  int64_t base_rows;  ///< rows loaded at set-up (seq 0..base_rows-1)
  std::vector<std::pair<std::string, std::string>> views;  ///< name, BDL
};

/// Batches the feed writes in one run: --seconds times the rate.
int FeedBatchCount(const Options& options, double rate_per_s);

/// The feed's batches: batch i holds seq base_rows + i*batch_rows onward.
std::vector<nexus::TablePtr> FeedBatches(uint64_t seed, const FeedSpec& spec);

class IngestFeed {
 public:
  /// `batches` come from FeedBatches, generated before any timing.
  IngestFeed(nexus::InMemoryCatalog* catalog, FeedSpec spec,
             std::vector<nexus::TablePtr> batches);
  ~IngestFeed();
  IngestFeed(const IngestFeed&) = delete;
  IngestFeed& operator=(const IngestFeed&) = delete;

  /// Registers the views and refreshes each once (part of set-up).
  nexus::Status RegisterViews();
  /// Starts the open-loop writer thread; batch i is due at t0 + i / rate.
  void Start(double t0);
  void Join();
  /// Closed loop: appends the next batch now; false when none is left.
  bool AppendNext();

  /// Batches whose Append has begun / has been acknowledged.
  int64_t begun() const { return begun_.load(std::memory_order_acquire); }
  int64_t acked() const { return acked_.load(std::memory_order_acquire); }
  const FeedSpec& spec() const { return spec_; }

  /// Compares every view with incremental::ExecuteViewPlan; returns the
  /// number that differ (byte identity).
  int64_t VerifyViews() const;

  int64_t failed() const { return failed_; }
  const std::vector<double>& append_ms() const { return append_ms_; }
  const std::vector<double>& refresh_ms() const { return refresh_ms_; }
  const std::vector<double>& append_call_ms() const { return append_call_ms_; }
  const std::vector<double>& view_refresh_ms() const { return view_refresh_ms_; }
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }
  double delta_rows_per_refresh() const;
  int64_t state_bytes() const { return views_.state_bytes(); }

 private:
  void Loop(double t0);
  /// Appends batch `i`, due at `due`, then refreshes every view.
  void Step(int i, double due);

  nexus::InMemoryCatalog* catalog_;
  FeedSpec spec_;
  std::vector<nexus::TablePtr> batches_;
  nexus::incremental::ViewRegistry views_;
  std::map<std::string, nexus::PlanPtr> view_plans_;
  std::atomic<int64_t> begun_{0};
  std::atomic<int64_t> acked_{0};
  // Written by the writer only; read after Join().
  int next_ = 0;
  int64_t failed_ = 0;
  int64_t refreshes_ = 0;
  int64_t delta_rows_ = 0;
  std::vector<double> append_ms_, refresh_ms_, append_call_ms_,
      view_refresh_ms_, lateness_ms_;
  std::thread writer_;
};

/// Feed metrics shared by all workloads (append_*, refresh_p50_ms, and the
/// traced core/incremental/load layer metrics).
void SetFeedMetrics(const IngestFeed& feed, bool trace, Report* report);

/// Per-layer self time of traced queries, aggregated from the spans the
/// program records (telemetry::Spans()).
class LayerTrace {
 public:
  /// Adds one query: all spans of its trace, and the wall time of the
  /// execute call that produced them.
  void AddQuery(const std::vector<nexus::telemetry::SpanRecord>& spans,
                double execute_us);
  /// Writes the *_ms layer metrics (per query), morsels per query and
  /// trace.unattributed_ms.
  void SetMetrics(Report* report) const;

 private:
  std::map<std::string, double> layer_us_;
  double unattributed_us_ = 0.0;
  int64_t morsels_ = 0;
  int64_t queries_ = 0;
};

/// Times each template's plan through the public layer calls one by one —
/// ParseBdl, Optimize against the FederatedCatalog, SerializePlanWire /
/// ParsePlan, SerializeDatasetWire / ParseDatasetWire on its answer — and
/// replays it once more through `coordinator` to read per-query counters
/// (ExecutionMetrics, last_optimizer_stats, expr/algebra registry deltas).
/// The writer must be stopped so the counters belong to the replay.
nexus::Status ReplayLayers(nexus::Cluster* cluster, nexus::Coordinator* coordinator,
                           const std::vector<Template>& templates, Report* report);

/// One set-up instance of a workload: the cluster, the tables it loaded
/// (server, table), the ingest feed, the set-up's timed load calls, and
/// what the readers submit through: a Coordinator, or a service::Server
/// with one session per reader. Members are destroyed bottom-up, so the
/// server and feed go before the cluster they use.
struct World {
  std::unique_ptr<nexus::Cluster> cluster;
  std::vector<std::pair<std::string, std::string>> tables;
  LoadTimes load;
  std::unique_ptr<IngestFeed> feed;
  std::unique_ptr<nexus::Coordinator> coordinator;
  std::unique_ptr<nexus::service::Server> server;
  std::vector<int64_t> sessions;
};

/// Builds a reference catalog holding every table `world` loaded.
nexus::Status FillReferenceCatalog(const World& world, nexus::InMemoryCatalog* catalog);

/// A workload: its read templates, its timed set-up, how a reader submits
/// a query, and the load shape of the measured phase.
struct WorkloadSpec {
  std::vector<Template> templates;
  /// Timed set-up work: loads every table from CSV text, registers the
  /// feed's views, and creates the coordinator or the server with its
  /// sessions. The CSV text itself is generated before timing.
  std::function<nexus::Status(World*)> build;
  /// Runs `plan` (of template `t`) for reader `reader`; sets
  /// `*queue_wait_ms` when the path has an admission queue.
  std::function<nexus::Result<nexus::Dataset>(World* world, int reader, size_t t,
                                              const nexus::PlanPtr& plan,
                                              double* queue_wait_ms)>
      execute;
  /// Set-up runs this many times from an empty cluster; setup_s is the
  /// median.
  int setup_reps;
  /// Untimed repetitions of every template by every reader after set-up,
  /// before timing.
  int warmup_reps;
  /// Concurrent closed-loop readers, each with its own seeded list.
  int readers = 1;
  /// Nominal reads per second per reader that size each fixed list; the
  /// list length depends on --seconds only, never on measured speed.
  double nominal_qps_per_reader;
  /// Untimed pause of each reader after every answer.
  std::chrono::milliseconds think_time{0};
  /// Open loop: the feed's writer thread appends at its fixed rate beside
  /// the readers. Closed loop (one reader): the reader loads the feed's
  /// batches between its reads, spread evenly over its list.
  bool open_loop = false;
};
Outcome RunWorkload(const Options& options, WorkloadSpec spec);

/// WorkloadSpec::execute of the single-client workloads: the plan goes to
/// world->coordinator through Coordinator::Execute.
nexus::Result<nexus::Dataset> ExecuteOnCoordinator(World* world, int reader, size_t t,
                                                   const nexus::PlanPtr& plan,
                                                   double* queue_wait_ms);

}  // namespace perfbench

#endif  // NEXUS_PERFBENCH_WORKLOAD_H_
