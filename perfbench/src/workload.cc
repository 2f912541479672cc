#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/str_util.h"
#include "core/serialize.h"
#include "exec/reference_executor.h"
#include "frontend/bdl.h"
#include "optimizer/optimizer.h"
#include "telemetry/metrics.h"
#include "types/csv.h"

namespace perfbench {

using namespace nexus;  // NOLINT
namespace tel = nexus::telemetry;

Status LoadCsvTable(Cluster* cluster, const std::string& server,
                    const std::string& table, const std::string& csv,
                    const SchemaPtr& schema, LoadTimes* times) {
  CsvReadOptions read;
  read.schema = schema;
  double t0 = NowSeconds();
  NEXUS_ASSIGN_OR_RETURN(TablePtr parsed, ReadCsv(csv, read));
  double t1 = NowSeconds();
  NEXUS_RETURN_NOT_OK(cluster->PutData(server, table, Dataset(std::move(parsed))));
  double t2 = NowSeconds();
  times->csv_parse_s += t1 - t0;
  times->catalog_put_s += t2 - t1;
  return Status::OK();
}

Result<PlanPtr> SubmitPlan(const Template& t) {
  if (!t.bdl.empty()) return ParseBdl(t.bdl);
  return t.plan;
}

Status ComputeExpected(const InMemoryCatalog& catalog, std::vector<Template>* templates) {
  for (Template& t : *templates) {
    NEXUS_ASSIGN_OR_RETURN(PlanPtr plan, SubmitPlan(t));
    ReferenceExecutor ref(&catalog);
    NEXUS_ASSIGN_OR_RETURN(t.expected, ref.Execute(*plan));
  }
  return Status::OK();
}

std::string AnswerDifference(const Dataset& got, const Dataset& want) {
  auto got_t = got.AsTable();
  auto want_t = want.AsTable();
  if (!got_t.ok() || !want_t.ok()) return "answer is not a table";
  const Table& a = *got_t.ValueOrDie();
  const Table& b = *want_t.ValueOrDie();
  if (a.Equals(b)) return "";
  if (!a.schema()->Equals(*b.schema())) {
    return StrCat("schema ", a.schema()->ToString(), " vs reference ", b.schema()->ToString());
  }
  if (a.num_rows() != b.num_rows()) {
    return StrCat(a.num_rows(), " rows vs reference ", b.num_rows());
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    const bool is_float = ca.type() == DataType::kFloat64;
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      Value va = ca.GetValue(r);
      Value vb = cb.GetValue(r);
      if (va.is_null() || vb.is_null()) {
        if (va.is_null() != vb.is_null()) {
          return StrCat("row ", r, " column ", c, ": null vs reference ", vb.ToString());
        }
        continue;
      }
      bool same = va == vb;
      if (is_float) {
        double x = va.AsDouble(), y = vb.AsDouble();
        double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
        same = std::fabs(x - y) <= 1e-9 * scale;
      }
      if (!same) {
        return StrCat("row ", r, " column ", c, ": ", va.ToString(), " vs reference ",
                      vb.ToString());
      }
    }
  }
  return "";
}

Dataset Corrupted(const Dataset& answer) {
  TablePtr t = answer.AsTable().ValueOrDie();
  if (t->num_rows() > 0) return Dataset(t->Slice(0, t->num_rows() - 1));
  return Dataset(Table::Make(t->schema(), {}).ValueOr(t));
}

std::vector<int> OpList(uint64_t seed, int templates, int per_template) {
  std::vector<int> ops;
  for (int i = 0; i < per_template; ++i) {
    for (int t = 0; t < templates; ++t) ops.push_back(t);
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.NextBounded(i)]);
  }
  return ops;
}

void SetTailMetric(Report* report, const std::string& name,
                   const std::vector<double>& samples_ms) {
  Tail tail = TailOf(samples_ms);
  char note[96];
  std::snprintf(note, sizeof(note), "p%g of n=%lld, %lld beyond", tail.percentile,
                static_cast<long long>(tail.samples),
                static_cast<long long>(tail.beyond));
  report->Set(name, tail.value, "ms", note);
}

void SetLatencyMetrics(Report* report, const std::string& prefix,
                       const std::vector<double>& samples_ms) {
  report->Set(prefix + "_p50_ms", Median(samples_ms), "ms",
              StrCat("n=", samples_ms.size()));
  SetTailMetric(report, prefix + "_tail_ms", samples_ms);
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"query_p50_ms", "ms"},
      {"query_tail_ms", "ms"},   {"throughput_qps", "1/s"},
      {"append_p50_ms", "ms"},   {"append_tail_ms", "ms"},
      {"refresh_p50_ms", "ms"},  {"net_sim_ms_per_query", "ms"},
      {"wire_bytes_per_query", "B"}, {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"types.csv_parse_ms", "ms"},
      {"core.catalog_put_ms", "ms"},
      {"core.catalog_append_ms", "ms"},
      {"core.plan_encode_us", "us"},
      {"core.plan_decode_us", "us"},
      {"core.nxb1_encode_ms", "ms"},
      {"core.nxb1_decode_ms", "ms"},
      {"core.nxb1_bytes_per_row", "B"},
      {"frontend.parse_us", "us"},
      {"optimizer.optimize_us", "us"},
      {"optimizer.joins_reordered", "count"},
      {"optimizer.ops_lowered", "count"},
      {"federation.plan_ms", "ms"},
      {"federation.coordinator_self_ms", "ms"},
      {"federation.fragments_per_query", "count"},
      {"federation.parallel_fragments_per_query", "count"},
      {"federation.messages_per_query", "count"},
      {"federation.client_bytes_per_query", "B"},
      {"provider.server_self_ms", "ms"},
      {"provider.plan_cache_hit_ratio", "ratio"},
      {"relational.engine_ms", "ms"},
      {"expr.compiles_per_query", "count"},
      {"expr.cache_hit_ratio", "ratio"},
      {"algebra.kernel_ms", "ms"},
      {"algebra.join_calls_per_query", "count"},
      {"algebra.union_calls_per_query", "count"},
      {"graph.engine_ms", "ms"},
      {"linalg.engine_ms", "ms"},
      {"arraydb.engine_ms", "ms"},
      {"common.morsels_per_query", "count"},
      {"incremental.refresh_ms", "ms"},
      {"incremental.delta_rows_per_refresh", "count"},
      {"incremental.state_mb", "MiB"},
      {"service.queue_wait_ms", "ms"},
      {"service.rejected", "count"},
      {"service.killed", "count"},
      {"load.writer_lateness_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_ms", "ms"},
  };
  return kMetrics;
}

// ---------------------------------------------------------------------------
// Feed rows.
// ---------------------------------------------------------------------------

namespace {

uint64_t MixRow(uint64_t seed, int64_t seq) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(seq) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct FeedRow {
  int64_t cust, region, qty, cents;
};

FeedRow MakeFeedRow(uint64_t seed, int64_t seq, int64_t custs) {
  uint64_t h = MixRow(seed, seq);
  return FeedRow{static_cast<int64_t>(h % static_cast<uint64_t>(custs)),
                 static_cast<int64_t>((h >> 24) % kRegions),
                 1 + static_cast<int64_t>((h >> 32) % 9),
                 static_cast<int64_t>((h >> 40) % 100000)};
}

}  // namespace

const char* RegionName(int64_t i) {
  static const char* kNames[kRegions] = {"north", "south", "east",  "west",
                                         "coast", "plain", "delta", "ridge"};
  return kNames[i % kRegions];
}

SchemaPtr FeedSchema() {
  return Schema::Make({Field::Attr("seq", DataType::kInt64),
                       Field::Attr("cust", DataType::kInt64),
                       Field::Attr("region", DataType::kString),
                       Field::Attr("qty", DataType::kInt64),
                       Field::Attr("amount", DataType::kFloat64)})
      .ValueOrDie();
}

std::string FeedCsv(uint64_t seed, int64_t first_seq, int64_t rows, int64_t custs) {
  std::string out = "seq,cust,region,qty,amount\n";
  out.reserve(static_cast<size_t>(rows) * 40);
  char line[128];
  for (int64_t s = first_seq; s < first_seq + rows; ++s) {
    FeedRow r = MakeFeedRow(seed, s, custs);
    int n = std::snprintf(line, sizeof(line), "%lld,%lld,%s,%lld,%lld.%02lld\n",
                          static_cast<long long>(s), static_cast<long long>(r.cust),
                          RegionName(r.region), static_cast<long long>(r.qty),
                          static_cast<long long>(r.cents / 100),
                          static_cast<long long>(r.cents % 100));
    out.append(line, static_cast<size_t>(n));
  }
  return out;
}

namespace {

TablePtr FeedBatch(uint64_t seed, int64_t first_seq, int64_t rows, int64_t custs) {
  std::vector<int64_t> seq, cust, qty;
  std::vector<std::string> region;
  std::vector<double> amount;
  for (int64_t s = first_seq; s < first_seq + rows; ++s) {
    FeedRow r = MakeFeedRow(seed, s, custs);
    seq.push_back(s);
    cust.push_back(r.cust);
    region.emplace_back(RegionName(r.region));
    qty.push_back(r.qty);
    amount.push_back(static_cast<double>(r.cents) / 100.0);
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64(std::move(seq)));
  cols.push_back(Column::FromInt64(std::move(cust)));
  cols.push_back(Column::FromString(std::move(region)));
  cols.push_back(Column::FromInt64(std::move(qty)));
  cols.push_back(Column::FromFloat64(std::move(amount)));
  return Table::Make(FeedSchema(), std::move(cols)).ValueOrDie();
}

}  // namespace

SchemaPtr CustsSchema() {
  return Schema::Make({Field::Attr("cust", DataType::kInt64),
                       Field::Attr("segment", DataType::kInt64),
                       Field::Attr("nation", DataType::kString),
                       Field::Attr("credit", DataType::kFloat64)})
      .ValueOrDie();
}

std::string CustsCsv(uint64_t seed, int64_t rows) {
  static const char* kNations[] = {"alba", "brun", "cara", "dora", "eiru",
                                   "fenn", "gala", "hesp", "iona", "juno",
                                   "kira", "lusi"};
  std::string out = "cust,segment,nation,credit\n";
  out.reserve(static_cast<size_t>(rows) * 28);
  char line[96];
  for (int64_t c = 0; c < rows; ++c) {
    uint64_t h = MixRow(seed ^ 0xC057ULL, c);
    int64_t cents = static_cast<int64_t>((h >> 20) % 1000000);
    int n = std::snprintf(line, sizeof(line), "%lld,%lld,%s,%lld.%02lld\n",
                          static_cast<long long>(c), static_cast<long long>(h % 10),
                          kNations[(h >> 8) % 12], static_cast<long long>(cents / 100),
                          static_cast<long long>(cents % 100));
    out.append(line, static_cast<size_t>(n));
  }
  return out;
}

// ---------------------------------------------------------------------------
// IngestFeed.
// ---------------------------------------------------------------------------

int FeedBatchCount(const Options& options, double rate_per_s) {
  return std::max(1, static_cast<int>(std::lround(options.seconds * rate_per_s)));
}

std::vector<TablePtr> FeedBatches(uint64_t seed, const FeedSpec& spec) {
  std::vector<TablePtr> batches;
  for (int i = 0; i < spec.batches; ++i) {
    batches.push_back(FeedBatch(seed, spec.base_rows + i * spec.batch_rows,
                                spec.batch_rows, kDimCusts));
  }
  return batches;
}

IngestFeed::IngestFeed(InMemoryCatalog* catalog, FeedSpec spec, std::vector<TablePtr> batches)
    : catalog_(catalog), spec_(std::move(spec)), batches_(std::move(batches)), views_(catalog) {}

IngestFeed::~IngestFeed() { Join(); }

Status IngestFeed::RegisterViews() {
  for (const auto& [name, bdl] : spec_.views) {
    NEXUS_ASSIGN_OR_RETURN(PlanPtr plan, ParseBdl(bdl));
    NEXUS_RETURN_NOT_OK(views_.Register(name, plan));
    NEXUS_RETURN_NOT_OK(views_.Refresh(name).status());
    view_plans_[name] = plan;
  }
  return Status::OK();
}

void IngestFeed::Start(double t0) {
  writer_ = std::thread([this, t0] { Loop(t0); });
}

void IngestFeed::Join() {
  if (writer_.joinable()) writer_.join();
}

void IngestFeed::Loop(double t0) {
  using Clock = std::chrono::steady_clock;
  for (int i = 0; i < spec_.batches; ++i) {
    double due = t0 + static_cast<double>(i) / spec_.rate_per_s;
    if (NowSeconds() < due) {
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(due))));
    }
    Step(i, due);
  }
}

bool IngestFeed::AppendNext() {
  if (next_ >= spec_.batches) return false;
  Step(next_++, NowSeconds());
  return true;
}

void IngestFeed::Step(int i, double due) {
  double start = NowSeconds();
  begun_.fetch_add(1, std::memory_order_acq_rel);
  Status st = catalog_->Append(spec_.table, Dataset(batches_[static_cast<size_t>(i)]));
  double ack = NowSeconds();
  acked_.fetch_add(1, std::memory_order_acq_rel);
  if (!st.ok()) {
    ++failed_;
    return;
  }
  lateness_ms_.push_back(std::max(0.0, start - due) * 1e3);
  append_ms_.push_back((ack - due) * 1e3);
  append_call_ms_.push_back((ack - start) * 1e3);
  bool ok = true;
  for (const auto& [name, bdl] : spec_.views) {
    incremental::RefreshInfo info;
    double r0 = NowSeconds();
    ok = ok && views_.Refresh(name, &info).ok();
    view_refresh_ms_.push_back((NowSeconds() - r0) * 1e3);
    ++refreshes_;
    delta_rows_ += info.delta_rows;
  }
  if (!ok) ++failed_;
  refresh_ms_.push_back((NowSeconds() - ack) * 1e3);
}

int64_t IngestFeed::VerifyViews() const {
  int64_t mismatched = 0;
  for (const auto& [name, plan] : view_plans_) {
    auto current = views_.Current(name);
    auto full = incremental::ExecuteViewPlan(*plan, *catalog_);
    if (!current.ok() || !full.ok() ||
        !current.ValueOrDie()->Equals(*full.ValueOrDie())) {
      ++mismatched;
    }
  }
  return mismatched;
}

double IngestFeed::delta_rows_per_refresh() const {
  return refreshes_ == 0 ? 0.0
                         : static_cast<double>(delta_rows_) / static_cast<double>(refreshes_);
}

void SetFeedMetrics(const IngestFeed& feed, bool trace, Report* report) {
  if (!trace) {
    SetLatencyMetrics(report, "append", feed.append_ms());
    report->Set("refresh_p50_ms", Median(feed.refresh_ms()), "ms",
                StrCat("n=", feed.refresh_ms().size(), " batches, ",
                       feed.spec().views.size(), " views each"));
    return;
  }
  report->Set("core.catalog_append_ms", Median(feed.append_call_ms()), "ms",
              StrCat("median Append call, ", feed.spec().batch_rows, "-row batches"));
  report->Set("incremental.refresh_ms", Median(feed.view_refresh_ms()), "ms",
              "median ViewRegistry::Refresh call");
  report->Set("incremental.delta_rows_per_refresh", feed.delta_rows_per_refresh(),
              "count");
  report->Set("incremental.state_mb",
              static_cast<double>(feed.state_bytes()) / (1024.0 * 1024.0), "MiB");
  report->Set("load.writer_lateness_ms", Median(feed.lateness_ms()), "ms",
              StrCat("median; max ",
                     feed.lateness_ms().empty()
                         ? 0.0
                         : *std::max_element(feed.lateness_ms().begin(),
                                             feed.lateness_ms().end())));
}

// ---------------------------------------------------------------------------
// LayerTrace.
// ---------------------------------------------------------------------------

namespace {

const char* LayerOf(const tel::SpanRecord& s) {
  const char* cat = s.category;
  if (std::strcmp(cat, tel::kCategoryCoordinator) == 0) {
    return s.name == "plan" ? "federation.plan_ms" : "federation.coordinator_self_ms";
  }
  if (std::strcmp(cat, tel::kCategoryServer) == 0 ||
      std::strcmp(cat, tel::kCategoryOperator) == 0) {
    return "provider.server_self_ms";
  }
  if (std::strcmp(cat, tel::kCategoryEngine) == 0) {
    const std::string& n = s.name;
    if (n.rfind("rel.", 0) == 0) return "relational.engine_ms";
    if (n.rfind("alg.", 0) == 0) return "algebra.kernel_ms";
    if (n.rfind("la.", 0) == 0) return "linalg.engine_ms";
    if (n.rfind("graph.", 0) == 0) return "graph.engine_ms";
    if (n.rfind("ad.", 0) == 0) return "arraydb.engine_ms";
  }
  return nullptr;
}

}  // namespace

void LayerTrace::AddQuery(const std::vector<tel::SpanRecord>& spans, double execute_us) {
  std::vector<double> self = SelfTimesUs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].category, tel::kCategoryMorsel) == 0) ++morsels_;
    if (const char* layer = LayerOf(spans[i])) layer_us_[layer] += self[i];
  }
  unattributed_us_ += std::max(0.0, execute_us - CoveredUs(spans));
  ++queries_;
}

void LayerTrace::SetMetrics(Report* report) const {
  const double q = std::max<int64_t>(queries_, 1);
  for (const char* layer :
       {"federation.plan_ms", "federation.coordinator_self_ms", "provider.server_self_ms",
        "relational.engine_ms", "algebra.kernel_ms", "linalg.engine_ms",
        "graph.engine_ms", "arraydb.engine_ms"}) {
    auto it = layer_us_.find(layer);
    double us = it == layer_us_.end() ? 0.0 : it->second;
    report->Set(layer, us / q / 1e3, "ms", StrCat("self time per query, n=", queries_));
  }
  report->Set("common.morsels_per_query", static_cast<double>(morsels_) / q, "count");
  report->Set("trace.unattributed_ms", unattributed_us_ / q / 1e3, "ms",
              "execute wall not covered by any span, per query");
}

// ---------------------------------------------------------------------------
// Replay of the public layer calls.
// ---------------------------------------------------------------------------

std::map<std::string, int64_t> CounterSnapshot() {
  return tel::MetricsRegistry::Global().CounterValues();
}

int64_t CounterDelta(const std::map<std::string, int64_t>& before,
                     const std::map<std::string, int64_t>& after,
                     const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

namespace {

/// Median wall time (us) of `reps` calls of `fn`.
template <typename Fn>
double MedianUs(int reps, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    double t0 = NowSeconds();
    fn();
    us.push_back((NowSeconds() - t0) * 1e6);
  }
  return Median(us);
}

}  // namespace

Status ReplayLayers(Cluster* cluster, Coordinator* coordinator,
                    const std::vector<Template>& templates, Report* report) {
  constexpr int kReps = 5;
  FederatedCatalog fed(cluster);
  double parse_us = 0, optimize_us = 0, encode_us = 0, decode_us = 0;
  double nxb1_enc_us = 0, nxb1_dec_us = 0;
  int64_t nxb1_bytes = 0, nxb1_rows = 0, bdl_templates = 0;
  int64_t joins_reordered = 0, ops_lowered = 0;
  int64_t fragments = 0, parallel_fragments = 0, messages = 0, client_bytes = 0;
  int64_t compiles = 0, compile_hits = 0, alg_joins = 0, alg_unions = 0;
  for (const Template& t : templates) {
    if (!t.bdl.empty()) {
      parse_us += MedianUs(kReps, [&] { (void)ParseBdl(t.bdl); });
      ++bdl_templates;
    }
    NEXUS_ASSIGN_OR_RETURN(PlanPtr plan, SubmitPlan(t));
    PlanPtr optimized;
    optimize_us += MedianUs(kReps, [&] {
      optimized = Optimize(plan, fed, coordinator->options().optimizer).ValueOr(plan);
    });
    std::string wire;
    encode_us += MedianUs(kReps, [&] {
      wire = SerializePlanWire(*optimized, WireFormat::kBinary);
    });
    decode_us += MedianUs(kReps, [&] { (void)ParsePlan(wire); });
    std::string data_wire;
    nxb1_enc_us += MedianUs(kReps, [&] {
      data_wire = SerializeDatasetWire(t.expected, WireFormat::kBinary);
    });
    nxb1_dec_us += MedianUs(kReps, [&] { (void)ParseDatasetWire(data_wire); });
    nxb1_bytes += static_cast<int64_t>(data_wire.size());
    nxb1_rows += t.expected.num_rows();

    auto before = CounterSnapshot();
    ExecutionMetrics m;
    NEXUS_RETURN_NOT_OK(coordinator->Execute(plan, &m).status());
    auto after = CounterSnapshot();
    joins_reordered += coordinator->last_optimizer_stats().joins_reordered;
    ops_lowered += coordinator->last_optimizer_stats().ops_lowered;
    fragments += m.fragments;
    parallel_fragments += m.parallel_fragments;
    messages += m.messages;
    client_bytes += m.bytes_through_client;
    compiles += CounterDelta(before, after, "expr.compile");
    compile_hits += CounterDelta(before, after, "expr.compile_cache_hit");
    alg_joins += CounterDelta(before, after, "algebra.join");
    alg_unions += CounterDelta(before, after, "algebra.union");
  }
  const double n = static_cast<double>(std::max<size_t>(templates.size(), 1));
  const std::string base = StrCat("mean over ", templates.size(), " templates");
  report->Set("frontend.parse_us",
              bdl_templates == 0 ? 0.0 : parse_us / static_cast<double>(bdl_templates),
              "us", StrCat("ParseBdl, mean over ", bdl_templates, " BDL templates"));
  report->Set("optimizer.optimize_us", optimize_us / n, "us", base);
  report->Set("optimizer.joins_reordered", static_cast<double>(joins_reordered) / n,
              "count", base);
  report->Set("optimizer.ops_lowered", static_cast<double>(ops_lowered) / n, "count", base);
  report->Set("core.plan_encode_us", encode_us / n, "us", base);
  report->Set("core.plan_decode_us", decode_us / n, "us", base);
  report->Set("core.nxb1_encode_ms", nxb1_enc_us / n / 1e3, "ms", base);
  report->Set("core.nxb1_decode_ms", nxb1_dec_us / n / 1e3, "ms", base);
  report->Set("core.nxb1_bytes_per_row",
              nxb1_rows == 0 ? 0.0
                             : static_cast<double>(nxb1_bytes) / static_cast<double>(nxb1_rows),
              "B", StrCat(nxb1_bytes, " B over ", nxb1_rows, " answer rows"));
  report->Set("federation.fragments_per_query", static_cast<double>(fragments) / n, "count", base);
  report->Set("federation.parallel_fragments_per_query",
              static_cast<double>(parallel_fragments) / n, "count", base);
  report->Set("federation.messages_per_query", static_cast<double>(messages) / n, "count", base);
  report->Set("federation.client_bytes_per_query", static_cast<double>(client_bytes) / n,
              "B", base);
  report->Set("expr.compiles_per_query", static_cast<double>(compiles) / n, "count", base);
  report->Set("expr.cache_hit_ratio",
              compiles + compile_hits == 0
                  ? 0.0
                  : static_cast<double>(compile_hits) /
                        static_cast<double>(compiles + compile_hits),
              "ratio", StrCat(compile_hits, " hits / ", compiles + compile_hits, " lookups"));
  report->Set("algebra.join_calls_per_query", static_cast<double>(alg_joins) / n, "count", base);
  report->Set("algebra.union_calls_per_query", static_cast<double>(alg_unions) / n, "count",
              base);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------------

Status FillReferenceCatalog(const World& world, InMemoryCatalog* catalog) {
  for (const auto& [server, table] : world.tables) {
    NEXUS_ASSIGN_OR_RETURN(Dataset data,
                           world.cluster->provider(server)->catalog()->Get(table));
    NEXUS_RETURN_NOT_OK(catalog->Put(table, std::move(data)));
  }
  return Status::OK();
}

namespace {

/// Reads of one phase: one reader's, or all readers' merged.
struct ReadPhase {
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;
  std::map<std::string, std::vector<double>> by_template_ms;
  std::map<std::string, int64_t> failed_by_template;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Wall time of the phase minus the time a closed-loop reader spent
  /// loading feed batches (the slowest reader's, when merged).
  double read_wall_s = 0.0;

  /// The read mix's median latency: each template's median, combined by
  /// geometric mean so that every template weighs the same.
  double P50() const {
    std::vector<std::vector<double>> groups;
    for (const auto& [name, ms] : by_template_ms) groups.push_back(ms);
    return GeomeanOfMedians(groups);
  }

  void Merge(const ReadPhase& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
    queue_wait_ms.insert(queue_wait_ms.end(), other.queue_wait_ms.begin(),
                         other.queue_wait_ms.end());
    for (const auto& [name, ms] : other.by_template_ms) {
      by_template_ms[name].insert(by_template_ms[name].end(), ms.begin(), ms.end());
    }
    for (const auto& [name, n] : other.failed_by_template) failed_by_template[name] += n;
    attempted += other.attempted;
    failed += other.failed;
    read_wall_s = std::max(read_wall_s, other.read_wall_s);
  }
};

/// Submits template `ti` for `reader`, times it from submit to answer,
/// checks the answer and records the outcome in `phase`. With a `trace`,
/// the query's spans go to it (the caller runs one query at a time).
void TimedRead(const WorkloadSpec& spec, World* world, int reader, size_t ti, bool corrupt,
               LayerTrace* trace, ReadPhase* phase) {
  const Template& t = spec.templates[ti];
  if (trace != nullptr) tel::ClearSpans();
  const int64_t acked = world->feed->acked();
  double queue_wait_ms = 0.0;
  double t0 = NowSeconds();
  Result<PlanPtr> plan = SubmitPlan(t);
  double t1 = NowSeconds();
  Result<Dataset> answer =
      plan.ok() ? spec.execute(world, reader, ti, plan.ValueOrDie(), &queue_wait_ms)
                : plan.status();
  double t2 = NowSeconds();
  const int64_t begun = world->feed->begun();
  if (trace != nullptr) trace->AddQuery(tel::Spans(), (t2 - t1) * 1e6);
  ++phase->attempted;
  phase->latency_ms.push_back((t2 - t0) * 1e3);
  phase->queue_wait_ms.push_back(queue_wait_ms);
  phase->by_template_ms[t.name].push_back((t2 - t0) * 1e3);
  std::string error;
  if (!answer.ok()) {
    error = answer.status().ToString();
  } else {
    Dataset got = corrupt ? Corrupted(answer.ValueOrDie()) : answer.ValueOrDie();
    if (t.check) {
      if (!t.check(got, acked, begun)) error = "not a prefix of the acknowledged appends";
    } else {
      error = AnswerDifference(got, t.expected);
    }
  }
  if (!error.empty()) {
    if (phase->failed_by_template[t.name]++ == 0) {
      std::fprintf(stderr, "wrong answer from %s: %s\n", t.name.c_str(), error.c_str());
    }
    ++phase->failed;
  }
}

/// One reader's measured list. A closed-loop reader also loads the feed's
/// batches between its reads, spread evenly over the list.
ReadPhase RunReader(const WorkloadSpec& spec, World* world, int reader,
                    const std::vector<int>& ops, bool corrupt) {
  ReadPhase phase;
  IngestFeed* feed = spec.open_loop ? nullptr : world->feed.get();
  double loading_s = 0.0;
  const double start = NowSeconds();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (feed != nullptr) {
      const double l0 = NowSeconds();
      const size_t due = i * static_cast<size_t>(feed->spec().batches) / ops.size();
      while (static_cast<size_t>(feed->acked()) < due && feed->AppendNext()) {
      }
      loading_s += NowSeconds() - l0;
    }
    TimedRead(spec, world, reader, static_cast<size_t>(ops[i]), corrupt && i == 0, nullptr,
              &phase);
    if (spec.think_time.count() > 0) std::this_thread::sleep_for(spec.think_time);
  }
  phase.read_wall_s = NowSeconds() - start - loading_s;
  while (feed != nullptr && feed->AppendNext()) {
  }
  return phase;
}

/// Sum over tenants of the service.<tenant>.<leaf> counter deltas.
int64_t ServiceCounterDelta(const std::map<std::string, int64_t>& before,
                            const std::map<std::string, int64_t>& after,
                            const std::string& leaf) {
  int64_t total = 0;
  const std::string suffix = "." + leaf;
  for (const auto& [name, value] : after) {
    if (name.rfind("service.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += CounterDelta(before, after, name);
    }
  }
  return total;
}

}  // namespace

Result<Dataset> ExecuteOnCoordinator(World* world, int /*reader*/, size_t /*t*/,
                                     const PlanPtr& plan, double* /*queue_wait_ms*/) {
  return world->coordinator->Execute(plan);
}

Outcome RunWorkload(const Options& options, WorkloadSpec spec) {
  Outcome out;
  auto fail = [&out](const char* what, const Status& st) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    out.correct = false;
    out.attempted = out.failed = 1;
    return out;
  };
  const size_t n_templates = spec.templates.size();

  // Set-up, repeated from an empty cluster; each ends with one warm-up pass
  // of every template, and the last instance serves. Half the repetitions
  // run before the measured phase and half after it, so setup_s samples
  // the host across the whole run like the read latencies do.
  std::unique_ptr<World> world;
  std::vector<double> setup_s, csv_parse_ms, catalog_put_ms;
  auto set_up = [&](int reps) -> Status {
    for (int rep = 0; rep < reps; ++rep) {
      world.reset();
      world = std::make_unique<World>();
      double t0 = NowSeconds();
      Status st = spec.build(world.get());
      for (size_t ti = 0; st.ok() && ti < n_templates; ++ti) {
        Result<PlanPtr> plan = SubmitPlan(spec.templates[ti]);
        double queue_wait_ms = 0.0;
        st = plan.ok() ? spec.execute(world.get(), 0, ti, plan.ValueOrDie(), &queue_wait_ms)
                             .status()
                       : plan.status();
      }
      setup_s.push_back(NowSeconds() - t0);
      NEXUS_RETURN_NOT_OK(st);
      csv_parse_ms.push_back(world->load.csv_parse_s * 1e3);
      catalog_put_ms.push_back(world->load.catalog_put_s * 1e3);
    }
    return Status::OK();
  };
  Status st = set_up(spec.setup_reps - spec.setup_reps / 2);
  if (!st.ok()) return fail("set-up", st);

  // Reference answers, before any timing (reads of the feed's table are
  // checked by their template's own check instead).
  double t_ref = NowSeconds();
  InMemoryCatalog reference;
  st = FillReferenceCatalog(*world, &reference);
  if (st.ok()) st = ComputeExpected(reference, &spec.templates);
  if (!st.ok()) return fail("reference answers", st);
  std::printf("reference answers %.3f s\n", NowSeconds() - t_ref);

  double t_warm = NowSeconds();
  for (int rep = 0; rep < spec.warmup_reps; ++rep) {
    for (int r = 0; r < spec.readers; ++r) {
      for (size_t ti = 0; ti < n_templates; ++ti) {
        double queue_wait_ms = 0.0;
        (void)spec.execute(world.get(), r, ti, SubmitPlan(spec.templates[ti]).ValueOr(nullptr),
                           &queue_wait_ms);
      }
    }
  }
  std::printf("warm-up %.3f s\n", NowSeconds() - t_warm);

  const int per_template = std::max(
      3, static_cast<int>(std::lround(options.seconds * spec.nominal_qps_per_reader /
                                      static_cast<double>(n_templates))));
  std::vector<std::vector<int>> lists;
  for (int r = 0; r < spec.readers; ++r) {
    lists.push_back(OpList(options.seed * 31 + static_cast<uint64_t>(r),
                           static_cast<int>(n_templates), per_template));
  }

  // The measured phase.
  Transport* transport = world->cluster->transport();
  const auto counters0 = CounterSnapshot();
  const double sim0 = transport->simulated_seconds();
  const int64_t bytes0 = transport->total_bytes();
  if (spec.open_loop) world->feed->Start(NowSeconds());
  std::vector<ReadPhase> logs(static_cast<size_t>(spec.readers));
  std::vector<std::thread> threads;
  for (int r = 0; r < spec.readers; ++r) {
    threads.emplace_back([&, r] {
      logs[static_cast<size_t>(r)] = RunReader(spec, world.get(), r, lists[static_cast<size_t>(r)],
                                               options.corrupt && r == 0);
    });
  }
  for (std::thread& th : threads) th.join();
  world->feed->Join();
  const auto counters1 = CounterSnapshot();
  const double sim_s = transport->simulated_seconds() - sim0;
  const int64_t wire_bytes = transport->total_bytes() - bytes0;
  ReadPhase phase;
  for (const ReadPhase& log : logs) phase.Merge(log);

  // Traced runs replay the first third of every reader's list twice more,
  // one query at a time with the writer stopped, first untraced and then
  // traced: tracing is process-wide, and spans recorded by two threads at
  // once can deadlock against the transport (see README.md).
  ReadPhase quiet, traced;
  LayerTrace layers;
  std::map<std::string, int64_t> traced0, traced1;
  if (options.trace) {
    const size_t replay = std::max(n_templates, lists[0].size() / kReplayShare);
    auto replay_serial = [&](LayerTrace* trace, ReadPhase* into) {
      for (size_t i = 0; i < replay; ++i) {
        for (int r = 0; r < spec.readers; ++r) {
          TimedRead(spec, world.get(), r,
                    static_cast<size_t>(lists[static_cast<size_t>(r)][i]), false, trace, into);
        }
      }
    };
    replay_serial(nullptr, &quiet);
    traced0 = CounterSnapshot();
    tel::SetEnabled(true);
    replay_serial(&layers, &traced);
    tel::SetEnabled(false);
    tel::ClearSpans();
    traced1 = CounterSnapshot();
  }
  for (const auto& [name, ms] : phase.by_template_ms) {
    std::printf("template %-12s p50 %10.3f ms  n=%zu  failed=%lld\n", name.c_str(), Median(ms),
                ms.size(), static_cast<long long>(phase.failed_by_template[name]));
  }

  const IngestFeed& feed = *world->feed;
  const int64_t view_mismatches = feed.VerifyViews();
  out.attempted = phase.attempted + quiet.attempted + traced.attempted + feed.spec().batches;
  out.failed = phase.failed + quiet.failed + traced.failed + feed.failed() + view_mismatches;
  out.correct = out.failed == 0;

  Report& r = out.report;
  const double reads = static_cast<double>(std::max<int64_t>(phase.attempted, 1));
  if (!options.trace) {
    r.Set("query_p50_ms", phase.P50(), "ms",
          StrCat("geometric mean of ", phase.by_template_ms.size(), " template medians, n=",
                 phase.latency_ms.size()));
    SetTailMetric(&r, "query_tail_ms", phase.latency_ms);
    r.Set("throughput_qps", static_cast<double>(phase.attempted) / phase.read_wall_s, "1/s",
          StrCat(phase.attempted, " reads by ", spec.readers, " readers in ", phase.read_wall_s,
                 " s"));
    r.Set("net_sim_ms_per_query", sim_s * 1e3 / reads, "ms");
    r.Set("wire_bytes_per_query", static_cast<double>(wire_bytes) / reads, "B");
    r.Set("peak_rss_mb", PeakRssMiB(), "MiB");
    SetFeedMetrics(feed, false, &r);
  } else {
    SetFeedMetrics(feed, true, &r);
    layers.SetMetrics(&r);
    const double p50_untraced = quiet.P50();
    const double p50_traced = traced.P50();
    r.Set("trace.overhead_pct", (p50_traced / p50_untraced - 1.0) * 100.0, "%",
          StrCat("query p50 traced ", p50_traced, " ms vs untraced ", p50_untraced, " ms"));
    const int64_t hits = CounterDelta(traced0, traced1, "provider.plan_cache_hit");
    const int64_t misses = CounterDelta(traced0, traced1, "provider.plan_cache_miss");
    r.Set("provider.plan_cache_hit_ratio",
          hits + misses == 0 ? 0.0
                             : static_cast<double>(hits) / static_cast<double>(hits + misses),
          "ratio", StrCat(hits, " hits / ", hits + misses, " plan lookups"));
    if (world->server != nullptr) {
      r.Set("service.queue_wait_ms", Median(phase.queue_wait_ms), "ms",
            StrCat("median admission wait, measured phase, n=", phase.queue_wait_ms.size()));
      r.Set("service.rejected",
            static_cast<double>(ServiceCounterDelta(counters0, counters1, "rejected")), "count",
            "measured phase");
      r.Set("service.killed",
            static_cast<double>(ServiceCounterDelta(counters0, counters1, "killed")), "count",
            "measured phase");
    }
    Coordinator replay(world->cluster.get());
    st = ReplayLayers(world->cluster.get(), &replay, spec.templates, &r);
    if (!st.ok()) {
      std::fprintf(stderr, "layer replay failed: %s\n", st.ToString().c_str());
      ++out.failed;
      out.correct = false;
    }
  }

  // The second half of the set-ups, after the serving instance is gone.
  world.reset();
  st = set_up(spec.setup_reps / 2);
  if (!st.ok()) return fail("set-up", st);
  if (!options.trace) {
    r.Set("setup_s", Median(setup_s), "s", StrCat("median of ", setup_s.size(), " set-ups"));
  } else {
    r.Set("types.csv_parse_ms", Median(csv_parse_ms), "ms",
          "ReadCsv, all tables, median set-up");
    r.Set("core.catalog_put_ms", Median(catalog_put_ms), "ms",
          "Cluster::PutData, all tables, median set-up");
  }
  return out;
}

}  // namespace perfbench
