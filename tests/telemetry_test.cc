// Telemetry subsystem tests: the metrics registry, span tracer, wire-header
// propagation, Chrome trace export, EXPLAIN ANALYZE, and the two contracts
// the rest of the repo depends on —
//   1. ExecutionMetrics is a per-call delta view over cumulative registry
//      counters (repeated Execute calls never double-count), and
//   2. with tracing disabled, execution is behaviorally identical (same
//      metered bytes, same fault traces) to a build without telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "expr/builder.h"
#include "federation/coordinator.h"
#include "telemetry/explain.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_export.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using testing::F;
using testing::I;
using testing::MakeSchema;

/// Restores a clean telemetry state around every test in this file.
struct TelemetryGuard {
  TelemetryGuard() {
    telemetry::SetEnabled(false);
    telemetry::ClearSpans();
  }
  ~TelemetryGuard() {
    telemetry::SetEnabled(false);
    telemetry::ClearSpans();
  }
};

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator (objects/arrays/strings/numbers/literals).
// Enough to prove the Chrome trace export is loadable; Perfetto and Python's
// json module accept a superset.
// ---------------------------------------------------------------------------

struct JsonCursor {
  const std::string& s;
  size_t at = 0;

  void SkipWs() {
    while (at < s.size() && (s[at] == ' ' || s[at] == '\n' || s[at] == '\t' ||
                             s[at] == '\r')) {
      ++at;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (at < s.size() && s[at] == c) {
      ++at;
      return true;
    }
    return false;
  }
};

bool ParseJsonValue(JsonCursor* c);

bool ParseJsonString(JsonCursor* c) {
  if (!c->Eat('"')) return false;
  while (c->at < c->s.size() && c->s[c->at] != '"') {
    if (c->s[c->at] == '\\') ++c->at;
    ++c->at;
  }
  return c->at < c->s.size() && c->s[c->at++] == '"';
}

bool ParseJsonValue(JsonCursor* c) {
  c->SkipWs();
  if (c->at >= c->s.size()) return false;
  char ch = c->s[c->at];
  if (ch == '{') {
    ++c->at;
    if (c->Eat('}')) return true;
    do {
      if (!ParseJsonString(c)) return false;
      if (!c->Eat(':')) return false;
      if (!ParseJsonValue(c)) return false;
    } while (c->Eat(','));
    return c->Eat('}');
  }
  if (ch == '[') {
    ++c->at;
    if (c->Eat(']')) return true;
    do {
      if (!ParseJsonValue(c)) return false;
    } while (c->Eat(','));
    return c->Eat(']');
  }
  if (ch == '"') return ParseJsonString(c);
  if (c->s.compare(c->at, 4, "true") == 0) return c->at += 4, true;
  if (c->s.compare(c->at, 5, "false") == 0) return c->at += 5, true;
  if (c->s.compare(c->at, 4, "null") == 0) return c->at += 4, true;
  // Number.
  size_t start = c->at;
  if (ch == '-') ++c->at;
  while (c->at < c->s.size() &&
         (std::isdigit(static_cast<unsigned char>(c->s[c->at])) ||
          c->s[c->at] == '.' || c->s[c->at] == 'e' || c->s[c->at] == 'E' ||
          c->s[c->at] == '+' || c->s[c->at] == '-')) {
    ++c->at;
  }
  return c->at > start;
}

bool IsValidJson(const std::string& s) {
  JsonCursor c{s};
  if (!ParseJsonValue(&c)) return false;
  c.SkipWs();
  return c.at == s.size();
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAreLazyStableAndShared) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter* a = reg.counter("test.hits");
  telemetry::Counter* b = reg.counter("test.hits");
  EXPECT_EQ(a, b);  // same name, same instrument, pointer stable
  a->Increment();
  a->Add(4);
  EXPECT_EQ(b->value(), 5);

  telemetry::Gauge* g = reg.gauge("test.level");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("test.level")->value(), 2.5);

  auto values = reg.CounterValues();
  EXPECT_EQ(values["test.hits"], 5);
  EXPECT_NE(reg.ToString().find("test.hits"), std::string::npos);

  reg.ResetForTest();
  EXPECT_EQ(a->value(), 0);  // zeroed in place; the pointer stays valid
}

TEST(MetricsRegistryTest, HistogramBucketsMeanAndQuantile) {
  telemetry::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 0.0);
  for (int i = 0; i < 8; ++i) h.Record(10.0);
  h.Record(1000.0);
  EXPECT_EQ(h.count(), 9);
  EXPECT_NEAR(h.mean(), (8 * 10.0 + 1000.0) / 9.0, 1e-9);
  // The median lands in 10.0's bucket; its upper edge is 16.
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 16.0);
  // The max quantile covers the 1000.0 outlier's bucket (upper edge 1024).
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 1024.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Span tracer.
// ---------------------------------------------------------------------------

TEST(SpanTest, DisabledGuardIsInertAndRecordsNothing) {
  TelemetryGuard guard;
  int64_t before = telemetry::SpanCount();
  {
    telemetry::SpanGuard span(telemetry::kCategoryEngine, "noop");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    span.AddCounter("rows", 1);  // must be a no-op, not a crash
  }
  EXPECT_EQ(telemetry::SpanCount(), before);
}

TEST(SpanTest, NestedGuardsParentAndIdsAreDeterministic) {
  TelemetryGuard guard;
  telemetry::SetEnabled(true);
  {
    telemetry::SpanGuard outer(telemetry::kCategoryCoordinator, "outer");
    EXPECT_TRUE(outer.active());
    EXPECT_EQ(outer.id(), 1u);
    EXPECT_EQ(outer.trace(), 1u);
    {
      telemetry::SpanGuard inner(telemetry::kCategoryOperator, "inner");
      EXPECT_EQ(inner.id(), 2u);
      EXPECT_EQ(inner.trace(), outer.trace());
      inner.AddCounter("rows", 42);
    }
  }
  std::vector<telemetry::SpanRecord> spans = telemetry::Spans();
  ASSERT_EQ(spans.size(), 2u);  // completion order: inner first
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, 1u);
  EXPECT_EQ(spans[0].CounterOr("rows", -1), 42);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, 0u);  // root
  EXPECT_GE(spans[1].wall_dur_us, spans[0].wall_dur_us);

  // ClearSpans resets the id counters: a rerun traces identically.
  telemetry::ClearSpans();
  telemetry::SpanGuard again(telemetry::kCategoryCoordinator, "outer");
  EXPECT_EQ(again.id(), 1u);
}

TEST(SpanTest, MorselSpansParentUnderTheSubmittingSpan) {
  TelemetryGuard guard;
  telemetry::SetEnabled(true);
  uint64_t region_parent = 0;
  {
    telemetry::SpanGuard op(telemetry::kCategoryOperator, "scan-like");
    region_parent = op.id();
    std::atomic<int64_t> sum{0};
    ParallelFor(
        8, 1, [&](int64_t b, int64_t e) { sum.fetch_add(e - b); },
        /*threads=*/2);
    EXPECT_EQ(sum.load(), 8);
  }
  int64_t morsels = 0;
  for (const telemetry::SpanRecord& s : telemetry::Spans()) {
    if (std::string(s.category) != telemetry::kCategoryMorsel) continue;
    ++morsels;
    EXPECT_EQ(s.parent, region_parent);
    EXPECT_GE(s.CounterOr("index", -1), 0);
  }
  EXPECT_EQ(morsels, 8);
}

TEST(WireHeaderTest, RoundTripsAndIgnoresHeaderlessWires) {
  std::string header = telemetry::WireHeader(7, 42, "relstore");
  std::string wire = header + "PAYLOAD";
  telemetry::TraceContext ctx;
  size_t offset = telemetry::StripWireHeader(wire, &ctx);
  ASSERT_NE(offset, 0u);
  EXPECT_EQ(wire.substr(offset), "PAYLOAD");
  EXPECT_EQ(ctx.trace, 7u);
  EXPECT_EQ(ctx.parent, 42u);
  EXPECT_EQ(ctx.server, "relstore");

  telemetry::TraceContext untouched;
  EXPECT_EQ(telemetry::StripWireHeader("PLAIN WIRE", &untouched), 0u);
  EXPECT_EQ(untouched.trace, 0u);
  // Short wires must not read out of bounds.
  EXPECT_EQ(telemetry::StripWireHeader("%", &untouched), 0u);
}

// ---------------------------------------------------------------------------
// Federated tracing end to end.
// ---------------------------------------------------------------------------

// Two matrix holders plus a linalg specialist: MatMul lands on linalg and
// both scans are remote fragments, so a single query touches three servers.
void FillMatMulCluster(Cluster* cluster) {
  ASSERT_OK(cluster->AddServer("relstore", MakeRelationalProvider()));
  ASSERT_OK(cluster->AddServer("relsmall", MakeRelationalProvider()));
  ASSERT_OK(cluster->AddServer("linalg", MakeLinalgProvider()));
  ASSERT_OK(cluster->AddServer("reference", MakeReferenceProvider()));
  auto matrix = [](uint64_t seed, const char* d0, const char* d1,
                   const char* attr) {
    Rng rng(seed);
    SchemaPtr s = MakeSchema({Field::Dim(d0), Field::Dim(d1),
                              Field::Attr(attr, DataType::kFloat64)});
    TableBuilder b(s);
    for (int64_t r = 0; r < 8; ++r) {
      for (int64_t c = 0; c < 8; ++c) {
        EXPECT_OK(b.AppendRow({I(r), I(c), F(rng.NextDouble(0.1, 1.0))}));
      }
    }
    return Dataset(b.Finish().ValueOrDie());
  };
  ASSERT_OK(cluster->PutData("relstore", "MA", matrix(31, "i", "k", "a")));
  ASSERT_OK(cluster->PutData("relsmall", "MB", matrix(32, "k", "j", "b")));
}

TEST(FederatedTraceTest, FaultyMultiServerQueryExportsOneStitchedTrace) {
  TelemetryGuard guard;
  Cluster cluster;
  FillMatMulCluster(&cluster);
  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 0.25;
  f.seed = 7;
  cluster.transport()->SetFaultOptions(f);
  CoordinatorOptions opts;
  opts.retry.max_attempts = 8;
  opts.thread_count = 1;
  Coordinator coord(&cluster, opts);
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");

  telemetry::SetEnabled(true);
  // Several queries share the deterministic fault stream; at least one must
  // hit a drop and retry. That query's trace is the acceptance exhibit.
  uint64_t trace = 0;
  for (int q = 0; q < 4 && trace == 0; ++q) {
    ExecutionMetrics m;
    ASSERT_OK(coord.Execute(mm, &m).status());
    if (m.retries > 0) trace = coord.last_trace_id();
  }
  ASSERT_NE(trace, 0u) << "no query hit a fault + retry";

  // One stitched tree: every span of the chosen trace shares its id, and
  // the spans cover the client plus at least two distinct servers.
  std::set<std::string> servers;
  bool saw_retry_event = false, saw_server_span = false, saw_operator = false;
  for (const telemetry::SpanRecord& s : telemetry::Spans()) {
    if (s.trace != trace) continue;
    if (!s.server.empty()) servers.insert(s.server);
    if (s.name.compare(0, 5, "retry") == 0) saw_retry_event = true;
    if (std::string(s.category) == telemetry::kCategoryServer) {
      saw_server_span = true;
    }
    if (std::string(s.category) == telemetry::kCategoryOperator) {
      saw_operator = true;
    }
  }
  EXPECT_GE(servers.size(), 2u) << "trace does not span multiple servers";
  EXPECT_TRUE(saw_retry_event);
  EXPECT_TRUE(saw_server_span) << "no provider-side span was stitched in";
  EXPECT_TRUE(saw_operator);

  // The Chrome export of that one trace is valid JSON with one process per
  // server, and round-trips through WriteChromeTrace.
  std::string json = telemetry::ToChromeTraceJson(telemetry::Spans(), trace);
  EXPECT_TRUE(IsValidJson(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"linalg\""), std::string::npos);
  ASSERT_OK(telemetry::WriteChromeTrace("telemetry_test_trace.json",
                                        telemetry::Spans(), trace));
}

// Regression: span timestamps read the coordinator's simulated clock, which
// takes the transport mutex, while Transport::Send records spans under that
// same mutex. Reading the clock inside the span-store lock deadlocked two
// traced clients sharing one cluster. Both must finish; a watchdog turns a
// hang into a failure instead of a stuck test binary.
TEST(FederatedTraceTest, ConcurrentTracedExecutesOnOneClusterFinish) {
  TelemetryGuard guard;
  Cluster cluster;
  FillMatMulCluster(&cluster);
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");
  CoordinatorOptions seq;
  seq.thread_count = 1;
  Dataset want = Coordinator(&cluster, seq).Execute(mm).ValueOrDie();

  telemetry::SetEnabled(true);
  constexpr int kClients = 2;
  constexpr int kQueriesEach = 25;
  std::atomic<int> finished{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      CoordinatorOptions o;
      o.temp_namespace = StrCat("t", i);
      Coordinator coordinator(&cluster, o);
      for (int q = 0; q < kQueriesEach; ++q) {
        auto r = coordinator.Execute(mm);
        if (!r.ok() || !r.ValueOrDie().LogicallyEquals(want)) wrong.fetch_add(1);
      }
      finished.fetch_add(1);
    });
  }
  std::thread watchdog([&] {
    for (int tick = 0; tick < 1200 && finished.load() < kClients; ++tick) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (finished.load() < kClients) {
      std::fprintf(stderr, "traced concurrent executes deadlocked\n");
      std::_Exit(1);
    }
  });
  for (std::thread& c : clients) c.join();
  watchdog.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(telemetry::SpanCount(), 0);
}

TEST(FederatedTraceTest, ExplainAnalyzeShowsFragmentsRowsAndServers) {
  TelemetryGuard guard;
  Cluster cluster;
  FillMatMulCluster(&cluster);
  CoordinatorOptions opts;
  opts.thread_count = 1;
  Coordinator coord(&cluster, opts);
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");

  ExecutionMetrics m;
  auto report = coord.ExplainAnalyze(mm, &m);
  ASSERT_OK(report.status());
  const std::string& text = report.ValueOrDie();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("fragment -> linalg"), std::string::npos);
  EXPECT_NE(text.find("@linalg"), std::string::npos);
  EXPECT_NE(text.find("rows="), std::string::npos);
  EXPECT_NE(text.find("bytes="), std::string::npos);
  EXPECT_NE(text.find("wall="), std::string::npos);
  EXPECT_NE(text.find("sim="), std::string::npos);
  EXPECT_GT(m.fragments, 0);  // metrics ride along
  // ExplainAnalyze restores the caller's tracing state (disabled here).
  EXPECT_FALSE(telemetry::Enabled());
}

// ---------------------------------------------------------------------------
// ExecutionMetrics = per-call delta view (no double-counting).
// ---------------------------------------------------------------------------

TEST(MetricsDeltaTest, RepeatedExecutesOnOneCoordinatorDoNotAccumulate) {
  TelemetryGuard guard;
  Cluster cluster;
  FillMatMulCluster(&cluster);
  CoordinatorOptions opts;
  opts.thread_count = 1;
  // This test pins identical per-call accounting across re-executions; the
  // plan cache would legitimately shrink later calls (fingerprint references
  // instead of full plans), so it is held off here.
  opts.plan_cache = false;
  Coordinator coord(&cluster, opts);
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");

  int64_t fragments0 = telemetry::MetricsRegistry::Global()
                           .counter("coordinator.fragments")
                           ->value();
  ExecutionMetrics first;
  ASSERT_OK(coord.Execute(mm, &first).status());
  ASSERT_GT(first.fragments, 0);
  ASSERT_GT(first.messages, 0);
  for (int q = 0; q < 3; ++q) {
    ExecutionMetrics again;
    ASSERT_OK(coord.Execute(mm, &again).status());
    // Identical query, identical per-call accounting — cumulative registry
    // counters must not leak into later calls.
    EXPECT_EQ(again.fragments, first.fragments) << "call " << q;
    EXPECT_EQ(again.messages, first.messages) << "call " << q;
    // Bytes may drift by a few: fragment temp names (__frag_N) embed a
    // monotonic counter that eventually gains a digit. Double-counting
    // would show up as a ~2x jump, not single bytes.
    EXPECT_NEAR(static_cast<double>(again.bytes_total),
                static_cast<double>(first.bytes_total), 8.0)
        << "call " << q;
    EXPECT_EQ(again.retries, 0) << "call " << q;
  }
  // Meanwhile the registry view is cumulative across all four calls.
  int64_t fragments_cum = telemetry::MetricsRegistry::Global()
                              .counter("coordinator.fragments")
                              ->value() -
                          fragments0;
  EXPECT_EQ(fragments_cum, 4 * first.fragments);
}

// ---------------------------------------------------------------------------
// Disabled telemetry is behaviorally invisible.
// ---------------------------------------------------------------------------

std::string MeteredRun(const PlanPtr& plan) {
  Cluster cluster;
  FillMatMulCluster(&cluster);
  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 0.3;
  f.latency_spike_probability = 0.1;
  f.seed = 5;
  cluster.transport()->SetFaultOptions(f);
  CoordinatorOptions opts;
  opts.retry.max_attempts = 8;
  opts.thread_count = 1;
  Coordinator coord(&cluster, opts);
  std::string out;
  for (int q = 0; q < 3; ++q) {
    ExecutionMetrics m;
    EXPECT_OK(coord.Execute(plan, &m).status());
    m.wall_seconds = 0.0;  // the only nondeterministic field
    out += m.ToString() + "\n";
  }
  for (const FaultEvent& e : cluster.transport()->fault_log()) {
    out += e.ToString() + "\n";
  }
  return out;
}

TEST(DisabledTelemetryTest, TogglingTracingLeavesDisabledRunsByteIdentical) {
  TelemetryGuard guard;
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");

  std::string before = MeteredRun(mm);
  telemetry::SetEnabled(true);
  std::string traced = MeteredRun(mm);
  telemetry::SetEnabled(false);
  std::string after = MeteredRun(mm);

  // Tracing off: metered bytes and the seeded fault trace replay exactly —
  // enabling telemetry in between must leave no residue.
  EXPECT_EQ(before, after);
  // Tracing on is *visible* (wire headers cost bytes), proving the off path
  // really is the untraced byte stream rather than a lucky match.
  EXPECT_NE(before, traced);
}

// ---------------------------------------------------------------------------
// NEXUS_LOG_LEVEL.
// ---------------------------------------------------------------------------

TEST(LogLevelEnvTest, ParsesNamesAndIntegers) {
  auto with_env = [](const char* value) {
    if (value == nullptr) {
      unsetenv("NEXUS_LOG_LEVEL");
    } else {
      setenv("NEXUS_LOG_LEVEL", value, 1);
    }
    LogLevel level = internal::LogLevelFromEnv();
    unsetenv("NEXUS_LOG_LEVEL");
    return level;
  };
  EXPECT_EQ(with_env(nullptr), LogLevel::kWarning);  // default
  EXPECT_EQ(with_env("debug"), LogLevel::kDebug);
  EXPECT_EQ(with_env("INFO"), LogLevel::kInfo);
  EXPECT_EQ(with_env("Warn"), LogLevel::kWarning);
  EXPECT_EQ(with_env("error"), LogLevel::kError);
  EXPECT_EQ(with_env("fatal"), LogLevel::kFatal);
  EXPECT_EQ(with_env("0"), LogLevel::kDebug);
  EXPECT_EQ(with_env("3"), LogLevel::kError);
  EXPECT_EQ(with_env("99"), LogLevel::kWarning);      // out of range
  EXPECT_EQ(with_env("gibberish"), LogLevel::kWarning);
  // SetLogLevel still rules the live threshold.
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(saved);
}

}  // namespace
}  // namespace nexus
