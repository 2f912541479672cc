#include "telemetry/telemetry.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/parallel.h"
#include "common/str_util.h"

namespace nexus {
namespace telemetry {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

// Span ids and trace ids come from monotonic counters so runs are
// reproducible; ClearSpans resets both.
std::atomic<uint64_t> g_next_span{1};
std::atomic<uint64_t> g_next_trace{1};

std::mutex g_mu;
std::vector<SpanRecord> g_spans;                 // finished spans
// The installed clock, swapped whole under g_mu and called only after the
// lock is released: the clock takes the transport mutex, and Transport::Send
// records spans (taking g_mu) while it holds that mutex.
std::shared_ptr<const std::function<double()>> g_sim_clock;  // guarded by g_mu
std::atomic<bool> g_has_sim_clock{false};        // fast-path gate

// Per-thread context: the trace and span new work attaches under, plus the
// server name spans on this thread inherit.
struct ThreadCtx {
  uint64_t trace = 0;
  SpanId span = 0;
  std::string server;
};
thread_local ThreadCtx t_ctx;

std::atomic<int> g_next_tid{1};
int ThisTid() {
  thread_local int tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

double SimNowSeconds() {
  if (!g_has_sim_clock.load(std::memory_order_acquire)) return 0.0;
  std::shared_ptr<const std::function<double()>> clock;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    clock = g_sim_clock;
  }
  return clock ? (*clock)() : 0.0;
}

void Record(SpanRecord&& rec) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(std::move(rec));
}

// ---------------------------------------------------------------------------
// Parallel-pool hooks: one span per morsel, parented under the span that
// was current on the submitting thread. Installed only while enabled.
// ---------------------------------------------------------------------------

// Token passed from the submitting thread to workers.
struct RegionCtx {
  uint64_t trace = 0;
  SpanId parent = 0;
  std::string server;
};

// One in-flight morsel on an executing thread.
struct MorselFrame {
  SpanRecord rec;
  ThreadCtx saved;
};

uint64_t HookRegionBegin() {
  if (!Enabled()) return 0;
  auto* ctx = new RegionCtx;
  ctx->trace = t_ctx.trace != 0
                   ? t_ctx.trace
                   : g_next_trace.fetch_add(1, std::memory_order_relaxed);
  ctx->parent = t_ctx.span;
  ctx->server = t_ctx.server;
  return reinterpret_cast<uint64_t>(ctx);
}

void HookRegionEnd(uint64_t token) {
  delete reinterpret_cast<RegionCtx*>(token);
}

uint64_t HookMorselBegin(uint64_t token, int64_t index) {
  if (token == 0 || !Enabled()) return 0;
  const auto* ctx = reinterpret_cast<const RegionCtx*>(token);
  auto* frame = new MorselFrame;
  frame->saved = t_ctx;
  frame->rec.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  frame->rec.parent = ctx->parent;
  frame->rec.trace = ctx->trace;
  frame->rec.name = "morsel";
  frame->rec.category = kCategoryMorsel;
  frame->rec.server = ctx->server;
  frame->rec.tid = ThisTid();
  frame->rec.counters.emplace_back("index", index);
  frame->rec.wall_start_us = WallNowUs();
  frame->rec.sim_start_us = SimNowSeconds() * 1e6;
  t_ctx.trace = ctx->trace;
  t_ctx.span = frame->rec.id;
  t_ctx.server = ctx->server;
  return reinterpret_cast<uint64_t>(frame);
}

void HookMorselEnd(uint64_t handle) {
  if (handle == 0) return;
  auto* frame = reinterpret_cast<MorselFrame*>(handle);
  frame->rec.wall_dur_us = WallNowUs() - frame->rec.wall_start_us;
  frame->rec.sim_dur_us = SimNowSeconds() * 1e6 - frame->rec.sim_start_us;
  t_ctx = std::move(frame->saved);
  Record(std::move(frame->rec));
  delete frame;
}

constexpr ParallelHooks kHooks = {HookRegionBegin, HookRegionEnd,
                                  HookMorselBegin, HookMorselEnd};

constexpr char kWireHeaderTag[] = "%NEXUS-TRACE ";

}  // namespace

int64_t SpanRecord::CounterOr(const std::string& key, int64_t fallback) const {
  for (const auto& [k, v] : counters) {
    if (k == key) return v;
  }
  return fallback;
}

void SetEnabled(bool on) {
  bool was = internal::g_enabled.exchange(on, std::memory_order_relaxed);
  if (was == on) return;
  SetParallelHooks(on ? &kHooks : nullptr);
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.clear();
  g_next_span.store(1, std::memory_order_relaxed);
  g_next_trace.store(1, std::memory_order_relaxed);
}

std::vector<SpanRecord> Spans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

int64_t SpanCount() {
  std::lock_guard<std::mutex> lock(g_mu);
  return static_cast<int64_t>(g_spans.size());
}

void SetSimulatedClock(std::function<double()> seconds_fn) {
  std::shared_ptr<const std::function<double()>> clock;
  if (seconds_fn != nullptr) {
    clock = std::make_shared<const std::function<double()>>(std::move(seconds_fn));
  }
  std::lock_guard<std::mutex> lock(g_mu);
  g_has_sim_clock.store(clock != nullptr, std::memory_order_release);
  g_sim_clock.swap(clock);
  // The previous clock is released after the lock, by `clock`'s destructor.
}

ScopedSimClock::ScopedSimClock(std::function<double()> seconds_fn) {
  SetSimulatedClock(std::move(seconds_fn));
}

ScopedSimClock::~ScopedSimClock() { SetSimulatedClock(nullptr); }

TraceContext CurrentContext() {
  return TraceContext{t_ctx.trace, t_ctx.span, t_ctx.server};
}

uint64_t CurrentTrace() { return t_ctx.trace; }
SpanId CurrentSpan() { return t_ctx.span; }

ContextScope::ContextScope(const TraceContext& ctx) {
  if (ctx.trace == 0) return;
  active_ = true;
  saved_trace_ = t_ctx.trace;
  saved_span_ = t_ctx.span;
  saved_server_ = t_ctx.server;
  t_ctx.trace = ctx.trace;
  t_ctx.span = ctx.parent;
  t_ctx.server = ctx.server;
}

ContextScope::~ContextScope() {
  if (!active_) return;
  t_ctx.trace = saved_trace_;
  t_ctx.span = saved_span_;
  t_ctx.server = std::move(saved_server_);
}

SpanGuard::SpanGuard(const char* category, std::string name) {
  if (!Enabled()) return;
  Open(category, std::move(name), std::string(t_ctx.server));
}

SpanGuard::SpanGuard(const char* category, std::string name,
                     std::string server) {
  if (!Enabled()) return;
  Open(category, std::move(name), std::move(server));
}

void SpanGuard::Open(const char* category, std::string&& name,
                     std::string&& server) {
  active_ = true;
  rec_.trace = t_ctx.trace != 0
                   ? t_ctx.trace
                   : g_next_trace.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_ctx.span;
  rec_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  rec_.name = std::move(name);
  rec_.category = category;
  rec_.server = std::move(server);
  rec_.tid = ThisTid();
  rec_.wall_start_us = WallNowUs();
  rec_.sim_start_us = SimNowSeconds() * 1e6;
  saved_trace_ = t_ctx.trace;
  saved_span_ = t_ctx.span;
  t_ctx.trace = rec_.trace;
  t_ctx.span = rec_.id;
  // The server is NOT pushed into the thread context here: a coordinator
  // span labelled with a target server must not make sibling client-side
  // spans claim to have run there. ContextScope (the receiving side) is
  // what rebinds the thread's server.
}

SpanGuard::~SpanGuard() {
  if (!active_) return;
  rec_.wall_dur_us = WallNowUs() - rec_.wall_start_us;
  rec_.sim_dur_us = SimNowSeconds() * 1e6 - rec_.sim_start_us;
  t_ctx.trace = saved_trace_;
  t_ctx.span = saved_span_;
  Record(std::move(rec_));
}

void SpanGuard::AddCounter(const char* key, int64_t value) {
  if (!active_) return;
  rec_.counters.emplace_back(key, value);
}

void SpanGuard::SetServer(std::string server) {
  if (!active_) return;
  rec_.server = std::move(server);
}

void RecordComplete(const char* category, std::string name, std::string server,
                    double sim_start_s, double sim_dur_s,
                    std::vector<std::pair<std::string, int64_t>> counters) {
  if (!Enabled()) return;
  SpanRecord rec;
  rec.trace = t_ctx.trace != 0
                  ? t_ctx.trace
                  : g_next_trace.fetch_add(1, std::memory_order_relaxed);
  rec.parent = t_ctx.span;
  rec.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  rec.name = std::move(name);
  rec.category = category;
  rec.server = std::move(server);
  rec.tid = ThisTid();
  rec.wall_start_us = WallNowUs();
  rec.wall_dur_us = 0.0;
  rec.sim_start_us = sim_start_s * 1e6;
  rec.sim_dur_us = sim_dur_s * 1e6;
  rec.counters = std::move(counters);
  Record(std::move(rec));
}

std::string WireHeader(uint64_t trace, SpanId parent,
                       const std::string& server) {
  return StrCat(kWireHeaderTag, trace, " ", parent, " ", server, "\n");
}

size_t StripWireHeader(const std::string& wire, TraceContext* ctx) {
  const size_t tag_len = sizeof(kWireHeaderTag) - 1;
  if (wire.compare(0, tag_len, kWireHeaderTag) != 0) return 0;
  size_t eol = wire.find('\n', tag_len);
  if (eol == std::string::npos) return 0;
  unsigned long long trace = 0, parent = 0;
  char server[128] = {0};
  std::string line = wire.substr(tag_len, eol - tag_len);
  if (std::sscanf(line.c_str(), "%llu %llu %127s", &trace, &parent, server) < 2) {
    return 0;
  }
  ctx->trace = trace;
  ctx->parent = parent;
  ctx->server = server;
  return eol + 1;
}

double WallNowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch())
      .count();
}

}  // namespace telemetry
}  // namespace nexus
