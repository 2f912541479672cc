#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "common/parallel.h"

namespace perfbench {

namespace tel = nexus::telemetry;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double GeomeanOfMedians(const std::vector<std::vector<double>>& groups) {
  double log_sum = 0.0;
  int n = 0;
  for (const std::vector<double>& g : groups) {
    if (g.empty()) continue;
    log_sum += std::log(Median(g));
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

namespace {

int64_t NearestRank(int64_t n, double p) {
  auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

Tail TailOf(const std::vector<double>& values) {
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return tail;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const int64_t n = tail.samples;
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    int64_t rank = NearestRank(n, p);
    tail.percentile = p;
    tail.beyond = n - rank;
    tail.value = sorted[static_cast<size_t>(rank - 1)];
    if (tail.beyond >= 10) break;
  }
  return tail;
}

double UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double cur_start = 0.0, cur_end = 0.0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (!open || iv.start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = iv.start;
      cur_end = iv.end;
      open = true;
    } else {
      cur_end = std::max(cur_end, iv.end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::vector<double> SelfTimesUs(const std::vector<tel::SpanRecord>& spans) {
  std::unordered_map<tel::SpanId, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  auto is_morsel = [&](size_t i) {
    return std::strcmp(spans[i].category, tel::kCategoryMorsel) == 0;
  };
  // Effective parent: the nearest ancestor that is not a morsel.
  std::vector<std::vector<Interval>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (is_morsel(i)) continue;
    tel::SpanId parent = spans[i].parent;
    while (parent != 0) {
      auto it = index.find(parent);
      if (it == index.end()) {
        parent = 0;
        break;
      }
      if (!is_morsel(it->second)) break;
      parent = spans[it->second].parent;
    }
    if (parent == 0) continue;
    children[index[parent]].push_back(
        Interval{spans[i].wall_start_us, spans[i].wall_start_us + spans[i].wall_dur_us});
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (is_morsel(i)) continue;
    double start = spans[i].wall_start_us;
    double end = start + spans[i].wall_dur_us;
    for (Interval& c : children[i]) {
      c.start = std::max(c.start, start);
      c.end = std::min(c.end, end);
    }
    self[i] = std::max(0.0, spans[i].wall_dur_us - UnionLength(std::move(children[i])));
  }
  return self;
}

double CoveredUs(const std::vector<tel::SpanRecord>& spans) {
  std::vector<Interval> all;
  all.reserve(spans.size());
  for (const tel::SpanRecord& s : spans) {
    all.push_back(Interval{s.wall_start_us, s.wall_start_us + s.wall_dur_us});
  }
  return UnionLength(std::move(all));
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string StampJson(const Stamp& stamp) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
#ifdef PERFBENCH_BUILD_TYPE
  const char* build_type = PERFBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  std::string out = "{";
  out += "\"workload\": " + JsonString(stamp.workload);
  out += ", \"seed\": " + std::to_string(stamp.seed);
  out += ", \"seconds\": " + std::to_string(stamp.seconds);
  out += ", \"trace\": " + std::string(stamp.trace ? "true" : "false");
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"engine_threads\": " + std::to_string(nexus::GetThreadCount());
  out += ", \"build_type\": " + JsonString(build_type);
  out += ", \"compiler\": " + JsonString("g++ " __VERSION__);
  out += ", \"commit\": " + JsonString(commit != nullptr ? commit : "unknown");
  return out + "}";
}

void Report::Set(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  metrics_[name] = Metric{value, unit, note};
}

void Report::Print(const Stamp& stamp, bool correct, int64_t attempted,
                   int64_t failed) const {
  for (const auto& [name, m] : metrics_) {
    std::printf("%-40s %16.6f %-6s%s%s\n", name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
  std::printf("correct %s, attempted %lld, failed %lld\n", correct ? "yes" : "NO",
              static_cast<long long>(attempted), static_cast<long long>(failed));
  std::printf("stamp %s\n", StampJson(stamp).c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
