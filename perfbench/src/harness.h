// Measurement primitives of the end-to-end benchmark: order statistics with
// the tail-percentile rule, interval unions and span self time, and the
// metric report that ends every run with one JSON line.
#ifndef NEXUS_PERFBENCH_HARNESS_H_
#define NEXUS_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace perfbench {

/// Seconds on the steady clock (only differences are meaningful).
double NowSeconds();

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// Geometric mean of the medians of the non-empty `groups`; 0 when all are
/// empty. Each group weighs the same whatever its sample count, and a
/// change of x% in one group's median moves the result by about x%/groups.
double GeomeanOfMedians(const std::vector<std::vector<double>>& groups);

/// A nearest-rank percentile (the smallest sample with at least p% of the
/// samples at or below it) chosen by the rule "the highest percentile with at least
/// ten samples beyond it", from the ladder 99.9, 99, 95, 90, 75, 50. With
/// fewer than 20 samples no rung qualifies and the median is reported, with
/// its (smaller) beyond count, so a reader sees the shortfall.
struct Tail {
  double percentile = 50.0;
  int64_t samples = 0;  ///< all samples
  int64_t beyond = 0;   ///< samples strictly above the reported rank
  double value = 0.0;
};
Tail TailOf(const std::vector<double>& values);

/// Half-open time interval [start, end).
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `intervals`; overlaps count once.
double UnionLength(std::vector<Interval> intervals);

/// Wall self time (us) of every span: its interval minus the union of the
/// intervals its children cover, children clipped to the parent. Morsel
/// spans are folded into the span that launched them — a morsel's own self
/// time is 0 and its children count as children of the launching span —
/// so parallel engine work stays with its engine and overlapping morsels
/// on several pool threads never count twice.
std::vector<double> SelfTimesUs(const std::vector<nexus::telemetry::SpanRecord>& spans);

/// Union (us) of the wall intervals of `spans`.
double CoveredUs(const std::vector<nexus::telemetry::SpanRecord>& spans);

/// One metric as printed: a name, its value and unit, and an optional note
/// (sample counts, ratio bases) shown on the human-readable line only.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// What the run was measured on; printed as the `stamp` line of every run.
struct Stamp {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};
std::string StampJson(const Stamp& stamp);

/// Ordered metric set of one run.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  bool Has(const std::string& name) const { return metrics_.count(name) != 0; }

  /// Prints one "name value unit [note]" line per metric, the stamp line,
  /// and finally the result object as the last line of standard output.
  void Print(const Stamp& stamp, bool correct, int64_t attempted,
             int64_t failed) const;

 private:
  std::map<std::string, Metric> metrics_;
};

/// Peak resident set size of this process, MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // NEXUS_PERFBENCH_HARNESS_H_
