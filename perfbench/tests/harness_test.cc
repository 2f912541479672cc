// Tests of the benchmark harness's own statistics: the tail-percentile
// rule and span self time as an interval union. Run through
// `python3 perfbench/run.py --test` or ctest in the benchmark's build.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void CheckNear(double got, double want, const std::string& what) {
  Check(std::fabs(got - want) < 1e-9, what + ": got " + std::to_string(got) + ", want " +
                                          std::to_string(want));
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestMedian() {
  CheckNear(perfbench::Median({}), 0.0, "median of nothing");
  CheckNear(perfbench::Median({3, 1, 2}), 2.0, "odd median");
  CheckNear(perfbench::Median({4, 1, 3, 2}), 2.5, "even median");
}

void TestGeomeanOfMedians() {
  CheckNear(perfbench::GeomeanOfMedians({}), 0.0, "no groups");
  CheckNear(perfbench::GeomeanOfMedians({{}, {}}), 0.0, "empty groups");
  // Medians 2 and 8 (the larger group does not weigh more): sqrt(16) = 4.
  CheckNear(perfbench::GeomeanOfMedians({{1, 2, 3}, {8, 8, 8, 1, 100}, {}}), 4.0,
            "geometric mean of the group medians");
  // Doubling one of two medians moves the result by sqrt(2).
  CheckNear(perfbench::GeomeanOfMedians({{4}, {8}}) / perfbench::GeomeanOfMedians({{4}, {4}}),
            std::sqrt(2.0), "one group's change moves the result by its share");
}

void TestTailRule() {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  perfbench::Tail t = perfbench::TailOf(OneTo(1000));
  CheckNear(t.percentile, 99.0, "tail of 1000 is p99");
  Check(t.beyond == 10, "p99 of 1000 has 10 beyond");
  Check(t.samples == 1000, "sample count reported");
  CheckNear(t.value, 990.0, "p99 value of 1..1000");

  // 199 samples: p95 leaves 9 (too few), p90 leaves 19.
  t = perfbench::TailOf(OneTo(199));
  CheckNear(t.percentile, 90.0, "tail of 199 is p90");
  Check(t.beyond == 19, "p90 of 199 has 19 beyond");

  // 100 samples: p90 leaves exactly 10.
  t = perfbench::TailOf(OneTo(100));
  CheckNear(t.percentile, 90.0, "tail of 100 is p90");
  Check(t.beyond == 10, "p90 of 100 has 10 beyond");

  // Too few samples for any rung: the median, with its shortfall shown.
  t = perfbench::TailOf(OneTo(15));
  CheckNear(t.percentile, 50.0, "tail of 15 falls back to p50");
  Check(t.beyond == 7, "p50 of 15 has 7 beyond");
  Check(t.beyond < 10, "shortfall visible in the beyond count");

  t = perfbench::TailOf({});
  Check(t.samples == 0 && t.value == 0.0, "empty tail");
}

void TestUnionLength() {
  CheckNear(perfbench::UnionLength({}), 0.0, "empty union");
  CheckNear(perfbench::UnionLength({{0, 10}, {5, 15}, {20, 30}}), 25.0, "overlap counts once");
  CheckNear(perfbench::UnionLength({{0, 100}, {10, 20}, {30, 40}}), 100.0, "nested intervals");
  CheckNear(perfbench::UnionLength({{5, 5}, {7, 6}}), 0.0, "empty and inverted intervals");
}

nexus::telemetry::SpanRecord Span(uint64_t id, uint64_t parent, const char* category,
                                  double start, double end, int tid) {
  nexus::telemetry::SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.trace = 1;
  s.category = category;
  s.name = "span" + std::to_string(id);
  s.tid = tid;
  s.wall_start_us = start;
  s.wall_dur_us = end - start;
  return s;
}

void TestSelfTimeWithOverlappingChildren() {
  namespace tel = nexus::telemetry;
  // A parent [0, 100) with children on three threads: [10, 40) and [20, 60)
  // overlap (union 50), [80, 90) is disjoint, and [95, 120) runs past the
  // parent's end (clipped to 5). Self time = 100 - 65 = 35.
  std::vector<tel::SpanRecord> spans = {
      Span(1, 0, tel::kCategoryCoordinator, 0, 100, 0),
      Span(2, 1, tel::kCategoryEngine, 10, 40, 1),
      Span(3, 1, tel::kCategoryEngine, 20, 60, 2),
      Span(4, 1, tel::kCategoryEngine, 80, 90, 3),
      Span(5, 1, tel::kCategoryEngine, 95, 120, 1),
  };
  std::vector<double> self = perfbench::SelfTimesUs(spans);
  CheckNear(self[0], 35.0, "parent self time with overlapping children");
  CheckNear(self[1], 30.0, "leaf self time is its duration");
  CheckNear(self[2], 40.0, "second leaf");
  CheckNear(perfbench::CoveredUs(spans), 120.0, "covered time is the union of all spans");
}

void TestMorselsFoldIntoTheirLauncher() {
  namespace tel = nexus::telemetry;
  // An engine span [0, 50) launches morsels on four threads; a kernel span
  // [10, 30) runs inside one morsel. The morsels themselves carry no self
  // time, and the engine span's children are the spans under its morsels.
  std::vector<tel::SpanRecord> spans = {
      Span(1, 0, tel::kCategoryEngine, 0, 50, 0),
      Span(2, 1, tel::kCategoryMorsel, 0, 40, 0),
      Span(3, 1, tel::kCategoryMorsel, 1, 41, 1),
      Span(4, 1, tel::kCategoryMorsel, 2, 42, 2),
      Span(5, 1, tel::kCategoryMorsel, 3, 43, 3),
      Span(6, 3, tel::kCategoryEngine, 10, 30, 1),
  };
  std::vector<double> self = perfbench::SelfTimesUs(spans);
  CheckNear(self[0], 30.0, "launcher keeps morsel time, minus the nested kernel");
  for (int i = 1; i <= 4; ++i) CheckNear(self[i], 0.0, "morsel self time is folded");
  CheckNear(self[5], 20.0, "kernel under a morsel");
}

}  // namespace

int main() {
  TestMedian();
  TestGeomeanOfMedians();
  TestTailRule();
  TestUnionLength();
  TestSelfTimeWithOverlappingChildren();
  TestMorselsFoldIntoTheirLauncher();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench harness tests passed\n");
  return 0;
}
