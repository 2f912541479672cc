// nexus_perfbench: runs one named workload against libnexus and prints
// every metric with its unit, a correctness verdict, the run's stamp, and
// as the last line one JSON object {correct, attempted, failed, metrics}.
//
//   nexus_perfbench --workload etl_fed --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// operations untraced and then traced and prints the per-layer metrics.
// --corrupt 1 corrupts the first timed answer: the run must then report
// correct=false and a nonzero failed count (the self-check).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: nexus_perfbench --workload etl_fed|graph_linalg|service_ingest "
               "--seed N --seconds S --trace 0|1 [--corrupt 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--corrupt") {
      options.corrupt = std::atoi(value) != 0;
    } else {
      return Usage();
    }
  }
  if (options.seconds < 1 || argc % 2 != 1) return Usage();

  perfbench::Outcome outcome;
  if (options.workload == "etl_fed") {
    outcome = perfbench::RunEtlFed(options);
  } else if (options.workload == "graph_linalg") {
    outcome = perfbench::RunGraphLinalg(options);
  } else if (options.workload == "service_ingest") {
    outcome = perfbench::RunServiceIngest(options);
  } else {
    return Usage();
  }

  if (outcome.attempted < 1) {
    outcome.correct = false;
    outcome.attempted = outcome.failed = 1;
  }
  // Every run prints the full metric set of its mode; a layer the workload
  // does not exercise reads 0.
  const auto& names =
      options.trace ? perfbench::LayerMetrics() : perfbench::EndToEndMetrics();
  for (const auto& [name, unit] : names) {
    if (!outcome.report.Has(name)) outcome.report.Set(name, 0.0, unit, "not exercised");
  }
  perfbench::Stamp stamp{options.workload, options.seed, options.seconds, options.trace};
  outcome.report.Print(stamp, outcome.correct, outcome.attempted, outcome.failed);
  return outcome.correct ? 0 : 1;
}
