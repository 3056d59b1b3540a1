// perfbench: end-to-end and per-layer benchmark of the functional runtime.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir>
//
// --trace 0 times run_distributed per strategy and run_oracle with obs
// tracing off, repeating them for --seconds, and reports tokens/s, setup_s
// and peak RSS. --trace 1 runs the layer suites (tracing off), one traced
// (perf_profile + obs tracing) run per strategy and then untraced runs,
// reports the per-layer metrics and writes <out-dir>/trace_<workload>.json.
// Either way a human-readable table comes first and the last stdout line
// is the result object {"correct", "attempted", "failed", "metrics"}.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "e2e.h"
#include "harness.h"
#include "layers.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atoll(value);
    } else if (flag == "--trace") {
      trace = std::atoll(value);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) usage("every flag takes one value");
  if (workload.empty() || out_dir.empty() || seed < 0 || seconds < 1 ||
      (trace != 0 && trace != 1)) {
    usage("missing or invalid arguments");
  }

  const auto t_start = std::chrono::steady_clock::now();
  try {
    const perfbench::Workload w =
        perfbench::make_workload(workload, static_cast<uint64_t>(seed));
    perfbench::Report report;
    if (trace == 0) {
      perfbench::run_end_to_end(w, static_cast<double>(seconds), report);
    } else {
      const perfbench::LayerCosts costs = perfbench::run_layers(w, report);
      const double left =
          static_cast<double>(seconds) -
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t_start)
              .count();
      perfbench::run_traced(w, costs, left,
                            out_dir + "/trace_" + workload + ".json", report);
    }
    report.print_table();
    std::printf("%s\n", report.result_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
