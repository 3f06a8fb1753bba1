// End-to-end benchmark of the emdbg debugging loop.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir DIR] [--source DIGEST]
//
// Prints a one-line JSON report (stamp, plan digests, counters) and, as
// the last line, {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans are written to DIR/traces/.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "e2ebench/trace.h"
#include "e2ebench/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir DIR] [--source DIGEST]\n"
               "workloads:");
  for (const std::string& w : e2ebench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunConfig cfg;
  cfg.work_dir = ".bench_build";
  cfg.source_digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || cfg.seconds <= 0) return Usage();
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage();
      cfg.trace = value == "1";
    } else if (key == "--work-dir") {
      cfg.work_dir = value;
    } else if (key == "--source") {
      cfg.source_digest = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 == 0) return Usage();
  bool known = false;
  for (const std::string& w : e2ebench::WorkloadNames()) {
    known = known || w == cfg.workload;
  }
  if (!known) return Usage();

  const auto now = std::chrono::system_clock::now().time_since_epoch();
  char run_id[64];
  std::snprintf(run_id, sizeof(run_id), "%s-s%llu-%ld-%llx",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed),
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    std::chrono::duration_cast<std::chrono::microseconds>(now)
                        .count()));
  cfg.run_id = run_id;

  e2ebench::Outcome out = e2ebench::RunWorkload(cfg);
  for (const e2ebench::Metric& m : out.metrics) {
    if (!e2ebench::ValidMetricName(m.name) ||
        !e2ebench::ValidMetricUnit(m.unit)) {
      out.correct = false;
      out.errors.push_back("invalid metric name or unit: " + m.name);
    }
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "e2ebench: %s\n", e.c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir + "/results", ec);
  const std::string report_path =
      cfg.work_dir + "/results/" + cfg.run_id + ".json";
  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", out.report.c_str());
    std::fclose(f);
  }
  if (cfg.trace) {
    std::filesystem::create_directories(cfg.work_dir + "/traces", ec);
    e2ebench::Tracer::Get().WriteJson(cfg.work_dir + "/traces/" +
                                      cfg.run_id + ".json");
  }
  if (out.metrics.empty()) return 1;  // nothing measured: no result line
  std::printf("report: %s\n", out.report.c_str());
  std::printf("%s\n", e2ebench::ResultLine(out.correct, out.attempted,
                                           out.failed, out.metrics)
                          .c_str());
  std::fflush(stdout);
  return 0;
}
