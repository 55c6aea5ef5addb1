// perfbench: the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (workloads.hpp) and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The line
// before it is an info object (configuration, environment, raw samples,
// failed checks). Both are validated with the RFC 8259 checker the test
// suite owns before they are printed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "json_check.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string info_line(const Workload& w, const Args& a, const Result& r) {
  std::string s = "{\"workload\":" + json_string(w.name) +
                  ",\"why\":" + json_string(w.why) +
                  ",\"seed\":" + std::to_string(a.seed) +
                  ",\"seconds\":" + json_number(a.seconds) +
                  ",\"trace\":" + (a.trace ? "true" : "false") +
                  ",\"nproc\":" + std::to_string(nproc()) +
                  ",\"thread_budget\":" + std::to_string(thread_budget()) +
                  ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                  ",\"march\":" + json_string(PERFBENCH_MARCH);
  for (const auto& [key, value] : r.info) s += ",\"" + key + "\":" + value;
  s += ",\"failed_checks\":[";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    s += (i ? "," : "") + json_string(r.check_failures[i]);
  }
  return s + "]}";
}

std::string result_line(const Result& r) {
  std::string s = std::string("{\"correct\": ") +
                  (r.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    s += (i ? ", " : "") + json_string(name) +
         ": {\"value\": " + json_number(vu.first) +
         ", \"unit\": " + json_string(vu.second) + "}";
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());

  const Result r = w->run(args);
  const std::string info = info_line(*w, args, r);
  const std::string result = result_line(r);
  if (!ffw::testing::JsonChecker(info).valid() ||
      !ffw::testing::JsonChecker(result).valid()) {
    std::fprintf(stderr, "perfbench: emitted invalid JSON\n%s\n%s\n",
                 info.c_str(), result.c_str());
    return 1;
  }
  std::printf("%s\n%s\n", info.c_str(), result.c_str());
  return 0;
}
