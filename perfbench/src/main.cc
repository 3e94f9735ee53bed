// Wall-clock benchmark for SlimStore.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Prints a human-readable report, then as its last line one JSON object
// with the keys correct, attempted, failed and metrics. Exits 0 only when
// every call succeeded and every restore was byte-identical.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value");
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || number < 0) return Usage("bad seed");
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || number <= 0) {
        return Usage("bad seconds");
      }
      options.seconds = number;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage("unknown flag");
    }
  }
  bool known = false;
  for (const auto& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown workload");

  perfbench::BenchResult result = perfbench::RunBenchmark(options);

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
