// perfbench: drives one pollux-cpp workload through the library's public
// entry points and prints every metric it measured.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tmp-dir <dir>]
//
// --trace 0 measures end-to-end numbers with tracing off; --trace 1 turns on
// the program's TraceRecorder spans and obs counters and reports per-layer
// numbers. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "errors", "metrics": {name: {value, unit,
// samples}}}. run.py picks the metrics BENCHMARK.json names from it. Exit
// status: 0 ok, 1 a correctness check failed, 2 usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "runner/workload.h"

namespace {

using perfbench::RunOutput;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
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

// Non-finite values (a failed request's latency) print as a large finite
// number so the line stays valid JSON.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = value > 0 ? 1e300 : -1e300;
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void Print(const std::string& workload, const RunOutput& out, bool trace) {
  std::printf("workload %s (%s run)\n", workload.c_str(), trace ? "traced" : "end-to-end");
  for (const std::string& line : out.report) std::printf("  %s\n", line.c_str());
  std::printf("  %-34s %14s  %-9s %8s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : out.metrics) {
    std::printf("  %-34s %14.6g  %-9s %8zu  %s\n", name.c_str(), m.value, m.unit.c_str(),
                m.samples, m.note.c_str());
  }
  for (const std::string& error : out.errors) std::printf("  CHECK FAILED: %s\n", error.c_str());

  std::string json = "{\"correct\": ";
  json += out.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"errors\": [";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    json += (i ? ", " : "") + JsonString(out.errors[i]);
  }
  json += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + ", \"samples\": " + std::to_string(m.samples) +
            "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <exact-testbed|firstmatch-hyperscale|"
               "degraded-incremental|schedd-swarm> --seed <n> --seconds <s> --trace <0|1> "
               "[--tmp-dir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunSettings settings;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      settings.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      settings.seconds = std::strtod(value, &end);
      have_seconds = *value != '\0' && *end == '\0' && settings.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      settings.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--tmp-dir") {
      settings.tmp_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace need valid values");
  }
  if (!perfbench::IsSimWorkload(workload) && workload != "schedd-swarm") {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (settings.tmp_dir.empty()) settings.tmp_dir = ".perfbench_tmp/" + workload;
  std::filesystem::remove_all(settings.tmp_dir);
  std::filesystem::create_directories(settings.tmp_dir);

  const RunOutput out = perfbench::IsSimWorkload(workload)
                            ? perfbench::RunSimWorkload(workload, settings)
                            : perfbench::RunScheddSwarm(settings);
  std::filesystem::remove_all(settings.tmp_dir);
  Print(workload, out, settings.trace);
  return out.errors.empty() ? 0 : 1;
}
