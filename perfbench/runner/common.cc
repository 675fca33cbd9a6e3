#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "runner/workload.h"
#include "lib/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void SetLatency(RunOutput* out, const std::string& prefix, const std::vector<double>& samples_ms) {
  const Tail tail = TailPercentile(samples_ms);
  char note[96];
  std::snprintf(note, sizeof note, "p%g of the pooled samples%s", tail.quantile * 100.0,
                tail.resolved ? "" : " (fewer than 10 beyond the median)");
  out->Set(prefix + ".p50", "ms", Median(samples_ms), samples_ms.size());
  out->Set(prefix + ".p99", "ms", tail.value, samples_ms.size(), note);
}

void SetSessionLatency(RunOutput* out, const std::string& prefix,
                       const std::vector<std::vector<double>>& sessions_ms) {
  std::vector<double> means, medians, tails;
  size_t samples = 0;
  double quantile = 0.99;
  for (const auto& session : sessions_ms) {
    const Tail tail = TailPercentile(session);
    means.push_back(Mean(session));
    medians.push_back(Median(session));
    tails.push_back(tail.value);
    quantile = std::min(quantile, tail.quantile);
    samples += session.size();
  }
  char note[96];
  std::snprintf(note, sizeof note, "median over %zu session(s) of each one's p%g",
                sessions_ms.size(), quantile * 100.0);
  out->Set(prefix + ".mean", "ms", Median(means), samples, "median over sessions");
  out->Set(prefix + ".p50", "ms", Median(medians), samples, "median over sessions");
  out->Set(prefix + ".p99", "ms", Median(tails), samples, note);
}

namespace {
volatile double kernel_sink = 0.0;
}  // namespace

double KernelSeconds() {
  static const std::vector<double> table = [] {
    std::vector<double> t(4096);
    for (size_t i = 0; i < t.size(); ++i) t[i] = 0.5 + static_cast<double>(i % 97) / 97.0;
    return t;
  }();
  const double start = NowSeconds();
  uint64_t x = 88172645463325252ull;
  double acc = 0.0;
  for (int i = 0; i < 600000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = table[x & 4095];
    acc += std::exp(-v * acc * 1e-9) * v + std::sqrt(v + acc * 1e-12);
  }
  kernel_sink = acc;  // keeps the loop
  return NowSeconds() - start;
}

void SetKernelMs(RunOutput* out, const std::vector<double>& kernel_ms) {
  char note[64];
  std::snprintf(note, sizeof note, "%g ms at the reference host speed",
                kReferenceKernelSeconds * 1e3);
  out->Set("host.kernel_ms", "ms", Median(kernel_ms), kernel_ms.size(), note);
}

double PeakRssMiB() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so it would report the launching process's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

double CounterValue(const char* name) {
  return static_cast<double>(pollux::obs::MetricsRegistry::Global().GetCounter(name)->value());
}

void SetCacheHitRates(RunOutput* out) {
  for (const char* name : {"sched.eval_cache.hit_rate", "sched.table_cache.hit_rate"}) {
    out->Set(name, "ratio", pollux::obs::MetricsRegistry::Global().GetGauge(name)->value(), 1);
  }
}

void PinSchedConfig(int shard_jobs, pollux::SchedConfig* config) {
  config->ga.tournament_size = 3;
  config->ga.memoize = true;
  config->gpu_time_threshold = 4.0 * 3600.0;
  config->memoize_tables = true;
  config->stale_report_age = 150.0;
  config->dirty_rel_change = 0.05;
  config->shard_jobs = shard_jobs;
  config->refresh_rounds = 20;
}

std::vector<Span> TakeSpans(RunOutput* out) {
  auto& recorder = pollux::obs::TraceRecorder::Global();
  if (recorder.dropped() > 0) {
    out->Error("trace recorder dropped " + std::to_string(recorder.dropped()) + " events");
  }
  std::vector<Span> spans;
  for (const auto& event : recorder.Snapshot()) {
    if (event.pid == pollux::obs::TraceRecorder::kWallPid && event.phase == 'X') {
      spans.push_back(Span{event.name, event.tid, event.ts_us, event.dur_us});
    }
  }
  recorder.Clear();
  return spans;
}

const std::map<std::string, std::string>& SpanLayers() {
  static const std::map<std::string, std::string> kLayerOf = {
      {"bench.run", "sim"},         {"sim.sched_round", "sim"},
      {"sim.refresh_reports", "agent"}, {"fit_throughput", "fit"},
      {"bench.schedule", "policy"}, {"sched_round", "sched"},
      {"ga_round", "ga"},           {"pool_task", "threadpool"},
  };
  return kLayerOf;
}

std::map<std::string, double> LayerSelfSeconds(const std::map<std::string, SpanTotals>& totals) {
  LayerTimes layers = AttributeLayers(totals, SpanLayers());
  for (const std::string& name : layers.unknown) {
    layers.self_s[name] += totals.at(name).self_us * 1e-6;
  }
  return layers.self_s;
}

std::map<std::string, double> MedianPerLayer(
    const std::vector<std::map<std::string, double>>& repetitions) {
  std::map<std::string, double> medians;
  for (const auto& rep : repetitions) {
    for (const auto& [layer, seconds] : rep) medians[layer] = 0.0;
  }
  for (auto& [layer, median] : medians) {
    std::vector<double> values;
    for (const auto& rep : repetitions) {
      const auto it = rep.find(layer);
      values.push_back(it == rep.end() ? 0.0 : it->second);
    }
    median = Median(values);
  }
  return medians;
}

void ReportLayerShares(const std::map<std::string, double>& self_s, RunOutput* out) {
  std::map<std::string, double> layers = {{"ga", 0.0},     {"sched", 0.0}, {"fit", 0.0},
                                          {"agent", 0.0},  {"policy", 0.0}, {"sim", 0.0},
                                          {"threadpool", 0.0}, {"schedd", 0.0}};
  double total = 0.0;
  for (const auto& [layer, seconds] : self_s) {
    layers[layer] = seconds;
  }
  for (const auto& [layer, seconds] : layers) total += seconds;
  out->report.push_back("layer        self_s     share");
  for (const auto& [layer, seconds] : layers) {
    out->Set(layer + ".self_s", "s", seconds, 1);
    char line[96];
    std::snprintf(line, sizeof line, "%-11s %8.4f  %6.1f%%", layer.c_str(), seconds,
                  total > 0 ? seconds / total * 100.0 : 0.0);
    out->report.push_back(line);
  }
}

}  // namespace perfbench
