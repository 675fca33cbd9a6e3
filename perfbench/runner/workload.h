// Shared plumbing of the benchmark: run settings, the metric table a
// workload fills, and the traced-run layer report.

#ifndef PERFBENCH_RUNNER_WORKLOAD_H_
#define PERFBENCH_RUNNER_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sched.h"
#include "lib/spans.h"

namespace perfbench {

struct RunSettings {
  uint64_t seed = 1;
  double seconds = 10.0;  // measuring budget of this invocation
  bool trace = false;     // per-layer (traced) run instead of end-to-end
  std::string tmp_dir;    // temporary directory inside the working directory
};

struct Metric {
  std::string unit;
  double value = 0.0;
  size_t samples = 0;  // raw values the number was computed from
  std::string note;    // e.g. which percentile a tail is
};

struct RunOutput {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  // failed correctness checks
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> report;  // traced-run report lines

  void Set(const std::string& name, const std::string& unit, double value, size_t samples,
           std::string note = "") {
    metrics[name] = Metric{unit, value, samples, std::move(note)};
  }
  void Error(std::string message) { errors.push_back(std::move(message)); }
};

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64 finalizer: derives independent seeds from (seed, index) keys.
uint64_t Mix(uint64_t x);

// Sets `<prefix>.p50` (median) and `<prefix>.p99` (the tail by the
// ">= 10 samples beyond" rule, noted with the percentile it resolved to) of
// pooled samples.
void SetLatency(RunOutput* out, const std::string& prefix, const std::vector<double>& samples_ms);

// `<prefix>.mean`, `.p50` and `.p99` per session, then the median over
// sessions: a session hit by a stall of the host (tens of ms on the shared
// machine the benchmark was tuned on) does not set the numbers on its own.
void SetSessionLatency(RunOutput* out, const std::string& prefix,
                       const std::vector<std::vector<double>>& sessions_ms);

// Host speed. On a shared machine the host's speed shifts between regimes
// that last a minute or so: on the 4-vCPU VM the benchmark was tuned on, one
// trace ran up to 1.45 times slower for a while, and whole ten-run sets moved
// with it. KernelSeconds() times a fixed single-threaded CPU kernel (about
// kReferenceKernelSeconds there) that is not program code, so no change to
// the program moves it. The gated timings are scaled by
// kReferenceKernelSeconds / KernelSeconds() measured around the work: seconds
// at the reference host speed.
double KernelSeconds();
constexpr double kReferenceKernelSeconds = 0.011;

// Sets host.kernel_ms, the median KernelSeconds() of the run, in ms.
void SetKernelMs(RunOutput* out, const std::vector<double>& kernel_ms);

// Peak resident set size of this process, MiB.
double PeakRssMiB();

// Value of an obs counter of the global registry.
double CounterValue(const char* name);

// sched.eval_cache.hit_rate and sched.table_cache.hit_rate as PolluxSched
// last published them.
void SetCacheHitRates(RunOutput* out);

// Wall-clock spans recorded by obs::TraceRecorder since its last Clear().
// Adds an error when the recorder dropped events.
std::vector<Span> TakeSpans(RunOutput* out);

// Layer of each span name: the module it times (for example ga_round -> ga,
// sched_round -> sched).
const std::map<std::string, std::string>& SpanLayers();

// Self seconds per layer by SpanLayers(); names without a mapping keep their
// own name, so no span is left out of the report.
std::map<std::string, double> LayerSelfSeconds(const std::map<std::string, SpanTotals>& totals);

// Per layer, the median over repetitions (a layer missing from one counts 0).
std::map<std::string, double> MedianPerLayer(
    const std::vector<std::map<std::string, double>>& repetitions);

// Sets `<layer>.self_s` for every layer (0 when absent) and adds a report
// line per layer with its self time and its share of the summed self time.
void ReportLayerShares(const std::map<std::string, double>& self_s, RunOutput* out);

// Sets the PolluxSched knobs the bench config leaves at library defaults, so
// a later change to a default does not move the benchmark.
void PinSchedConfig(int shard_jobs, pollux::SchedConfig* config);

// Workload entry points.
bool IsSimWorkload(const std::string& name);
RunOutput RunSimWorkload(const std::string& name, const RunSettings& settings);
RunOutput RunScheddSwarm(const RunSettings& settings);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WORKLOAD_H_
