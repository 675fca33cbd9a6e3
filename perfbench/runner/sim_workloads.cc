// The three simulator workloads: exact-testbed, firstmatch-hyperscale and
// degraded-incremental. Each repetition builds the trace, policy and
// simulator from scratch (set-up), then times Simulator::Run with the policy
// wrapped in a timing Scheduler decorator.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>

#include "bench/common.h"
#include "lib/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/pollux_policy.h"
#include "runner/workload.h"

namespace perfbench {
namespace {

using pollux::BenchSimConfig;
using pollux::JobSpec;
using pollux::ModelKind;
using pollux::Scheduler;
using pollux::SchedulerContext;
using pollux::SimEventKind;
using pollux::SimResult;

// Times every Schedule() call of the wrapped policy and checks each result
// against the cluster the simulator handed it.
class TimedPolicy final : public Scheduler {
 public:
  explicit TimedPolicy(Scheduler* inner) : inner_(inner) {}

  std::map<uint64_t, std::vector<int>> Schedule(const SchedulerContext& context) override {
    std::map<uint64_t, std::vector<int>> rows;
    const double start = NowSeconds();
    {
      TRACE_SCOPE("bench.schedule");
      rows = inner_->Schedule(context);
    }
    round_ms_.push_back((NowSeconds() - start) * 1e3);
    if (!Feasible(context, rows)) ++infeasible_;
    return rows;
  }
  bool adapts_batch_size() const override { return inner_->adapts_batch_size(); }
  bool throughput_only_batch() const override { return inner_->throughput_only_batch(); }
  void OnClusterChanged(const pollux::ClusterSpec& cluster) override {
    inner_->OnClusterChanged(cluster);
  }
  void SaveState(std::string* blob) const override { inner_->SaveState(blob); }
  bool LoadState(const std::string& blob) override { return inner_->LoadState(blob); }
  void ResetControlState() override { inner_->ResetControlState(); }
  const char* name() const override { return inner_->name(); }

  const std::vector<double>& round_ms() const { return round_ms_; }
  uint64_t infeasible() const { return infeasible_; }

 private:
  // The allocation after the decision (returned rows, current rows for jobs
  // left out) over-commits no node; a failed node has capacity 0 in the
  // context cluster, so this also rejects GPUs placed on one. A row for a job
  // the context does not hold is infeasible too.
  static bool Feasible(const SchedulerContext& context,
                       const std::map<uint64_t, std::vector<int>>& rows) {
    const pollux::ClusterSpec& cluster = *context.cluster;
    std::vector<int> used(static_cast<size_t>(cluster.NumNodes()), 0);
    size_t matched = 0;
    for (const pollux::JobSnapshot& job : context.jobs) {
      const auto it = rows.find(job.job_id);
      matched += it != rows.end();
      const std::vector<int>& row = it != rows.end() ? it->second : job.allocation;
      if (row.empty()) continue;
      if (row.size() != used.size()) return false;
      for (size_t n = 0; n < row.size(); ++n) {
        if (row[n] < 0) return false;
        used[n] += row[n];
      }
    }
    if (matched != rows.size()) return false;
    for (size_t n = 0; n < used.size(); ++n) {
      if (used[n] > cluster.gpus_per_node[n]) return false;
    }
    return true;
  }

  Scheduler* inner_;
  std::vector<double> round_ms_;
  uint64_t infeasible_ = 0;
};

struct SimWorkload {
  BenchSimConfig config;
  // HyperscaleTrace instead of StratifiedTrace.
  bool hyperscale_trace = false;
  bool checkpoint = false;
  int shard_jobs = 16;  // incremental mode: dirty jobs per GA shard
};

// Every knob that shapes the run is set here, so a later change to a
// library default does not move the benchmark.
SimWorkload MakeWorkload(const std::string& name, uint64_t seed) {
  SimWorkload w;
  BenchSimConfig& c = w.config;
  c.seed = seed;
  c.engine = pollux::SimEngine::kEvent;
  c.gpus_per_node = 4;
  c.load = 1.0;
  c.user_configured_fraction = 0.0;
  c.interference_slowdown = 0.0;
  c.interference_avoidance = true;
  c.weight_lambda = 0.5;
  c.restart_penalty = 0.25;
  c.observation_noise = 0.05;
  c.gns_noise = 0.10;
  c.ga_population = 40;
  c.ga_generations = 25;
  c.round_time_budget = 0.0;
  c.queue_admission = false;
  if (name == "exact-testbed") {
    // The paper's 64-GPU testbed at Table 2's submission rate (20 jobs/h).
    c.nodes = 16;
    c.sched_mode = pollux::SchedMode::kExact;
    c.threads = 1;
    c.tick = 1.0;
    c.sched_interval = 60.0;
    c.report_interval = 30.0;
    c.jobs = 40;
    c.duration_hours = 2.0;
  } else if (name == "firstmatch-hyperscale") {
    c.nodes = 250;
    c.sched_mode = pollux::SchedMode::kFirstMatch;
    c.threads = 1;
    c.tick = 60.0;
    c.sched_interval = 300.0;
    c.report_interval = 120.0;
    c.jobs = 1000;
    c.duration_hours = 19.2;
    w.hyperscale_trace = true;
  } else {  // degraded-incremental
    c.racks = 4;
    c.nodes = 32;
    c.rack_link_factor = 2.5;
    c.gpu_mix = "a100:0.25,t4:0.75";
    c.sched_mode = pollux::SchedMode::kIncremental;
    c.threads = 2;
    c.tick = 1.0;
    c.sched_interval = 60.0;
    c.report_interval = 30.0;
    pollux::NetProfileByName("flaky", &c.net);
    pollux::FaultProfileByName("light", &c.faults);
    c.checkpoint_every = 1800.0;
    c.jobs = 60;
    c.duration_hours = 3.0;
    w.checkpoint = true;
    // Small shards, so busy rounds split into several and the thread pool
    // solves them in parallel.
    w.shard_jobs = 8;
  }
  return w;
}

// firstmatch-hyperscale's trace: the program's GenerateHyperscaleTrace (the
// 24-hour day tiled), timed as set-up. 1000 jobs average the model mix out.
std::vector<JobSpec> HyperscaleTrace(const BenchSimConfig& c) {
  pollux::HyperTraceOptions options;
  options.num_nodes = c.nodes;
  options.gpus_per_node = c.gpus_per_node;
  options.num_jobs = c.jobs;
  options.duration = c.duration_hours * 3600.0;
  options.user_configured_fraction = c.user_configured_fraction;
  options.max_request_gpus = 64;
  options.seed = c.seed;
  options.threads = 1;
  return pollux::GenerateHyperscaleTrace(options);
}

// A trace whose model mix, arrival-rate profile (Table 2's 8-hour window
// stretched over the trace) and arrival order by model are fixed while the
// seed picks the jobs, their configurations and the arrival jitter.
// GenerateTrace draws the mix, so the count of multi-hour ImageNet/YOLO jobs
// in a 40- or 60-job trace swings by half between seeds; even pooled over 8
// traces that moved wall time by a spread of about 0.3 over seeds, more than
// the benchmark's bounds (README.md). Fixing the mix keeps seed-to-seed
// spread small. Job configurations come from GenerateHyperscaleTrace, so
// they follow the program's own sampling. This is the benchmark's own work,
// so it is not timed as set-up.
std::vector<JobSpec> StratifiedTrace(const SimWorkload& w) {
  const BenchSimConfig& c = w.config;
  // Table 1 workload fractions.
  const std::vector<std::pair<ModelKind, double>> mix = {
      {ModelKind::kResNet50ImageNet, 0.02}, {ModelKind::kYoloV3Voc, 0.05},
      {ModelKind::kDeepSpeech2, 0.17},      {ModelKind::kResNet18Cifar10, 0.38},
      {ModelKind::kNeuMFMovieLens, 0.38}};
  // Largest-remainder counts summing to c.jobs.
  std::vector<int> count(mix.size());
  std::vector<std::pair<double, size_t>> remainders;
  int assigned = 0;
  for (size_t m = 0; m < mix.size(); ++m) {
    const double exact = mix[m].second * c.jobs;
    count[m] = static_cast<int>(exact);
    assigned += count[m];
    remainders.push_back({-(exact - count[m]), m});
  }
  std::sort(remainders.begin(), remainders.end());
  for (size_t i = 0; assigned < c.jobs; ++i, ++assigned) ++count[remainders[i].second];

  // Draw configured jobs per model from seeded pools until every model has
  // enough.
  std::vector<std::vector<JobSpec>> picked(mix.size());
  for (uint64_t pool = 0;; ++pool) {
    pollux::HyperTraceOptions options;
    options.num_nodes = c.nodes;
    options.gpus_per_node = c.gpus_per_node;
    options.num_jobs = 4L * c.jobs;
    options.duration = c.duration_hours * 3600.0;
    options.user_configured_fraction = c.user_configured_fraction;
    options.max_request_gpus = 64;
    options.seed = Mix(c.seed * 131 + pool);
    options.threads = 1;
    for (const JobSpec& job : pollux::GenerateHyperscaleTrace(options)) {
      for (size_t m = 0; m < mix.size(); ++m) {
        if (job.model == mix[m].first && static_cast<int>(picked[m].size()) < count[m]) {
          picked[m].push_back(job);
        }
      }
    }
    bool enough = true;
    for (size_t m = 0; m < mix.size(); ++m) {
      enough &= static_cast<int>(picked[m].size()) == count[m];
    }
    if (enough) break;
  }

  // Spread each model's jobs evenly over the arrival order, centred in
  // their strata: a lone multi-hour job arrives mid-trace for every seed, so
  // the length of the makespan tail it leaves does not swing with the seed.
  std::vector<std::pair<double, JobSpec>> ordered;
  for (size_t m = 0; m < mix.size(); ++m) {
    for (int k = 0; k < count[m]; ++k) {
      ordered.push_back({(k + 0.5) / count[m], picked[m][static_cast<size_t>(k)]});
    }
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  // Arrival i sits at quantile (i + jitter) / n of the rate profile.
  pollux::Rng rng(Mix(c.seed ^ 0x5eedf00dull));
  std::vector<double> weights;
  for (int h = 0; h < 8; ++h) weights.push_back(pollux::WindowHourWeight(h));
  const double bin_seconds = c.duration_hours * 3600.0 / 8.0;
  double total = 0.0;
  for (double weight : weights) total += weight;
  std::vector<JobSpec> trace;
  for (size_t i = 0; i < ordered.size(); ++i) {
    double target = (static_cast<double>(i) + rng.NextDouble()) / ordered.size() * total;
    size_t bin = 0;
    while (bin + 1 < weights.size() && target > weights[bin]) target -= weights[bin++];
    JobSpec job = ordered[i].second;
    job.submit_time =
        (static_cast<double>(bin) + std::min(1.0, target / weights[bin])) * bin_seconds;
    trace.push_back(job);
  }
  for (size_t i = 0; i < trace.size(); ++i) trace[i].job_id = i;
  return trace;
}

// FNV-1a over the per-job outcome, bit-exact on doubles.
uint64_t ResultDigest(const SimResult& result) {
  uint64_t h = 1469598103934665603ull;
  auto put = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  };
  for (const pollux::JobResult& job : result.jobs) {
    put(&job.job_id, sizeof job.job_id);
    put(&job.start_time, sizeof job.start_time);
    put(&job.finish_time, sizeof job.finish_time);
    put(&job.gpu_time, sizeof job.gpu_time);
    put(&job.num_restarts, sizeof job.num_restarts);
    put(&job.num_evictions, sizeof job.num_evictions);
    put(&job.completed, sizeof job.completed);
  }
  return h;
}

// The fields every repetition of one invocation must reproduce exactly.
// sched_rounds and fit_calls are the obs counters' counts, 0 when the
// metrics registry is off (end-to-end runs keep it off).
struct Determined {
  uint64_t digest = 0;
  double avg_jct_s = 0.0;
  double makespan_s = 0.0;
  size_t rounds = 0;  // Schedule() calls
  double sched_rounds = 0.0;
  double fit_calls = 0.0;
  bool operator==(const Determined&) const = default;
};

struct Rep {
  std::vector<double> setup_s;
  double run_s = 0.0;
  double kernel_s = 0.0;    // KernelSeconds() around the run
  double host_scale = 1.0;  // to the reference host speed
  std::vector<double> round_ms;
  uint64_t infeasible = 0;
  SimResult result;
  Determined determined;
};

constexpr int kSetUps = 4;

// One repetition: set up, run, and (optionally) keep the simulator for the
// checkpoint timings.
class SimRep {
 public:
  // Set-up: the program's trace generation (hyperscale only), cluster,
  // policy and simulator construction, timed kSetUps times (each from
  // scratch) so that a single slow thread start does not set the figure.
  // The stratified trace and the checkpoint directory are the benchmark's
  // own work and come first.
  SimRep(const SimWorkload& w, const std::string& checkpoint_dir) {
    if (!w.hyperscale_trace) trace_ = StratifiedTrace(w);
    if (w.checkpoint) {
      std::filesystem::remove_all(checkpoint_dir);
      std::filesystem::create_directories(checkpoint_dir);
    }
    for (int i = 0; i < kSetUps; ++i) {
      sim_.reset();
      timed_.reset();
      policy_.reset();
      const double start = NowSeconds();
      if (w.hyperscale_trace) trace_ = HyperscaleTrace(w.config);
      options_ = pollux::SimOptionsFromBenchConfig(w.config);
      if (w.checkpoint) options_.checkpoint_dir = checkpoint_dir;
      cluster_ = pollux::ClusterFromBenchConfig(w.config);
      sched_config_ = pollux::SchedConfigFromBenchConfig(w.config);
      PinSchedConfig(w.shard_jobs, &sched_config_);
      policy_ = std::make_unique<pollux::PolluxPolicy>(cluster_, sched_config_);
      timed_ = std::make_unique<TimedPolicy>(policy_.get());
      sim_ = std::make_unique<pollux::Simulator>(options_, trace_, timed_.get());
      rep_.setup_s.push_back(NowSeconds() - start);
    }
  }

  // The bench.run span is recorded only while the recorder is enabled.
  void Run() {
    const double kernel_before = KernelSeconds();
    const double sched_rounds = CounterValue("sched.rounds");
    const double fit_calls = CounterValue("fit.calls");
    const double start = NowSeconds();
    {
      TRACE_SCOPE("bench.run");
      rep_.result = sim_->Run();
    }
    rep_.run_s = NowSeconds() - start;
    rep_.kernel_s = 0.5 * (kernel_before + KernelSeconds());
    rep_.host_scale = kReferenceKernelSeconds / rep_.kernel_s;
    rep_.round_ms = timed_->round_ms();
    rep_.infeasible = timed_->infeasible();
    rep_.determined.digest = ResultDigest(rep_.result);
    rep_.determined.avg_jct_s = rep_.result.JctSummary().mean;
    rep_.determined.makespan_s = rep_.result.makespan;
    rep_.determined.rounds = rep_.round_ms.size();
    rep_.determined.sched_rounds = CounterValue("sched.rounds") - sched_rounds;
    rep_.determined.fit_calls = CounterValue("fit.calls") - fit_calls;
  }

  const Rep& result() const { return rep_; }

  // Times SaveSnapshot of the end state and LoadSnapshot into a fresh
  // simulator, and checks that the loaded state saves back byte-identically.
  void TimeCheckpoint(const std::string& dir, int times, RunOutput* out) {
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/end.bin";
    const std::string again = dir + "/reloaded.bin";
    std::vector<double> save_ms, load_ms;
    std::string error;
    for (int i = 0; i < times; ++i) {
      const double start = NowSeconds();
      if (!sim_->SaveSnapshot(path, &error)) {
        out->Error("SaveSnapshot failed: " + error);
        return;
      }
      save_ms.push_back((NowSeconds() - start) * 1e3);
    }
    for (int i = 0; i < times; ++i) {
      pollux::PolluxPolicy policy(cluster_, sched_config_);
      TimedPolicy timed(&policy);
      pollux::Simulator fresh(options_, trace_, &timed);
      const double start = NowSeconds();
      const bool loaded = fresh.LoadSnapshot(path, &error);
      load_ms.push_back((NowSeconds() - start) * 1e3);
      if (!loaded) {
        out->Error("LoadSnapshot failed: " + error);
        return;
      }
      if (i == 0 && (!fresh.SaveSnapshot(again, &error) || ReadFile(again) != ReadFile(path))) {
        out->Error("snapshot does not survive a save -> load -> save round trip");
      }
    }
    out->Set("checkpoint.save_ms", "ms", Median(save_ms), save_ms.size());
    out->Set("checkpoint.load_ms", "ms", Median(load_ms), load_ms.size());
    out->Set("checkpoint.bytes", "bytes", static_cast<double>(std::filesystem::file_size(path)), 1);
  }

 private:
  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  std::vector<JobSpec> trace_;
  pollux::SimOptions options_;
  pollux::ClusterSpec cluster_;
  pollux::SchedConfig sched_config_;
  std::unique_ptr<pollux::PolluxPolicy> policy_;
  std::unique_ptr<TimedPolicy> timed_;
  std::unique_ptr<pollux::Simulator> sim_;
  Rep rep_;
};

// Counts the repetition's jobs as attempted, unfinished jobs and infeasible
// decisions as failed.
void Account(const Rep& rep, size_t jobs, RunOutput* out) {
  size_t unfinished = jobs - rep.result.jobs.size();
  for (const auto& job : rep.result.jobs) unfinished += !job.completed;
  out->attempted += jobs;
  out->failed += unfinished + rep.infeasible;
  if (rep.infeasible > 0) {
    out->Error(std::to_string(rep.infeasible) + " infeasible Schedule() results");
  }
}

void CheckSame(const Determined& a, const Determined& b, const char* what, RunOutput* out) {
  if (!(a == b)) {
    out->Error(std::string(what) + " disagree on avg_jct_s / makespan_s / rounds / " +
               "sched.rounds / fit.calls / job digest");
  }
}

// The named layers' self times on the thread that ran Simulator::Run must
// add up to its traced wall time within 5%: time under a span that no layer
// claims (a span added to the program but not to SpanLayers()) must not
// exceed 5% of the run.
void CheckLayersCoverRun(const std::vector<Span>& spans, RunOutput* out) {
  const RootAttribution run = AttributeRoot(spans, "bench.run", SpanLayers());
  if (run.root_s < 0) {
    out->Error("traced run recorded no bench.run span");
    return;
  }
  if (run.layers.unattributed_s > 0.05 * run.root_s) {
    std::string names;
    for (const std::string& name : run.layers.unknown) names += " " + name;
    char line[160];
    std::snprintf(line, sizeof line,
                  "%.3f s of the %.3f s traced run is under spans no layer claims:",
                  run.layers.unattributed_s, run.root_s);
    out->Error(line + names);
  }
}

// Per-layer counters of the metrics registry.
const char* const kCounters[] = {
    "ga.rounds",       "ga.generations",         "ga.fitness_evals",   "sched.rounds",
    "sched.fallback_rounds", "sched.degraded_rounds", "fit.calls",     "fit.evaluations",
    "fit.outliers_rejected", "agent.reports",    "agent.fits",         "agent.fits_rejected",
    "sim.engine.events", "net.messages_sent",    "net.messages_lost",  "net.retries",
    "net.decisions_bounced", "threadpool.tasks", "sim.checkpoint.writes"};

std::map<std::string, double> ReadCounters() {
  std::map<std::string, double> values;
  for (const char* name : kCounters) values[name] = CounterValue(name);
  return values;
}

// Nominal seconds of one Simulator::Run on the 4-core machine the benchmark
// was tuned on (all three workloads are sized near it); sets how many traces
// fit in --seconds.
constexpr double kNominalRunSeconds = 2.5;

}  // namespace

bool IsSimWorkload(const std::string& name) {
  return name == "exact-testbed" || name == "firstmatch-hyperscale" ||
         name == "degraded-incremental";
}

// A run simulates `traces` different traces, each from its own seed derived
// from --seed, and pools their samples: one trace's rounds are dominated by
// a few long jobs or fault episodes, which shifts its round-time median
// between modes, while the pool of several traces moves little between
// seeds. The count follows --seconds, not the machine's speed, so a seed
// always means the same inputs. End-to-end runs repeat the first trace at
// the end to check determinism; traced runs run each of their traces
// untraced and then traced, which must also agree.
RunOutput RunSimWorkload(const std::string& name, const RunSettings& settings) {
  const int traces = std::max(3, static_cast<int>(settings.seconds / kNominalRunSeconds));
  const int traced_traces = std::max(1, traces / 2);
  const std::string ckpt_dir = settings.tmp_dir + "/sim-checkpoints";
  RunOutput out;
  // setup_s, ref_run_s and the round times are scaled to the reference host
  // speed; run_s and traced_s are as measured.
  std::vector<double> setup_s, run_s, ref_run_s, traced_s, round_ms, trace_round_mean_ms,
      kernel_ms, avg_jct_s, makespan_s;
  std::vector<size_t> trace_rounds;
  std::vector<Span> spans;
  std::map<SimEventKind, size_t> events;
  size_t policy_calls = 0;
  auto& recorder = pollux::obs::TraceRecorder::Global();
  auto& registry = pollux::obs::MetricsRegistry::Global();
  registry.Reset();

  // Per-layer counters, summed over the traced runs.
  std::map<std::string, double> counters;
  // In traced invocations both runs of a trace count (so they can be
  // compared on sched.rounds and fit.calls); only the traced one records
  // spans.
  auto simulate = [&](int k, bool traced) {
    const SimWorkload workload = MakeWorkload(name, Mix(settings.seed * 1009 + k));
    auto rep = std::make_unique<SimRep>(workload, ckpt_dir);
    registry.SetEnabled(settings.trace);
    recorder.SetEnabled(traced);
    const auto before = ReadCounters();
    rep->Run();
    recorder.SetEnabled(false);
    registry.SetEnabled(false);
    if (traced) {
      for (const auto& [counter, value] : ReadCounters()) {
        counters[counter] += value - before.at(counter);
      }
    }
    Account(rep->result(), static_cast<size_t>(workload.config.jobs), &out);
    for (double setup : rep->result().setup_s) {
      setup_s.push_back(setup * rep->result().host_scale);
    }
    kernel_ms.push_back(rep->result().kernel_s * 1e3);
    return rep;
  };

  Determined first;
  for (int k = 0; k < (settings.trace ? traced_traces : traces); ++k) {
    std::unique_ptr<SimRep> untraced = simulate(k, false);
    const Rep& rep = untraced->result();
    if (k == 0) first = rep.determined;
    run_s.push_back(rep.run_s);
    ref_run_s.push_back(rep.run_s * rep.host_scale);
    for (double ms : rep.round_ms) round_ms.push_back(ms * rep.host_scale);
    trace_round_mean_ms.push_back(Mean(rep.round_ms) * rep.host_scale);
    trace_rounds.push_back(rep.round_ms.size());
    avg_jct_s.push_back(rep.determined.avg_jct_s);
    makespan_s.push_back(rep.determined.makespan_s);
    if (!settings.trace) continue;

    if (k == 0) untraced->TimeCheckpoint(settings.tmp_dir + "/snap", 5, &out);
    const std::unique_ptr<SimRep> traced = simulate(k, true);
    CheckSame(rep.determined, traced->result().determined, "traced and untraced runs", &out);
    traced_s.push_back(traced->result().run_s);
    policy_calls += traced->result().round_ms.size();
    for (const auto& e : traced->result().result.events) ++events[e.kind];
    std::vector<Span> trace_spans = TakeSpans(&out);
    CheckLayersCoverRun(trace_spans, &out);
    spans.insert(spans.end(), trace_spans.begin(), trace_spans.end());
  }
  if (!settings.trace) {
    CheckSame(first, simulate(0, false)->result().determined, "repetitions of one trace", &out);
  }

  out.Set("setup_s", "s", Median(setup_s), setup_s.size(),
          "cluster, policy, simulator (+ trace), at reference speed");
  SetKernelMs(&out, kernel_ms);
  out.Set("avg_jct_s", "s", Mean(avg_jct_s), avg_jct_s.size(), "simulated, mean over traces");
  out.Set("makespan_s", "s", Mean(makespan_s), makespan_s.size(), "simulated, mean over traces");
  out.Set("failed_ratio", "ratio",
          out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0, out.attempted);
  if (!settings.trace) {
    std::string line = "Simulator::Run wall per trace (s):";
    for (double s : run_s) line += " " + std::to_string(s);
    out.report.push_back(line);
    line = "Schedule() calls / mean ms at reference speed, per trace:";
    for (size_t i = 0; i < trace_rounds.size(); ++i) {
      line += " " + std::to_string(trace_rounds[i]) + "/" + std::to_string(trace_round_mean_ms[i]);
    }
    out.report.push_back(line);
    out.Set("wall_s", "s", TrimmedMean(ref_run_s), run_s.size(),
            "Simulator::Run at reference speed, trimmed mean over traces");
    out.Set("sim_wall_s", "s", TrimmedMean(run_s), run_s.size(), "as measured");
    out.Set("peak_rss_mb", "MiB", PeakRssMiB(), 1);
  }
  SetLatency(&out, "round_ms", round_ms);
  // Like wall_s, a trimmed mean over traces: one trace's rounds can trail off
  // into a long tail of near-empty rounds (a job stuck behind faults), which
  // would drag a pooled mean, while a median over traces would follow
  // whichever trace lands in the middle.
  out.Set("round_ms.mean", "ms", TrimmedMean(trace_round_mean_ms), round_ms.size(),
          "per-trace mean at reference speed, trimmed mean over traces");
  if (!settings.trace) return out;

  // Per-layer numbers, summed over the traced runs.
  for (const auto& [counter, value] : counters) {
    out.Set(counter == "sim.checkpoint.writes" ? "checkpoint.writes" : counter, "count", value, 1);
  }
  SetCacheHitRates(&out);
  out.Set("sim.events.reallocate", "count", events[SimEventKind::kReallocate], 1);
  out.Set("faults.node_fail", "count", events[SimEventKind::kNodeFail], 1);
  out.Set("faults.evict", "count", events[SimEventKind::kEvict], 1);
  out.Set("faults.restart_failure", "count", events[SimEventKind::kRestartFailure], 1);
  const auto totals = SelfTimes(spans);
  ReportLayerShares(LayerSelfSeconds(totals), &out);
  std::vector<double> task_ms;  // pool_task span durations
  for (const Span& s : spans) {
    if (s.name == "pool_task") task_ms.push_back(s.dur_us * 1e-3);
  }
  out.Set("threadpool.task_latency_ms.p50", "ms", Median(task_ms), task_ms.size());
  const auto per = [&](const char* time, const char* count) {
    const double n = out.metrics[count].value;
    return n > 0 ? out.metrics[time].value / n * 1e6 : 0.0;
  };
  out.Set("ga.us_per_generation", "us", per("ga.self_s", "ga.generations"), 1);
  out.Set("fit.us_per_eval", "us", per("fit.self_s", "fit.evaluations"), 1);
  out.Set("policy.calls", "count", static_cast<double>(policy_calls), 1);
  const double untraced = Sum(run_s), traced = Sum(traced_s);
  out.Set("trace.overhead_pct", "%", untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0,
          traced_s.size());
  return out;
}

}  // namespace perfbench
