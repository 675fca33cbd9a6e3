// Engine equivalence sweep (seeds x fault profiles x all five policies):
// the event engine must reproduce the legacy ticked engine's trajectories —
// per-job JCTs within one tick (the event engine refines completion times
// inside the tick the ticked engine completed in), identical event *kind*
// counts, identical completion sets — and must itself be seed-deterministic
// and independent of the scheduler thread count.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "baselines/fifo.h"
#include "baselines/fixed_batch_policy.h"
#include "baselines/optimus.h"
#include "baselines/tiresias.h"
#include "sim/pollux_policy.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace pollux {
namespace {

struct EquivalenceCase {
  const char* policy;
  const char* fault_profile;  // "none" | "light" | "heavy"
  uint64_t seed;
};

// ctest takes gtest's parameter listing into the test names; without a
// printer gtest would list the raw bytes, pointers included.
void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << c.policy << ' ' << c.fault_profile << " seed " << c.seed;
}

std::vector<JobSpec> SmallTrace(uint64_t seed) {
  TraceOptions options;
  options.num_jobs = 10;
  options.duration = 1800.0;
  options.max_gpus = 8;
  options.seed = seed;
  auto jobs = GenerateTrace(options);
  for (auto& job : jobs) {
    // Keep the sweep fast: long-running models become small ones.
    if (job.model != ModelKind::kResNet18Cifar10 && job.model != ModelKind::kNeuMFMovieLens) {
      job.model = ModelKind::kNeuMFMovieLens;
      job.batch_size = 2048;
      job.requested_gpus = std::min(job.requested_gpus, 4);
    }
  }
  return jobs;
}

SimResult RunCase(const EquivalenceCase& c, SimEngine engine, int sched_threads = 1) {
  SimOptions options;
  options.engine = engine;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = c.seed;
  options.sched_threads = sched_threads;
  options.check_invariants = true;
  EXPECT_TRUE(FaultProfileByName(c.fault_profile, &options.faults));
  if (options.faults.enabled()) {
    // The profiles' day-scale MTBFs never fire inside a short trace; shrink
    // them so the sweep actually exercises crash/repair under both engines.
    options.faults.mtbf_node = 1800.0;
    options.faults.repair_time = 120.0;
  }
  const auto trace = SmallTrace(c.seed);
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  sched_config.ga.seed = c.seed;
  sched_config.ga.threads = sched_threads;
  const std::string policy = c.policy;
  if (policy == "pollux") {
    PolluxPolicy p(options.cluster, sched_config);
    return Simulator(options, trace, &p).Run();
  }
  if (policy == "pollux-fixed-batch") {
    FixedBatchPolluxPolicy p(options.cluster, sched_config);
    return Simulator(options, trace, &p).Run();
  }
  if (policy == "optimus") {
    OptimusPolicy p;
    return Simulator(options, trace, &p).Run();
  }
  if (policy == "fifo") {
    FifoPolicy p;
    return Simulator(options, trace, &p).Run();
  }
  TiresiasPolicy p;
  return Simulator(options, trace, &p).Run();
}

std::map<SimEventKind, size_t> EventKindCounts(const SimResult& result) {
  std::map<SimEventKind, size_t> counts;
  for (const auto& event : result.events) {
    ++counts[event.kind];
  }
  return counts;
}

std::set<uint64_t> CompletionSet(const SimResult& result) {
  std::set<uint64_t> completed;
  for (const auto& job : result.jobs) {
    if (job.completed) {
      completed.insert(job.job_id);
    }
  }
  return completed;
}

class EngineEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EngineEquivalence, TickedAndEventEnginesAgree) {
  const EquivalenceCase c = GetParam();
  const SimResult ticked = RunCase(c, SimEngine::kTicked);
  const SimResult event = RunCase(c, SimEngine::kEvent);
  const double tick = 1.0;  // SimOptions default used by RunCase.

  // Identical completion sets and per-job JCTs within one tick.
  EXPECT_EQ(CompletionSet(ticked), CompletionSet(event));
  ASSERT_EQ(ticked.jobs.size(), event.jobs.size());
  for (size_t i = 0; i < ticked.jobs.size(); ++i) {
    const JobResult& a = ticked.jobs[i];
    const JobResult& b = event.jobs[i];
    ASSERT_EQ(a.job_id, b.job_id);
    EXPECT_EQ(a.completed, b.completed) << "job " << a.job_id;
    EXPECT_NEAR(a.Jct(), b.Jct(), tick) << "job " << a.job_id;
    EXPECT_EQ(a.start_time, b.start_time) << "job " << a.job_id;
    EXPECT_EQ(a.num_restarts, b.num_restarts) << "job " << a.job_id;
    EXPECT_EQ(a.num_evictions, b.num_evictions) << "job " << a.job_id;
    EXPECT_EQ(a.gpu_time, b.gpu_time) << "job " << a.job_id;
  }

  // Identical event kind counts (the engines take the same scheduling,
  // fault, and lifecycle decisions; only completion instants are refined).
  EXPECT_EQ(EventKindCounts(ticked), EventKindCounts(event));

  // Shared aggregates agree to within a tick of makespan.
  EXPECT_NEAR(ticked.makespan, event.makespan, tick);
  EXPECT_NEAR(ticked.node_seconds, event.node_seconds,
              1e-6 * std::max(1.0, ticked.node_seconds));
  EXPECT_EQ(ticked.timed_out, event.timed_out);
  ASSERT_EQ(ticked.timeline.size(), event.timeline.size());
  for (size_t i = 0; i < ticked.timeline.size(); ++i) {
    EXPECT_EQ(ticked.timeline[i].gpus_in_use, event.timeline[i].gpus_in_use) << "t" << i;
    EXPECT_EQ(ticked.timeline[i].running_jobs, event.timeline[i].running_jobs) << "t" << i;
  }
}

TEST_P(EngineEquivalence, EventEngineIsDeterministicAndThreadIndependent) {
  const EquivalenceCase c = GetParam();
  const SimResult a = RunCase(c, SimEngine::kEvent, /*sched_threads=*/1);
  const SimResult b = RunCase(c, SimEngine::kEvent, /*sched_threads=*/1);
  const SimResult threaded = RunCase(c, SimEngine::kEvent, /*sched_threads=*/4);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  ASSERT_EQ(a.jobs.size(), threaded.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time) << "rerun job " << i;
    EXPECT_EQ(a.jobs[i].gpu_time, b.jobs[i].gpu_time) << "rerun job " << i;
    EXPECT_EQ(a.jobs[i].finish_time, threaded.jobs[i].finish_time) << "threads job " << i;
    EXPECT_EQ(a.jobs[i].gpu_time, threaded.jobs[i].gpu_time) << "threads job " << i;
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.events.size(), threaded.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time) << "rerun event " << i;
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "rerun event " << i;
    EXPECT_EQ(a.events[i].time, threaded.events[i].time) << "threads event " << i;
    EXPECT_EQ(a.events[i].kind, threaded.events[i].kind) << "threads event " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.makespan, threaded.makespan);
}

// The event engine's log is strictly monotone in time (the run above already
// aborts via check_invariants if not); spot-check it end to end here too so
// the property is asserted even in non-invariant builds.
TEST_P(EngineEquivalence, EventEngineLogIsMonotone) {
  const SimResult event = RunCase(GetParam(), SimEngine::kEvent);
  double last = 0.0;
  for (const auto& e : event.events) {
    EXPECT_GE(e.time + 1e-9, last) << SimEventKindName(e.kind);
    last = std::max(last, e.time);
  }
}

std::vector<EquivalenceCase> SweepCases() {
  std::vector<EquivalenceCase> cases;
  const char* policies[] = {"pollux", "pollux-fixed-batch", "optimus", "fifo", "tiresias"};
  // Every policy runs fault-free on two seeds; the fault profiles ride on
  // the two cheapest policies to keep the sweep fast.
  for (const char* policy : policies) {
    cases.push_back(EquivalenceCase{policy, "none", 1});
    cases.push_back(EquivalenceCase{policy, "none", 2});
  }
  for (const char* profile : {"light", "heavy"}) {
    cases.push_back(EquivalenceCase{"fifo", profile, 1});
    cases.push_back(EquivalenceCase{"tiresias", profile, 2});
    cases.push_back(EquivalenceCase{"pollux", profile, 3});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineEquivalence, ::testing::ValuesIn(SweepCases()),
                         [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
                           std::string name = info.param.policy;
                           for (char& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name + "_" + info.param.fault_profile + "_seed" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace pollux
