// Seeded chaos schedules for the degraded control plane (DESIGN.md §12):
// every fault class (node crash/repair, stragglers, report drops, restart
// failures, scheduler crashes) combined with every network fault class
// (latency/jitter, burst loss, duplication, reordering, node and rack
// partitions) at once, with invariant checking on for every run. Asserts
// per-seed byte-reproducibility, ticked/event engine agreement, and that
// every job completes once the chaos heals — no job is ever lost.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "sim/netmodel.h"
#include "sim/pollux_policy.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace pollux {
namespace {

std::vector<JobSpec> ChaosTrace(uint64_t seed) {
  TraceOptions options;
  options.num_jobs = 10;
  options.duration = 1800.0;
  options.max_gpus = 8;
  options.seed = seed;
  auto jobs = GenerateTrace(options);
  for (auto& job : jobs) {
    // Keep the schedule fast: long-running models become small ones.
    if (job.model != ModelKind::kResNet18Cifar10 && job.model != ModelKind::kNeuMFMovieLens) {
      job.model = ModelKind::kNeuMFMovieLens;
      job.batch_size = 2048;
      job.requested_gpus = std::min(job.requested_gpus, 4);
    }
  }
  return jobs;
}

// The named profiles use production-scale MTBFs that never fire inside a
// short trace; shrink them so partitions, bursts, and crashes all actually
// happen (several times) per run.
NetOptions ChaosNet(const std::string& profile) {
  NetOptions net;
  EXPECT_TRUE(NetProfileByName(profile, &net));
  if (net.mtbf_partition > 0.0) {
    net.mtbf_partition = 600.0;
    net.partition_duration = 90.0;
  }
  if (net.mtbf_rack_partition > 0.0) {
    net.mtbf_rack_partition = 1200.0;
    net.rack_partition_duration = 120.0;
    net.rack_size = 2;
  }
  return net;
}

FaultOptions ChaosFaults() {
  FaultOptions faults;
  EXPECT_TRUE(FaultProfileByName("heavy", &faults));
  faults.mtbf_node = 1500.0;
  faults.repair_time = 120.0;
  faults.mtbf_sched = 2000.0;
  return faults;
}

SimResult RunChaos(const std::string& profile, uint64_t seed, SimEngine engine,
                   bool with_faults = true) {
  SimOptions options;
  options.engine = engine;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = seed;
  options.check_invariants = true;
  options.net = ChaosNet(profile);
  if (with_faults) {
    options.faults = ChaosFaults();
  }
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  sched_config.ga.seed = seed;
  if (options.net.enabled()) {
    sched_config.lease_intervals = options.net.lease_intervals;
    sched_config.lease_grace = options.net.lease_grace;
    sched_config.degraded_coverage = options.net.degraded_coverage;
  }
  PolluxPolicy policy(options.cluster, sched_config);
  return Simulator(options, ChaosTrace(seed), &policy).Run();
}

// Bit-exact fingerprint of everything seed-determinism promises: full-
// precision per-job trajectories plus the complete lifecycle event log.
std::string Fingerprint(const SimResult& result) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& job : result.jobs) {
    out << job.job_id << ' ' << job.submit_time << ' ' << job.start_time << ' '
        << job.finish_time << ' ' << job.gpu_time << ' ' << job.num_restarts << ' '
        << job.num_evictions << ' ' << job.num_restart_failures << ' ' << job.backoff_seconds
        << ' ' << job.avg_goodput << ' ' << job.completed << '\n';
  }
  for (const auto& event : result.events) {
    out << event.time << ' ' << static_cast<int>(event.kind) << ' ' << event.job_id << ' '
        << event.gpus << ' ' << event.nodes << '\n';
  }
  out << result.makespan << ' ' << result.node_seconds << '\n';
  return out.str();
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

std::map<SimEventKind, size_t> EventKindCounts(const SimResult& result) {
  std::map<SimEventKind, size_t> counts;
  for (const auto& event : result.events) {
    ++counts[event.kind];
  }
  return counts;
}

struct ChaosCase {
  uint64_t seed;
  const char* profile;
};

// ctest takes gtest's parameter listing into the test names; without a
// printer gtest would list the raw bytes, pointer included.
void PrintTo(const ChaosCase& c, std::ostream* os) { *os << c.profile << " seed " << c.seed; }

class ChaosSchedule : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosSchedule, ByteReproduciblePerSeedOnBothEngines) {
  const ChaosCase c = GetParam();
  for (const SimEngine engine : {SimEngine::kEvent, SimEngine::kTicked}) {
    const SimResult first = RunChaos(c.profile, c.seed, engine);
    const SimResult second = RunChaos(c.profile, c.seed, engine);
    EXPECT_EQ(Fingerprint(first), Fingerprint(second))
        << c.profile << " seed " << c.seed << " engine " << static_cast<int>(engine);
  }
}

TEST_P(ChaosSchedule, TickedAndEventEnginesAgree) {
  const ChaosCase c = GetParam();
  const SimResult ticked = RunChaos(c.profile, c.seed, SimEngine::kTicked);
  const SimResult event = RunChaos(c.profile, c.seed, SimEngine::kEvent);
  EXPECT_EQ(CompletionSet(ticked), CompletionSet(event));
  EXPECT_EQ(EventKindCounts(ticked), EventKindCounts(event));
  ASSERT_EQ(ticked.jobs.size(), event.jobs.size());
  for (size_t i = 0; i < ticked.jobs.size(); ++i) {
    // One tick (SimOptions default 1.0): the event engine refines completion
    // instants inside the tick the ticked engine completed in.
    EXPECT_NEAR(ticked.jobs[i].Jct(), event.jobs[i].Jct(), 1.0)
        << "job " << ticked.jobs[i].job_id;
    EXPECT_EQ(ticked.jobs[i].num_evictions, event.jobs[i].num_evictions)
        << "job " << ticked.jobs[i].job_id;
  }
}

TEST_P(ChaosSchedule, EveryJobCompletesAfterTheChaosHeals) {
  const ChaosCase c = GetParam();
  const SimResult result = RunChaos(c.profile, c.seed, SimEngine::kEvent);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(CompletionSet(result).size(), result.jobs.size());
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completed) << "job " << job.job_id << " never finished";
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, ChaosSchedule,
                         ::testing::Values(ChaosCase{1, "lan"}, ChaosCase{1, "flaky"},
                                           ChaosCase{2, "flaky"}, ChaosCase{1, "partitioned"},
                                           ChaosCase{3, "partitioned"}),
                         [](const ::testing::TestParamInfo<ChaosCase>& info) {
                           return std::string(info.param.profile) + "_seed" +
                                  std::to_string(info.param.seed);
                         });

// --net-profile=none must be indistinguishable from a build without the
// network model at all: the profile leaves every knob zero, NetOptions
// reports disabled, and the run is byte-identical to one that never set
// options.net.
TEST(ChaosNoneProfile, ByteIdenticalToNetModelDisabled) {
  NetOptions none;
  ASSERT_TRUE(NetProfileByName("none", &none));
  EXPECT_FALSE(none.enabled());

  SimOptions options;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = 5;
  options.check_invariants = true;
  const auto trace = ChaosTrace(5);
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  sched_config.ga.seed = 5;

  PolluxPolicy baseline_policy(options.cluster, sched_config);
  const SimResult baseline = Simulator(options, trace, &baseline_policy).Run();

  options.net = none;
  PolluxPolicy none_policy(options.cluster, sched_config);
  const SimResult with_none = Simulator(options, trace, &none_policy).Run();
  EXPECT_EQ(Fingerprint(baseline), Fingerprint(with_none));
}

}  // namespace
}  // namespace pollux
