// Snapshot bytes pinned by checked-in files (DESIGN.md §11). The save ->
// load -> save tests elsewhere cannot see a layout change made on both sides
// at once; these can. tests/golden/snapshot_sim_pollux.bin is a halted
// pollux run (light faults, flaky control-plane network, 2x2 rack topology
// with mixed GPUs; its policy blob holds the exact-mode GA population) and
// tests/golden/snapshot_tenant_incremental.bin is a pollux_schedd tenant
// checkpoint in incremental mode (per-job re-optimization snapshots; shard
// GAs keep no population across rounds). Each must load, re-save
// byte-for-byte, and resume exactly like the run that wrote it; a fresh run
// of the same configuration must write the same bytes. The last tests feed
// the decoders small hostile payloads behind a valid CRC: each must come back
// as a load error, never an abort.
//
// A deliberate layout change bumps kSnapshotVersion and regenerates both
// files in the same commit:
//
//   POLLUX_WRITE_SNAPSHOT_GOLDENS=1 ./build/tests/pollux_tests
//       --gtest_filter='SnapshotGoldenTest.Fresh*'

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "service/tenant.h"
#include "sim/checkpoint.h"
#include "sim/pollux_policy.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace pollux {
namespace {

const std::string kSimGolden = std::string(POLLUX_TEST_DATA_DIR) + "/snapshot_sim_pollux.bin";
const std::string kTenantGolden =
    std::string(POLLUX_TEST_DATA_DIR) + "/snapshot_tenant_incremental.bin";

bool WritingGoldens() {
  const char* value = std::getenv("POLLUX_WRITE_SNAPSHOT_GOLDENS");
  return value != nullptr && std::string(value) == "1";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/pollux_golden_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Every per-job result field at full double precision.
std::string FormatJobs(const SimResult& result) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& job : result.jobs) {
    out << job.job_id << ' ' << job.submit_time << ' ' << job.start_time << ' '
        << job.finish_time << ' ' << job.gpu_time << ' ' << job.num_restarts << ' '
        << job.num_evictions << ' ' << job.num_restart_failures << ' ' << job.backoff_seconds
        << ' ' << job.avg_efficiency << ' ' << job.avg_throughput << ' ' << job.avg_goodput
        << ' ' << job.completed << '\n';
  }
  out << "makespan=" << result.makespan << " events=" << result.events.size() << '\n';
  return out.str();
}

// ---------------------------------------------------------------------------
// Simulator snapshot.
// ---------------------------------------------------------------------------

BenchSimConfig GoldenSimConfig() {
  BenchSimConfig config;
  config.nodes = 4;
  config.gpus_per_node = 4;
  config.racks = 2;  // 2 racks x 2 nodes.
  config.rack_link_factor = 2.5;
  config.gpu_mix = "a100:0.5,t4:0.5";
  config.ga_population = 12;
  config.ga_generations = 6;
  config.seed = 3;
  config.check_invariants = true;
  EXPECT_TRUE(FaultProfileByName("light", &config.faults));
  // Day-scale MTBFs never fire in a half-hour trace; shrink them so the
  // snapshot holds failed nodes and armed transitions.
  config.faults.mtbf_node = 1800.0;
  config.faults.repair_time = 120.0;
  EXPECT_TRUE(NetProfileByName("flaky", &config.net));
  return config;
}

std::vector<JobSpec> GoldenTrace() {
  TraceOptions options;
  options.num_jobs = 8;
  options.duration = 1800.0;
  options.max_gpus = 8;
  options.seed = 3;
  std::vector<JobSpec> jobs = GenerateTrace(options);
  for (auto& job : jobs) {
    // Small models keep the run short and the snapshot small.
    if (job.model != ModelKind::kResNet18Cifar10 && job.model != ModelKind::kNeuMFMovieLens) {
      job.model = ModelKind::kNeuMFMovieLens;
      job.batch_size = 2048;
      job.requested_gpus = std::min(job.requested_gpus, 4);
    }
  }
  return jobs;
}

struct DecodedExtra {
  SnapshotExtra extra;
  BenchSimConfig config;
  std::vector<JobSpec> trace;
};

DecodedExtra DecodeGoldenExtra(const std::string& path) {
  DecodedExtra decoded;
  std::string error;
  EXPECT_TRUE(ReadSnapshotExtra(path, &decoded.extra, &error)) << error;
  EXPECT_TRUE(DecodeBenchSimConfig(decoded.extra.driver_config, &decoded.config));
  std::istringstream trace_in(decoded.extra.trace_csv);
  const std::optional<std::vector<JobSpec>> trace = ReadTraceCsv(trace_in, &error);
  EXPECT_TRUE(trace.has_value()) << error;
  if (trace.has_value()) {
    decoded.trace = *trace;
  }
  return decoded;
}

TEST(SnapshotGoldenTest, FreshHaltedRunWritesTheSimulatorGoldenBytes) {
  const std::string dir = FreshDir("sim_fresh");
  BenchSimConfig config = GoldenSimConfig();
  config.checkpoint_every = 450.0;
  config.checkpoint_dir = dir;
  config.halt_after_checkpoint = 900.0;
  const SimResult halted = RunImportedTrace("pollux", config, GoldenTrace());
  ASSERT_TRUE(halted.halted);
  std::string error;
  const std::string newest = ResolveSnapshotPath(dir, &error);
  ASSERT_FALSE(newest.empty()) << error;
  const std::string bytes = ReadFileBytes(newest);
  EXPECT_LE(bytes.size(), 64u * 1024u);
  if (WritingGoldens()) {
    std::filesystem::copy_file(newest, kSimGolden,
                               std::filesystem::copy_options::overwrite_existing);
  }
  EXPECT_EQ(bytes, ReadFileBytes(kSimGolden));
  std::filesystem::remove_all(dir);
}

TEST(SnapshotGoldenTest, SimulatorGoldenLoadsAndResavesByteIdentically) {
  const std::string golden = ReadFileBytes(kSimGolden);
  ASSERT_FALSE(golden.empty()) << "missing " << kSimGolden;
  const DecodedExtra decoded = DecodeGoldenExtra(kSimGolden);
  ASSERT_EQ(decoded.extra.policy, "pollux");
  PolluxPolicy policy(ClusterFromBenchConfig(decoded.config),
                      SchedConfigFromBenchConfig(decoded.config));
  Simulator sim(SimOptionsFromBenchConfig(decoded.config), decoded.trace, &policy);
  sim.SetSnapshotExtra(decoded.extra);
  std::string error;
  ASSERT_TRUE(sim.LoadSnapshot(kSimGolden, &error)) << error;
  const std::string dir = FreshDir("sim_resave");
  const std::string resaved = dir + "/resaved.bin";
  ASSERT_TRUE(sim.SaveSnapshot(resaved, &error)) << error;
  EXPECT_EQ(ReadFileBytes(resaved), golden);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotGoldenTest, SimulatorGoldenResumesToTheUninterruptedResults) {
  const DecodedExtra decoded = DecodeGoldenExtra(kSimGolden);
  const SimResult full = RunImportedTrace(decoded.extra.policy, decoded.config, decoded.trace);
  ASSERT_FALSE(full.halted);
  SimResult resumed;
  std::string policy;
  std::string error;
  ASSERT_TRUE(
      ResumeBenchFromSnapshot(kSimGolden, BenchResumeOptions{}, &resumed, &policy, &error))
      << error;
  EXPECT_FALSE(resumed.halted);
  EXPECT_EQ(FormatJobs(resumed), FormatJobs(full));
}

// ---------------------------------------------------------------------------
// pollux_schedd tenant snapshot.
// ---------------------------------------------------------------------------

AgentReport GoldenAgent(uint64_t job_id, double phi) {
  ThroughputParams params;
  params.alpha_grad = 0.05;
  params.beta_grad = 2e-4;
  params.alpha_sync_local = 0.03;
  params.beta_sync_local = 0.002;
  params.alpha_sync_node = 0.1;
  params.beta_sync_node = 0.005;
  params.gamma = 2.0;
  AgentReport agent;
  agent.job_id = job_id;
  agent.model = GoodputModel(params, phi, 128);
  agent.limits.min_batch = 128;
  agent.limits.max_batch_total = 16384;
  agent.limits.max_batch_per_gpu = 1024;
  agent.max_gpus_cap = 8;
  return agent;
}

service::TenantSetup GoldenTenantSetup() {
  service::TenantSetup setup;
  setup.tenant_id = 11;
  setup.cluster.gpus_per_node.assign(4, 4);
  setup.cluster.rack_of_node = {0, 0, 1, 1};
  setup.cluster.gpu_type_of_node = {3, 3, 0, 0};
  setup.cluster.node_gpu_scale = {1.0, 1.0, 0.5, 0.5};
  setup.cluster.rack_link_factor = 2.0;
  setup.sched.ga.population_size = 16;
  setup.sched.ga.generations = 8;
  setup.sched.ga.seed = 7;
  setup.sched.mode = SchedMode::kIncremental;
  setup.sched.shard_jobs = 4;
  return setup;
}

// Four rounds of a deterministic workload: a cancelled job, a rejected
// report and aging telemetry leave every counter non-zero.
std::unique_ptr<service::TenantDomain> DriveGoldenTenant() {
  auto domain = std::make_unique<service::TenantDomain>(GoldenTenantSetup());
  const int jobs = 7;
  for (int j = 0; j < jobs; ++j) {
    domain->SubmitJob(GoldenAgent(static_cast<uint64_t>(j) + 1, 800.0 + 100.0 * j), 0.0);
  }
  for (uint64_t round = 0; round < 4; ++round) {
    for (int j = 0; j < jobs; ++j) {
      SchedJobReport report;
      report.agent = GoldenAgent(static_cast<uint64_t>(j) + 1,
                                 800.0 + 100.0 * j + 10.0 * static_cast<double>(round));
      report.gpu_time = static_cast<double>(round + 1) * 120.0;
      report.report_age = 0.25 * static_cast<double>(j % 3);
      report.seq = round + 1;
      domain->Ingest(report);
    }
    if (round == 2) {
      domain->CancelJob(3);
      SchedJobReport unknown;
      unknown.agent = GoldenAgent(99, 1000.0);
      domain->Ingest(unknown);
    }
    service::RoundDecisions decisions;
    EXPECT_EQ(domain->RunRound(round, &decisions),
              service::TenantDomain::RoundStatus::kExecuted);
  }
  return domain;
}

TEST(SnapshotGoldenTest, FreshTenantCheckpointWritesTheTenantGoldenBytes) {
  const auto domain = DriveGoldenTenant();
  ASSERT_FALSE(domain->sched().GetState().incremental.empty());
  const std::string dir = FreshDir("tenant_fresh");
  std::string error;
  ASSERT_TRUE(domain->SaveCheckpoint(dir, /*keep=*/1, &error)) << error;
  const std::vector<std::string> files = ListSnapshotFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string bytes = ReadFileBytes(files.front());
  EXPECT_LE(bytes.size(), 64u * 1024u);
  if (WritingGoldens()) {
    std::filesystem::copy_file(files.front(), kTenantGolden,
                               std::filesystem::copy_options::overwrite_existing);
  }
  EXPECT_EQ(bytes, ReadFileBytes(kTenantGolden));
  std::filesystem::remove_all(dir);
}

TEST(SnapshotGoldenTest, TenantGoldenRestoresResavesAndResumesIdentically) {
  const std::string golden = ReadFileBytes(kTenantGolden);
  ASSERT_FALSE(golden.empty()) << "missing " << kTenantGolden;
  std::string error;
  std::map<uint32_t, std::string> sections;
  ASSERT_TRUE(ReadSnapshotFile(kTenantGolden, &sections, &error)) << error;
  ASSERT_EQ(sections.count(kTagService), 1u);
  auto restored = service::TenantDomain::FromSnapshot(sections[kTagService], &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->EncodeSnapshot(), sections[kTagService]);

  const std::string resave_dir = FreshDir("tenant_resave");
  ASSERT_TRUE(restored->SaveCheckpoint(resave_dir, /*keep=*/1, &error)) << error;
  const std::vector<std::string> files = ListSnapshotFiles(resave_dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(ReadFileBytes(files.front()), golden);

  // The restored tenant takes the same next round as the live one.
  const auto live = DriveGoldenTenant();
  ASSERT_EQ(restored->next_round(), live->next_round());
  for (uint64_t job_id : {1, 2, 4, 5}) {
    SchedJobReport report;
    report.agent = GoldenAgent(job_id, 2000.0 + static_cast<double>(job_id));
    report.gpu_time = 900.0;
    report.seq = 9;
    live->Ingest(report);
    restored->Ingest(report);
  }
  service::RoundDecisions from_live;
  service::RoundDecisions from_restored;
  ASSERT_EQ(live->RunRound(live->next_round(), &from_live),
            service::TenantDomain::RoundStatus::kExecuted);
  ASSERT_EQ(restored->RunRound(restored->next_round(), &from_restored),
            service::TenantDomain::RoundStatus::kExecuted);
  EXPECT_EQ(from_restored.rows, from_live.rows);
  EXPECT_EQ(from_restored.utility, from_live.utility);
  EXPECT_EQ(restored->EncodeSnapshot(), live->EncodeSnapshot());
  std::filesystem::remove_all(resave_dir);
}

// ---------------------------------------------------------------------------
// Hostile inputs: element counts the payload cannot hold.
// ---------------------------------------------------------------------------

// A ~100-byte PolluxSched core whose one GA population matrix claims
// 2^20 x 2^20 cells.
void PutHugeMatrixCore(BinWriter& out) {
  Rng::State rng{};
  Serialize(out, rng);
  out.PutU64(0);  // last_job_ids
  out.PutU64(1);  // population size
  out.PutU64(uint64_t{1} << 20);
  out.PutU64(uint64_t{1} << 20);
}

TEST(SnapshotHostileInputTest, PolicyBlobWithHugeMatrixHeaderIsRejected) {
  BinWriter out;
  out.IntVec({4, 4});
  PutHugeMatrixCore(out);
  EXPECT_EQ(out.str().size(), 100u);
  PolluxPolicy policy(ClusterSpec::Homogeneous(2, 4), SchedConfig{});
  EXPECT_FALSE(policy.LoadState(out.str()));
}

TEST(SnapshotHostileInputTest, TenantSnapshotWithHugeMatrixHeaderIsRejected) {
  BinWriter out;
  out.PutU32(service::kTenantSnapshotVersion);
  out.PutU64(5);  // tenant id
  Serialize(out, GoldenTenantSetup());
  out.PutU64(0);      // next round
  out.Bool(false);    // no cached decisions
  out.PutU64(0);      // job table
  PutHugeMatrixCore(out);
  std::string error;
  EXPECT_EQ(service::TenantDomain::FromSnapshot(out.str(), &error), nullptr);
  EXPECT_FALSE(error.empty());

  // The same payload inside a valid container: restore falls through to a
  // typed error.
  const std::string dir = FreshDir("tenant_hostile");
  std::map<uint32_t, std::string> sections;
  sections[kTagService] = out.str();
  ASSERT_TRUE(WriteSnapshotFile(dir + "/" + SnapshotFileName(1.0), sections, SnapshotMeta{},
                                &error))
      << error;
  error.clear();
  EXPECT_EQ(service::TenantDomain::RestoreNewest(dir, &error), nullptr);
  EXPECT_FALSE(error.empty());
  std::filesystem::remove_all(dir);
}

TEST(SnapshotHostileInputTest, AgentObservationCountBeyondThePayloadIsRejected) {
  std::map<uint32_t, std::string> sections;
  std::string error;
  ASSERT_TRUE(ReadSnapshotFile(kSimGolden, &sections, &error)) << error;
  // Job section: u64 job count, then the first job's u64 id and its agent's
  // u64 observation count.
  std::string& jobs = sections[kTagJobs];
  ASSERT_GE(jobs.size(), 24u);
  BinReader header(jobs);
  ASSERT_GT(header.GetU64(), 0u);
  header.GetU64();
  ASSERT_LT(header.GetU64(), 1000u);
  BinWriter huge;
  huge.PutU64(uint64_t{1} << 40);
  jobs.replace(16, 8, huge.str());
  const std::string dir = FreshDir("sim_hostile");
  const std::string path = dir + "/hostile.bin";
  ASSERT_TRUE(WriteSnapshotFile(path, sections, SnapshotMeta{}, &error)) << error;

  const DecodedExtra decoded = DecodeGoldenExtra(kSimGolden);
  PolluxPolicy policy(ClusterFromBenchConfig(decoded.config),
                      SchedConfigFromBenchConfig(decoded.config));
  Simulator sim(SimOptionsFromBenchConfig(decoded.config), decoded.trace, &policy);
  error.clear();
  EXPECT_FALSE(sim.LoadSnapshot(path, &error));
  EXPECT_NE(error.find("malformed job section"), std::string::npos) << error;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pollux
