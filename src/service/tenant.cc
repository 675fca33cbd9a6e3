#include "service/tenant.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "service/wire.h"

namespace pollux {
namespace service {

template <class Ar>
void Serialize(Ar& ar, Io<Ar, ClusterSpec> cluster) {
  ar.IntVec(cluster.gpus_per_node);
  SerializeAnnotations(ar, cluster);
  if constexpr (Ar::kReading) {
    // Shape validation: a tenant must schedule a real cluster of sane size,
    // annotations (when present) must be per-node, and capacities must be
    // non-negative.
    constexpr size_t kMaxReasonable = size_t{1} << 20;
    const size_t nodes = cluster.gpus_per_node.size();
    const auto per_node = [nodes](size_t size) { return size == 0 || size == nodes; };
    if (ar.ok() &&
        (nodes == 0 || nodes > kMaxReasonable ||
         std::any_of(cluster.gpus_per_node.begin(), cluster.gpus_per_node.end(),
                     [](int gpus) { return gpus < 0; }) ||
         !per_node(cluster.rack_of_node.size()) || !per_node(cluster.gpu_type_of_node.size()) ||
         !per_node(cluster.node_gpu_scale.size()))) {
      ar.Fail("malformed tenant cluster");
    }
  }
}

template <class Ar>
void Serialize(Ar& ar, Io<Ar, SchedConfig> config) {
  ar.I64(config.ga.population_size);
  ar.I64(config.ga.generations);
  ar.I64(config.ga.tournament_size);
  ar.Double(config.ga.restart_penalty);
  ar.Bool(config.ga.interference_avoidance);
  ar.U64(config.ga.seed);
  ar.Bool(config.ga.memoize);
  ar.Double(config.gpu_time_threshold);
  ar.Double(config.weight_lambda);
  ar.Bool(config.memoize_tables);
  ar.Double(config.round_time_budget);
  ar.Double(config.stale_report_age);
  ar.Double(config.report_interval);
  ar.I64(config.lease_intervals);
  ar.Double(config.lease_grace);
  ar.Double(config.degraded_coverage);
  ar.Bool(config.naive_masking);
  std::string mode = SchedModeName(config.mode);
  ar.String(mode);
  if constexpr (Ar::kReading) {
    if (!SchedModeByName(mode, &config.mode)) {
      ar.Fail("unknown scheduling mode");
      return;
    }
  }
  ar.Double(config.dirty_rel_change);
  ar.I64(config.shard_jobs);
  ar.I64(config.refresh_rounds);
  ar.Bool(config.queue_admission);
  if constexpr (Ar::kReading) {
    // Shard workers already parallelize across tenants; each tenant's GA
    // stays serial so decisions never depend on the daemon's thread count.
    config.ga.threads = 1;
    // GA budget sanity: a hostile CreateTenant must not be able to request a
    // round that effectively never terminates or divides by zero.
    if (ar.ok() && (config.ga.population_size < 1 || config.ga.population_size > 100000 ||
                    config.ga.generations < 0 || config.ga.generations > 100000 ||
                    config.ga.tournament_size < 1)) {
      ar.Fail("GA budget out of range");
    }
  }
}

// Shared by the kMsgDecisions payload and the cached round in tenant
// snapshots, where `cached` is always clear: there the flags word holds just
// the degraded bit.
template <class Ar>
void Serialize(Ar& ar, Io<Ar, RoundDecisions> decisions) {
  ar.U64(decisions.round);
  uint32_t flags = (decisions.degraded ? kDecisionDegraded : 0u) |
                   (decisions.cached ? kDecisionCached : 0u);
  ar.U32(flags);
  if constexpr (Ar::kReading) {
    decisions.degraded = (flags & kDecisionDegraded) != 0;
    decisions.cached = (flags & kDecisionCached) != 0;
  }
  ar.Double(decisions.utility);
  MapSeq(ar, decisions.rows, [](auto& a, auto& job_id, auto& row) {
    a.U64(job_id);
    a.IntVec(row);
  });
}

template <class Ar>
void Serialize(Ar& ar, Io<Ar, TenantSetup> setup) {
  Serialize(ar, setup.cluster);
  Serialize(ar, setup.sched);
}

template void Serialize<BinWriter>(BinWriter&, const TenantSetup&);
template void Serialize<BinReader>(BinReader&, TenantSetup&);

namespace {

// Snapshot head: format version, tenant id, setup. On load the domain is
// constructed from the setup before the rest is read.
template <class Ar>
void SerializeHead(Ar& ar, Io<Ar, TenantSetup> setup) {
  uint32_t version = kTenantSnapshotVersion;
  ar.U32(version);
  if constexpr (Ar::kReading) {
    if (!ar.ok() || version != kTenantSnapshotVersion) {
      ar.Fail("unsupported tenant snapshot version");
      return;
    }
  }
  ar.U64(setup.tenant_id);
  Serialize(ar, setup);
}

}  // namespace

std::string EncodeDecisionsPayload(const RoundDecisions& decisions) {
  BinWriter out;
  Serialize(out, decisions);
  return out.str();
}

bool DecodeDecisionsPayload(const std::string& payload, RoundDecisions* decisions) {
  BinReader in(payload);
  Serialize(in, *decisions);
  return in.ok() && in.AtEnd();
}

TenantDomain::TenantDomain(TenantSetup setup)
    : setup_(std::move(setup)), sched_(setup_.cluster, setup_.sched) {}

void TenantDomain::SubmitJob(const AgentReport& agent, double gpu_time) {
  SchedJobReport report;
  report.agent = agent;
  report.gpu_time = gpu_time;
  jobs_[agent.job_id] = std::move(report);
  ++submits_;
}

bool TenantDomain::CancelJob(uint64_t job_id) {
  if (jobs_.erase(job_id) == 0) return false;
  ++cancels_;
  return true;
}

bool TenantDomain::Ingest(const SchedJobReport& report) {
  auto it = jobs_.find(report.agent.job_id);
  if (it == jobs_.end()) {
    ++rejected_reports_;
    return false;
  }
  // Allocation stays daemon-owned; everything else refreshes.
  it->second.agent = report.agent;
  it->second.gpu_time = report.gpu_time;
  it->second.report_age = report.report_age;
  it->second.seq = report.seq;
  ++reports_;
  return true;
}

TenantDomain::RoundStatus TenantDomain::RunRound(uint64_t round, RoundDecisions* out) {
  if (has_last_ && round == last_.round) {
    *out = last_;
    out->cached = true;
    return RoundStatus::kCached;
  }
  if (round != next_round_) return RoundStatus::kBadRound;

  std::vector<SchedJobReport> reports;
  reports.reserve(jobs_.size());
  for (const auto& [job_id, report] : jobs_) reports.push_back(report);

  const uint64_t fallback_before = sched_.fallback_rounds();
  const uint64_t degraded_before = sched_.degraded_rounds();
  auto decisions = sched_.Schedule(reports);
  for (const auto& [job_id, row] : decisions) {
    auto it = jobs_.find(job_id);
    if (it != jobs_.end()) it->second.current_allocation = row;
  }

  last_.round = round;
  last_.degraded = sched_.fallback_rounds() > fallback_before ||
                   sched_.degraded_rounds() > degraded_before;
  last_.cached = false;
  last_.utility = sched_.last_utility();
  last_.rows = std::move(decisions);
  has_last_ = true;
  next_round_ = round + 1;
  ++rounds_;
  *out = last_;
  return RoundStatus::kExecuted;
}

template <class Ar>
void TenantDomain::SerializeBody(Ar& ar, Io<Ar, TenantDomain> domain) {
  ar.U64(domain.next_round_);
  ar.Bool(domain.has_last_);
  if (domain.has_last_) {
    Serialize(ar, domain.last_);
    if constexpr (Ar::kReading) {
      domain.last_.cached = false;  // A reply property, never persisted.
    }
  }
  MapSeq(ar, domain.jobs_, [](auto& a, auto& job_id, auto& report) {
    a.U64(job_id);
    Serialize(a, report);
  });
  SerializeState(ar, domain.sched_);
  ar.U64(domain.submits_);
  ar.U64(domain.cancels_);
  ar.U64(domain.reports_);
  ar.U64(domain.rejected_reports_);
  ar.U64(domain.rounds_);
}

std::string TenantDomain::EncodeSnapshot() const {
  BinWriter out;
  SerializeHead(out, setup_);
  SerializeBody(out, *this);
  return out.str();
}

std::unique_ptr<TenantDomain> TenantDomain::FromSnapshot(const std::string& payload,
                                                         std::string* error) {
  BinReader in(payload);
  TenantSetup setup;
  SerializeHead(in, setup);
  std::unique_ptr<TenantDomain> domain;
  if (in.ok()) {
    domain = std::make_unique<TenantDomain>(std::move(setup));
    SerializeBody(in, *domain);
  }
  if (!in.ok() || !in.AtEnd()) {
    if (error) *error = in.error().empty() ? "malformed tenant snapshot" : in.error();
    return nullptr;
  }
  return domain;
}

bool TenantDomain::SaveCheckpoint(const std::string& dir, int keep, std::string* error) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error) *error = "cannot create checkpoint dir " + dir + ": " + ec.message();
    return false;
  }
  SnapshotMeta meta;
  // Rounds stand in for sim time: lexicographic file order == round order.
  meta.sim_time = static_cast<double>(next_round_);
  meta.engine = "schedd";
  meta.policy = "pollux";
  meta.seed = setup_.sched.ga.seed;
  meta.jobs_submitted = submits_;
  meta.jobs_finished = cancels_;
  meta.events = rounds_;
  std::map<uint32_t, std::string> sections;
  sections[kTagService] = EncodeSnapshot();
  const std::string path = dir + "/" + SnapshotFileName(meta.sim_time);
  if (!WriteSnapshotFile(path, sections, meta, error)) return false;
  // Bound disk use: keep the newest `keep` snapshots (plus sidecars). The
  // newest file was just written and is never pruned.
  if (keep > 0) {
    std::vector<std::string> files = ListSnapshotFiles(dir);  // oldest first
    while (files.size() > static_cast<size_t>(keep)) {
      std::filesystem::remove(files.front(), ec);
      std::filesystem::remove(files.front() + ".json", ec);
      files.erase(files.begin());
    }
  }
  return true;
}

std::unique_ptr<TenantDomain> TenantDomain::RestoreNewest(const std::string& dir,
                                                          std::string* error) {
  // Newest first, falling back past any file that fails at either layer:
  // container validation (torn write, bad CRC) or tenant payload decode.
  std::vector<std::string> files = ListSnapshotFiles(dir);
  std::string last_error = "no snapshot files in " + dir;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    std::map<uint32_t, std::string> sections;
    if (!ReadSnapshotFile(*it, &sections, &last_error)) continue;
    auto section = sections.find(kTagService);
    if (section == sections.end()) {
      last_error = *it + ": no tenant section";
      continue;
    }
    auto domain = FromSnapshot(section->second, &last_error);
    if (domain) return domain;
  }
  if (error) *error = last_error;
  return nullptr;
}

}  // namespace service
}  // namespace pollux
