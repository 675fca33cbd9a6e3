#include "sim/pollux_policy.h"

#include "sim/checkpoint.h"

namespace pollux {

PolluxPolicy::PolluxPolicy(ClusterSpec cluster, SchedConfig config)
    : sched_(std::move(cluster), config) {}

std::map<uint64_t, std::vector<int>> PolluxPolicy::Schedule(const SchedulerContext& context) {
  // Track capacity changes the simulator applied between rounds (node
  // failures/repairs mask capacity in-place rather than calling
  // OnClusterChanged for every transition).
  if (!(sched_.cluster() == *context.cluster)) {
    sched_.SetCluster(*context.cluster);
  }
  last_reports_.clear();
  last_reports_.reserve(context.jobs.size());
  for (const auto& snapshot : context.jobs) {
    SchedJobReport report;
    report.agent = snapshot.agent;
    report.gpu_time = snapshot.gpu_time;
    report.current_allocation = snapshot.allocation;
    report.report_age = snapshot.report_age;
    report.seq = snapshot.report_seq;
    last_reports_.push_back(std::move(report));
  }
  return sched_.Schedule(last_reports_);
}

void PolluxPolicy::OnClusterChanged(const ClusterSpec& cluster) { sched_.SetCluster(cluster); }

namespace {

// The blob: cluster capacities, the GA/diagnostic core, the cached reports,
// the incremental-mode state, then the topology annotations. The annotations
// travel with the blob so the restored scheduler's cluster compares equal to
// the live one; otherwise the first Schedule() after a resume would
// SetCluster (annotations missing) and wipe the persisted GA population,
// diverging from the uninterrupted run. They come last so pre-topology blobs
// still load: the reader stops at end-of-blob and keeps the flat cluster.
template <class Ar>
void SerializeBlob(Ar& ar, Io<Ar, ClusterSpec> cluster, Io<Ar, PolluxSched::State> state,
                   Io<Ar, std::vector<SchedJobReport>> reports) {
  ar.IntVec(cluster.gpus_per_node);
  SerializeSchedCore(ar, state);
  Seq(ar, reports, [](auto& a, auto& report) { Serialize(a, report); });
  SerializeSchedIncremental(ar, state);
  if constexpr (Ar::kReading) {
    if (!ar.ok() || ar.AtEnd()) {
      return;
    }
  }
  SerializeAnnotations(ar, cluster);
}

}  // namespace

void PolluxPolicy::SaveState(std::string* blob) const {
  BinWriter out;
  SerializeBlob(out, sched_.cluster(), sched_.GetState(), last_reports_);
  *blob = out.str();
}

bool PolluxPolicy::LoadState(const std::string& blob) {
  BinReader in(blob);
  ClusterSpec cluster;
  PolluxSched::State state;
  std::vector<SchedJobReport> reports;
  SerializeBlob(in, cluster, state, reports);
  if (!in.ok() || !in.AtEnd()) {
    return false;
  }
  // The cluster must be restored before the GA state: SetCluster clears the
  // persisted population (matrix shapes change with the cluster).
  sched_.SetCluster(cluster);
  sched_.SetState(state);
  last_reports_ = std::move(reports);
  return true;
}

void PolluxPolicy::ResetControlState() {
  sched_.ResetSearchState();
  last_reports_.clear();
}

}  // namespace pollux
