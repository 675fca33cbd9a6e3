// Crash-consistent snapshot format for the cluster simulator (DESIGN.md §11).
//
// A snapshot is one binary file:
//
//   magic "PLXSNAP1"                                   (8 bytes)
//   u32   format version                               (kSnapshotVersion)
//   sections, each { u32 tag, u64 payload length, payload bytes }
//   u32   CRC-32 (IEEE) over everything between magic and CRC
//
// plus a human-readable JSON sidecar (`<file>.json`) mirroring the header
// metadata. Files are written to a temporary name and renamed into place, so
// a torn write can never shadow a previously valid snapshot. Readers validate
// magic, version, section framing, and CRC before any payload is parsed;
// truncated/corrupt/future-version files are rejected with a clear error
// (counted by sim.checkpoint.corrupt) and the directory helpers fall back to
// the previous snapshot.
//
// All integers are little-endian; doubles are serialized bit-exact (IEEE-754
// bit pattern), which the warm-recovery byte-identity guarantee depends on.

#ifndef POLLUX_SIM_CHECKPOINT_H_
#define POLLUX_SIM_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/agent.h"
#include "core/sched.h"
#include "util/rng.h"
#include "util/stats.h"

namespace pollux {

// Version 2: kTagJobs rows gained per-channel delivery sequence numbers and
// the kTagNet section (control-plane network model state) was added.
// Version 3: the kTagTopology section (rack/GPU-type cluster annotations,
// DESIGN.md §14) was added. Older snapshots load fine — a missing topology
// section means the construction-time annotations stay in force.
inline constexpr uint32_t kSnapshotVersion = 3;

// Section tags. Unknown tags are preserved but ignored by readers, so later
// versions can add sections without breaking older payload parsers.
enum SnapshotTag : uint32_t {
  kTagExtra = 1,      // Driver payload: policy name, config text, trace CSV.
  kTagSimCore = 2,    // Simulator scalars: config echo, cluster, Rng, cursors.
  kTagJobs = 3,       // Per-job dynamic state, including the fitted agents.
  kTagFaults = 4,     // FaultInjector stream cursors + armed transitions.
  kTagScheduler = 5,  // Opaque Scheduler::SaveState blob.
  kTagResult = 6,     // Event log, timeline, node-second accounting.
  kTagLoop = 7,       // Engine loop state (tick thresholds / timer states).
  kTagNet = 8,        // NetModel streams/in-flight messages + lease liveness.
  kTagTopology = 9,   // Cluster topology annotations (racks, GPU types).
  kTagService = 10,   // pollux_schedd per-tenant domain state (service/tenant.h).
};

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
uint32_t Crc32(const void* data, size_t size);

// Snapshot payloads are laid out by one Serialize(ar, state) body per state
// type that runs in both directions: Ar is BinWriter when saving and
// BinReader when loading, and both expose the same field verbs (U32, U64,
// I64, Bool, Double, String, IntVec, Count). The order of the verb calls in a
// body is the format. Io<Ar, T> is the state parameter: const T& when
// writing, T& when reading. Reader-only checks (config echoes, enum ranges,
// shape limits) sit in `if constexpr (Ar::kReading)` branches and end in
// BinReader::Fail.
template <class Ar, class T>
using Io = std::conditional_t<Ar::kReading, T&, const T&>;

// Append-only little-endian binary encoder.
class BinWriter {
 public:
  static constexpr bool kReading = false;

  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  void PutDouble(double value);  // Bit-exact (incl. inf/NaN payloads).
  void PutString(const std::string& value);
  const std::string& str() const { return buffer_; }

  // Field verbs (see Io above). Integers of any width travel as u32/u64/i64
  // on the wire.
  template <class Int>
  void U32(Int value) {
    static_assert(std::is_integral_v<Int>);
    PutU32(static_cast<uint32_t>(value));
  }
  template <class Int>
  void U64(Int value) {
    static_assert(std::is_integral_v<Int>);
    PutU64(static_cast<uint64_t>(value));
  }
  template <class Int>
  void I64(Int value) {
    static_assert(std::is_integral_v<Int>);
    PutU64(static_cast<uint64_t>(static_cast<int64_t>(value)));
  }
  void Bool(bool value) { PutU32(value ? 1 : 0); }
  void Double(double value) { PutDouble(value); }
  void String(const std::string& value) { PutString(value); }
  void IntVec(const std::vector<int>& values);  // u64 count, then i64 each.
  // Writes an element count; see BinReader::Count.
  uint64_t Count(uint64_t count, size_t /*min_element_bytes*/) {
    PutU64(count);
    return count;
  }
  bool ok() const { return true; }

 private:
  std::string buffer_;
};

// Matching decoder. Reads past the end set a sticky failure flag and return
// zero values; callers check ok() once after decoding instead of per field.
// The referenced buffer must outlive the reader.
class BinReader {
 public:
  static constexpr bool kReading = true;

  explicit BinReader(const std::string& data) : data_(data) {}

  uint32_t GetU32();
  uint64_t GetU64();
  double GetDouble();
  std::string GetString();

  template <class Int>
  void U32(Int& value) { value = static_cast<Int>(GetU32()); }
  template <class Int>
  void U64(Int& value) { value = static_cast<Int>(GetU64()); }
  template <class Int>
  void I64(Int& value) { value = static_cast<Int>(static_cast<int64_t>(GetU64())); }
  void Bool(bool& value) { value = GetU32() != 0; }
  void Double(double& value) { value = GetDouble(); }
  void String(std::string& value) { value = GetString(); }
  void IntVec(std::vector<int>& values);

  // Reads an element count. The one guard against hostile counts: a count
  // whose elements (each at least `min_element_bytes` on the wire) cannot
  // fit in the bytes left fails the reader and reads as 0, so no container
  // is ever sized beyond what the payload can fill.
  uint64_t Count(uint64_t /*count*/, size_t min_element_bytes) {
    const uint64_t count = GetU64();
    return Holds(count, min_element_bytes) ? count : 0;
  }
  // True when `count` elements of `min_element_bytes` each fit in the bytes
  // left; otherwise fails the reader.
  bool Holds(uint64_t count, uint64_t min_element_bytes);

  // Fails the reader with a reason (the first one sticks); returns false.
  bool Fail(const std::string& reason);
  const std::string& error() const { return error_; }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// Bytes `layout(probe)` writes for default-constructed values: the fewest an
// element can take, since every variable-length part carries a count.
template <class Layout>
size_t MinWireBytes(Layout layout) {
  BinWriter probe;
  layout(probe);
  return probe.str().size();
}

// A count-prefixed sequence; field(ar, element) lays out one element.
template <class Ar, class Vec, class Field>
void Seq(Ar& ar, Vec& items, Field field) {
  using Element = typename Vec::value_type;
  if constexpr (Ar::kReading) {
    const size_t min_bytes = MinWireBytes([&field](BinWriter& probe) {
      Element element{};
      field(probe, element);
    });
    items.clear();
    items.resize(ar.Count(0, min_bytes));
  } else {
    ar.Count(items.size(), 0);
  }
  for (auto& item : items) {
    field(ar, item);
  }
}

// A count-prefixed std::map; field(ar, key, value) lays out one entry. A
// repeated key on load keeps the last value.
template <class Ar, class Map, class Field>
void MapSeq(Ar& ar, Map& map, Field field) {
  using Key = typename Map::key_type;
  using Value = typename Map::mapped_type;
  if constexpr (Ar::kReading) {
    const size_t min_bytes = MinWireBytes([&field](BinWriter& probe) {
      Key key{};
      Value value{};
      field(probe, key, value);
    });
    const uint64_t count = ar.Count(0, min_bytes);
    map.clear();
    for (uint64_t i = 0; i < count && ar.ok(); ++i) {
      Key key{};
      Value value{};
      field(ar, key, value);
      map[key] = std::move(value);
    }
  } else {
    ar.Count(map.size(), 0);
    for (const auto& [key, value] : map) {
      field(ar, key, value);
    }
  }
}

// State owned behind a GetState()/SetState() pair (Rng, PolluxAgent,
// FaultInjector, NetModel): saving lays out GetState(); loading reads a
// fresh State and applies it only if the reader is still good.
template <class Ar, class Owner>
void SerializeState(Ar& ar, Owner& owner) {
  if constexpr (Ar::kReading) {
    typename Owner::State state{};
    Serialize(ar, state);
    if (ar.ok()) {
      owner.SetState(state);
    }
  } else {
    Serialize(ar, owner.GetState());
  }
}

// An enum stored as u32. Loading fails the reader with `error` for a value
// past `last`.
template <class Ar, class Enum>
void SerializeEnum(Ar& ar, Io<Ar, Enum> value, Enum last, const char* error) {
  uint32_t raw = static_cast<uint32_t>(value);
  ar.U32(raw);
  if constexpr (Ar::kReading) {
    if (raw > static_cast<uint32_t>(last)) {
      ar.Fail(error);
      return;
    }
    value = static_cast<Enum>(raw);
  }
}

template <class Ar>
void Serialize(Ar& ar, Io<Ar, Rng::State> state) {
  for (auto& word : state.words) {
    ar.U64(word);
  }
  ar.Double(state.cached_normal);
  ar.Bool(state.has_cached_normal);
}

template <class Ar>
void Serialize(Ar& ar, Io<Ar, RunningStats::State> state) {
  ar.U64(state.count);
  ar.Double(state.mean);
  ar.Double(state.m2);
  ar.Double(state.min);
  ar.Double(state.max);
}

template <class Ar>
void Serialize(Ar& ar, Io<Ar, ThroughputParams> params) {
  ar.Double(params.alpha_grad);
  ar.Double(params.beta_grad);
  ar.Double(params.alpha_sync_local);
  ar.Double(params.beta_sync_local);
  ar.Double(params.alpha_sync_node);
  ar.Double(params.beta_sync_node);
  ar.Double(params.gamma);
}

template <class Ar>
void Serialize(Ar& ar, Io<Ar, AgentReport> report) {
  ar.U64(report.job_id);
  // GoodputModel is immutable: lay out its parts, rebuild it on load.
  ThroughputParams params = report.model.params();
  double phi = report.model.phi();
  long base_batch = report.model.base_batch_size();
  Serialize(ar, params);
  ar.Double(phi);
  ar.I64(base_batch);
  if constexpr (Ar::kReading) {
    report.model = GoodputModel(params, phi, base_batch);
  }
  ar.I64(report.limits.min_batch);
  ar.I64(report.limits.max_batch_total);
  ar.I64(report.limits.max_batch_per_gpu);
  ar.I64(report.max_gpus_cap);
}

template <class Ar>
void Serialize(Ar& ar, Io<Ar, SchedJobReport> report) {
  Serialize(ar, report.agent);
  ar.Double(report.gpu_time);
  ar.IntVec(report.current_allocation);
  ar.Double(report.report_age);
  ar.U64(report.seq);
}

// Writer-only shorthand for wire frames that batch job reports.
inline void PutSchedJobReport(BinWriter& out, const SchedJobReport& report) {
  Serialize(out, report);
}

template <class Ar>
void Serialize(Ar& ar, Io<Ar, AllocationMatrix> matrix) {
  uint64_t num_jobs = matrix.num_jobs();
  uint64_t num_nodes = matrix.num_nodes();
  ar.U64(num_jobs);
  ar.U64(num_nodes);
  if constexpr (Ar::kReading) {
    // Bound the cell count, not each dimension (a 0 x N matrix has no cells).
    if (num_jobs != 0 && num_nodes != 0 &&
        !(ar.Holds(num_jobs, 8) && ar.Holds(num_nodes, 8 * num_jobs))) {
      return;
    }
    matrix = AllocationMatrix(static_cast<size_t>(num_jobs), static_cast<size_t>(num_nodes));
  }
  for (size_t job = 0; job < matrix.num_jobs(); ++job) {
    for (size_t node = 0; node < matrix.num_nodes(); ++node) {
      ar.I64(matrix.at(job, node));
    }
  }
}

// PolluxSched control-plane state, shared by the simulator's PolluxPolicy
// blob and the pollux_schedd per-tenant snapshots. Split in two because the
// PolluxPolicy blob puts its cached reports between the core fields and the
// incremental-mode state.
template <class Ar>
void SerializeSchedCore(Ar& ar, Io<Ar, PolluxSched::State> state) {
  Serialize(ar, state.ga.rng);
  Seq(ar, state.ga.last_job_ids, [](auto& a, auto& job_id) { a.U64(job_id); });
  Seq(ar, state.ga.population, [](auto& a, auto& matrix) { Serialize(a, matrix); });
  ar.Double(state.last_utility);
  ar.Double(state.last_fitness);
  ar.U64(state.fallback_rounds);
  ar.U64(state.degraded_rounds);
  ar.U64(state.lease_expirations);
  ar.U64(state.lease_evictions);
  ar.U64(state.dup_reports);
  ar.U64(state.queue_skipped);
  MapSeq(ar, state.telemetry, [](auto& a, auto& job_id, auto& telemetry) {
    a.U64(job_id);
    a.U64(telemetry.first);
    a.U32(telemetry.second);
  });
}

template <class Ar>
void SerializeSchedIncremental(Ar& ar, Io<Ar, PolluxSched::State> state) {
  MapSeq(ar, state.incremental, [](auto& a, auto& job_id, auto& snap) {
    a.U64(job_id);
    Serialize(a, snap.params);
    a.Double(snap.phi);
    a.I64(snap.base_batch);
    a.I64(snap.cap);
    a.U32(snap.bucket);
    a.U32(snap.rounds_clean);
  });
  ar.U64(state.incremental_round);
}

// Both parts back to back (the pollux_schedd tenant layout).
template <class Ar>
void Serialize(Ar& ar, Io<Ar, PolluxSched::State> state) {
  SerializeSchedCore(ar, state);
  SerializeSchedIncremental(ar, state);
}

// ClusterSpec topology annotations (DESIGN.md §14), shared by the
// PolluxPolicy blob and the pollux_schedd tenant setup.
template <class Ar>
void SerializeAnnotations(Ar& ar, Io<Ar, ClusterSpec> cluster) {
  ar.IntVec(cluster.rack_of_node);
  ar.IntVec(cluster.gpu_type_of_node);
  Seq(ar, cluster.node_gpu_scale, [](auto& a, auto& scale) { a.Double(scale); });
  ar.Double(cluster.rack_link_factor);
}

// Driver payload embedded in every snapshot so a resume can reconstruct the
// run without any of the original command line: the policy name, the
// driver's own config serialization (opaque at this layer), and the full
// submission trace as CSV (workload/trace_io round-trips doubles exactly).
struct SnapshotExtra {
  std::string policy;
  std::string driver_config;
  std::string trace_csv;
};

template <class Ar>
void Serialize(Ar& ar, Io<Ar, SnapshotExtra> extra) {
  ar.String(extra.policy);
  ar.String(extra.driver_config);
  ar.String(extra.trace_csv);
}

// Metadata mirrored into the JSON sidecar for humans and tooling.
struct SnapshotMeta {
  double sim_time = 0.0;
  std::string engine;
  std::string policy;
  uint64_t seed = 0;
  uint64_t jobs_submitted = 0;
  uint64_t jobs_finished = 0;
  uint64_t events = 0;
};

// Assembles the container (magic + version + sections + CRC), writes it
// atomically (temp file + rename), and writes the JSON sidecar next to it.
bool WriteSnapshotFile(const std::string& path,
                       const std::map<uint32_t, std::string>& sections,
                       const SnapshotMeta& meta, std::string* error);

// Validates magic/version/CRC/section framing and fills `sections`. Returns
// false with a clear error for torn, corrupt, or future-version files and
// increments sim.checkpoint.corrupt.
bool ReadSnapshotFile(const std::string& path, std::map<uint32_t, std::string>* sections,
                      std::string* error);

// Reads and decodes only the driver payload section.
bool ReadSnapshotExtra(const std::string& path, SnapshotExtra* extra, std::string* error);

// "ckpt-<sim time in ms, zero padded>.bin": lexicographic order equals
// chronological order, which the directory helpers rely on.
std::string SnapshotFileName(double sim_time);

// All snapshot files in `dir` (full paths), oldest first.
std::vector<std::string> ListSnapshotFiles(const std::string& dir);

// Resolves a --resume-from operand: a snapshot file is returned as-is; for a
// directory, the newest snapshot that passes full validation is returned,
// skipping (and warning about) torn/corrupt/future-version files. Returns an
// empty string with `error` set when nothing valid is found.
std::string ResolveSnapshotPath(const std::string& path_or_dir, std::string* error);

}  // namespace pollux

#endif  // POLLUX_SIM_CHECKPOINT_H_
