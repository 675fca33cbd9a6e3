// Open-loop load accounting and the max-rate search.
//
// An open-loop generator sends each request at a time fixed in advance (its
// due time), whether or not earlier requests have finished. Latency is taken
// from the due time, so a stall also charges the wait it imposes on every
// request queued behind it; lateness (send - due) says how far behind the
// generator itself ran.

#ifndef PERFBENCH_LIB_LOADGEN_H_
#define PERFBENCH_LIB_LOADGEN_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

// Times in seconds on one clock.
struct RequestTiming {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = true;
};

struct OpenLoopStats {
  // Per request, in due order. A failed request misses every latency limit:
  // its latency is +infinity.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  size_t attempted = 0;
  size_t failed = 0;
  double offered_per_s = 0.0;  // requests / (last due - first due)
  // Median lateness of the last quarter of requests (by due time) exceeds
  // that of the first quarter by more than the backlog threshold: the
  // generator fell further behind as the session went on.
  bool backlog_growing = false;
};

OpenLoopStats AccountOpenLoop(std::vector<RequestTiming> requests, double backlog_ms);

// No failures, no growing backlog, and the tail latency (TailPercentile) at
// or under the limit.
bool MeetsLatencyLimit(const OpenLoopStats& stats, double limit_ms);

// Highest rate in [lo, hi] for which `meets(rate)` holds, found by geometric
// bisection until hi / lo <= 1 + resolution. Returns hi when `meets(hi)`,
// and 0 when not even `meets(lo)`. Assumes `meets` is monotone (true below
// capacity, false above); a noisy probe only shifts the answer by one step.
double SearchMaxRate(double lo, double hi, double resolution,
                     const std::function<bool(double)>& meets);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_LOADGEN_H_
