#include "lib/loadgen.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lib/stats.h"

namespace perfbench {

OpenLoopStats AccountOpenLoop(std::vector<RequestTiming> requests, double backlog_ms) {
  std::stable_sort(requests.begin(), requests.end(),
                   [](const RequestTiming& a, const RequestTiming& b) { return a.due < b.due; });
  OpenLoopStats stats;
  stats.attempted = requests.size();
  for (const RequestTiming& r : requests) {
    stats.late_ms.push_back(std::max(0.0, r.sent - r.due) * 1e3);
    if (r.ok) {
      stats.latency_ms.push_back((r.done - r.due) * 1e3);
    } else {
      ++stats.failed;
      stats.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }
  if (requests.size() >= 2) {
    const double span = requests.back().due - requests.front().due;
    if (span > 0.0) stats.offered_per_s = static_cast<double>(requests.size() - 1) / span;
  }
  const size_t quarter = requests.size() / 4;
  if (quarter > 0) {
    const auto& late = stats.late_ms;
    const auto n = static_cast<std::ptrdiff_t>(quarter);
    const double first = Median({late.begin(), late.begin() + n});
    const double last = Median({late.end() - n, late.end()});
    stats.backlog_growing = last - first > backlog_ms;
  }
  return stats;
}

bool MeetsLatencyLimit(const OpenLoopStats& stats, double limit_ms) {
  if (stats.failed > 0 || stats.backlog_growing || stats.latency_ms.empty()) return false;
  return TailPercentile(stats.latency_ms).value <= limit_ms;
}

double SearchMaxRate(double lo, double hi, double resolution,
                     const std::function<bool(double)>& meets) {
  if (!meets(lo)) return 0.0;
  if (meets(hi)) return hi;
  while (hi / lo > 1.0 + resolution) {
    const double mid = std::sqrt(lo * hi);
    (meets(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace perfbench
