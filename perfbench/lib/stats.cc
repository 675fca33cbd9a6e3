#include "lib/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Sum(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum;
}

double Mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : Sum(samples) / static_cast<double>(samples.size());
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower = *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

double TrimmedMean(std::vector<double> samples) {
  if (samples.size() < 3) return Mean(samples);
  std::sort(samples.begin(), samples.end());
  return Mean({samples.begin() + 1, samples.end() - 1});
}

namespace {

// 1-based nearest rank of the q-th percentile among n samples. The epsilon
// keeps q * n = 990.0000000001 (binary rounding of 0.99 * 1000) at rank 990.
size_t NearestRank(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t index = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

size_t SamplesBeyond(size_t n, double q) { return n == 0 ? 0 : n - NearestRank(n, q); }

Tail TailPercentile(const std::vector<double>& samples, size_t min_beyond) {
  static constexpr double kLadder[] = {0.99, 0.95, 0.90, 0.75, 0.50};
  Tail tail;
  tail.samples = samples.size();
  tail.quantile = 0.50;
  for (double q : kLadder) {
    if (SamplesBeyond(samples.size(), q) >= min_beyond) {
      tail.quantile = q;
      tail.resolved = true;
      break;
    }
  }
  tail.value = Percentile(samples, tail.quantile);
  return tail;
}

}  // namespace perfbench
