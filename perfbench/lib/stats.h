// Sample statistics for the benchmark.
//
// Every latency percentile the benchmark reports is computed here from raw
// per-call samples the benchmark recorded itself. The obs::Histogram buckets
// (2^(1/8) wide) quantize to about +-4.4%, too coarse for a 10% bound.

#ifndef PERFBENCH_LIB_STATS_H_
#define PERFBENCH_LIB_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

double Sum(const std::vector<double>& samples);

// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& samples);

// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> samples);

// Mean without the lowest and the highest sample (plain mean of fewer than
// three): one outlier, such as a trace whose rounds trail off into a long
// tail of near-empty ones, does not set it, while the rest all count.
double TrimmedMean(std::vector<double> samples);

// Nearest-rank percentile: the smallest sample with at least q * n samples at
// or below it (q in (0, 1]); 0 when empty.
double Percentile(std::vector<double> samples, double q);

// Number of samples ranked strictly above the nearest-rank q-th percentile.
size_t SamplesBeyond(size_t n, double q);

// A tail percentile chosen by the ">= 10 samples beyond it" rule.
struct Tail {
  double quantile = 0.0;  // e.g. 0.99
  double value = 0.0;
  size_t samples = 0;     // sample count the percentile was taken over
  bool resolved = false;  // false when not even the median has 10 beyond it
};

// The highest percentile from {99, 95, 90, 75, 50} that has at least
// `min_beyond` samples ranked above it, so a metric named p99 is p99 once
// there are 1000 samples and never a higher percentile. With too few
// samples the median is returned with resolved = false.
Tail TailPercentile(const std::vector<double>& samples, size_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_STATS_H_
