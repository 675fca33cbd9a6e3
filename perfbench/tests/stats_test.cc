// Tests of the benchmark's own statistics: tail selection, self time over
// nested spans, layer attribution, open-loop accounting and the max-rate
// search.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "lib/loadgen.h"
#include "lib/spans.h"
#include "lib/stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Stats, TrimmedMeanDropsLowestAndHighest) {
  EXPECT_DOUBLE_EQ(TrimmedMean({2.0, 1.0, 3.0, 9.0, 2.5}), 2.5);  // 1.0 and 9.0 dropped
  EXPECT_DOUBLE_EQ(TrimmedMean({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(TrimmedMean({1, 2}), 1.5);
  EXPECT_DOUBLE_EQ(TrimmedMean({}), 0.0);
}

TEST(Stats, NearestRankPercentile) {
  EXPECT_DOUBLE_EQ(Percentile(OneTo(1000), 0.99), 990.0);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(100), 0.5), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(10), 1.0), 10.0);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(SamplesBeyond(1010, 0.99), 10u);  // rank ceil(999.9) = 1000
}

TEST(Stats, TailTakesHighestPercentileWithTenBeyond) {
  // 10000 samples: p99 is the highest percentile reported.
  Tail tail = TailPercentile(OneTo(10000));
  EXPECT_DOUBLE_EQ(tail.quantile, 0.99);
  EXPECT_DOUBLE_EQ(tail.value, 9900.0);
  EXPECT_TRUE(tail.resolved);
  // 1000 samples: p99 has exactly 10 beyond it.
  tail = TailPercentile(OneTo(1000));
  EXPECT_DOUBLE_EQ(tail.quantile, 0.99);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  // 999 samples: p99 leaves only 9 beyond (nearest rank 990), so p95.
  EXPECT_DOUBLE_EQ(TailPercentile(OneTo(999)).quantile, 0.95);
  // 200 samples: p95 (10 beyond); p99 would leave 2.
  tail = TailPercentile(OneTo(200));
  EXPECT_DOUBLE_EQ(tail.quantile, 0.95);
  EXPECT_DOUBLE_EQ(tail.value, 190.0);
  EXPECT_EQ(tail.samples, 200u);
  // 15 samples: not even the median has 10 beyond.
  tail = TailPercentile(OneTo(15));
  EXPECT_FALSE(tail.resolved);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.5);
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  // run [0,100) > round [10,60) > ga [20,50); run > refresh [70,90) > fit [75,85).
  std::vector<Span> spans = {
      {"fit", 1, 75, 10}, {"run", 1, 0, 100}, {"ga", 1, 20, 30},
      {"round", 1, 10, 50}, {"refresh", 1, 70, 20},
  };
  const auto t = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(t.at("run").self_us, 100 - 50 - 20);
  EXPECT_DOUBLE_EQ(t.at("round").self_us, 50 - 30);
  EXPECT_DOUBLE_EQ(t.at("ga").self_us, 30);
  EXPECT_DOUBLE_EQ(t.at("refresh").self_us, 20 - 10);
  EXPECT_DOUBLE_EQ(t.at("fit").self_us, 10);
  double sum = 0;
  for (const auto& [name, totals] : t) sum += totals.self_us;
  EXPECT_DOUBLE_EQ(sum, 100.0);  // self times add back up to the outer span
}

TEST(Spans, RepeatedChildrenAndSiblings) {
  std::vector<Span> spans = {{"round", 1, 0, 10}, {"ga", 1, 1, 3}, {"ga", 1, 5, 4},
                             {"round", 1, 20, 10}, {"ga", 1, 21, 2}};
  const auto t = SelfTimes(spans);
  EXPECT_EQ(t.at("round").count, 2u);
  EXPECT_DOUBLE_EQ(t.at("round").total_us, 20);
  EXPECT_DOUBLE_EQ(t.at("round").self_us, 20 - 9);
  EXPECT_DOUBLE_EQ(t.at("ga").self_us, 9);
}

TEST(Spans, ThreadsDoNotNestAndOverrunsAreClipped) {
  std::vector<Span> spans = {
      {"ga", 1, 0, 100},
      {"pool_task", 2, 10, 20},   // other thread: not a child of ga
      {"inner", 1, 90, 20},       // runs 10 past its parent's end
      {"same_start", 1, 0, 5},    // starts with its parent: still a child
  };
  const auto t = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(t.at("pool_task").self_us, 20);
  EXPECT_DOUBLE_EQ(t.at("ga").self_us, 100 - 10 - 5);
}

TEST(Spans, UnmappedSpansAreUnattributed) {
  // run [0,1e6) > refresh [1e5,3e5) > fit [1.5e5,2.5e5); run > mystery
  // [5e5,6e5), which no layer claims; a pool task on another thread.
  const std::vector<Span> spans = {
      {"run", 1, 0, 1e6},        {"refresh", 1, 1e5, 2e5}, {"fit", 1, 1.5e5, 1e5},
      {"mystery", 1, 5e5, 1e5},  {"pool_task", 2, 0, 5e5},
  };
  const std::map<std::string, std::string> layer_of = {
      {"run", "sim"}, {"refresh", "agent"}, {"fit", "fit"}, {"pool_task", "threadpool"}};
  const RootAttribution run = AttributeRoot(spans, "run", layer_of);
  EXPECT_DOUBLE_EQ(run.root_s, 1.0);
  EXPECT_DOUBLE_EQ(run.layers.unattributed_s, 0.1);  // 10% of the run: over a 5% limit
  EXPECT_EQ(run.layers.unknown, std::vector<std::string>{"mystery"});
  EXPECT_DOUBLE_EQ(run.layers.self_s.at("sim"), 0.7);
  EXPECT_DOUBLE_EQ(run.layers.self_s.at("agent"), 0.1);
  EXPECT_DOUBLE_EQ(run.layers.self_s.at("fit"), 0.1);
  EXPECT_EQ(run.layers.self_s.count("threadpool"), 0u);  // other thread

  auto mapped = layer_of;
  mapped["mystery"] = "sim";
  const RootAttribution covered = AttributeRoot(spans, "run", mapped);
  EXPECT_DOUBLE_EQ(covered.layers.unattributed_s, 0.0);
  EXPECT_DOUBLE_EQ(covered.layers.self_s.at("sim"), 0.8);

  EXPECT_LT(AttributeRoot(spans, "absent", layer_of).root_s, 0.0);
}

TEST(OpenLoop, LatencyFromDueAndLateness) {
  // Second request is due at 1.0 but the client is stuck until 1.5.
  std::vector<RequestTiming> r = {{0.0, 0.0, 1.5, true}, {1.0, 1.5, 1.6, true},
                                  {2.0, 2.0, 2.1, true}, {3.0, 3.0, 3.1, true}};
  const OpenLoopStats s = AccountOpenLoop(r, 10.0);
  ASSERT_EQ(s.latency_ms.size(), 4u);
  EXPECT_NEAR(s.latency_ms[0], 1500, 1e-9);
  EXPECT_NEAR(s.latency_ms[1], 600, 1e-9);  // from due (1.0), not from send (1.5)
  EXPECT_NEAR(s.late_ms[1], 500, 1e-9);
  EXPECT_NEAR(s.late_ms[2], 0, 1e-9);
  EXPECT_NEAR(s.offered_per_s, 1.0, 1e-12);
  EXPECT_EQ(s.failed, 0u);
}

TEST(OpenLoop, FailuresMissEveryLimit) {
  std::vector<RequestTiming> r;
  for (int i = 0; i < 2000; ++i) r.push_back({i * 1e-3, i * 1e-3, i * 1e-3 + 1e-4, i != 7});
  const OpenLoopStats s = AccountOpenLoop(r, 10.0);
  EXPECT_EQ(s.attempted, 2000u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_TRUE(std::isinf(s.latency_ms[7]));
  EXPECT_FALSE(MeetsLatencyLimit(s, 20.0));
}

TEST(OpenLoop, GrowingBacklogIsDetected) {
  // Capacity 500/s, offered 1000/s: each request is sent later than the last.
  std::vector<RequestTiming> over, steady;
  for (int i = 0; i < 400; ++i) {
    const double due = i * 1e-3;
    const double sent = std::max(due, i * 2e-3);
    over.push_back({due, sent, sent + 2e-3, true});
    steady.push_back({due, due, due + 5e-4, true});
  }
  EXPECT_TRUE(AccountOpenLoop(over, 10.0).backlog_growing);
  EXPECT_FALSE(AccountOpenLoop(steady, 10.0).backlog_growing);
  EXPECT_TRUE(MeetsLatencyLimit(AccountOpenLoop(steady, 10.0), 20.0));
}

TEST(RateSearch, BisectsToResolution) {
  int probes = 0;
  const double found = SearchMaxRate(100, 100000, 0.02, [&](double rate) {
    ++probes;
    return rate <= 7300.0;
  });
  EXPECT_LE(found, 7300.0);
  EXPECT_GT(found, 7300.0 / 1.02);
  EXPECT_LT(probes, 20);
}

TEST(RateSearch, Edges) {
  EXPECT_DOUBLE_EQ(SearchMaxRate(10, 1000, 0.02, [](double) { return true; }), 1000.0);
  EXPECT_DOUBLE_EQ(SearchMaxRate(10, 1000, 0.02, [](double) { return false; }), 0.0);
}

}  // namespace
}  // namespace perfbench
