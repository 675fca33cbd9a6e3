#include "core/model_fitter.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/rack_model.h"
#include "util/rng.h"

namespace pollux {
namespace {

ThroughputParams GroundTruth() {
  ThroughputParams params;
  params.alpha_grad = 0.04;
  params.beta_grad = 3e-4;
  params.alpha_sync_local = 0.02;
  params.beta_sync_local = 0.001;
  params.alpha_sync_node = 0.08;
  params.beta_sync_node = 0.004;
  params.gamma = 1.8;
  return params;
}

// Full grid of observations over K, node regime, and batch size.
std::vector<ThroughputObservation> MakeObservations(const ThroughputParams& truth,
                                                    double noise_sigma, uint64_t seed) {
  Rng rng(seed);
  std::vector<ThroughputObservation> data;
  for (int k : {1, 2, 4, 8, 16}) {
    for (int n : {1, 2}) {
      if (n == 2 && k < 2) {
        continue;
      }
      for (long m : {128L, 256L, 512L, 1024L, 2048L}) {
        ThroughputObservation obs;
        obs.placement = Placement{k, n};
        obs.batch_size = m;
        obs.iter_time = IterTime(truth, obs.placement, static_cast<double>(m));
        if (noise_sigma > 0.0) {
          obs.iter_time *= std::exp(rng.Normal(0.0, noise_sigma));
        }
        data.push_back(obs);
      }
    }
  }
  return data;
}

TEST(ThroughputRmsleTest, ZeroForExactParams) {
  const auto truth = GroundTruth();
  const auto data = MakeObservations(truth, 0.0, 1);
  EXPECT_NEAR(ThroughputRmsle(truth, data), 0.0, 1e-9);
}

TEST(ThroughputRmsleTest, PositiveForWrongParams) {
  const auto truth = GroundTruth();
  const auto data = MakeObservations(truth, 0.0, 1);
  ThroughputParams wrong = truth;
  wrong.alpha_grad *= 3.0;
  EXPECT_GT(ThroughputRmsle(wrong, data), 0.01);
}

TEST(ThroughputRmsleTest, EmptyObservationsAreZero) {
  EXPECT_DOUBLE_EQ(ThroughputRmsle(GroundTruth(), {}), 0.0);
}

TEST(ModelFitterTest, RecoversPredictionsFromNoiselessData) {
  const auto truth = GroundTruth();
  const auto data = MakeObservations(truth, 0.0, 1);
  FitOptions options;
  options.max_gpus_seen = 16;
  options.max_nodes_seen = 4;
  options.multi_starts = 4;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_LT(fit.rmsle, 0.02);
  // The individual parameters need not be identified, but predictions on
  // held-out configurations must match the ground truth closely.
  for (int k : {3, 6, 12}) {
    for (long m : {384L, 1536L}) {
      const Placement placement{k, 2};
      const double predicted = IterTime(fit.params, placement, static_cast<double>(m));
      const double actual = IterTime(truth, placement, static_cast<double>(m));
      EXPECT_NEAR(predicted / actual, 1.0, 0.1) << "K=" << k << " m=" << m;
    }
  }
}

TEST(ModelFitterTest, ToleratesMeasurementNoise) {
  const auto truth = GroundTruth();
  const auto data = MakeObservations(truth, 0.05, 7);
  FitOptions options;
  options.max_gpus_seen = 16;
  options.max_nodes_seen = 4;
  options.multi_starts = 4;
  const FitResult fit = FitThroughputParams(data, options);
  for (int k : {2, 8}) {
    const Placement placement{k, 1};
    const double predicted = IterTime(fit.params, placement, 512.0);
    const double actual = IterTime(truth, placement, 512.0);
    EXPECT_NEAR(predicted / actual, 1.0, 0.2) << "K=" << k;
  }
}

TEST(ModelFitterTest, PriorPinsSyncParamsForSingleGpuJob) {
  const auto truth = GroundTruth();
  std::vector<ThroughputObservation> data;
  for (long m : {128L, 256L, 512L, 1024L}) {
    ThroughputObservation obs;
    obs.placement = Placement{1, 1};
    obs.batch_size = m;
    obs.iter_time = IterTime(truth, obs.placement, static_cast<double>(m));
    data.push_back(obs);
  }
  FitOptions options;
  options.max_gpus_seen = 1;
  options.max_nodes_seen = 1;
  const FitResult fit = FitThroughputParams(data, options);
  // Perfect-scaling prior: all sync parameters pinned to zero.
  EXPECT_DOUBLE_EQ(fit.params.alpha_sync_local, 0.0);
  EXPECT_DOUBLE_EQ(fit.params.beta_sync_local, 0.0);
  EXPECT_DOUBLE_EQ(fit.params.alpha_sync_node, 0.0);
  EXPECT_DOUBLE_EQ(fit.params.beta_sync_node, 0.0);
  // The grad parameters are identified from single-GPU data alone.
  EXPECT_NEAR(fit.params.alpha_grad, truth.alpha_grad, 0.02);
  EXPECT_NEAR(fit.params.beta_grad, truth.beta_grad, 1e-4);
}

TEST(ModelFitterTest, PriorPinsNodeParamsForSingleNodeJob) {
  const auto truth = GroundTruth();
  std::vector<ThroughputObservation> data;
  for (int k : {1, 2, 4}) {
    for (long m : {128L, 512L, 1024L}) {
      ThroughputObservation obs;
      obs.placement = Placement{k, 1};
      obs.batch_size = m;
      obs.iter_time = IterTime(truth, obs.placement, static_cast<double>(m));
      data.push_back(obs);
    }
  }
  FitOptions options;
  options.max_gpus_seen = 4;
  options.max_nodes_seen = 1;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_DOUBLE_EQ(fit.params.alpha_sync_node, 0.0);
  EXPECT_DOUBLE_EQ(fit.params.beta_sync_node, 0.0);
  // Local sync params are free since multiple GPUs were used.
  EXPECT_LT(fit.rmsle, 0.05);
}

TEST(ModelFitterTest, PriorPinsRetrogressionForTwoGpuJob) {
  const auto truth = GroundTruth();
  std::vector<ThroughputObservation> data;
  for (int k : {1, 2}) {
    ThroughputObservation obs;
    obs.placement = Placement{k, k};
    obs.batch_size = 256;
    obs.iter_time = IterTime(truth, obs.placement, 256.0);
    data.push_back(obs);
  }
  FitOptions options;
  options.max_gpus_seen = 2;
  options.max_nodes_seen = 2;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_DOUBLE_EQ(fit.params.beta_sync_local, 0.0);
  EXPECT_DOUBLE_EQ(fit.params.beta_sync_node, 0.0);
}

TEST(ModelFitterTest, GammaStaysInBounds) {
  const auto data = MakeObservations(GroundTruth(), 0.1, 11);
  FitOptions options;
  options.max_gpus_seen = 16;
  options.max_nodes_seen = 4;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_GE(fit.params.gamma, 1.0);
  EXPECT_LE(fit.params.gamma, 10.0);
  EXPECT_GE(fit.params.alpha_grad, 0.0);
  EXPECT_GE(fit.params.beta_grad, 0.0);
}

TEST(ModelFitterTest, EmptyObservationsReturnDefault) {
  const FitResult fit = FitThroughputParams({}, {});
  EXPECT_DOUBLE_EQ(fit.rmsle, 0.0);
}


// Bit-identity golden corpus. Each case fits a seeded observation set that
// exercises one prior-pin regime of FitOnce (or the robust MAD refit, or the
// rack fitter, which shares the optimizer). The expected parameters and RMSLE
// are IEEE-754 bit patterns: any change to the optimizer, the objective or
// the order of their floating-point operations that alters a single bit of a
// fit fails here, and such a change is a decision change, not a speedup.
std::string Hex(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(value)));
  return buffer;
}

void ExpectBits(const std::vector<double>& actual, const std::vector<uint64_t>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(actual[i]), expected[i])
        << "value " << i << " = " << actual[i] << " (" << Hex(actual[i]) << ")";
  }
}

std::vector<double> FitBits(const FitResult& fit) {
  const ThroughputParams& p = fit.params;
  return {p.alpha_grad,      p.beta_grad,      p.alpha_sync_local, p.beta_sync_local,
          p.alpha_sync_node, p.beta_sync_node, p.gamma,            fit.rmsle};
}

// Observations at the given (K, N) placements, two to three batch sizes each,
// with lognormal measurement noise; the batch sizes are drawn from the seed.
std::vector<ThroughputObservation> GoldenObservations(
    const std::vector<Placement>& placements, uint64_t seed) {
  const ThroughputParams truth = GroundTruth();
  Rng rng(seed);
  std::vector<ThroughputObservation> data;
  for (const Placement& placement : placements) {
    const int batches = 2 + static_cast<int>(rng.UniformInt(0, 1));
    for (int b = 0; b < batches; ++b) {
      ThroughputObservation obs;
      obs.placement = placement;
      obs.batch_size = 64L * placement.num_gpus * (1L + rng.UniformInt(0, 7));
      obs.iter_time = IterTime(truth, placement, static_cast<double>(obs.batch_size)) *
                      std::exp(rng.Normal(0.0, 0.05));
      data.push_back(obs);
    }
  }
  return data;
}

FitOptions GoldenOptions(int max_gpus, int max_nodes, uint64_t seed) {
  FitOptions options;
  options.max_gpus_seen = max_gpus;
  options.max_nodes_seen = max_nodes;
  options.seed = seed;
  return options;
}

TEST(ModelFitterGoldenTest, SingleGpu) {
  const auto data = GoldenObservations({{1, 1}}, 101);
  ExpectBits(FitBits(FitThroughputParams(data, GoldenOptions(1, 1, 11))),
             {0x3fa3667219181420ull, 0x3f3400043d91d608ull, 0x0000000000000000ull,
              0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
              0x40052d0c051faadfull, 0x3fa0b4f71d0e1948ull});
}

TEST(ModelFitterGoldenTest, OneNodeUpToTwoGpus) {
  const auto data = GoldenObservations({{1, 1}, {2, 1}}, 102);
  ExpectBits(FitBits(FitThroughputParams(data, GoldenOptions(2, 1, 12))),
             {0x3fa5d33a0e8e3bffull, 0x3f333abfd3a82779ull, 0x3f59a7879ce8a6daull,
              0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
              0x3ff0000000000000ull, 0x3f9aef3ce2a65f43ull});
}

TEST(ModelFitterGoldenTest, OneNodeManyGpus) {
  const auto data = GoldenObservations({{1, 1}, {2, 1}, {4, 1}}, 103);
  ExpectBits(FitBits(FitThroughputParams(data, GoldenOptions(4, 1, 13))),
             {0x3fa6d459205fc13bull, 0x3f33813ad1e6a84aull, 0x0000000000000000ull,
              0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
              0x4024000000000000ull, 0x3fa4baa619608338ull});
}

TEST(ModelFitterGoldenTest, MultiNode) {
  const auto data =
      GoldenObservations({{1, 1}, {2, 1}, {4, 1}, {4, 2}, {8, 2}, {16, 4}}, 104);
  ExpectBits(FitBits(FitThroughputParams(data, GoldenOptions(16, 4, 14))),
             {0x3fa320339b122bd8ull, 0x3f338f76c0332c5aull, 0x3fa39c0202688e64ull,
              0x3e0659038680f782ull, 0x3fb62d1c9932b85full, 0x3f7293bc2dea9bd8ull,
              0x4001ae73ffa2f682ull, 0x3f99bbe876e8c795ull});
}

TEST(ModelFitterGoldenTest, RobustRefitRejectsOutliers) {
  auto data = GoldenObservations({{1, 1}, {2, 1}, {4, 1}, {4, 2}, {8, 2}}, 105);
  // Straggler-inflated samples, far off the surface the rest agree on.
  data[1].iter_time *= 6.0;
  data[5].iter_time *= 9.0;
  FitOptions options = GoldenOptions(8, 2, 15);
  options.outlier_mad_threshold = 3.0;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_EQ(fit.outliers_rejected, 2);
  ExpectBits(FitBits(fit),
             {
      0x3fa4963d52332a4cull, 0x3f34cb2179314b5cull, 0x0000000000000000ull,
      0x3eef5f50f939284bull, 0x3fc08e6f2c9c71e1ull, 0x0000000000000000ull,
      0x4002bf57a78c8c43ull, 0x3f9e79552dcd4687ull,
             });
}

TEST(ModelFitterGoldenTest, RackFitter) {
  RackThroughputParams truth;
  truth.alpha_grad = 0.04;
  truth.beta_grad = 3e-4;
  truth.alpha_sync_local = 0.02;
  truth.beta_sync_local = 0.001;
  truth.alpha_sync_node = 0.08;
  truth.beta_sync_node = 0.004;
  truth.alpha_sync_rack = 0.15;
  truth.beta_sync_rack = 0.008;
  truth.gamma = 1.6;
  Rng rng(106);
  std::vector<RackThroughputObservation> data;
  for (const RackPlacement placement :
       {RackPlacement{1, 1, 1}, RackPlacement{4, 1, 1}, RackPlacement{8, 2, 1},
        RackPlacement{8, 4, 2}, RackPlacement{16, 4, 2}}) {
    for (long m : {256L, 1024L}) {
      RackThroughputObservation obs;
      obs.placement = placement;
      obs.batch_size = m;
      obs.iter_time = RackIterTime(truth, placement, static_cast<double>(m)) *
                      std::exp(rng.Normal(0.0, 0.05));
      data.push_back(obs);
    }
  }
  RackFitOptions options;
  options.max_gpus_seen = 16;
  options.max_nodes_seen = 4;
  options.max_racks_seen = 2;
  options.seed = 16;
  const RackFitResult fit = FitRackThroughputParams(data, options);
  const RackThroughputParams& p = fit.params;
  ExpectBits({p.alpha_grad, p.beta_grad, p.alpha_sync_local, p.beta_sync_local,
              p.alpha_sync_node, p.beta_sync_node, p.alpha_sync_rack, p.beta_sync_rack,
              p.gamma, fit.rmsle},
             {0x3fa00ae12f507b04ull, 0x3f34e8aa7febf684ull, 0x3f7d64d25d45d878ull,
              0x3f85cd6e9751306dull, 0x3fb909e876523d00ull, 0x3f40a11117bfd90eull,
              0x3fbf7f8a03e2549dull, 0x3f84cad1cf847ea2ull, 0x3ff80e8f994aec3cull,
              0x3f9bff9226934fd1ull});
}

}  // namespace
}  // namespace pollux
