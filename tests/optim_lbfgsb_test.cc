#include "optim/lbfgsb.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

namespace pollux {
namespace {

constexpr double kInf = 1e30;

TEST(ProjectToBoxTest, ClampsEachCoordinate) {
  const auto projected = ProjectToBox({-1.0, 0.5, 9.0}, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(projected[0], 0.0);
  EXPECT_DOUBLE_EQ(projected[1], 0.5);
  EXPECT_DOUBLE_EQ(projected[2], 1.0);
}

TEST(FiniteDifferenceTest, MatchesAnalyticGradient) {
  const Objective f = [](const std::vector<double>& x) {
    return x[0] * x[0] + 3.0 * x[0] * x[1] + 2.0 * x[1] * x[1];
  };
  const std::vector<double> x = {1.5, -2.0};
  const auto grad = FiniteDifferenceGradient(f, x, {-kInf, -kInf}, {kInf, kInf}, 1e-6);
  EXPECT_NEAR(grad[0], 2.0 * x[0] + 3.0 * x[1], 1e-5);
  EXPECT_NEAR(grad[1], 3.0 * x[0] + 4.0 * x[1], 1e-5);
}

TEST(FiniteDifferenceTest, OneSidedAtBoundary) {
  const Objective f = [](const std::vector<double>& x) { return x[0] * x[0]; };
  // x sits exactly on the lower bound; gradient should still be ~2x.
  const auto grad = FiniteDifferenceGradient(f, {2.0}, {2.0}, {10.0}, 1e-6);
  EXPECT_NEAR(grad[0], 4.0, 1e-3);
}

TEST(LbfgsbTest, QuadraticUnconstrained) {
  BoundedProblem problem;
  problem.lower = {-kInf, -kInf};
  problem.upper = {kInf, kInf};
  problem.objective = [](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + 10.0 * (x[1] + 2.0) * (x[1] + 2.0);
  };
  const auto result = MinimizeBounded(problem, {5.0, 5.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 1.0, 1e-4);
  EXPECT_NEAR(result.x[1], -2.0, 1e-4);
  EXPECT_NEAR(result.value, 0.0, 1e-7);
}

TEST(LbfgsbTest, ActiveBoundSolution) {
  // Unconstrained minimum at (1, -2), but the box forces x1 >= 0.
  BoundedProblem problem;
  problem.lower = {0.0, 0.0};
  problem.upper = {10.0, 10.0};
  problem.objective = [](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  const auto result = MinimizeBounded(problem, {5.0, 5.0});
  EXPECT_NEAR(result.x[0], 1.0, 1e-4);
  EXPECT_NEAR(result.x[1], 0.0, 1e-6);
}

TEST(LbfgsbTest, RosenbrockWithAnalyticGradient) {
  BoundedProblem problem;
  problem.lower = {-5.0, -5.0};
  problem.upper = {5.0, 5.0};
  problem.objective = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  problem.gradient = [](const std::vector<double>& x) {
    const double b = x[1] - x[0] * x[0];
    return std::vector<double>{-2.0 * (1.0 - x[0]) - 400.0 * x[0] * b, 200.0 * b};
  };
  LbfgsbOptions options;
  options.max_iterations = 500;
  const auto result = MinimizeBounded(problem, {-1.2, 1.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], 1.0, 1e-3);
}

TEST(LbfgsbTest, RosenbrockWithFiniteDifferences) {
  BoundedProblem problem;
  problem.lower = {-5.0, -5.0};
  problem.upper = {5.0, 5.0};
  problem.objective = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  LbfgsbOptions options;
  options.max_iterations = 500;
  const auto result = MinimizeBounded(problem, {-1.2, 1.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-2);
  EXPECT_NEAR(result.x[1], 1.0, 1e-2);
}

TEST(LbfgsbTest, StartOutsideBoxIsProjected) {
  BoundedProblem problem;
  problem.lower = {0.0};
  problem.upper = {1.0};
  problem.objective = [](const std::vector<double>& x) { return (x[0] - 0.25) * (x[0] - 0.25); };
  const auto result = MinimizeBounded(problem, {100.0});
  EXPECT_NEAR(result.x[0], 0.25, 1e-5);
}

TEST(LbfgsbTest, MultiStartEscapesPoorBasin) {
  // Double-well in 1D: local minimum near x = -1 (value ~1), global near
  // x = +1 (value ~0). A single start at -1.2 lands in the poor basin.
  BoundedProblem problem;
  problem.lower = {-3.0};
  problem.upper = {3.0};
  problem.objective = [](const std::vector<double>& x) {
    const double w = x[0] * x[0] - 1.0;
    return w * w + 0.5 * (1.0 - x[0]);
  };
  const auto single = MinimizeBounded(problem, {-1.2});
  Rng rng(7);
  const auto multi = MinimizeBoundedMultiStart(problem, {-1.2}, 8, rng);
  EXPECT_LE(multi.value, single.value + 1e-9);
  EXPECT_GT(multi.x[0], 0.0);
}

TEST(LbfgsbTest, FullyPinnedBoxReturnsImmediately) {
  BoundedProblem problem;
  problem.lower = {2.0, 3.0};
  problem.upper = {2.0, 3.0};
  problem.objective = [](const std::vector<double>& x) { return x[0] + x[1]; };
  const auto result = MinimizeBounded(problem, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(result.x[0], 2.0);
  EXPECT_DOUBLE_EQ(result.x[1], 3.0);
  EXPECT_TRUE(result.converged);
}

TEST(LbfgsbTest, EvaluationsCountEveryObjectiveCall) {
  // One free coordinate, one starting on its lower bound (one-sided
  // differences) and one pinned by an empty box (no probes at all).
  int calls = 0;
  BoundedProblem problem;
  problem.lower = {-5.0, 0.0, 2.0};
  problem.upper = {5.0, 5.0, 2.0};
  problem.objective = [&calls](const std::vector<double>& x) {
    ++calls;
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 1.0) * (x[1] + 1.0) + x[2];
  };
  const auto single = MinimizeBounded(problem, {3.0, 0.0, 2.0});
  EXPECT_EQ(single.evaluations, calls);
  EXPECT_NEAR(single.x[0], 1.0, 1e-4);
  EXPECT_DOUBLE_EQ(single.x[1], 0.0);

  calls = 0;
  Rng rng(3);
  const auto multi = MinimizeBoundedMultiStart(problem, {3.0, 0.0, 2.0}, 4, rng);
  EXPECT_EQ(multi.evaluations, calls);
  EXPECT_GT(multi.evaluations, 4 * single.evaluations / 2);
}

// f(x) = sqrt(sum of squared row terms) + x2, where row 0 reads x0, row 1
// reads x0 and x1, and row 2 reads x2.
double RowTerm(const std::vector<double>& x, size_t row) {
  switch (row) {
    case 0:
      return x[0] - 1.0;
    case 1:
      return x[0] * x[1] - 2.0;
    default:
      return std::exp(x[2]) - 3.0;
  }
}

double CombineRows(const std::vector<double>& x, const std::vector<double>& terms) {
  double total = 0.0;
  for (double t : terms) {
    total += t * t;
  }
  return std::sqrt(total) + 0.1 * x[2];
}

class ThreeRowObjective final : public RowObjective {
 public:
  size_t num_rows() const override { return 3; }
  double Evaluate(const std::vector<double>& x, std::vector<double>& terms) const override {
    for (size_t r = 0; r < 3; ++r) {
      terms[r] = RowTerm(x, r);
    }
    return CombineRows(x, terms);
  }
  double Probe(const std::vector<double>& x, size_t i, const std::vector<double>& base,
               std::vector<double>& terms) const override {
    static const std::vector<size_t> kRowsOf[3] = {{0, 1}, {1}, {2}};
    terms = base;
    for (size_t r : kRowsOf[i]) {
      terms[r] = RowTerm(x, r);
    }
    return CombineRows(x, terms);
  }
};

TEST(LbfgsbTest, RowObjectiveMatchesWholeObjectiveBitForBit) {
  const ThreeRowObjective rows;
  BoundedProblem whole;
  whole.lower = {-4.0, -4.0, 0.0};
  whole.upper = {4.0, 4.0, 3.0};
  whole.objective = [](const std::vector<double>& x) {
    std::vector<double> terms(3);
    for (size_t r = 0; r < 3; ++r) {
      terms[r] = RowTerm(x, r);
    }
    return CombineRows(x, terms);
  };
  BoundedProblem sparse = whole;
  sparse.objective = nullptr;
  sparse.row_objective = &rows;
  Rng rng_whole(9);
  Rng rng_sparse(9);
  const auto a = MinimizeBoundedMultiStart(whole, {3.0, 0.5, 0.0}, 3, rng_whole);
  const auto b = MinimizeBoundedMultiStart(sparse, {3.0, 0.5, 0.0}, 3, rng_sparse);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.x[i]), std::bit_cast<uint64_t>(b.x[i])) << i;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(a.value), std::bit_cast<uint64_t>(b.value));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_LT(b.value, 0.5);
}

// Property sweep: convex quadratics with varying conditioning must always be
// solved to high accuracy.
class LbfgsbConditioningSweep : public ::testing::TestWithParam<double> {};

TEST_P(LbfgsbConditioningSweep, SolvesIllConditionedQuadratic) {
  const double kappa = GetParam();
  BoundedProblem problem;
  problem.lower = {-kInf, -kInf};
  problem.upper = {kInf, kInf};
  problem.objective = [kappa](const std::vector<double>& x) {
    return x[0] * x[0] + kappa * x[1] * x[1];
  };
  LbfgsbOptions options;
  options.max_iterations = 1000;
  const auto result = MinimizeBounded(problem, {3.0, 3.0}, options);
  EXPECT_NEAR(result.x[0], 0.0, 1e-3);
  EXPECT_NEAR(result.x[1], 0.0, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Conditioning, LbfgsbConditioningSweep,
                         ::testing::Values(1.0, 10.0, 100.0, 1000.0, 10000.0));

}  // namespace
}  // namespace pollux
