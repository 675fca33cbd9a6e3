// The system throughput model of Sec. 3.2 (Eqns. 8-11):
//
//   T_grad(a, m) = alpha_grad + beta_grad * m / K                       (9)
//   T_sync(a)    = 0                                   if K = 1
//                = alpha_sync_local + beta_sync_local*(K-2)  if N = 1, K >= 2
//                = alpha_sync_node  + beta_sync_node *(K-2)  otherwise  (10)
//   T_iter       = (T_grad^gamma + T_sync^gamma)^(1/gamma)              (11)
//   THROUGHPUT   = m / T_iter                                           (8)
//
// gamma >= 1 interpolates between no overlap (gamma = 1, sum) and perfect
// overlap (gamma -> inf, max) of computation and communication.

#ifndef POLLUX_CORE_THROUGHPUT_MODEL_H_
#define POLLUX_CORE_THROUGHPUT_MODEL_H_

#include <cmath>

#include "core/types.h"

namespace pollux {

// theta_sys, the 7-tuple of learnable system throughput parameters (Eqn. 12).
struct ThroughputParams {
  double alpha_grad = 0.0;
  double beta_grad = 0.0;
  double alpha_sync_local = 0.0;
  double beta_sync_local = 0.0;
  double alpha_sync_node = 0.0;
  double beta_sync_node = 0.0;
  double gamma = 1.0;
};

// Time per iteration spent computing local gradient estimates (Eqn. 9).
inline double GradTime(const ThroughputParams& params, const Placement& placement,
                       double batch_size) {
  if (placement.num_gpus <= 0) {
    return 0.0;
  }
  return params.alpha_grad + params.beta_grad * batch_size / placement.num_gpus;
}

// Time per iteration spent synchronizing gradients/parameters (Eqn. 10).
inline double SyncTime(const ThroughputParams& params, const Placement& placement) {
  const int k = placement.num_gpus;
  if (k <= 1) {
    return 0.0;
  }
  if (placement.num_nodes <= 1) {
    return params.alpha_sync_local + params.beta_sync_local * (k - 2);
  }
  return params.alpha_sync_node + params.beta_sync_node * (k - 2);
}

// Combined iteration time (Eqn. 11). Inline: the theta_sys fit evaluates it
// for every observation at every objective call.
inline double IterTime(const ThroughputParams& params, const Placement& placement,
                       double batch_size) {
  const double grad = GradTime(params, placement, batch_size);
  const double sync = SyncTime(params, placement);
  if (sync <= 0.0) {
    return grad;
  }
  if (grad <= 0.0) {
    return sync;
  }
  const double gamma = params.gamma < 1.0 ? 1.0 : params.gamma;
  // Compute (grad^g + sync^g)^(1/g) in a numerically safe way by factoring out
  // the larger term: hi * (1 + (lo/hi)^g)^(1/g).
  const double hi = grad > sync ? grad : sync;
  const double lo = grad > sync ? sync : grad;
  const double ratio = lo / hi;
  return hi * std::pow(1.0 + std::pow(ratio, gamma), 1.0 / gamma);
}

// Examples per second (Eqn. 8). Returns 0 for empty placements.
double ModelThroughput(const ThroughputParams& params, const Placement& placement,
                       double batch_size);

}  // namespace pollux

#endif  // POLLUX_CORE_THROUGHPUT_MODEL_H_
