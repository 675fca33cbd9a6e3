#include "core/throughput_model.h"

namespace pollux {

double ModelThroughput(const ThroughputParams& params, const Placement& placement,
                       double batch_size) {
  if (placement.num_gpus <= 0 || batch_size <= 0.0) {
    return 0.0;
  }
  const double titer = IterTime(params, placement, batch_size);
  if (titer <= 0.0) {
    return 0.0;
  }
  return batch_size / titer;
}

}  // namespace pollux
