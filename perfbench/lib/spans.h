// Self time over nested wall-clock spans.
//
// A span's self time is its duration minus the part of its interval that its
// direct children on the same thread cover. Summed over every span of one
// thread, self times add back up to the outermost spans' wall time; the
// traced report checks that the spans it maps to layers make up that sum, so
// time under a span no layer claims does not go missing unnoticed.

#ifndef PERFBENCH_LIB_SPANS_H_
#define PERFBENCH_LIB_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  uint64_t thread = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0.0;  // sum of durations
  double self_us = 0.0;   // sum of durations minus covered child time
};

// Per span name. Spans on different threads never nest; on one thread a span
// is the child of the innermost earlier span whose interval contains its
// start. A child running past its parent's end is clipped to the parent.
std::map<std::string, SpanTotals> SelfTimes(std::vector<Span> spans);

// Self seconds per layer; `layer_of` maps span names to layers. Self time of
// spans it does not map goes to `unattributed_s`, their names to `unknown`.
struct LayerTimes {
  std::map<std::string, double> self_s;
  double unattributed_s = 0.0;
  std::vector<std::string> unknown;
};
LayerTimes AttributeLayers(const std::map<std::string, SpanTotals>& totals,
                           const std::map<std::string, std::string>& layer_of);

// Layer attribution of the spans on the thread of the first span named
// `root`, with the root's wall time; root_s < 0 when there is none.
struct RootAttribution {
  double root_s = -1.0;
  LayerTimes layers;
};
RootAttribution AttributeRoot(const std::vector<Span>& spans, const std::string& root,
                              const std::map<std::string, std::string>& layer_of);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_SPANS_H_
