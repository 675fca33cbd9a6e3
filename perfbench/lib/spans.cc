#include "lib/spans.h"

#include <algorithm>
#include <tuple>

namespace perfbench {

std::map<std::string, SpanTotals> SelfTimes(std::vector<Span> spans) {
  // Parents sort before the children they contain: by thread, then start,
  // then longest first (a child can start on the same microsecond).
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::make_tuple(a.thread, a.start_us, -a.dur_us) <
           std::make_tuple(b.thread, b.start_us, -b.dur_us);
  });
  std::vector<double> covered(spans.size(), 0.0);
  std::vector<size_t> open;  // indices of the enclosing spans, innermost last
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    while (!open.empty()) {
      const Span& top = spans[open.back()];
      if (top.thread == span.thread && span.start_us < top.start_us + top.dur_us) break;
      open.pop_back();
    }
    if (!open.empty()) {
      const Span& parent = spans[open.back()];
      const double end = std::min(span.start_us + span.dur_us, parent.start_us + parent.dur_us);
      covered[open.back()] += std::max(0.0, end - span.start_us);
    }
    open.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_us += spans[i].dur_us;
    t.self_us += std::max(0.0, spans[i].dur_us - covered[i]);
  }
  return totals;
}

LayerTimes AttributeLayers(const std::map<std::string, SpanTotals>& totals,
                           const std::map<std::string, std::string>& layer_of) {
  LayerTimes layers;
  for (const auto& [name, t] : totals) {
    const auto it = layer_of.find(name);
    if (it != layer_of.end()) {
      layers.self_s[it->second] += t.self_us * 1e-6;
    } else {
      layers.unattributed_s += t.self_us * 1e-6;
      layers.unknown.push_back(name);
    }
  }
  return layers;
}

RootAttribution AttributeRoot(const std::vector<Span>& spans, const std::string& root,
                              const std::map<std::string, std::string>& layer_of) {
  RootAttribution out;
  const auto it = std::find_if(spans.begin(), spans.end(),
                               [&](const Span& s) { return s.name == root; });
  if (it == spans.end()) return out;
  std::vector<Span> same_thread;
  for (const Span& s : spans) {
    if (s.thread == it->thread) same_thread.push_back(s);
  }
  out.root_s = it->dur_us * 1e-6;
  out.layers = AttributeLayers(SelfTimes(std::move(same_thread)), layer_of);
  return out;
}

}  // namespace perfbench
