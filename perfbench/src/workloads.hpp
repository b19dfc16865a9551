// The benchmark's three workloads. Each runs one pass with the given
// seed and returns every metric it can measure; `spans` collects the
// benchmark's own spans (kept only by traced runs). Traced passes
// (opt.trace) additionally replay the recorded inputs layer by layer.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_live_light(const Options& opt, SpanLog& spans);
Result run_sim_scale(const Options& opt, SpanLog& spans);
Result run_sim_attack(const Options& opt, SpanLog& spans);

}  // namespace perfbench
