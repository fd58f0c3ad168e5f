#include "cpu/sample_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace esteem::cpu {

SamplePlan make_sample_plan(const SamplingConfig& sc, instr_t instr_per_core,
                            instr_t warmup) {
  SamplePlan plan;
  plan.warmup = warmup;
  plan.warm_skip = warmup - std::min(warmup, sc.cold_warm_instr);
  plan.period = sc.period_instr;
  plan.ff_warm = sc.ff_warm_instr;
  plan.detail_warm = sc.detail_warm_instr;
  plan.window = sc.window_instr;
  plan.pre_skip = plan.period - plan.span();  // validated > 0
  plan.nwindows = instr_per_core / plan.period;
  plan.instr_per_core = instr_per_core;
  if (plan.nwindows < 2) {
    throw std::invalid_argument(
        "sampling: instr_per_core must cover >= 2 periods (got " +
        std::to_string(instr_per_core) + " instructions at period " +
        std::to_string(plan.period) + ")");
  }
  return plan;
}

}  // namespace esteem::cpu
