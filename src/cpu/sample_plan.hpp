// The instruction-space schedule of a sampled run (SMARTS, Wunderlich et al.,
// ISCA'03; docs/SAMPLING.md): where each core's stream is skipped
// analytically and where it is executed.
//
// Every boundary is a function of the core's own reference stream. A core's
// instret moves by gap+1 per reference and by exactly n per skip; the
// executor stops a core at the first reference that reaches a target and
// skips only while the core is short of the next one. So the positions of
// the skips, and their sizes, follow from the stream alone, which lets a
// producer thread perform them ahead of the core (RefPrefetcher).
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/types.hpp"

namespace esteem::cpu {

/// One core's schedule, in retired instructions from the core's start.
///   1. skip warm_skip, then execute (functional warming) up to warmup;
///      `base` is the instret where that stops (the warm tail's overshoot);
///   2. for k < nwindows: skip up to skip_target(base, k), then execute
///      ff_warm + detail_warm + window more (span());
///   3. skip up to end(base). The stream is not read past that.
/// Each "skip up to t" happens only if the core is short of t.
struct SamplePlan {
  instr_t warm_skip = 0;     ///< Analytic part of the warm-up.
  instr_t warmup = 0;        ///< Warm-up length; functional warming fills the rest.
  instr_t pre_skip = 0;      ///< Analytic part of every period.
  instr_t period = 0;
  instr_t ff_warm = 0;       ///< Functional warming before each window.
  instr_t detail_warm = 0;   ///< Unmeasured detailed run-up before each window.
  instr_t window = 0;        ///< Measured detailed window.
  std::uint64_t nwindows = 0;
  instr_t instr_per_core = 0;  ///< Measured run length; the tail skip ends it.

  instr_t span() const noexcept { return ff_warm + detail_warm + window; }
  /// Where period k's skip ends (its functional warming starts).
  instr_t skip_target(instr_t base, std::uint64_t k) const noexcept {
    return base + k * period + pre_skip;
  }
  /// Where the tail skip ends: the run covers exactly instr_per_core.
  instr_t end(instr_t base) const noexcept { return base + instr_per_core; }
};

/// The plan of a run of `instr_per_core` measured instructions after
/// `warmup` warm-up instructions per core. Throws std::invalid_argument
/// unless the run covers at least two periods (one window has no variance
/// to build a confidence interval from).
SamplePlan make_sample_plan(const SamplingConfig& sc, instr_t instr_per_core,
                            instr_t warmup);

}  // namespace esteem::cpu
