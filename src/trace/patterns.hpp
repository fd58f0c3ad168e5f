// Synthetic address patterns. Each pattern shapes the L2-set-level reuse
// distance distribution differently, which is what ESTEEM's LRU-position
// profiling observes (paper §3.1).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "trace/access.hpp"

namespace esteem::trace {

/// Sequential sweep over a region of `region_blocks` blocks starting at
/// `base`. Models streaming benchmarks (lbm, libquantum, milc, ...): per-set
/// reuse distance equals region_blocks / sets, so regions much larger than
/// the cache produce ~100% misses.
class StreamingPattern final : public BlockPattern {
 public:
  StreamingPattern(block_t base, std::uint64_t region_blocks, std::uint64_t stride = 1);
  block_t next_block() override;
  void skip(std::uint64_t n) override;  ///< Exact: closed-form cycle jump.

 private:
  block_t base_;
  std::uint64_t region_;
  std::uint64_t stride_;
  std::uint64_t pos_ = 0;
};

/// Uniform random accesses over a working set, with an optional hot subset
/// accessed with higher probability. Produces the classic monotonically
/// decaying LRU-position hit histogram.
class RandomWorkingSetPattern final : public BlockPattern {
 public:
  RandomWorkingSetPattern(block_t base, std::uint64_t ws_blocks,
                          std::uint64_t hot_blocks, double hot_prob,
                          std::uint64_t seed);
  block_t next_block() override;
  /// Draws are iid, so skipping them is a statistical no-op; leaving the RNG
  /// untouched keeps sampled runs deterministic for a given seed.
  void skip(std::uint64_t) override {}

 private:
  block_t base_;
  std::uint64_t ws_;
  std::uint64_t hot_;
  double hot_prob_;
  Rng rng_;
};

/// Uniform random accesses over nested working-set levels: level i spans the
/// innermost `ws * size_ratio^i` blocks and is chosen with probability
/// proportional to `weight_ratio^i`. This produces the smooth, monotonically
/// decaying LRU stack-distance curve real applications exhibit (hot data
/// reused often, colder rings progressively less), which is what makes
/// alpha-coverage way selection stable (paper §3.1).
class NestedWorkingSetPattern final : public BlockPattern {
 public:
  NestedWorkingSetPattern(block_t base, std::uint64_t ws_blocks, std::uint32_t levels,
                          double size_ratio, double weight_ratio, std::uint64_t seed);
  block_t next_block() override;
  void skip(std::uint64_t) override {}  ///< iid draws — see RandomWorkingSetPattern.

 private:
  block_t base_;
  std::vector<std::uint64_t> level_size_;
  std::vector<double> cumulative_;
  Rng rng_;
};

/// Dependent-chain walk through a pseudo-random permutation of a power-of-two
/// working set (full-cycle LCG, Hull-Dobell). Models pointer-chasing codes
/// (mcf): every access has reuse distance == ws, defeating the LRU stack.
class PointerChasePattern final : public BlockPattern {
 public:
  PointerChasePattern(block_t base, std::uint64_t ws_blocks, std::uint64_t seed);
  block_t next_block() override;
  void skip(std::uint64_t n) override;  ///< Exact: LCG jump-ahead in O(log n).

 private:
  block_t base_;
  std::uint64_t ws_pow2_;
  std::uint64_t mult_;
  std::uint64_t inc_;
  std::uint64_t cur_;
};

/// Cyclic sweeps whose footprint is `depth` lines per L2 set: after warm-up,
/// every access hits at LRU stack position depth-1. Interleaving several
/// depths yields a multi-modal (non-monotonic) histogram — the "non-LRU"
/// behaviour the paper attributes to omnetpp/xalancbmk (§3.1).
class MultiScanPattern final : public BlockPattern {
 public:
  /// `sets_span` limits the scan footprint to the first `sets_span` cache
  /// sets (0 = all sets). A narrower span makes each sweep short enough
  /// that several depths alternate within one profiling interval.
  MultiScanPattern(block_t base, std::vector<std::uint32_t> depths,
                   const GeneratorContext& ctx, std::uint64_t sweeps_per_depth = 2,
                   std::uint32_t sets_span = 0);
  block_t next_block() override;
  void skip(std::uint64_t n) override;  ///< Exact: modular walk over depth sweeps.

 private:
  /// Moves past the end of a row: to the next row, and at the last row of
  /// the depth's region to the next sweep (and every sweeps_per_depth
  /// sweeps to the next depth).
  void end_row() noexcept {
    col_ = 0;
    if (++row_ >= depths_[depth_idx_]) {
      row_ = 0;
      if (++sweep_ >= sweeps_per_depth_) {
        sweep_ = 0;
        if (++depth_idx_ == depths_.size()) depth_idx_ = 0;
      }
    }
  }

  block_t base_;
  std::vector<std::uint32_t> depths_;
  std::uint32_t total_sets_;
  std::uint32_t span_;
  std::uint64_t sweeps_per_depth_;
  std::size_t depth_idx_ = 0;
  /// Position in the current sweep, row-major: row_ * span_ + col_.
  std::uint64_t row_ = 0;
  std::uint32_t col_ = 0;
  std::uint64_t sweep_ = 0;
};

/// Weighted per-access mixture of child patterns.
class MixturePattern final : public BlockPattern {
 public:
  MixturePattern(std::vector<std::unique_ptr<BlockPattern>> children,
                 std::vector<double> weights, std::uint64_t seed);
  block_t next_block() override;
  /// Statistical: routes `n * weight_i` skips (with a fractional carry) to
  /// each child without drawing from the RNG, so the selector stream is
  /// unperturbed and the expected per-child consumption matches.
  void skip(std::uint64_t n) override;

 private:
  std::vector<std::unique_ptr<BlockPattern>> children_;
  std::vector<double> cumulative_;
  std::vector<double> skip_carry_;
  Rng rng_;
};

/// Round-robin phase switcher: runs each child for `refs_per_phase` memory
/// references before moving to the next. Models phased benchmarks (h264ref,
/// gcc) whose working set changes over time, exercising ESTEEM's dynamic
/// reconfiguration (Figure 2).
class PhasedPattern final : public BlockPattern {
 public:
  PhasedPattern(std::vector<std::unique_ptr<BlockPattern>> children,
                std::uint64_t refs_per_phase);
  block_t next_block() override;
  void skip(std::uint64_t n) override;  ///< Exact: per-phase routing arithmetic.

 private:
  std::vector<std::unique_ptr<BlockPattern>> children_;
  std::uint64_t refs_per_phase_;
  std::uint64_t pos_ = 0;
  std::size_t active_ = 0;
};

/// Short-term temporal locality wrapper: with probability `reuse_prob` the
/// next access re-references one of the last `window` distinct blocks
/// (geometrically biased toward the most recent); otherwise it pulls a new
/// block from the child pattern. Real programs re-touch the same lines many
/// times within a few hundred instructions — this is what gives the L1 its
/// ~90% hit rate and leaves the L2 only the medium-distance reuse stream.
class TemporalReusePattern final : public BlockPattern {
 public:
  TemporalReusePattern(std::unique_ptr<BlockPattern> child, double reuse_prob,
                       std::uint32_t window, std::uint64_t seed);
  block_t next_block() override;
  /// Decides every reference of a batch first (fresh pull or the ring
  /// offset of a reuse; the decisions depend only on this pattern's RNG and
  /// fill count), pulls the batch's fresh blocks from the child in one
  /// fill_blocks call, then replays the ring updates.
  void fill_blocks(block_t* out, std::size_t n) override;
  /// Statistical: the child advances by the expected fresh-pull count
  /// `n * (1 - reuse_prob)` (fractional carry), and the recency ring is
  /// re-warmed with the tail of those pulls so post-skip reuses reference
  /// genuinely recent blocks. The RNG is untouched.
  void skip(std::uint64_t n) override;

 private:
  std::unique_ptr<BlockPattern> child_;
  double reuse_prob_;
  std::vector<block_t> ring_;
  std::uint32_t head_ = 0;
  std::uint32_t filled_ = 0;
  double skip_carry_ = 0.0;
  Rng rng_;
};

/// Layers instruction gaps (geometric, mean = 1/mem_ratio - 1) and store
/// flags (Bernoulli store_ratio) onto a block pattern.
///
/// The gap of a 53-bit draw k is floor(log(max(k 2^-53, 1e-12)) / log(1-p)),
/// capped at 1e6 (inversion method). It is non-increasing in k (given a
/// monotone libm log; DESIGN.md §7 and the exactness test in test_trace.cpp),
/// so gaps 0..kGapTableSize-1 are decided exactly by comparing k against
/// thresholds found once, by binary search over that same formula; only the
/// rare larger gaps evaluate the logarithm per reference.
class InstructionMixer final : public AccessGenerator {
 public:
  static constexpr std::size_t kGapTableSize = 16;

  InstructionMixer(std::unique_ptr<BlockPattern> pattern, double mem_ratio,
                   double store_ratio, std::uint64_t seed);
  MemRef next() override;
  void fill(MemRef* out, std::size_t n) override;
  /// Statistical: forwards the expected memory-op count `n_instr * mem_ratio`
  /// (fractional carry) to the block pattern; gap/store draws are iid so the
  /// RNG is untouched.
  void skip(std::uint64_t n_instr) override;

  /// Gap for the 53-bit uniform draw `k` (the top bits of one RNG output), by
  /// table lookup with the formula as fallback. Requires mem_ratio < 1.
  std::uint32_t gap_of(std::uint64_t k) const noexcept {
    std::uint32_t n = 0;
    for (const std::uint64_t t : gap_threshold_) n += k < t ? 1u : 0u;
    return n < kGapTableSize ? n : gap_formula(k);
  }
  /// gap_threshold()[n] is the smallest k whose gap is n or less.
  const std::array<std::uint64_t, kGapTableSize>& gap_threshold() const noexcept {
    return gap_threshold_;
  }

 private:
  /// The direct inversion formula the table reproduces.
  std::uint32_t gap_formula(std::uint64_t k) const noexcept;

  std::unique_ptr<BlockPattern> pattern_;
  double mem_ratio_;
  double store_ratio_;
  double log_keep_ = 0.0;  ///< log(1 - mem_ratio)
  std::array<std::uint64_t, kGapTableSize> gap_threshold_{};
  double skip_carry_ = 0.0;
  Rng rng_;
};

}  // namespace esteem::trace
