// Memory-reference record produced by the synthetic trace generators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>

#include "common/types.hpp"

namespace esteem::trace {

/// One memory operation, preceded by `gap` non-memory instructions.
/// Batching the non-memory instructions into a single count keeps the
/// simulator's cost proportional to memory operations only.
struct MemRef {
  block_t block = 0;        ///< Cache-block number (line granularity).
  std::uint32_t gap = 0;    ///< Non-memory instructions retired before this op.
  bool is_store = false;
};

/// Geometry hints generators need to shape set-level reuse distances.
struct GeneratorContext {
  std::uint32_t l2_sets = 4096;
  std::uint32_t line_bytes = 64;

  bool operator==(const GeneratorContext&) const = default;
};

/// Abstract pull-based stream of block numbers (no gaps/stores; those are
/// layered on by InstructionMixer).
class BlockPattern {
 public:
  virtual ~BlockPattern() = default;
  virtual block_t next_block() = 0;

  /// Writes the next `n` blocks to `out`: exactly what `n` next_block()
  /// calls would return, leaving the pattern in the same state. The default
  /// calls next_block(); TemporalReusePattern, which every profile's
  /// references pass through, overrides it with a batch loop.
  virtual void fill_blocks(block_t* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = next_block();
  }

  /// Advance the stream past `n` blocks without materialising them. The
  /// sampling executor uses this to fast-forward between detailed windows.
  /// Deterministic patterns override with closed-form jumps; stochastic
  /// patterns whose draws are iid may leave the stream untouched (skipping
  /// iid draws is statistically a no-op). The default pulls and discards,
  /// which is always correct but linear-time.
  virtual void skip(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) next_block();
  }
};

/// Thrown by AccessGenerator::fill_until (and fill) when a reference cannot
/// be produced: the batch's first `done` references were written, and
/// `cause` is what producing the next one threw.
struct FillInterrupted {
  std::size_t done = 0;
  std::exception_ptr cause;
};

/// Abstract pull-based stream of memory references.
class AccessGenerator {
 public:
  virtual ~AccessGenerator() = default;
  virtual MemRef next() = 0;

  /// Writes the stream's next references to `out`, up to and including the
  /// first one at which their retired instructions (gap+1 each) reach
  /// `instr_budget`, but at most `max_refs`; returns how many. Exactly what
  /// that many next() calls would return, leaving the generator in the same
  /// state, so a producer can stop a batch at a sampling boundary. A budget
  /// of 0 writes nothing. The default calls next() and reports a failure
  /// part-way as FillInterrupted; an override that can fail must do the same.
  virtual std::size_t fill_until(MemRef* out, std::size_t max_refs,
                                 std::uint64_t instr_budget) {
    std::size_t i = 0;
    std::uint64_t instr = 0;
    try {
      for (; i < max_refs && instr < instr_budget; ++i) {
        out[i] = next();
        instr += static_cast<std::uint64_t>(out[i].gap) + 1;
      }
    } catch (...) {
      throw FillInterrupted{i, std::current_exception()};
    }
    return i;
  }

  /// Writes the next `n` references to `out`: fill_until without a budget.
  /// A generator overrides it only where the budget check costs: the
  /// producer of an exhaustive run fills whole chunks through it.
  virtual void fill(MemRef* out, std::size_t n) {
    (void)fill_until(out, n, std::numeric_limits<std::uint64_t>::max());
  }

  /// Advance the stream past ~`n_instr` retired instructions (each MemRef
  /// covers gap+1 of them) without materialising references. Default pulls
  /// and discards; InstructionMixer overrides with an expected-count jump.
  virtual void skip(std::uint64_t n_instr) {
    std::uint64_t done = 0;
    while (done < n_instr) {
      const MemRef r = next();
      done += static_cast<std::uint64_t>(r.gap) + 1;
    }
  }
};

}  // namespace esteem::trace
