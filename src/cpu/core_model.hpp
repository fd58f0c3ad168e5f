// In-order core model with non-memory-instruction batching.
//
// Every non-memory instruction retires in one cycle; memory operations pay
// the hierarchy latency returned by MemorySystem. Trace generators emit
// (gap, memory-op) pairs, so the simulator's cost per retired instruction is
// amortized to O(1) over the gap.
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hpp"
#include "cpu/memory_system.hpp"
#include "cpu/ref_prefetcher.hpp"
#include "trace/access.hpp"

namespace esteem::cpu {

class Core {
 public:
  /// `block_offset` isolates this core's address space in multiprogrammed
  /// runs (each Table 1 pair runs two independent benchmarks).
  Core(std::uint32_t id, std::unique_ptr<trace::AccessGenerator> generator,
       block_t block_offset);

  /// Executes the next (gap, memory-op) batch; advances the local clock.
  void step(MemorySystem& mem);

  /// From now on the generator runs on a producer thread ahead of this core
  /// (RefPrefetcher); the references consumed are exactly the same. The
  /// producer is joined when the core is destroyed. Idempotent. When the
  /// host refuses a thread the core stays inline (prefetching() is false).
  void start_prefetch();
  bool prefetching() const noexcept { return prefetch_ != nullptr; }

  /// Sampling fast-forward: advances the generator past `n` instructions
  /// analytically (no memory accesses reach the hierarchy) and moves the
  /// local clock at `cpi` cycles per instruction — the executor's running
  /// CPI estimate, so interval-based machinery downstream of the clock
  /// (refresh epochs, ESTEEM intervals) stays aligned with real time.
  /// Throws std::logic_error once prefetching started: the generator is
  /// then ahead of the consumed position.
  void skip(instr_t n, double cpi);

  /// Sampling functional warming: executes the next batch against the
  /// hierarchy so cache/refresh/profiler state updates, but charges the
  /// estimated `cpi` instead of the measured latency (timing is not being
  /// measured in this segment, and warming-mode latencies are nominal).
  void step_warm(MemorySystem& mem, double cpi);

  /// Sampling clock re-alignment: idles the core forward to `t` without
  /// retiring instructions or consuming references. Multicore sampling
  /// aligns core clocks at segment boundaries — per-core CPI estimates
  /// differ, so analytic advances skew the cores apart in time, and the
  /// shared bank/channel model would charge that skew to the lagging
  /// core's next access as queueing delay.
  void idle_until(cycle_t t) noexcept {
    if (t > cycles_) cycles_ = t;
  }

  std::uint32_t id() const noexcept { return id_; }
  cycle_t cycles() const noexcept { return cycles_; }
  instr_t instret() const noexcept { return instret_; }

 private:
  void advance_clock(instr_t n, double cpi);

  trace::MemRef next_ref() {
    if (cur_ != end_) return *cur_++;
    return prefetch_ ? next_chunk() : generator_->next();
  }
  trace::MemRef next_chunk();

  std::uint32_t id_;
  std::unique_ptr<trace::AccessGenerator> generator_;
  /// Declared after generator_ so the producer is joined before the
  /// generator it runs is destroyed.
  std::unique_ptr<RefPrefetcher> prefetch_;
  const trace::MemRef* cur_ = nullptr;  ///< Unconsumed part of the held chunk.
  const trace::MemRef* end_ = nullptr;
  block_t block_offset_;
  cycle_t cycles_ = 0;
  instr_t instret_ = 0;
  double clock_carry_ = 0.0;  ///< Fractional cycles owed by CPI-scaled advances.
};

}  // namespace esteem::cpu
