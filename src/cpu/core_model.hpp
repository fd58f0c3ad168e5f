// In-order core model with non-memory-instruction batching.
//
// Every non-memory instruction retires in one cycle; memory operations pay
// the hierarchy latency returned by MemorySystem. Trace generators emit
// (gap, memory-op) pairs, so the simulator's cost per retired instruction is
// amortized to O(1) over the gap.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/types.hpp"
#include "cpu/memory_system.hpp"
#include "cpu/ref_prefetcher.hpp"
#include "cpu/sample_plan.hpp"
#include "trace/access.hpp"

namespace esteem::cpu {

class Core {
 public:
  /// `block_offset` isolates this core's address space in multiprogrammed
  /// runs (each Table 1 pair runs two independent benchmarks).
  Core(std::uint32_t id, std::unique_ptr<trace::AccessGenerator> generator,
       block_t block_offset);
  /// A fed core: it has no generator of its own and steps through the
  /// references handed to it by feed() (a fused group's shared stream,
  /// cpu::run_fused).
  Core(std::uint32_t id, block_t block_offset);

  /// Executes the next (gap, memory-op) batch; advances the local clock.
  /// Inline: the L1-hit path of MemorySystem::access completes in the caller.
  void step(MemorySystem& mem) {
    const trace::MemRef ref = next_ref();
    cycles_ += ref.gap;  // one cycle per non-memory instruction
    instret_ += ref.gap;
    const cycle_t latency = mem.access(id_, ref.block + block_offset_, ref.is_store, cycles_);
    cycles_ += latency;
    ++instret_;
  }

  /// Hands a fed core its next references; they must outlive their
  /// consumption. Throws std::logic_error on a core with a generator, or
  /// while earlier references are still unconsumed.
  void feed(std::span<const trace::MemRef> refs);
  /// False only for a fed core that has consumed everything fed to it: the
  /// next step() would throw std::logic_error.
  bool ready() const noexcept { return cur_ != end_ || generator_ != nullptr; }
  /// References fed (or taken from the stream) and not yet consumed.
  std::size_t unconsumed() const noexcept { return static_cast<std::size_t>(end_ - cur_); }

  /// Builds the core's reference stream (RefPrefetcher), generated on a
  /// producer thread ahead of the core when `threaded`, inline otherwise;
  /// the references consumed are the same either way. With a sampled run's
  /// `plan`, the stream also makes the plan's analytic skips (the core must
  /// not have started). A core that steps or skips without one builds an
  /// inline stream without a plan. Idempotent; a fed core has no generator
  /// and is left as it is. The producer is joined when the core is
  /// destroyed.
  void start_stream(const SamplePlan* plan, bool threaded);
  /// True while a producer thread generates this core's stream.
  bool prefetching() const noexcept { return stream_ && stream_->threaded(); }

  /// Sampling fast-forward: advances the stream past `n` instructions
  /// analytically (no memory accesses reach the hierarchy) and moves the
  /// local clock at `cpi` cycles per instruction — the executor's running
  /// CPI estimate, so interval-based machinery downstream of the clock
  /// (refresh epochs, ESTEEM intervals) stays aligned with real time.
  /// The stream already made this skip, where its plan said: the core
  /// consumes the skip's marker, and throws std::logic_error if references
  /// remain before it, or the plan makes no skip of `n` here (a core
  /// without a plan never skips); a refused skip leaves the stream as it
  /// was.
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
    return next_chunk();
  }
  /// The stream's next chunk; throws std::logic_error on a fed core.
  trace::MemRef next_chunk();
  /// The core's stream, built inline without a plan if start_stream did
  /// not build it; throws std::logic_error on a fed core.
  RefPrefetcher& stream();

  std::uint32_t id_;
  std::unique_ptr<trace::AccessGenerator> generator_;  ///< Null on a fed core.
  /// Declared after generator_ so the producer is joined before the
  /// generator it runs is destroyed.
  std::unique_ptr<RefPrefetcher> stream_;
  const trace::MemRef* cur_ = nullptr;  ///< Unconsumed part of the held or fed chunk.
  const trace::MemRef* end_ = nullptr;
  block_t block_offset_;
  cycle_t cycles_ = 0;
  instr_t instret_ = 0;
  double clock_carry_ = 0.0;  ///< Fractional cycles owed by CPI-scaled advances.
};

}  // namespace esteem::cpu
