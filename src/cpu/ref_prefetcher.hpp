// A core's reference stream: the one path from a trace generator to a core
// (Core, cpu::run_fused). It hands the stream out in chunks, generated on a
// producer thread ahead of the consumer (threaded) or on the consumer's own
// thread when it needs the next chunk (inline).
//
// A core's reference stream does not depend on timing: Core::step pulls the
// next reference before any latency is known. So the stream can be
// generated concurrently with the memory hierarchy that consumes it, and
// per-reference wall time falls from gen + hierarchy to about
// max(gen, hierarchy) with every output bit unchanged (DESIGN.md §7).
//
// A threaded stream's producer fills a bounded ring of kChunks chunks of up
// to kChunkRefs references; the consumer takes them in order. Each side
// blocks at most once per chunk, on a C++20 atomic wait/notify (a futex),
// never by spinning on its own. An inline stream fills one chunk at a time
// with the same code, so both modes hand out the same chunks.
//
// A sampled run hands the stream its SamplePlan. The skips' positions and
// sizes follow from the stream alone (cpu/sample_plan.hpp), so the stream
// performs each analytic generator skip itself: it ends the chunk at the
// reference where the core will call Core::skip, marks the chunk with the
// skip's size, skips, and goes on generating. It stops for good after the
// plan's tail skip. Without a plan it fills whole chunks forever.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "cpu/sample_plan.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/access.hpp"

namespace esteem::cpu {

class RefPrefetcher {
 public:
  static constexpr std::size_t kChunks = 4;
  static constexpr std::size_t kChunkRefs = 4096;  ///< 64 KB per chunk.

  /// A stream from the generator's current position; from here on only the
  /// stream touches `generator`, which must outlive it. With a sampled
  /// run's `plan` (copied), that position must be the stream's start
  /// (instret 0). `threaded` starts a producer thread over a ring of kChunks
  /// chunks; without it the stream is inline and holds one chunk. When the
  /// host refuses a thread, the stream is inline over the ring.
  RefPrefetcher(trace::AccessGenerator& generator, const SamplePlan* plan, bool threaded);
  /// Stops the producer (mid-chunk or blocked on a full ring) and joins it.
  ~RefPrefetcher();
  RefPrefetcher(const RefPrefetcher&) = delete;
  RefPrefetcher& operator=(const RefPrefetcher&) = delete;

  /// True while a producer thread generates the stream.
  bool threaded() const noexcept { return thread_.joinable(); }

  /// The stream's next chunk; hands the previous one back to the producer.
  /// When the generator failed, the references before the failure come out
  /// first, and then this call rethrows the failure (and keeps doing so).
  /// Throws std::logic_error where the plan skips first, or after its end;
  /// either leaves the stream as it was.
  std::span<const trace::MemRef> next_chunk();

  /// Consumes the plan's skip of `n` instructions, due once every reference
  /// handed out so far is consumed; the stream has already made it.
  /// Throws std::logic_error, leaving the stream as it was, if no skip is
  /// due here (always, without a plan) or it is not `n`; rethrows a
  /// generator failure at this point of the stream.
  void take_skip(std::uint64_t n);

 private:
  struct Chunk {
    std::array<trace::MemRef, kChunkRefs> refs;
    std::size_t count = 0;
    std::uint64_t skip = 0;    ///< Instructions skipped after the last ref.
    bool last = false;         ///< The plan's end: nothing follows.
    std::exception_ptr error;  ///< Set on the stream's last chunk only.
  };

  /// The producer thread: makes chunks while the ring has room.
  void produce();
  /// Makes chunk `k` of the stream in its ring slot and publishes it;
  /// false once nothing follows it (the plan's end, or a failure).
  bool make_chunk(std::uint32_t k);
  /// Fills `chunk` up to the plan's next skip, or whole without a plan.
  void fill(Chunk& chunk);
  /// At a stop: makes the skip the plan makes there (if the stream is short
  /// of its target, marking `chunk` with it) and moves on to the next stop.
  void pass_stop(Chunk& chunk);
  /// The next chunk, once made, without taking it. Rethrows a generator
  /// failure at this point of the stream, and throws std::logic_error after
  /// the plan's end.
  const Chunk& peek();
  /// Hands out the chunk peek() returned, empty or not, and hands the held
  /// one back to the producer.
  std::span<const trace::MemRef> take();
  Chunk& slot(std::uint32_t k) const { return ring_[k % slots_]; }

  trace::AccessGenerator& generator_;
  const std::optional<SamplePlan> plan_;
  const std::uint32_t slots_;
  const std::unique_ptr<Chunk[]> ring_;
  /// Chunks published by the producer / handed back by the consumer; both
  /// only grow (modulo 2^32), so `produced_ - released_` is the fill level.
  std::atomic<std::uint32_t> produced_{0};
  std::atomic<std::uint32_t> released_{0};
  std::atomic<bool> stop_{false};
  /// Producer side, planned runs only: the stream's instret, the instret at
  /// which the current run of references stops, the stops passed so far and
  /// the instret where the warm-up stopped.
  std::uint64_t instret_ = 0;
  std::uint64_t stop_at_ = 0;
  std::uint64_t stops_ = 0;
  std::uint64_t base_ = 0;
  /// Consumer side: chunks handed out, and the held chunk's pending skip.
  std::uint32_t taken_ = 0;
  std::uint64_t held_skip_ = 0;
  /// Bound only when telemetry is active and a thread is asked for;
  /// otherwise inert no-ops.
  telemetry::Counter chunks_;
  telemetry::Counter consumer_waits_;
  telemetry::Counter producer_waits_;
  std::thread thread_;  ///< Last: starts after every other member exists.
};

}  // namespace esteem::cpu
