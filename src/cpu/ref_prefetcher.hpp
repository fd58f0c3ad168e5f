// Runs a core's trace generator on a producer thread, ahead of the core.
//
// A core's reference stream does not depend on timing: Core::step pulls the
// next reference before any latency is known. So the stream can be
// generated concurrently with the memory hierarchy that consumes it, and
// per-reference wall time falls from gen + hierarchy to about
// max(gen, hierarchy) with every output bit unchanged (DESIGN.md §7).
//
// The producer fills a bounded ring of kChunks chunks of up to kChunkRefs
// references; the consumer takes them in order. Each side blocks at most
// once per chunk, on a C++20 atomic wait/notify (a futex), never by
// spinning on its own.
//
// A sampled run hands the producer its SamplePlan. The skips' positions and
// sizes follow from the stream alone (cpu/sample_plan.hpp), so the producer
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

  /// Starts the producer at the generator's current position. From here on
  /// only the producer touches `generator`, which must outlive this object.
  /// With a sampled run's `plan` (copied), that position must be the
  /// stream's start (instret 0).
  explicit RefPrefetcher(trace::AccessGenerator& generator,
                         const SamplePlan* plan = nullptr);
  /// Stops the producer (mid-chunk or blocked on a full ring) and joins it.
  ~RefPrefetcher();
  RefPrefetcher(const RefPrefetcher&) = delete;
  RefPrefetcher& operator=(const RefPrefetcher&) = delete;

  /// The stream's next chunk; hands the previous one back to the producer.
  /// When the generator failed, the references before the failure come out
  /// first, and then this call rethrows the failure (and keeps doing so).
  /// Throws std::logic_error where the plan skips first, or after its end;
  /// either leaves the stream as it was.
  std::span<const trace::MemRef> next_chunk();

  /// Consumes the plan's skip of `n` instructions, due once every reference
  /// handed out so far is consumed; the producer has already made it.
  /// Throws std::logic_error, leaving the stream as it was, if no skip is
  /// due here or it is not `n`; rethrows a generator failure at this point
  /// of the stream.
  void take_skip(std::uint64_t n);

 private:
  struct Chunk {
    std::array<trace::MemRef, kChunkRefs> refs;
    std::size_t count = 0;
    std::uint64_t skip = 0;    ///< Instructions skipped after the last ref.
    bool last = false;         ///< The plan's end: nothing follows.
    std::exception_ptr error;  ///< Set on the producer's last chunk only.
  };

  void produce();
  /// Fills `chunk` up to the plan's next skip, or whole without a plan.
  void fill(Chunk& chunk);
  /// At a stop: makes the skip the plan makes there (if the stream is short
  /// of its target, marking `chunk` with it) and moves on to the next stop.
  void pass_stop(Chunk& chunk);
  /// The next chunk, once produced, without taking it. Rethrows a generator
  /// failure at this point of the stream, and throws std::logic_error after
  /// the plan's end.
  const Chunk& peek();
  /// Hands out the chunk peek() returned, empty or not, and hands the held
  /// one back to the producer.
  std::span<const trace::MemRef> take();

  trace::AccessGenerator& generator_;
  const std::optional<SamplePlan> plan_;
  std::array<Chunk, kChunks> ring_;
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
  /// Bound only when telemetry is active; otherwise inert no-ops.
  telemetry::Counter chunks_;
  telemetry::Counter consumer_waits_;
  telemetry::Counter producer_waits_;
  std::thread thread_;  ///< Last: starts after every other member exists.
};

}  // namespace esteem::cpu
