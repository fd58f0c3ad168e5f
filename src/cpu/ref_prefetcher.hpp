// Runs a core's trace generator on a producer thread, ahead of the core.
//
// A core's reference stream does not depend on timing: Core::step pulls the
// next reference before any latency is known. So the stream can be
// generated concurrently with the memory hierarchy that consumes it, and
// per-reference wall time falls from gen + hierarchy to about
// max(gen, hierarchy) with every output bit unchanged (DESIGN.md §7).
//
// The producer fills a bounded ring of kChunks chunks of kChunkRefs
// references through AccessGenerator::fill; the consumer takes them in
// order. Each side blocks at most once per chunk, on a C++20 atomic
// wait/notify (a futex), never by spinning on its own.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <thread>

#include "telemetry/telemetry.hpp"
#include "trace/access.hpp"

namespace esteem::cpu {

class RefPrefetcher {
 public:
  static constexpr std::size_t kChunks = 4;
  static constexpr std::size_t kChunkRefs = 4096;  ///< 64 KB per chunk.

  /// Starts the producer at the generator's current position. From here on
  /// only the producer touches `generator`, which must outlive this object.
  explicit RefPrefetcher(trace::AccessGenerator& generator);
  /// Stops the producer (mid-chunk or blocked on a full ring) and joins it.
  ~RefPrefetcher();
  RefPrefetcher(const RefPrefetcher&) = delete;
  RefPrefetcher& operator=(const RefPrefetcher&) = delete;

  /// The stream's next chunk; hands the previous one back to the producer.
  /// When the generator failed, the references before the failure come out
  /// first, and then this call rethrows the failure (and keeps doing so).
  std::span<const trace::MemRef> next_chunk();

 private:
  struct Chunk {
    std::array<trace::MemRef, kChunkRefs> refs;
    std::size_t count = 0;
    std::exception_ptr error;  ///< Set on the producer's last chunk only.
  };

  void produce();

  trace::AccessGenerator& generator_;
  std::array<Chunk, kChunks> ring_;
  /// Chunks published by the producer / handed back by the consumer; both
  /// only grow (modulo 2^32), so `produced_ - released_` is the fill level.
  std::atomic<std::uint32_t> produced_{0};
  std::atomic<std::uint32_t> released_{0};
  std::atomic<bool> stop_{false};
  std::uint32_t taken_ = 0;  ///< Consumer side: chunks handed out.
  /// Bound only when telemetry is active; otherwise inert no-ops.
  telemetry::Counter chunks_;
  telemetry::Counter consumer_waits_;
  telemetry::Counter producer_waits_;
  std::thread thread_;  ///< Last: starts after every other member exists.
};

}  // namespace esteem::cpu
