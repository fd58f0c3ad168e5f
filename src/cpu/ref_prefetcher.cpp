#include "cpu/ref_prefetcher.hpp"

namespace esteem::cpu {

RefPrefetcher::RefPrefetcher(trace::AccessGenerator& generator) : generator_(generator) {
  if (telemetry::active()) {
    telemetry::CounterRegistry& reg = telemetry::registry();
    chunks_ = reg.counter("trace.prefetch.chunks");
    consumer_waits_ = reg.counter("trace.prefetch.consumer_waits");
    producer_waits_ = reg.counter("trace.prefetch.producer_waits");
  }
  thread_ = std::thread([this] { produce(); });
}

RefPrefetcher::~RefPrefetcher() {
  stop_.store(true);
  // A producer blocked on a full ring sleeps until released_ changes.
  released_.fetch_add(1);
  released_.notify_one();
  thread_.join();
}

void RefPrefetcher::produce() {
  for (std::uint32_t k = 0;; ++k) {
    std::uint32_t released = released_.load(std::memory_order_acquire);
    if (k - released == kChunks) {
      producer_waits_.add();
      while (k - released == kChunks && !stop_.load()) {
        released_.wait(released, std::memory_order_acquire);
        released = released_.load(std::memory_order_acquire);
      }
    }
    if (stop_.load()) return;
    Chunk& chunk = ring_[k % kChunks];
    try {
      generator_.fill(chunk.refs.data(), kChunkRefs);
      chunk.count = kChunkRefs;
    } catch (const trace::FillInterrupted& e) {
      chunk.count = e.done;
      chunk.error = e.cause;
    } catch (...) {
      chunk.count = 0;
      chunk.error = std::current_exception();
    }
    const bool last = chunk.error != nullptr;
    produced_.store(k + 1, std::memory_order_release);
    produced_.notify_one();
    chunks_.add();
    if (last) return;  // the consumer rethrows after this chunk
  }
}

std::span<const trace::MemRef> RefPrefetcher::next_chunk() {
  if (taken_ > 0) {
    const Chunk& held = ring_[(taken_ - 1) % kChunks];
    if (held.error) std::rethrow_exception(held.error);
    released_.store(taken_, std::memory_order_release);
    released_.notify_one();
  }
  std::uint32_t produced = produced_.load(std::memory_order_acquire);
  if (produced == taken_) {
    consumer_waits_.add();
    do {
      produced_.wait(produced, std::memory_order_acquire);
      produced = produced_.load(std::memory_order_acquire);
    } while (produced == taken_);
  }
  const Chunk& chunk = ring_[taken_ % kChunks];
  ++taken_;
  if (chunk.count == 0) std::rethrow_exception(chunk.error);
  return {chunk.refs.data(), chunk.count};
}

}  // namespace esteem::cpu
