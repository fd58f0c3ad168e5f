#include "cpu/ref_prefetcher.hpp"

#include <stdexcept>
#include <string>
#include <system_error>

namespace esteem::cpu {

RefPrefetcher::RefPrefetcher(trace::AccessGenerator& generator, const SamplePlan* plan,
                             bool threaded)
    : generator_(generator),
      plan_(plan != nullptr ? std::optional(*plan) : std::nullopt),
      slots_(threaded ? kChunks : 1),
      ring_(std::make_unique_for_overwrite<Chunk[]>(slots_)) {
  if (!threaded) return;
  if (telemetry::active()) {
    telemetry::CounterRegistry& reg = telemetry::registry();
    chunks_ = reg.counter("trace.prefetch.chunks");
    consumer_waits_ = reg.counter("trace.prefetch.consumer_waits");
    producer_waits_ = reg.counter("trace.prefetch.producer_waits");
  }
  try {
    thread_ = std::thread([this] { produce(); });
  } catch (const std::system_error&) {
    // No thread to be had (e.g. a process limit): the producer never ran,
    // so the generator is untouched and the stream is inline, over the
    // ring it was given.
  }
}

RefPrefetcher::~RefPrefetcher() {
  if (!thread_.joinable()) return;
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
    const bool more = make_chunk(k);
    produced_.notify_one();
    chunks_.add();
    if (!more) return;  // the consumer stops (or rethrows) after this chunk
  }
}

bool RefPrefetcher::make_chunk(std::uint32_t k) {
  Chunk& chunk = slot(k);
  chunk.count = 0;
  chunk.skip = 0;
  try {
    fill(chunk);
  } catch (const trace::FillInterrupted& e) {
    chunk.count += e.done;
    chunk.error = e.cause;
  } catch (...) {
    chunk.error = std::current_exception();
  }
  produced_.store(k + 1, std::memory_order_release);
  return !chunk.last && chunk.error == nullptr;
}

void RefPrefetcher::fill(Chunk& chunk) {
  if (!plan_) {
    // No stops: whole chunks through fill, which skips the budget check.
    generator_.fill(chunk.refs.data(), kChunkRefs);
    chunk.count = kChunkRefs;
    return;
  }
  for (;;) {
    if (instret_ < stop_at_) {
      trace::MemRef* out = chunk.refs.data() + chunk.count;
      const std::size_t n =
          generator_.fill_until(out, kChunkRefs - chunk.count, stop_at_ - instret_);
      chunk.count += n;
      for (std::size_t i = 0; i < n; ++i) instret_ += std::uint64_t{out[i].gap} + 1;
      if (instret_ < stop_at_) return;  // the chunk is full
    }
    pass_stop(chunk);
    // No skip was due (a run of references overshot the next target): the
    // next run goes on in this chunk.
    if (chunk.skip > 0 || chunk.last || chunk.count == kChunkRefs) return;
  }
}

void RefPrefetcher::pass_stop(Chunk& chunk) {
  const SamplePlan& plan = *plan_;
  std::uint64_t target = 0;
  if (stops_ == 0) {
    target = plan.warm_skip;  // the stream's start: nothing executed yet
    stop_at_ = plan.warmup;
  } else {
    if (stops_ == 1) base_ = instret_;
    const std::uint64_t k = stops_ - 1;
    if (k < plan.nwindows) {
      target = plan.skip_target(base_, k);
      stop_at_ = target + plan.span();
    } else {
      target = plan.end(base_);
      chunk.last = true;
    }
  }
  ++stops_;
  if (instret_ < target) {
    const std::uint64_t n = target - instret_;
    generator_.skip(n);
    instret_ = target;
    chunk.skip = n;
  }
}

const RefPrefetcher::Chunk& RefPrefetcher::peek() {
  if (taken_ > 0) {
    const Chunk& held = slot(taken_ - 1);
    if (held.error) std::rethrow_exception(held.error);
    if (held.last) throw std::logic_error("RefPrefetcher: the sampling plan's stream has ended");
  }
  std::uint32_t produced = produced_.load(std::memory_order_acquire);
  if (produced == taken_ && !threaded()) {
    // The held chunk is used up (a consumer peeks only then): its slot is free.
    make_chunk(taken_);
  } else if (produced == taken_) {
    consumer_waits_.add();
    do {
      produced_.wait(produced, std::memory_order_acquire);
      produced = produced_.load(std::memory_order_acquire);
    } while (produced == taken_);
  }
  const Chunk& chunk = slot(taken_);
  if (chunk.count == 0 && chunk.error) std::rethrow_exception(chunk.error);
  return chunk;
}

std::span<const trace::MemRef> RefPrefetcher::take() {
  if (taken_ > 0) {
    released_.store(taken_, std::memory_order_release);
    released_.notify_one();
  }
  const Chunk& chunk = slot(taken_);
  ++taken_;
  held_skip_ = chunk.skip;
  return {chunk.refs.data(), chunk.count};
}

std::span<const trace::MemRef> RefPrefetcher::next_chunk() {
  std::uint64_t skip = held_skip_;
  if (skip == 0) {
    const Chunk& next = peek();
    if (next.count > 0) return take();
    // Only the plan's last chunk can be empty without a skip.
    if (next.skip == 0) {
      throw std::logic_error("RefPrefetcher: the sampling plan's stream has ended");
    }
    skip = next.skip;
  }
  throw std::logic_error("RefPrefetcher: the sampling plan skips " + std::to_string(skip) +
                         " instructions before the next reference");
}

void RefPrefetcher::take_skip(std::uint64_t n) {
  // Look before taking, so that a refused skip leaves the stream as it was.
  // A chunk of references ends where its skip is due; a stream that opens
  // with a skip publishes it on an empty first chunk.
  std::uint64_t due = held_skip_;
  if (due == 0) {
    const Chunk& next = peek();
    if (next.count > 0 || next.skip == 0) {
      throw std::logic_error("RefPrefetcher: no skip is due here");
    }
    due = next.skip;
  }
  if (due != n) {
    throw std::logic_error("RefPrefetcher: a skip of " + std::to_string(n) +
                           " instructions where the sampling plan skips " +
                           std::to_string(due));
  }
  if (held_skip_ == 0) take();
  held_skip_ = 0;
}

}  // namespace esteem::cpu
