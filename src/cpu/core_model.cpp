#include "cpu/core_model.hpp"

#include <stdexcept>
#include <string>

namespace esteem::cpu {

Core::Core(std::uint32_t id, std::unique_ptr<trace::AccessGenerator> generator,
           block_t block_offset)
    : id_(id), generator_(std::move(generator)), block_offset_(block_offset) {
  if (!generator_) throw std::invalid_argument("Core: null generator");
}

Core::Core(std::uint32_t id, block_t block_offset) : id_(id), block_offset_(block_offset) {}

void Core::feed(std::span<const trace::MemRef> refs) {
  if (generator_) throw std::logic_error("Core::feed: the core has a generator of its own");
  if (cur_ != end_) throw std::logic_error("Core::feed: fed references remain unconsumed");
  cur_ = refs.data();
  end_ = cur_ + refs.size();
}

void Core::start_stream(const SamplePlan* plan, bool threaded) {
  if (plan != nullptr && instret_ != 0) {
    throw std::logic_error("Core::start_stream: a sampling plan starts at the stream's start");
  }
  if (!stream_ && generator_) {
    stream_ = std::make_unique<RefPrefetcher>(*generator_, plan, threaded);
  }
}

RefPrefetcher& Core::stream() {
  if (!generator_) throw std::logic_error("Core: a fed core has no stream of its own");
  if (!stream_) stream_ = std::make_unique<RefPrefetcher>(*generator_, nullptr, false);
  return *stream_;
}

trace::MemRef Core::next_chunk() {
  const std::span<const trace::MemRef> chunk = stream().next_chunk();
  cur_ = chunk.data();
  end_ = cur_ + chunk.size();
  return *cur_++;
}

void Core::advance_clock(instr_t n, double cpi) {
  const double due = static_cast<double>(n) * cpi + clock_carry_;
  const auto whole = static_cast<cycle_t>(due);
  clock_carry_ = due - static_cast<double>(whole);
  cycles_ += whole;
}

void Core::skip(instr_t n, double cpi) {
  if (cur_ != end_) {
    throw std::logic_error("Core::skip: " + std::to_string(end_ - cur_) +
                           " references precede the skip");
  }
  stream().take_skip(n);
  instret_ += n;
  advance_clock(n, cpi);
}

void Core::step_warm(MemorySystem& mem, double cpi) {
  const trace::MemRef ref = next_ref();
  const instr_t retired = static_cast<instr_t>(ref.gap) + 1;
  instret_ += retired;
  advance_clock(retired, cpi);
  // The access mutates cache/refresh/profiler state; its latency is a
  // warming-mode nominal value and deliberately not charged to the clock.
  (void)mem.access(id_, ref.block + block_offset_, ref.is_store, cycles_);
}

}  // namespace esteem::cpu
