#include "cpu/core_model.hpp"

#include <stdexcept>
#include <system_error>

namespace esteem::cpu {

Core::Core(std::uint32_t id, std::unique_ptr<trace::AccessGenerator> generator,
           block_t block_offset)
    : id_(id), generator_(std::move(generator)), block_offset_(block_offset) {
  if (!generator_) throw std::invalid_argument("Core: null generator");
}

void Core::step(MemorySystem& mem) {
  const trace::MemRef ref = next_ref();
  cycles_ += ref.gap;  // one cycle per non-memory instruction
  instret_ += ref.gap;
  const cycle_t latency = mem.access(id_, ref.block + block_offset_, ref.is_store, cycles_);
  cycles_ += latency;
  ++instret_;
}

void Core::start_prefetch() {
  if (prefetch_) return;
  try {
    prefetch_ = std::make_unique<RefPrefetcher>(*generator_);
  } catch (const std::system_error&) {
    // No thread to be had (e.g. a process limit): the producer never ran,
    // so the generator is untouched and the core carries on inline.
  }
}

trace::MemRef Core::next_chunk() {
  const std::span<const trace::MemRef> chunk = prefetch_->next_chunk();
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
  if (prefetch_) {
    throw std::logic_error("Core::skip: the stream is generated ahead on a producer thread");
  }
  generator_->skip(n);
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
