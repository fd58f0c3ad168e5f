#include "cpu/system.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "trace/file_trace.hpp"
#include "trace/spec_profiles.hpp"

namespace esteem::cpu {

bool replays_trace(const std::string& benchmark) { return benchmark.rfind("trace:", 0) == 0; }

bool threaded_stream(const std::string& benchmark) {
  return std::thread::hardware_concurrency() > 1 && !replays_trace(benchmark);
}

StreamKey stream_key(const SystemConfig& cfg, const std::vector<std::string>& benchmarks,
                     std::uint64_t seed) {
  return StreamKey{benchmarks, seed, {cfg.l2.geom.sets(), cfg.l2.geom.line_bytes}};
}

std::unique_ptr<trace::AccessGenerator> make_core_stream(const StreamKey& key,
                                                         std::uint32_t core) {
  std::uint64_t seed_state = key.seed;
  for (std::uint32_t c = 0; c < core; ++c) (void)splitmix64(seed_state);
  const std::string& benchmark = key.benchmarks.at(core);
  if (replays_trace(benchmark)) {
    return std::make_unique<trace::FileTraceGenerator>(benchmark.substr(6));
  }
  return trace::make_generator(trace::profile_by_name(benchmark), key.context,
                               splitmix64(seed_state));
}

System::System(const SystemConfig& cfg, Technique technique,
               const std::vector<std::string>& benchmarks, std::uint64_t seed,
               CoreStreams streams)
    : cfg_(cfg), mem_(cfg, technique) {
  if (benchmarks.size() != cfg.ncores) {
    throw std::invalid_argument("System: need one benchmark per core");
  }
  const StreamKey key = stream_key(cfg, benchmarks, seed);
  cores_.reserve(cfg.ncores);
  for (std::uint32_t c = 0; c < cfg.ncores; ++c) {
    // Disjoint per-core address spaces for multiprogrammed workloads.
    const block_t offset = static_cast<block_t>(c) << 44;
    if (streams == CoreStreams::Fed) {
      cores_.emplace_back(c, offset);
    } else {
      threaded_.push_back(threaded_stream(benchmarks[c]));
      cores_.emplace_back(c, make_core_stream(key, c), offset);
    }
  }
}

void System::start_streams(const SamplePlan* plan) {
  for (std::size_t c = 0; c < threaded_.size(); ++c) cores_[c].start_stream(plan, threaded_[c]);
}

RawRunResult System::run(const RunOptions& options) {
  start_streams();
  begin(options);
  if (!advance()) throw std::logic_error("System::run: a fed System runs through run_fused");
  return finish();
}

void System::begin(const RunOptions& options) {
  RunState& r = run_;
  r = RunState{};
  r.active = true;
  r.options = options;
  r.unfinished = cores_.size();
  // Warm-up: fill the caches at full associativity, then zero all counters
  // (the paper fast-forwards before measuring, §6.4).
  if (options.warmup_instr_per_core > 0) {
    r.warm.assign(cores_.size(), false);
    r.cold = cores_.size();
  } else {
    start_measurement();
  }
}

void System::start_measurement() {
  RunState& r = run_;
  r.measure_start = wall_clock(cores_);
  mem_.reset_measurement(r.measure_start);
  if (r.options.telemetry != nullptr) {
    // Attached after the measurement reset so interval deltas and trace
    // timestamps cover exactly the measured window.
    mem_.set_telemetry(r.options.telemetry, r.measure_start);
  }

  r.target = r.options.warmup_instr_per_core + r.options.instr_per_core;
  r.base_instr.resize(cores_.size());
  r.base_cycles.resize(cores_.size());
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    r.base_instr[c] = cores_[c].instret();
    r.base_cycles[c] = cores_[c].cycles();
  }
  r.result.instr_per_core = r.options.instr_per_core;
  r.result.ipc.assign(cores_.size(), 0.0);
  r.recorded.assign(cores_.size(), false);
  r.clock.interval = cfg_.esteem.interval_cycles;
  r.clock.next = r.measure_start + r.clock.interval;
  r.clock.record_timeline = r.options.record_timeline;
}

bool System::advance() {
  RunState& r = run_;
  while (r.cold > 0) {
    const std::size_t next = earliest_core(cores_, &r.warm);
    Core& core = cores_[next];
    if (!core.ready()) return false;
    core.step(mem_);
    if (!r.warm[next] && core.instret() >= r.options.warmup_instr_per_core) {
      r.warm[next] = true;
      if (--r.cold == 0) start_measurement();
    }
  }

  while (r.unfinished > 0) {
    const std::size_t next = earliest_core(cores_);
    Core& core = cores_[next];
    if (!core.ready()) return false;
    core.step(mem_);

    if (!r.recorded[next] && core.instret() >= r.target) {
      r.recorded[next] = true;
      r.result.ipc[next] =
          static_cast<double>(core.instret() - r.base_instr[next]) /
          static_cast<double>(core.cycles() - r.base_cycles[next]);
      --r.unfinished;
    }
    r.clock.pump(mem_, cores_);
  }
  return true;
}

RawRunResult System::finish() {
  RunState& r = run_;
  if (!r.active || r.cold > 0 || r.unfinished > 0) {
    throw std::logic_error("System::finish: no run has ended");
  }
  r.active = false;
  cycle_t wall_end = 0;
  for (const Core& core : cores_) wall_end = std::max(wall_end, core.cycles());
  mem_.finish(wall_end);

  RawRunResult result = std::move(r.result);
  result.timeline = std::move(r.clock.timeline);
  result.wall_cycles = wall_end - r.measure_start;
  result.total_instructions = r.options.instr_per_core * cores_.size();
  result.counters = mem_.energy_counters(wall_end);
  result.mem_stats = mem_.stats();
  result.refreshes = mem_.refreshes();
  result.demand_misses = mem_.stats().demand_l2_misses;
  result.faults = mem_.fault_counters();
  result.disabled_slots = mem_.disabled_slots();
  result.avg_active_ratio =
      result.counters.seconds > 0.0 ? result.counters.fa_seconds / result.counters.seconds
                                    : 1.0;
  return result;
}

void run_fused(std::span<FusedCell> cells, trace::AccessGenerator& stream, bool pipelined) {
  for (FusedCell& cell : cells) {
    if (cell.system->cores().size() != 1 || cell.system->cores()[0].ready()) {
      throw std::invalid_argument("run_fused: every cell must be a fed single-core System");
    }
    cell.system->begin(cell.options);
  }

  RefPrefetcher chunks(stream, nullptr, pipelined);
  using Clock = std::chrono::steady_clock;
  const auto timed = [](FusedCell& cell, const auto& work) {
    const Clock::time_point t0 = Clock::now();
    auto out = work();
    cell.seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
  };
  for (bool ended = false; !ended;) {
    const std::span<const trace::MemRef> chunk = chunks.next_chunk();
    std::size_t left = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      Core& core = cells[i].system->cores()[0];
      core.feed(chunk);
      const bool done = timed(cells[i], [&] { return cells[i].system->advance(); });
      if (i == 0) {
        ended = done;
        left = core.unconsumed();
      } else if (done != ended || core.unconsumed() != left) {
        throw std::logic_error("run_fused: the cells ended on different references");
      }
    }
  }
  for (FusedCell& cell : cells) {
    cell.result = timed(cell, [&] { return cell.system->finish(); });
  }
}

}  // namespace esteem::cpu
