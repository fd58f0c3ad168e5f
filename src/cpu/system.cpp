#include "cpu/system.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "trace/file_trace.hpp"
#include "trace/spec_profiles.hpp"

namespace esteem::cpu {

System::System(const SystemConfig& cfg, Technique technique,
               const std::vector<std::string>& benchmarks, std::uint64_t seed)
    : cfg_(cfg), mem_(cfg, technique) {
  if (benchmarks.size() != cfg.ncores) {
    throw std::invalid_argument("System: need one benchmark per core");
  }
  const trace::GeneratorContext ctx{cfg.l2.geom.sets(), cfg.l2.geom.line_bytes};
  std::uint64_t seed_state = seed;
  cores_.reserve(cfg.ncores);
  replays_trace_.reserve(cfg.ncores);
  for (std::uint32_t c = 0; c < cfg.ncores; ++c) {
    // "trace:<path>" replays an external trace file; anything else is a
    // Table 1 benchmark name or acronym.
    std::unique_ptr<trace::AccessGenerator> gen;
    replays_trace_.push_back(benchmarks[c].rfind("trace:", 0) == 0);
    if (replays_trace_.back()) {
      gen = std::make_unique<trace::FileTraceGenerator>(benchmarks[c].substr(6));
      (void)splitmix64(seed_state);  // keep per-core seed stream aligned
    } else {
      const auto& profile = trace::profile_by_name(benchmarks[c]);
      gen = trace::make_generator(profile, ctx, splitmix64(seed_state));
    }
    // Disjoint per-core address spaces for multiprogrammed workloads.
    cores_.emplace_back(c, std::move(gen), static_cast<block_t>(c) << 44);
  }
}

RawRunResult System::run(const RunOptions& options) {
  const cycle_t interval = cfg_.esteem.interval_cycles;
  if (std::thread::hardware_concurrency() > 1) {
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      if (!replays_trace_[c]) cores_[c].start_prefetch();
    }
  }

  // Warm-up: fill the caches at full associativity, then zero all counters
  // (the paper fast-forwards before measuring, §6.4).
  const instr_t warmup = options.warmup_instr_per_core;
  if (warmup > 0) {
    std::size_t cold = cores_.size();
    std::vector<bool> warm(cores_.size(), false);
    while (cold > 0) {
      std::size_t next = 0;
      for (std::size_t c = 1; c < cores_.size(); ++c) {
        if (!warm[c] && (warm[next] || cores_[c].cycles() < cores_[next].cycles())) {
          next = c;
        }
      }
      cores_[next].step(mem_);
      if (!warm[next] && cores_[next].instret() >= warmup) {
        warm[next] = true;
        --cold;
      }
    }
  }
  cycle_t measure_start = cores_[0].cycles();
  for (std::size_t c = 1; c < cores_.size(); ++c) {
    measure_start = std::min(measure_start, cores_[c].cycles());
  }
  mem_.reset_measurement(measure_start);
  if (options.telemetry != nullptr) {
    // Attached after the measurement reset so interval deltas and trace
    // timestamps cover exactly the measured window.
    mem_.set_telemetry(options.telemetry, measure_start);
  }

  const instr_t target = warmup + options.instr_per_core;
  std::vector<instr_t> base_instr(cores_.size());
  std::vector<cycle_t> base_cycles(cores_.size());
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    base_instr[c] = cores_[c].instret();
    base_cycles[c] = cores_[c].cycles();
  }

  RawRunResult result;
  result.instr_per_core = options.instr_per_core;
  result.ipc.assign(cores_.size(), 0.0);
  std::vector<bool> recorded(cores_.size(), false);
  std::size_t unfinished = cores_.size();

  cycle_t next_interval = measure_start + interval;
  while (unfinished > 0) {
    // Step the core with the smallest local clock for causal consistency.
    std::size_t next = 0;
    for (std::size_t c = 1; c < cores_.size(); ++c) {
      if (cores_[c].cycles() < cores_[next].cycles()) next = c;
    }
    Core& core = cores_[next];
    core.step(mem_);

    if (!recorded[next] && core.instret() >= target) {
      recorded[next] = true;
      result.ipc[next] =
          static_cast<double>(core.instret() - base_instr[next]) /
          static_cast<double>(core.cycles() - base_cycles[next]);
      --unfinished;
    }

    // Wall clock = slowest core's position; interval boundaries fire when
    // every core has passed them.
    cycle_t wall = cores_[0].cycles();
    for (std::size_t c = 1; c < cores_.size(); ++c) {
      wall = std::min(wall, cores_[c].cycles());
    }
    while (wall >= next_interval) {
      mem_.tick_interval(next_interval);
      if (options.record_timeline) {
        result.timeline.push_back(IntervalSample{
            next_interval, mem_.active_fraction(), mem_.module_active_ways()});
      }
      next_interval += interval;
    }
  }

  cycle_t wall_end = 0;
  for (const Core& core : cores_) wall_end = std::max(wall_end, core.cycles());
  mem_.finish(wall_end);

  result.wall_cycles = wall_end - measure_start;
  result.total_instructions = options.instr_per_core * cores_.size();
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

}  // namespace esteem::cpu
