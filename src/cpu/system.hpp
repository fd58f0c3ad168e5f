// Multi-core system: cores + shared memory hierarchy + the interval clock.
//
// Cores advance in lockstep order of their local clocks (the core with the
// smallest cycle count steps next), so contention on the shared L2 banks and
// the memory channel is causally consistent. Interval boundaries are driven
// by the wall clock (the minimum core cycle), matching the paper's
// methodology: each benchmark runs a fixed instruction count, a finished
// core keeps running (and contending) until all cores finish, but its IPC is
// recorded at its own target crossing (§6.4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "cpu/core_model.hpp"
#include "cpu/memory_system.hpp"
#include "cpu/technique.hpp"
#include "energy/energy_model.hpp"

namespace esteem::cpu {

/// One Figure 2 timeline sample, captured at an interval boundary.
struct IntervalSample {
  cycle_t cycle = 0;
  double active_ratio = 1.0;
  std::vector<std::uint32_t> module_ways;
};

struct RawRunResult {
  std::vector<double> ipc;             ///< Per-core IPC at its target crossing.
  instr_t instr_per_core = 0;
  instr_t total_instructions = 0;      ///< Sum of per-core targets.
  cycle_t wall_cycles = 0;             ///< Cycle at which the last core finished.
  energy::EnergyCounters counters;     ///< Energy-model inputs over the run.
  MemorySystemStats mem_stats;
  std::uint64_t refreshes = 0;         ///< N_R over the run.
  std::uint64_t demand_misses = 0;     ///< L2 demand misses over the run.
  double avg_active_ratio = 1.0;       ///< Time-weighted F_A.
  edram::FaultCounters faults;         ///< Fault-injection events (zero when off).
  std::uint64_t disabled_slots = 0;    ///< L2 slots retired by faults (state).
  std::vector<IntervalSample> timeline;
};

struct RunOptions {
  instr_t instr_per_core = 8'000'000;
  /// Instructions each core executes before measurement begins (the paper
  /// fast-forwards 10B instructions, §6.4). Warm-up fills the caches at full
  /// associativity; no reconfiguration intervals fire and no counters
  /// accumulate during it.
  instr_t warmup_instr_per_core = 0;
  bool record_timeline = false;
  std::uint64_t seed = 42;
  /// Optional per-run telemetry sink (interval time-series + sim-time trace
  /// lanes); must outlive run(). Null = telemetry off.
  telemetry::RunSink* telemetry = nullptr;
};

class System {
 public:
  /// `benchmarks` has one benchmark name per core (cfg.ncores entries).
  System(const SystemConfig& cfg, Technique technique,
         const std::vector<std::string>& benchmarks, std::uint64_t seed);

  /// Runs every core exhaustively to its target. On a host with more than
  /// one hardware thread, each core that runs a synthetic generator first
  /// starts generating on a producer thread (Core::start_prefetch); a
  /// "trace:" replay stays inline, since its stream is already in memory
  /// (DESIGN.md §7). Sampled runs drive the cores themselves
  /// (sampling::run_sampled) and never prefetch: their analytic skips need
  /// the generator at the consumed position.
  RawRunResult run(const RunOptions& options);

  MemorySystem& memory() noexcept { return mem_; }
  std::vector<Core>& cores() noexcept { return cores_; }
  const SystemConfig& config() const noexcept { return cfg_; }

 private:
  SystemConfig cfg_;
  MemorySystem mem_;
  std::vector<Core> cores_;
  std::vector<bool> replays_trace_;  ///< Per core: a "trace:" file replay.
};

}  // namespace esteem::cpu
