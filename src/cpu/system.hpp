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
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "cpu/core_model.hpp"
#include "cpu/memory_system.hpp"
#include "cpu/sample_plan.hpp"
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

/// Where a System's cores take their references from.
enum class CoreStreams {
  Generated,  ///< Each core runs its own generator (make_core_stream).
  Fed,        ///< Each core is fed a shared stream by run_fused (Core::feed).
};

/// True for a "trace:<path>" benchmark name: a replay of a trace file.
bool replays_trace(const std::string& benchmark);

/// Everything a run's core streams are built from: runs of equal keys give
/// every core the same references (run_fused shares them on that ground).
struct StreamKey {
  std::vector<std::string> benchmarks;  ///< One per core.
  std::uint64_t seed = 0;
  trace::GeneratorContext context;

  bool operator==(const StreamKey&) const = default;
};

/// The StreamKey of a run of `benchmarks` on `cfg` seeded `seed`.
StreamKey stream_key(const SystemConfig& cfg, const std::vector<std::string>& benchmarks,
                     std::uint64_t seed);

/// The reference stream System gives core `core` of a run keyed `key`: a
/// "trace:<path>" file replay, or the generator of a Table 1 benchmark name
/// or acronym. Core c's seed is the (c+1)-th output of one splitmix64 chain
/// from the key's seed, whatever the other cores replay.
std::unique_ptr<trace::AccessGenerator> make_core_stream(const StreamKey& key,
                                                         std::uint32_t core);

class System {
 public:
  /// `benchmarks` has one benchmark name per core (cfg.ncores entries).
  /// With CoreStreams::Fed no generator is built: the cores step only
  /// through what run_fused feeds them.
  System(const SystemConfig& cfg, Technique technique,
         const std::vector<std::string>& benchmarks, std::uint64_t seed,
         CoreStreams streams = CoreStreams::Generated);

  /// Runs every core exhaustively to its target, on producer threads where
  /// start_prefetch allows: begin(), advance() to the end, finish(). Throws
  /// std::logic_error on a fed System, which only run_fused can run.
  RawRunResult run(const RunOptions& options);

  /// run() in resumable form, for fed Systems (run_fused). begin() starts a
  /// run: warm-up first, then measurement. advance() steps the cores in
  /// run()'s order until the run ends (true), or until the core due next is
  /// a fed core that has used up its references (false: feed it and call
  /// again). finish() closes the run and returns its result; it throws
  /// std::logic_error before advance() returned true.
  void begin(const RunOptions& options);
  bool advance();
  RawRunResult finish();

  /// On a host with more than one hardware thread, starts a producer thread
  /// on each core that runs a synthetic generator (Core::start_prefetch),
  /// handing it a sampled run's `plan` (null for an exhaustive run). A
  /// "trace:" replay stays inline, since its stream is already in memory
  /// (DESIGN.md §7). Both run() and sampling::run_sampled start here.
  void start_prefetch(const SamplePlan* plan = nullptr);

  MemorySystem& memory() noexcept { return mem_; }
  std::vector<Core>& cores() noexcept { return cores_; }
  const SystemConfig& config() const noexcept { return cfg_; }

 private:
  /// The run in progress, from begin() to finish().
  struct RunState {
    bool active = false;            ///< Between begin() and finish().
    RunOptions options;
    instr_t target = 0;             ///< Instret at which a core's IPC is taken.
    std::vector<bool> warm;         ///< Per core: past the warm-up.
    std::size_t cold = 0;           ///< Cores still warming up.
    std::vector<instr_t> base_instr;
    std::vector<cycle_t> base_cycles;
    std::vector<bool> recorded;     ///< Per core: IPC taken.
    std::size_t unfinished = 0;     ///< Cores short of the target.
    cycle_t measure_start = 0;
    cycle_t next_interval = 0;
    RawRunResult result;
  };

  /// Ends the warm-up: resets the measurement counters and starts the
  /// interval clock.
  void start_measurement();

  SystemConfig cfg_;
  MemorySystem mem_;
  std::vector<Core> cores_;
  std::vector<bool> replays_trace_;  ///< Per core: a "trace:" file replay.
  RunState run_;
};

/// One cell of a fused group: a fed single-core System and its run.
struct FusedCell {
  System* system = nullptr;
  RunOptions options;
  RawRunResult result;   ///< Set by run_fused.
  double seconds = 0.0;  ///< Host time of this cell's own steps: the sum of its chunk slices.
};

/// Runs fed single-core Systems on one shared `stream`, chunk by chunk: a
/// producer thread generates each chunk (`pipelined`, by default wherever
/// System::start_prefetch would start one; otherwise this thread fills it),
/// and this thread hands it to every cell's System::advance in turn. Exact,
/// as a single-core run's warm-up and measurement stop at instret
/// thresholds, which depend on the stream alone: each cell consumes the
/// references its own run() would. Cells of equal budgets end on the same
/// reference; std::logic_error if they do not. A stream failure fails the
/// group at the first chunk that needs the missing references.
void run_fused(std::span<FusedCell> cells, trace::AccessGenerator& stream,
               bool pipelined = std::thread::hardware_concurrency() > 1);

}  // namespace esteem::cpu
