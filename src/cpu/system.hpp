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

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
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

/// The first of `cores` with the smallest clock, passing over those that
/// `passed` marks (none when it is null; it must leave one): the core that
/// steps next, so that contention on the shared L2 banks and memory channel
/// stays causal.
inline std::size_t earliest_core(const std::vector<Core>& cores,
                                 const std::vector<bool>* passed = nullptr) {
  std::size_t next = 0;
  if (passed != nullptr) {
    while ((*passed)[next]) ++next;
  }
  for (std::size_t c = next + 1; c < cores.size(); ++c) {
    if ((passed == nullptr || !(*passed)[c]) && cores[c].cycles() < cores[next].cycles()) {
      next = c;
    }
  }
  return next;
}

/// The run's wall clock: the slowest core's position.
inline cycle_t wall_clock(const std::vector<Core>& cores) {
  return cores[earliest_core(cores)].cycles();
}

/// The interval clock of a run, exhaustive or sampled: a boundary fires
/// once the wall clock reaches it, that is once every core has passed it.
struct IntervalClock {
  cycle_t next = std::numeric_limits<cycle_t>::max();  ///< Unarmed: never fires.
  cycle_t interval = 0;
  bool record_timeline = false;
  std::vector<IntervalSample> timeline;  ///< One sample per boundary fired, if recorded.

  /// Fires every boundary the wall clock of `cores` has reached.
  void pump(MemorySystem& mem, const std::vector<Core>& cores) {
    for (const cycle_t wall = wall_clock(cores); wall >= next; next += interval) {
      mem.tick_interval(next);
      if (record_timeline) {
        timeline.push_back(IntervalSample{next, mem.active_fraction(), mem.module_active_ways()});
      }
    }
  }
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

/// Whether the stream of `benchmark` is generated on a producer thread
/// (RefPrefetcher's `threaded`): on a host with more than one hardware
/// thread, unless it replays a "trace:" file, whose references are already
/// in memory and cost less than the handoff (DESIGN.md §7).
bool threaded_stream(const std::string& benchmark);

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

  /// Runs every core exhaustively to its target: start_streams(), begin(),
  /// advance() to the end, finish(). Throws std::logic_error on a fed
  /// System, which only run_fused can run.
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

  /// Builds every core's stream (Core::start_stream), threaded where
  /// threaded_stream says so, handing it a sampled run's `plan` (null for
  /// an exhaustive run). Both run() and sampling::run_sampled start here.
  void start_streams(const SamplePlan* plan = nullptr);

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
    IntervalClock clock;
    RawRunResult result;
  };

  /// Ends the warm-up: resets the measurement counters and starts the
  /// interval clock.
  void start_measurement();

  SystemConfig cfg_;
  MemorySystem mem_;
  std::vector<Core> cores_;
  std::vector<bool> threaded_;  ///< Per core: threaded_stream of its benchmark.
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
/// RefPrefetcher, threaded when `pipelined` (threaded_stream of the
/// stream's benchmark), makes each chunk, and this thread hands it to every
/// cell's System::advance in turn. Exact,
/// as a single-core run's warm-up and measurement stop at instret
/// thresholds, which depend on the stream alone: each cell consumes the
/// references its own run() would. Cells of equal budgets end on the same
/// reference; std::logic_error if they do not. A stream failure fails the
/// group at the first chunk that needs the missing references.
void run_fused(std::span<FusedCell> cells, trace::AccessGenerator& stream, bool pipelined);

}  // namespace esteem::cpu
