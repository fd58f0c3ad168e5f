// End-to-end modes: `setup` (start-up only) and `run` (timed cold sweeps).
//
// Both go through the public sweep API, sim::run_sweep, with the memo cache
// forced cold: its disk directory is disabled and its in-memory entries are
// dropped before every sweep, so no cell can be served from an earlier run
// (a disk hit would count as a miss in the cache's own counters, which is
// why coldness is enforced rather than inferred from them).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "sim/run_cache.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

using namespace esteem;

namespace {

/// Makes the next sweep cold: no disk memo, no in-memory entries, fresh
/// phase profiler. Returns a record of what was done for the report.
std::string force_cold() {
  sim::RunCache& cache = sim::RunCache::instance();
  cache.set_disk_dir("");
  cache.clear();
  telemetry::profiler().reset();
  return Json()
      .str("disk_dir", cache.disk_dir())
      .integer("entries", static_cast<std::int64_t>(cache.entries()))
      .done();
}

/// Per-cell host time from the simulator's always-on phase profiler: a
/// sampler thread watches the `run.simulate` phase and turns each increment
/// into one cell's simulate time. When two cells finish within one poll
/// (possible only with several pool workers) their combined time is split
/// evenly between them.
class CellClock {
 public:
  CellClock() : thread_([this] { loop(); }) {}
  CellClock(const CellClock&) = delete;
  CellClock& operator=(const CellClock&) = delete;
  ~CellClock() { stop(); }

  std::vector<double> stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      poll();
    }
    return cells_;
  }

 private:
  void loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      poll();
    }
  }

  void poll() {
    for (const telemetry::PhaseProfiler::Phase& p : telemetry::profiler().rollup()) {
      if (p.name != "run.simulate" || p.count <= count_) continue;
      const std::uint64_t n = p.count - count_;
      const double each = (p.seconds - seconds_) / static_cast<double>(n);
      cells_.insert(cells_.end(), n, each);
      count_ = p.count;
      seconds_ = p.seconds;
    }
  }

  std::atomic<bool> stop_{false};
  std::uint64_t count_ = 0;
  double seconds_ = 0.0;
  std::vector<double> cells_;
  std::thread thread_;
};

/// Digest of every field of a comparison row.
std::uint64_t comparison_digest(const sim::TechniqueComparison& c) {
  Digest d;
  d.str(c.workload);
  d.u64(static_cast<std::uint64_t>(c.technique));
  for (const double v :
       {c.energy_saving_pct, c.weighted_speedup, c.fair_speedup, c.rpki_base,
        c.rpki_tech, c.rpki_decrease, c.mpki_base, c.mpki_tech, c.mpki_increase,
        c.active_ratio_pct, c.correction_rpki, c.energy_saving_ci,
        c.weighted_speedup_ci, c.rpki_tech_ci, c.mpki_tech_ci, c.active_ratio_ci}) {
    d.f64(v);
  }
  for (const std::uint64_t v : {c.ecc_corrected_reads, c.fault_refetches,
                                c.fault_data_loss, c.fault_disabled_lines}) {
    d.u64(v);
  }
  d.u64(c.sampled ? 1 : 0);
  return d.value();
}

/// A technique cell's pinned digest: its comparison row and its outcome.
std::uint64_t row_digest(const sim::TechniqueComparison& c,
                         const sim::RunOutcome& tech) {
  Digest d;
  d.u64(comparison_digest(c));
  d.u64(sim::outcome_digest(tech));
  return d.value();
}

std::string cell_name(const std::string& workload, sim::Technique t) {
  return workload + "/" + std::string(sim::to_string(t));
}

}  // namespace

SweepCheck check_sweep(const BenchWorkload& w, const sim::SweepResult& result) {
  SweepCheck out;
  const sim::SweepSpec& spec = w.spec;
  const std::size_t per_row = 1 + spec.techniques.size();
  for (const sim::RunError& e : result.errors) {
    out.problems.push_back("run error " + e.workload + "/" + e.technique + ": " +
                           e.what);
  }
  if (result.interrupted) out.problems.push_back("sweep interrupted");
  std::size_t esteem_col = spec.techniques.size();
  for (std::size_t t = 0; t < spec.techniques.size(); ++t) {
    if (spec.techniques[t] == sim::Technique::Esteem) esteem_col = t;
  }
  double ci_sum = 0.0;
  std::size_t ci_n = 0;
  for (std::size_t wi = 0; wi < result.rows.size(); ++wi) {
    const sim::WorkloadRow& row = result.rows[wi];
    const trace::Workload& wl = spec.workloads[wi];
    if (!row.completed) {
      out.failed_cells += per_row;
      continue;
    }
    const auto base = sim::RunCache::instance().get_or_run(
        sim::sweep_run_spec(spec, wl, sim::Technique::BaselinePeriodicAll));
    out.digests.emplace_back(cell_name(wl.name, sim::Technique::BaselinePeriodicAll),
                             sim::outcome_digest(*base));
    const instr_t expect_instr = spec.instr_per_core * spec.config.ncores;
    if (base->raw.total_instructions != expect_instr) {
      out.problems.push_back(wl.name + ": baseline retired " +
                             std::to_string(base->raw.total_instructions) +
                             " instructions, expected " + std::to_string(expect_instr));
    }
    for (std::size_t ti = 0; ti < spec.techniques.size(); ++ti) {
      const sim::TechniqueComparison& c = row.comparisons[ti];
      const auto tech = sim::RunCache::instance().get_or_run(
          sim::sweep_run_spec(spec, wl, spec.techniques[ti]));
      out.digests.emplace_back(cell_name(wl.name, spec.techniques[ti]),
                               row_digest(c, *tech));
      const bool sane = std::isfinite(c.energy_saving_pct) &&
                        std::abs(c.energy_saving_pct) < 100.0 &&
                        std::isfinite(c.weighted_speedup) && c.weighted_speedup > 0.0;
      if (!sane) {
        out.problems.push_back(cell_name(wl.name, spec.techniques[ti]) +
                               ": implausible comparison row");
      }
      if (ti == esteem_col) {
        ci_sum += c.energy_saving_ci;
        ++ci_n;
      }
    }
  }
  if (esteem_col < spec.techniques.size() && result.errors.empty()) {
    out.esteem_saving_pct = result.summary(sim::Technique::Esteem).energy_saving_pct;
  }
  out.ci_halfwidth_pp = ci_n ? ci_sum / static_cast<double>(ci_n) : 0.0;
  return out;
}

std::string digests_json(const SweepCheck& c) {
  Json j;
  for (const auto& [cell, d] : c.digests) j.str(cell, hex64(d));
  return j.done();
}

int run_setup() {
  force_cold();
  // Everything before this line is set-up; the next step would dispatch
  // the first cell.
  std::printf("%s\n", Json().integer("dispatch_mono_ns", mono_ns()).done().c_str());
  return 0;
}

int run_sweeps(const BenchWorkload& w, double seconds) {
  std::string cold = force_cold();
  const std::int64_t dispatch_ns = mono_ns();
  std::string sweeps = "[";
  std::vector<sim::SweepResult> results;
  double measured = 0.0;
  do {
    if (!results.empty()) cold = force_cold();
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = mono_ns();
    CellClock clock;
    sim::SweepResult result = sim::run_sweep(w.spec);
    const std::vector<double> cells = clock.stop();
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_s() - cpu0;
    const sim::RunCacheStats memo = sim::RunCache::instance().stats();
    measured += wall;
    if (!results.empty()) sweeps += ',';
    sweeps += Json()
                  .num("wall_s", wall)
                  .num("cpu_s", cpu)
                  .raw("cell_s", Json::array(cells))
                  .raw("memo_before", cold)
                  .integer("memo_hits", static_cast<std::int64_t>(memo.hits))
                  .integer("memo_misses", static_cast<std::int64_t>(memo.misses))
                  .integer("memo_disk_hits", static_cast<std::int64_t>(memo.disk_hits))
                  .done();
    results.push_back(std::move(result));
  } while (measured < seconds);
  sweeps += ']';
  const double rss = peak_rss_mb();

  // Correctness, outside the timed region. Every repeat must reproduce the
  // first one bit for bit; the memo cache holds the last repeat's outcomes,
  // so the digests are taken from it.
  const SweepCheck check = check_sweep(w, results.back());
  std::vector<std::string> problems = check.problems;
  for (std::size_t r = 0; r + 1 < results.size(); ++r) {
    for (std::size_t wi = 0; wi < results[r].rows.size(); ++wi) {
      const auto& a = results[r].rows[wi].comparisons;
      const auto& b = results.back().rows[wi].comparisons;
      for (std::size_t ti = 0; ti < a.size(); ++ti) {
        if (comparison_digest(a[ti]) != comparison_digest(b[ti])) {
          problems.push_back("repeat " + std::to_string(r) + " differs at " +
                             w.spec.workloads[wi].name);
        }
      }
    }
  }
  // One cell (chosen by the seed) is recomputed from scratch, bypassing the
  // memo cache, and must match the sweep's outcome bit for bit.
  const std::size_t per_row = 1 + w.spec.techniques.size();
  const std::size_t cell = w.spec.seed % w.cells();
  const trace::Workload& wl = w.spec.workloads[cell / per_row];
  const sim::Technique tech = cell % per_row == 0
                                  ? sim::Technique::BaselinePeriodicAll
                                  : w.spec.techniques[cell % per_row - 1];
  const sim::RunSpec rs = sim::sweep_run_spec(w.spec, wl, tech);
  const bool recheck_ok = sim::outcome_digest(sim::run_experiment(rs)) ==
                          sim::outcome_digest(*sim::RunCache::instance().get_or_run(rs));
  if (!recheck_ok) problems.push_back("uncached recompute differs at " + cell_name(wl.name, tech));

  std::printf(
      "%s\n",
      Json()
          .str("workload", w.name)
          .integer("seed", static_cast<std::int64_t>(w.spec.seed))
          .integer("cells", static_cast<std::int64_t>(w.cells()))
          .integer("threads", w.spec.threads)
          .num("nominal_instr", w.nominal_instr())
          .integer("dispatch_mono_ns", dispatch_ns)
          .raw("sweeps", sweeps)
          .num("peak_rss_mb", rss)
          .num("esteem_saving_pct", check.esteem_saving_pct)
          .num("paper_saving_pct", w.paper_saving_pct)
          .num("ci_halfwidth_pp", check.ci_halfwidth_pp)
          .integer("failed_cells", static_cast<std::int64_t>(check.failed_cells))
          .str("recheck_cell", cell_name(wl.name, tech))
          .boolean("recheck_ok", recheck_ok)
          .raw("problems", string_array(problems))
          .raw("digests", digests_json(check))
          .done()
          .c_str());
  return 0;
}

}  // namespace perfbench
