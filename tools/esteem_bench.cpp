// esteem_bench — wall-clock harness for the sweep layer.
//
// Runs the paper's workload sweep end to end and reports throughput as a
// single JSON line, so perf trajectories can be tracked across commits:
//
//   esteem_bench [options]
//     --workloads single|dual|N  workload list: all 34 single-core pairs,
//                                the 17 dual-core pairs, or the first N
//                                single-core workloads (default: 8)
//     --techniques A[,B]         techniques vs. baseline (default: esteem,rpv)
//     --instr N                  measured instructions per core (default 2M)
//     --warmup N                 warm-up instructions per core (default instr/5)
//     --jobs N                   worker threads (0 = hardware concurrency)
//     --repeat K                 run the sweep K times (default 2). The
//                                first repeat is cold; later repeats are
//                                served by the RunOutcome memo cache, so the
//                                gap between repeat 0 and repeat 1 measures
//                                memoization, not simulation.
//     --json FILE                also write the JSON line to FILE
//     --sampling-speedup         instead of the repeat loop, run the sweep
//                                twice cold — exhaustive, then SMARTS-sampled
//                                (docs/SAMPLING.md) — and report the
//                                wall-clock speedup. Meant for the paper
//                                scale (--instr 400000000), where sampling
//                                must deliver >= 10x.
//
// The JSON reports, per repeat: wall seconds, simulated Minstr/s (total
// simulated instructions including warm-up across every run of the sweep,
// divided by wall time), and the memo-cache hit/miss counters observed for
// that repeat. A trailing "phases" array carries the self-profiling rollup
// (telemetry::PhaseProfiler): bench.configure, sweep, run.simulate,
// run.energy, ... with accumulated seconds and instance counts, and a
// "prefetch" object with the trace.prefetch.* counters of the cores' producer
// threads (DESIGN.md §7): chunks generated, consumer_waits (a core waited
// on its generator: generator-bound) and producer_waits (a full ring
// stalled the generator: hierarchy-bound). The bench turns on counter
// collection, which has no file outputs and no effect on results.
//
// Memo-cache state and counters are process-global; the bench scopes both to
// this invocation (cache cleared, counters zeroed at entry), so repeated
// benches in one process each report a genuinely cold repeat 0 and correct
// hit rates.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "sim/task_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/workloads.hpp"

namespace {

using namespace esteem;

[[noreturn]] void usage(const char* err = nullptr) {
  if (err) std::fprintf(stderr, "esteem_bench: %s\n", err);
  std::fprintf(stderr,
               "usage: esteem_bench [--workloads single|dual|N]\n"
               "                    [--techniques A[,B]] [--instr N]\n"
               "                    [--warmup N] [--jobs N] [--repeat K]\n"
               "                    [--json FILE] [--sampling-speedup]\n");
  std::exit(err ? 2 : 0);
}

std::vector<std::string> split_csv(const std::string& arg) {
  std::vector<std::string> out;
  std::istringstream is(arg);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

struct RepeatSample {
  double wall_seconds = 0.0;
  double minstr_per_s = 0.0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string workloads_arg = "8";
  std::string techniques_arg = "esteem,rpv";
  std::string json_path;
  instr_t instr = 2'000'000;
  instr_t warmup = 0;  // 0 = instr / 5
  unsigned jobs = 0;
  unsigned repeat = 2;
  bool sampling_speedup = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workloads") workloads_arg = value();
    else if (arg == "--techniques") techniques_arg = value();
    else if (arg == "--instr") instr = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--warmup") warmup = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--jobs")
      jobs = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    else if (arg == "--repeat")
      repeat = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    else if (arg == "--json") json_path = value();
    else if (arg == "--sampling-speedup") sampling_speedup = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown option " + arg).c_str());
  }
  if (repeat == 0) usage("--repeat must be >= 1");
  if (warmup == 0) warmup = instr / 5;

  // Scope the process-global memo cache and self-profiler to this
  // invocation: entries or counters inherited from earlier work in the same
  // process would make repeat 0 falsely warm and the hit rates wrong.
  sim::RunCache::instance().clear();
  telemetry::profiler().reset();
  telemetry::TelemetryConfig counters_only;
  counters_only.counters = true;
  telemetry::Telemetry::instance().configure(counters_only);
  telemetry::registry().reset();
  telemetry::ScopedTimer configure_timer(telemetry::profiler(), "bench.configure");

  sim::SweepSpec spec;
  if (workloads_arg == "single") {
    spec.workloads = trace::single_core_workloads();
    spec.config = SystemConfig::single_core();
  } else if (workloads_arg == "dual") {
    spec.workloads = trace::dual_core_workloads();
    spec.config = SystemConfig::dual_core();
  } else {
    const auto n = static_cast<std::size_t>(
        std::strtoull(workloads_arg.c_str(), nullptr, 10));
    if (n == 0) usage("--workloads must be single, dual, or a positive count");
    auto all = trace::single_core_workloads();
    all.resize(std::min(n, all.size()));
    spec.workloads = std::move(all);
    spec.config = SystemConfig::single_core();
  }
  spec.techniques.clear();
  for (const std::string& name : split_csv(techniques_arg)) {
    spec.techniques.push_back(sim::parse_technique(name));
  }
  if (spec.techniques.empty()) usage("empty technique list");
  spec.instr_per_core = instr;
  spec.warmup_instr_per_core = warmup;
  spec.threads = jobs;
  // Same interval scaling rule as the CLI's default sweep configuration.
  spec.config.esteem.interval_cycles = std::max<cycle_t>(
      spec.config.retention_cycles(),
      static_cast<cycle_t>(10e6 * 4.0 * static_cast<double>(instr) / 400e6));
  spec.config.esteem.hysteresis_intervals = 2;
  spec.config.esteem.shrink_confirm_intervals = 2;

  const unsigned threads = sim::TaskPool::resolve_threads(jobs);
  const std::size_t runs_per_sweep =
      spec.workloads.size() * (1 + spec.techniques.size());
  const double instr_per_sweep =
      static_cast<double>(runs_per_sweep) * spec.config.ncores *
      static_cast<double>(instr + warmup);

  std::fprintf(stderr,
               "esteem_bench: %zu workload(s) x %zu technique(s) + baseline, "
               "%llu instr/core (+%llu warm-up), %u worker thread(s), %u repeat(s)\n",
               spec.workloads.size(), spec.techniques.size(),
               static_cast<unsigned long long>(instr),
               static_cast<unsigned long long>(warmup), threads, repeat);

  configure_timer.stop();

  if (sampling_speedup) {
    // Two cold sweeps over the same spec: exhaustive, then SMARTS-sampled
    // with the default (paper-tier) sampling parameters. The memo cache is
    // cleared between them so both legs measure simulation, not memoization.
    if (instr / spec.config.sampling.period_instr < 2) {
      usage("--sampling-speedup needs --instr of at least two sampling "
            "periods (8000000)");
    }
    auto timed_sweep = [&](const sim::SweepSpec& s, const char* what) {
      sim::RunCache::instance().clear();
      const auto t0 = std::chrono::steady_clock::now();
      const sim::SweepResult result = sim::run_sweep(s);
      const auto t1 = std::chrono::steady_clock::now();
      if (!result.ok()) {
        for (const sim::RunError& e : result.errors) {
          std::fprintf(stderr, "esteem_bench: %s workload %s (%s) failed: %s\n",
                       what, e.workload.c_str(), e.technique.c_str(),
                       e.what.c_str());
        }
        std::exit(3);
      }
      const double wall = std::chrono::duration<double>(t1 - t0).count();
      std::fprintf(stderr, "  %s: %.3f s wall (%.2f simulated Minstr/s)\n",
                   what, wall, instr_per_sweep / 1e6 / std::max(wall, 1e-9));
      return wall;
    };
    const double exhaustive_s = timed_sweep(spec, "exhaustive");
    sim::SweepSpec sampled = spec;
    sampled.config.sampling.enabled = true;
    const double sampled_s = timed_sweep(sampled, "sampled");
    const double speedup = exhaustive_s / std::max(sampled_s, 1e-9);
    std::fprintf(stderr, "  sampled-vs-exhaustive speedup: %.2fx\n", speedup);

    std::ostringstream json;
    char buf[64];
    json << "{\"mode\":\"sampling_speedup\",\"workloads\":" << spec.workloads.size()
         << ",\"instr_per_core\":" << instr << ",\"warmup_per_core\":" << warmup
         << ",\"threads\":" << threads;
    std::snprintf(buf, sizeof buf, "%.6f", exhaustive_s);
    json << ",\"exhaustive_wall_seconds\":" << buf;
    std::snprintf(buf, sizeof buf, "%.6f", sampled_s);
    json << ",\"sampled_wall_seconds\":" << buf;
    std::snprintf(buf, sizeof buf, "%.3f", speedup);
    json << ",\"speedup\":" << buf << '}';
    std::printf("%s\n", json.str().c_str());
    if (!json_path.empty()) {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (!f) {
        std::fprintf(stderr, "esteem_bench: cannot write %s\n", json_path.c_str());
        return 2;
      }
      std::fprintf(f, "%s\n", json.str().c_str());
      std::fclose(f);
    }
    return 0;
  }

  std::vector<RepeatSample> samples;
  for (unsigned r = 0; r < repeat; ++r) {
    const sim::RunCacheStats before = sim::RunCache::instance().stats();
    const auto t0 = std::chrono::steady_clock::now();
    const sim::SweepResult result = sim::run_sweep(spec);
    const auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      for (const sim::RunError& e : result.errors) {
        std::fprintf(stderr, "esteem_bench: workload %s (%s) failed: %s\n",
                     e.workload.c_str(), e.technique.c_str(), e.what.c_str());
      }
      return 3;
    }
    const sim::RunCacheStats after = sim::RunCache::instance().stats();
    RepeatSample s;
    s.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    s.minstr_per_s = instr_per_sweep / 1e6 / std::max(s.wall_seconds, 1e-9);
    s.memo_hits = after.hits - before.hits;
    s.memo_misses = after.misses - before.misses;
    samples.push_back(s);
    std::fprintf(stderr,
                 "  repeat %u: %.3f s wall, %.2f simulated Minstr/s, "
                 "memo %llu hit / %llu miss\n",
                 r, s.wall_seconds, s.minstr_per_s,
                 static_cast<unsigned long long>(s.memo_hits),
                 static_cast<unsigned long long>(s.memo_misses));
  }

  std::ostringstream json;
  json << "{\"workloads\":" << spec.workloads.size() << ",\"techniques\":[";
  for (std::size_t t = 0; t < spec.techniques.size(); ++t) {
    json << (t ? "," : "") << '"' << to_string(spec.techniques[t]) << '"';
  }
  json << "],\"instr_per_core\":" << instr << ",\"warmup_per_core\":" << warmup
       << ",\"threads\":" << threads << ",\"runs_per_sweep\":" << runs_per_sweep;
  char buf[64];
  json << ",\"repeats\":[";
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const RepeatSample& s = samples[r];
    std::snprintf(buf, sizeof buf, "%.6f", s.wall_seconds);
    json << (r ? "," : "") << "{\"wall_seconds\":" << buf;
    std::snprintf(buf, sizeof buf, "%.3f", s.minstr_per_s);
    json << ",\"simulated_minstr_per_s\":" << buf << ",\"memo_hits\":" << s.memo_hits
         << ",\"memo_misses\":" << s.memo_misses << '}';
  }
  json << "],\"phases\":" << telemetry::profiler().to_json() << ",\"prefetch\":{";
  const char* sep = "";
  for (const char* name : {"chunks", "consumer_waits", "producer_waits"}) {
    json << sep << '"' << name << "\":"
         << static_cast<std::uint64_t>(
                telemetry::registry().value(std::string("trace.prefetch.") + name));
    sep = ",";
  }
  json << "}}";

  std::printf("%s\n", json.str().c_str());
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "esteem_bench: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(f, "%s\n", json.str().c_str());
    std::fclose(f);
  }
  return 0;
}
