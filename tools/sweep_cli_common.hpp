// CLI helpers shared by the tools: the count-flag parser every tool uses,
// split_csv, and the sweep-spec construction of esteem_cli and
// esteem_workerd.
//
// The multi-process service promises byte-identical output to a
// single-process `esteem_cli --sweep` of the same flags, which only holds if
// both tools derive the *same* SweepSpec — same workload parsing, same
// paper-default config policy (core count, interval scaling, hysteresis; see
// DESIGN.md §5). This header is that single definition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "sim/runner.hpp"
#include "sim/technique.hpp"
#include "trace/workloads.hpp"

namespace esteem::tools {

/// Value of a count flag (--instr, --warmup, --seed, --jobs, ...): decimal
/// digits only, at most `max`. Anything else ("2M", "-1", "1e6", overflow)
/// is a usage error: a message on stderr and exit code 2, never a silent
/// misread. Callers keep their own range rules (e.g. a zero check).
inline std::uint64_t parse_count(const std::string& flag, const std::string& text,
                                 std::uint64_t max = ~0ULL) {
  std::uint64_t v = 0;
  if (!to_u64(text, v) || v > max) {
    std::fprintf(stderr, "error: %s expects a decimal count up to %llu, got '%s'\n",
                 flag.c_str(), static_cast<unsigned long long>(max), text.c_str());
    std::exit(2);
  }
  return v;
}

inline std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Splits per-core benchmark names joined by '+' into one workload.
inline trace::Workload parse_sweep_workload(const std::string& item) {
  trace::Workload wl;
  wl.name = item;
  std::istringstream is(item);
  std::string bench;
  while (std::getline(is, bench, '+')) {
    if (!bench.empty()) wl.benchmarks.push_back(bench);
  }
  return wl;
}

/// Paper defaults for the core count of the sweep's first workload, with the
/// 10M-cycle interval scaled to the shortened run (the same policy the bench
/// harness uses; a mismatched workload later fails as a recorded sweep
/// error).
inline SystemConfig default_sweep_config(const trace::Workload& first, instr_t instr) {
  SystemConfig cfg = first.benchmarks.size() >= 2 ? SystemConfig::dual_core()
                                                  : SystemConfig::single_core();
  cfg.ncores =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, first.benchmarks.size()));
  cfg.esteem.interval_cycles = std::max<cycle_t>(
      cfg.retention_cycles(),
      static_cast<cycle_t>(10e6 * 4.0 * static_cast<double>(instr) / 400e6));
  cfg.esteem.hysteresis_intervals = 2;
  cfg.esteem.shrink_confirm_intervals = 2;
  return cfg;
}

/// CLI args -> SweepSpec (workloads from --sweep, techniques from
/// --techniques or the spec default). Throws std::invalid_argument on an
/// unknown technique name; leaves workloads empty when `sweep_arg` is.
inline sim::SweepSpec build_sweep_spec(const SystemConfig& cfg, const std::string& sweep_arg,
                                       const std::string& techniques_arg, instr_t instr,
                                       instr_t warmup, std::uint64_t seed, unsigned jobs) {
  sim::SweepSpec spec;
  spec.config = cfg;
  spec.seed = seed;
  spec.instr_per_core = instr;
  spec.warmup_instr_per_core = warmup;
  spec.threads = jobs;
  for (const std::string& item : split_csv(sweep_arg)) {
    spec.workloads.push_back(parse_sweep_workload(item));
  }
  if (!techniques_arg.empty()) {
    spec.techniques.clear();
    for (const std::string& name : split_csv(techniques_arg)) {
      spec.techniques.push_back(sim::parse_technique(name));
    }
  }
  return spec;
}

}  // namespace esteem::tools
