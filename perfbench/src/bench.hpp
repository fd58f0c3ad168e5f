// Shared pieces of the simulator benchmark: the three workload definitions,
// monotonic clocks, and a minimal JSON writer for the one-line reports the
// script perfbench/run.py parses.
#pragma once

#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace perfbench {

/// One benchmark workload: a sweep over the public simulator API.
struct BenchWorkload {
  std::string name;
  esteem::sim::SweepSpec spec;
  /// The paper's average ESTEEM energy saving for this sweep's figure.
  double paper_saving_pct = 0.0;

  /// (workload x technique) runs per sweep, the baseline included.
  std::size_t cells() const {
    return spec.workloads.size() * (1 + spec.techniques.size());
  }
  /// Nominal simulated instructions per sweep: warm-up included, summed over
  /// cores and cells; sampled runs count the instructions they skip.
  double nominal_instr() const {
    return static_cast<double>(cells()) * spec.config.ncores *
           static_cast<double>(spec.instr_per_core + spec.warmup_instr_per_core);
  }
};

/// Builds `name` with the given seed; throws std::invalid_argument for an
/// unknown name.
BenchWorkload make_workload(const std::string& name, std::uint64_t seed);

/// CLOCK_MONOTONIC in nanoseconds; the same clock Python's
/// time.monotonic_ns() reads, so run.py can time process start-up.
inline std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(mono_ns() - t0_ns) * 1e-9;
}

/// Process user+sys CPU seconds so far.
double process_cpu_s();

/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

/// FNV-1a accumulator for the per-cell result digests.
class Digest {
 public:
  void u64(std::uint64_t v);
  void f64(double v);
  void str(const std::string& s);
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

/// Builds one JSON object; values are written with full precision.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::int64_t v);
  Json& boolean(const std::string& key, bool v);
  Json& str(const std::string& key, const std::string& v);
  /// `raw` must already be valid JSON (object, array, number).
  Json& raw(const std::string& key, const std::string& raw);
  std::string done() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s);
  static std::string number(double v);
  static std::string array(const std::vector<double>& values);

 private:
  void key(const std::string& k);
  std::string body_;
};

/// Everything the correctness gate needs from one sweep, read back from the
/// memo cache (hits: the sweep just computed every cell) outside any timed
/// region.
struct SweepCheck {
  std::vector<std::pair<std::string, std::uint64_t>> digests;  ///< Per cell.
  std::vector<std::string> problems;  ///< Errors and invariant violations.
  std::size_t failed_cells = 0;       ///< Cells of rows that did not complete.
  double esteem_saving_pct = 0.0;     ///< Mean over the sweep's rows.
  double ci_halfwidth_pp = 0.0;       ///< Mean 95% CI half-width (sampled).
};

SweepCheck check_sweep(const BenchWorkload& w, const esteem::sim::SweepResult& result);
/// The per-cell digests as a JSON object of hex strings.
std::string digests_json(const SweepCheck& c);
/// A JSON array of strings.
std::string string_array(const std::vector<std::string>& items);

/// Modes of the benchmark binary (see main.cpp).
int run_setup();
int run_sweeps(const BenchWorkload& w, double seconds);
int run_traced(const BenchWorkload& w, const std::string& scratch_dir);

}  // namespace perfbench
