// perfbench_sim — the simulator benchmark's measuring binary. perfbench/run.py
// builds it, calls it, and turns its one-line JSON reports into the
// benchmark's metrics.
//
//   perfbench_sim describe
//   perfbench_sim setup  --workload W --seed N
//   perfbench_sim run    --workload W --seed N --seconds S
//   perfbench_sim traced --workload W --seed N --scratch DIR
//
// describe  build descriptor (compiler, build type).
// setup     process start-up up to the point the first cell would be
//           dispatched; prints that instant on CLOCK_MONOTONIC.
// run       cold sweeps through sim::run_sweep until S seconds are measured
//           (at least one), then the correctness checks.
// traced    the per-layer breakdown (traced.cpp); DIR receives the recorded
//           reference streams and the sweep's wall-clock trace.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& err) {
  std::fprintf(stderr,
               "perfbench_sim: %s\n"
               "usage: perfbench_sim describe\n"
               "       perfbench_sim setup  --workload W --seed N\n"
               "       perfbench_sim run    --workload W --seed N --seconds S\n"
               "       perfbench_sim traced --workload W --seed N --scratch DIR\n",
               err.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  const std::string mode = argv[1];
  if (mode == "describe") {
    std::printf("%s\n", perfbench::Json()
                            .str("compiler", PERFBENCH_COMPILER)
                            .str("build_type", PERFBENCH_BUILD_TYPE)
                            .done()
                            .c_str());
    return 0;
  }

  // Timings from an unoptimized or assert-enabled build are not comparable
  // with anything; refuse them outright.
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench_sim: refusing to measure a build without NDEBUG\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench_sim: refusing to measure a %s build (need Release)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  std::string workload;
  std::string scratch;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") workload = value;
    else if (arg == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--scratch") scratch = value;
    else usage("unknown option " + arg);
  }

  try {
    const perfbench::BenchWorkload w = perfbench::make_workload(workload, seed);
    if (mode == "setup") return perfbench::run_setup();
    if (mode == "run") return perfbench::run_sweeps(w, seconds);
    if (mode == "traced") {
      if (scratch.empty()) usage("traced needs --scratch");
      return perfbench::run_traced(w, scratch);
    }
    usage("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 1;
  }
}
