// Tests of the core's producer-thread reference pipeline (cpu::RefPrefetcher):
// a prefetching core consumes exactly the stream an inline core does, a
// generator failure surfaces at the reference where it happened, and the
// producer is always joined.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cpu/system.hpp"
#include "sim/experiment.hpp"
#include "sim/run_cache.hpp"
#include "trace/file_trace.hpp"
#include "trace/spec_profiles.hpp"

namespace esteem::cpu {
namespace {

// Same scaled-down configuration as test_system.cpp.
SystemConfig tiny(std::uint32_t ncores = 1) {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.ncores = ncores;
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 100'000;
  cfg.esteem.sampling_ratio = 32;
  cfg.esteem.a_min = 2;
  cfg.validate();
  return cfg;
}

void expect_same_flow(const FlowSnapshot& a, const FlowSnapshot& b) {
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.demand_hits, b.demand_hits);
  EXPECT_EQ(a.demand_misses, b.demand_misses);
  EXPECT_EQ(a.l2_writeback_accesses, b.l2_writeback_accesses);
  EXPECT_EQ(a.mm_reads, b.mm_reads);
  EXPECT_EQ(a.mm_writes, b.mm_writes);
  EXPECT_EQ(a.mm_writebacks, b.mm_writebacks);
  EXPECT_EQ(a.reconfig_writebacks, b.reconfig_writebacks);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.fa_cycles, b.fa_cycles);
}

/// Builds two copies of the same system, starts a producer on every core of
/// one of them, and steps both in lockstep (the core with the lowest clock
/// next, as System::run schedules): every core's clock must agree after
/// every step. Both then finish with System::run, which must give the same
/// result. Whole pipelined runs against the inline model's outputs are
/// checked by ModelCanary.OutcomeDigestsPinnedPerMemoVersion.
void expect_lockstep(const SystemConfig& cfg, Technique tech,
                     const std::vector<std::string>& benchmarks) {
  System piped(cfg, tech, benchmarks, 42);
  System inline_(cfg, tech, benchmarks, 42);
  for (Core& core : piped.cores()) {
    core.start_prefetch();
    ASSERT_TRUE(core.prefetching());
  }
  std::vector<Core>& a = piped.cores();
  std::vector<Core>& b = inline_.cores();
  // Several times around the ring of every core.
  const std::size_t steps = 6 * RefPrefetcher::kChunks * RefPrefetcher::kChunkRefs;
  for (std::size_t i = 0; i < steps; ++i) {
    std::size_t c = 0;
    for (std::size_t k = 1; k < a.size(); ++k) {
      if (a[k].cycles() < a[c].cycles()) c = k;
    }
    a[c].step(piped.memory());
    b[c].step(inline_.memory());
    ASSERT_EQ(a[c].cycles(), b[c].cycles()) << "core " << c << ", step " << i;
    ASSERT_EQ(a[c].instret(), b[c].instret()) << "core " << c << ", step " << i;
  }
  ASSERT_FALSE(b[0].prefetching());
  expect_same_flow(piped.memory().flow_snapshot(a[0].cycles()),
                   inline_.memory().flow_snapshot(b[0].cycles()));

  RunOptions opt;
  opt.instr_per_core = 200'000;
  opt.record_timeline = true;
  const RawRunResult ra = piped.run(opt);
  const RawRunResult rb = inline_.run(opt);
  EXPECT_EQ(ra.wall_cycles, rb.wall_cycles);
  EXPECT_EQ(ra.timeline.size(), rb.timeline.size());
  // Every field the memo cache stores, bit for bit.
  EXPECT_EQ(sim::outcome_digest(sim::RunOutcome{ra, {}, {}}),
            sim::outcome_digest(sim::RunOutcome{rb, {}, {}}));
}

TEST(Prefetch, PipelinedCoresMatchInlineForEveryTechnique) {
  for (const Technique tech :
       {Technique::BaselinePeriodicAll, Technique::Esteem, Technique::RefrintRPV}) {
    SCOPED_TRACE(static_cast<int>(tech));
    expect_lockstep(tiny(), tech, {"h264ref"});
  }
}

TEST(Prefetch, PipelinedDualCoreMatchesInline) {
  expect_lockstep(tiny(2), Technique::Esteem, {"gobmk", "nekbone"});
}

TEST(Prefetch, PipelinedTraceReplayMatchesInline) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("esteem_test_core_" + std::to_string(::getpid()) + ".etr"))
          .string();
  auto gen = trace::make_generator(trace::profile_by_name("gamess"), {1024, 64}, 11);
  // Shorter than the run, so the replay wraps (and chunks straddle the wrap).
  trace::record_trace(*gen, path, 30'000);
  expect_lockstep(tiny(), Technique::Esteem, {"trace:" + path});
  std::filesystem::remove(path);
}

TEST(Prefetch, SystemRunPrefetchesSyntheticStreamsOnly) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("esteem_test_core_only_" + std::to_string(::getpid()) + ".etr"))
          .string();
  auto gen = trace::make_generator(trace::profile_by_name("gamess"), {1024, 64}, 11);
  trace::record_trace(*gen, path, 1000);
  System system(tiny(2), Technique::BaselinePeriodicAll, {"gamess", "trace:" + path}, 1);
  RunOptions opt;
  opt.instr_per_core = 10'000;
  system.run(opt);
  EXPECT_EQ(system.cores()[0].prefetching(), std::thread::hardware_concurrency() > 1);
  // A trace held in memory costs a copy per reference: never worth a thread.
  EXPECT_FALSE(system.cores()[1].prefetching());
  std::filesystem::remove(path);
}

/// Emits `ok` references and then throws from next(); fill() is the
/// base-class default, so a failure inside a producer's batch must come out
/// at the exact reference.
class FailingGenerator final : public trace::AccessGenerator {
 public:
  explicit FailingGenerator(std::uint64_t ok) : ok_(ok) {}
  trace::MemRef next() override {
    if (n_ == ok_) throw std::runtime_error("generator failed at " + std::to_string(n_));
    return trace::MemRef{n_++ % 4096, 3, false};
  }

 private:
  std::uint64_t ok_;
  std::uint64_t n_ = 0;
};

/// Steps the core until it throws; returns how many steps succeeded.
std::uint64_t steps_until_failure(Core& core, MemorySystem& mem, std::string& what) {
  std::uint64_t steps = 0;
  try {
    for (;;) {
      core.step(mem);
      ++steps;
    }
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  return steps;
}

TEST(Prefetch, GeneratorFailureSurfacesAtTheSameReference) {
  constexpr std::uint64_t kChunk = RefPrefetcher::kChunkRefs;
  for (const std::uint64_t ok :
       {std::uint64_t{0}, std::uint64_t{1}, kChunk - 1, kChunk, kChunk + 1,
        3 * kChunk + 17, (RefPrefetcher::kChunks + 2) * kChunk}) {
    SCOPED_TRACE(ok);
    for (const bool prefetch : {false, true}) {
      MemorySystem mem(tiny(), Technique::BaselinePeriodicAll);
      Core core(0, std::make_unique<FailingGenerator>(ok), 0);
      if (prefetch) core.start_prefetch();
      std::string what;
      EXPECT_EQ(steps_until_failure(core, mem, what), ok);
      EXPECT_EQ(what, "generator failed at " + std::to_string(ok));
      EXPECT_EQ(core.instret(), ok * 4);  // gap 3 + the memory op
      // The failure sticks: the next step throws again instead of waiting.
      EXPECT_THROW(core.step(mem), std::runtime_error);
    }
  }
}

TEST(Prefetch, SkipThrowsOncePrefetching) {
  Core core(0, trace::make_generator(trace::profile_by_name("mcf"), {1024, 64}, 3), 0);
  core.skip(1000, 1.0);  // fine inline
  core.start_prefetch();
  EXPECT_THROW(core.skip(1000, 1.0), std::logic_error);
}

TEST(Prefetch, DestroyingASystemMidRunJoinsTheProducers) {
  // Right after start (the producer is mid-chunk) and after a few steps
  // (its ring is full and it is blocked): both must join promptly.
  for (const int steps : {0, 10, 20'000}) {
    System system(tiny(2), Technique::Esteem, {"gobmk", "nekbone"}, 5);
    for (Core& core : system.cores()) core.start_prefetch();
    for (int i = 0; i < steps; ++i) system.cores()[i % 2].step(system.memory());
  }
  // A run that finished leaves its producers blocked on a full ring.
  System system(tiny(), Technique::RefrintRPV, {"lbm"}, 5);
  RunOptions opt;
  opt.instr_per_core = 20'000;
  system.run(opt);
}

}  // namespace
}  // namespace esteem::cpu
