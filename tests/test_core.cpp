// Tests of the cores' reference streams (cpu::RefPrefetcher), threaded or
// inline: a core whose stream has a producer thread consumes exactly what a
// core with an inline stream does, also when the stream makes a sampled
// run's skips (cpu::SamplePlan); both give every reference and skip that a
// walk of the plan over the bare generator gives; a generator failure
// surfaces at the reference where it happened; a core that leaves its plan
// (or skips without one) is stopped; and the producer is always joined.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cpu/system.hpp"
#include "sampling/sampled_run.hpp"
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

/// Builds two copies of the same system, gives every core of one of them a
/// threaded stream (the other's build inline ones), and steps both in
/// lockstep (the core with the lowest clock next, as System::run
/// schedules): every core's clock must agree after every step. Both then
/// finish with System::run, which must give the same result. Whole runs
/// against the model's pinned outputs are checked by
/// ModelCanary.OutcomeDigestsPinnedPerMemoVersion.
void expect_lockstep(const SystemConfig& cfg, Technique tech,
                     const std::vector<std::string>& benchmarks) {
  System piped(cfg, tech, benchmarks, 42);
  System inline_(cfg, tech, benchmarks, 42);
  for (Core& core : piped.cores()) {
    core.start_stream(nullptr, true);
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
/// at the exact reference. With `long_every` > 0, reference n's gap is
/// n % 7, so the consumed instret sequence shows where in the stream a core
/// is, and every `long_every`-th gap is kLongGap, long enough to carry a
/// core past several sampling targets at once; otherwise every gap is 3.
/// skip() is the default too: it pulls references, so it fails as well when
/// it reaches reference `ok`.
class FailingGenerator final : public trace::AccessGenerator {
 public:
  static constexpr std::uint32_t kLongGap = 2500;
  explicit FailingGenerator(std::uint64_t ok, std::uint64_t long_every = 0)
      : ok_(ok), long_every_(long_every) {}
  trace::MemRef next() override {
    if (n_ == ok_) throw std::runtime_error("generator failed at " + std::to_string(n_));
    std::uint32_t gap = 3;
    if (long_every_ != 0) {
      gap = n_ % long_every_ == long_every_ - 1 ? kLongGap : static_cast<std::uint32_t>(n_ % 7);
    }
    return trace::MemRef{n_++ % 4096, gap, false};
  }

 private:
  std::uint64_t ok_;
  std::uint64_t long_every_;
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
      if (prefetch) core.start_stream(nullptr, true);
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
  // Only a sampling plan makes skips: without one a core never skips,
  // threaded or inline, whether or not it has stepped.
  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded);
    System piped(tiny(), Technique::Esteem, {"mcf"}, 3);
    System inline_(tiny(), Technique::Esteem, {"mcf"}, 3);
    Core& a = piped.cores()[0];
    Core& b = inline_.cores()[0];
    a.start_stream(nullptr, threaded);
    ASSERT_EQ(a.prefetching(), threaded);
    EXPECT_THROW(a.skip(1000, 1.0), std::logic_error);
    EXPECT_THROW(b.skip(1000, 1.0), std::logic_error);
    // The refused skips left the streams as they were.
    for (std::size_t i = 0; i < 2 * RefPrefetcher::kChunkRefs; ++i) {
      a.step(piped.memory());
      b.step(inline_.memory());
      ASSERT_EQ(a.cycles(), b.cycles()) << "step " << i;
      ASSERT_EQ(a.instret(), b.instret()) << "step " << i;
    }
    EXPECT_THROW(a.skip(1000, 1.0), std::logic_error);
  }
}

TEST(Prefetch, DestroyingASystemMidRunJoinsTheProducers) {
  // Right after start (the producer is mid-chunk) and after a few steps
  // (its ring is full and it is blocked): both must join promptly.
  for (const int steps : {0, 10, 20'000}) {
    System system(tiny(2), Technique::Esteem, {"gobmk", "nekbone"}, 5);
    for (Core& core : system.cores()) core.start_stream(nullptr, true);
    for (int i = 0; i < steps; ++i) system.cores()[i % 2].step(system.memory());
  }
  // A run that finished leaves its producers blocked on a full ring.
  System system(tiny(), Technique::RefrintRPV, {"lbm"}, 5);
  RunOptions opt;
  opt.instr_per_core = 20'000;
  system.run(opt);
}


// --- Sampled runs: the producer follows the run's SamplePlan. ---

/// A small sampling schedule (several windows in a few hundred thousand
/// instructions). With `overshoot`, each period's skip is one instruction,
/// so most segments overshoot the next skip target and no skip is made.
SamplingConfig small_sampling(bool overshoot) {
  SamplingConfig sc;
  sc.enabled = true;
  sc.window_instr = 2'000;
  sc.detail_warm_instr = 500;
  sc.ff_warm_instr = overshoot ? 500 : 5'000;
  sc.cold_warm_instr = 20'000;
  sc.period_instr = overshoot ? 3'001 : 50'000;
  return sc;
}

std::string temp_trace(const std::string& tag, std::uint64_t refs) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("esteem_test_core_" + tag + "_" + std::to_string(::getpid()) + ".etr"))
          .string();
  auto gen = trace::make_generator(trace::profile_by_name("gamess"), {1024, 64}, 11);
  trace::record_trace(*gen, path, refs);
  return path;
}

std::uint64_t sampled_digest(const sampling::SampledRunResult& r) {
  return sim::outcome_digest(sim::RunOutcome{r.raw, {}, r.estimates});
}

TEST(Prefetch, SampledRunMatchesInline) {
  for (const bool overshoot : {false, true}) {
    for (const std::uint32_t ncores : {1u, 2u}) {
      const std::vector<std::string> benchmarks =
          ncores == 1 ? std::vector<std::string>{"h264ref"}
                      : std::vector<std::string>{"gobmk", "nekbone"};
      for (const Technique tech :
           {Technique::BaselinePeriodicAll, Technique::Esteem, Technique::RefrintRPV}) {
        SCOPED_TRACE(std::to_string(ncores) + " core(s), technique " +
                     std::to_string(static_cast<int>(tech)) +
                     (overshoot ? ", overshooting segments" : ""));
        const SamplingConfig sc = small_sampling(overshoot);
        RunOptions opt;
        opt.instr_per_core = overshoot ? 60'000 : 250'000;
        opt.warmup_instr_per_core = 30'000;
        opt.record_timeline = true;
        // run_sampled builds the streams a core does not have yet, with this
        // same plan.
        const SamplePlan plan =
            make_sample_plan(sc, opt.instr_per_core, opt.warmup_instr_per_core);
        System piped(tiny(ncores), tech, benchmarks, 42);
        System inline_(tiny(ncores), tech, benchmarks, 42);
        for (std::uint32_t c = 0; c < ncores; ++c) {
          piped.cores()[c].start_stream(&plan, true);
          inline_.cores()[c].start_stream(&plan, false);
        }
        const sampling::SampledRunResult a = sampling::run_sampled(piped, opt, sc);
        const sampling::SampledRunResult b = sampling::run_sampled(inline_, opt, sc);
        for (std::uint32_t c = 0; c < ncores; ++c) {
          EXPECT_TRUE(piped.cores()[c].prefetching());
          EXPECT_FALSE(inline_.cores()[c].prefetching());
          EXPECT_EQ(piped.cores()[c].instret(), inline_.cores()[c].instret());
          EXPECT_EQ(piped.cores()[c].cycles(), inline_.cores()[c].cycles());
        }
        EXPECT_EQ(a.raw.wall_cycles, b.raw.wall_cycles);
        EXPECT_EQ(a.estimates.windows, b.estimates.windows);
        EXPECT_GT(a.raw.timeline.size(), 0u);
        // Every field the memo cache stores, estimates included, bit for bit.
        EXPECT_EQ(sampled_digest(a), sampled_digest(b));
      }
    }
  }
}

TEST(Prefetch, SampledRunKeepsTraceReplaysInline) {
  const std::string path = temp_trace("sampled_only", 1000);
  System system(tiny(2), Technique::Esteem, {"gamess", "trace:" + path}, 1);
  RunOptions opt;
  opt.instr_per_core = 250'000;
  opt.warmup_instr_per_core = 30'000;
  sampling::run_sampled(system, opt, small_sampling(false));
  EXPECT_EQ(system.cores()[0].prefetching(), std::thread::hardware_concurrency() > 1);
  EXPECT_FALSE(system.cores()[1].prefetching());
  std::filesystem::remove(path);
}

/// One core's run of a plan, as sampling::run_sampled drives it: its
/// (instret, cycles) after every step and skip, how many skips it made and
/// how many it found already passed, and the failure that stopped it.
struct PlanRun {
  std::vector<std::pair<instr_t, cycle_t>> points;
  std::uint64_t skips = 0;
  std::uint64_t passed = 0;
  std::string failure;
};

PlanRun follow_plan(Core& core, MemorySystem& mem, const SamplePlan& plan) {
  PlanRun run;
  const auto skip_to = [&](instr_t target) {
    if (core.instret() < target) {
      core.skip(target - core.instret(), 1.25);
      ++run.skips;
    } else {
      ++run.passed;
    }
    run.points.emplace_back(core.instret(), core.cycles());
  };
  const auto run_to = [&](instr_t target) {
    while (core.instret() < target) {
      core.step(mem);
      run.points.emplace_back(core.instret(), core.cycles());
    }
  };
  try {
    if (plan.warm_skip > 0) skip_to(plan.warm_skip);
    run_to(plan.warmup);
    const instr_t base = core.instret();
    for (std::uint64_t k = 0; k < plan.nwindows; ++k) {
      skip_to(plan.skip_target(base, k));
      run_to(plan.skip_target(base, k) + plan.span());
    }
    skip_to(plan.end(base));
  } catch (const std::runtime_error& e) {
    run.failure = e.what();
  }
  return run;
}

/// Plans over FailingGenerator streams (gaps 0-6, every 331st 2500
/// instructions): the first has windows of about a hundred
/// references, so long gaps carry a core past whole periods; the second
/// has windows longer than the ring, so chunks also end mid-window.
std::vector<SamplePlan> generator_plans() {
  SamplingConfig shortw = small_sampling(false);
  shortw.window_instr = 300;
  shortw.detail_warm_instr = 100;
  shortw.ff_warm_instr = 100;
  shortw.cold_warm_instr = 2'000;
  shortw.period_instr = 1'000;
  SamplingConfig longw = shortw;
  longw.window_instr = 40'000;
  longw.period_instr = 60'000;
  return {make_sample_plan(shortw, 600'000, 20'000),
          make_sample_plan(longw, 600'000, 20'000)};
}

/// A stream as its consumer sees it: the references in order, each skip
/// with the number of references before it, and the failure that ended it.
struct StreamLog {
  std::vector<trace::MemRef> refs;
  std::vector<std::pair<std::size_t, std::uint64_t>> skips;
  std::string failure;
};

bool same_refs(const std::vector<trace::MemRef>& a, const std::vector<trace::MemRef>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const trace::MemRef& x, const trace::MemRef& y) {
                      return x.block == y.block && x.gap == y.gap && x.is_store == y.is_store;
                    });
}

/// The plan walked over a bare generator with next() and skip() alone, by
/// SamplePlan's rules: a run of references stops at the first one that
/// reaches its target, and a skip is made only when the stream is short of
/// its target, by the distance to it.
StreamLog walk_plan(trace::AccessGenerator& gen, const SamplePlan& plan) {
  StreamLog log;
  instr_t instret = 0;
  const auto skip_to = [&](instr_t target) {
    if (instret >= target) return;
    gen.skip(target - instret);
    log.skips.emplace_back(log.refs.size(), target - instret);
    instret = target;
  };
  const auto run_to = [&](instr_t target) {
    while (instret < target) {
      log.refs.push_back(gen.next());
      instret += std::uint64_t{log.refs.back().gap} + 1;
    }
  };
  try {
    skip_to(plan.warm_skip);
    run_to(plan.warmup);
    const instr_t base = instret;
    for (std::uint64_t k = 0; k < plan.nwindows; ++k) {
      skip_to(plan.skip_target(base, k));
      run_to(plan.skip_target(base, k) + plan.span());
    }
    skip_to(plan.end(base));
  } catch (const std::runtime_error& e) {
    log.failure = e.what();
  }
  return log;
}

/// Drains `stream` at the skips `expected` makes: its chunks until the next
/// skip (no chunk may run past one), that skip, and so on, and then its
/// last references, up to its end or its failure. A skip the stream refuses, or a chunk
/// past a skip, ends the log with a failure.
StreamLog drain(RefPrefetcher& stream, const StreamLog& expected) {
  StreamLog log;
  try {
    for (const auto& [at, n] : expected.skips) {
      while (log.refs.size() < at) {
        const std::span<const trace::MemRef> chunk = stream.next_chunk();
        log.refs.insert(log.refs.end(), chunk.begin(), chunk.end());
        if (log.refs.size() > at) throw std::runtime_error("a chunk ran past a skip");
      }
      stream.take_skip(n);
      log.skips.emplace_back(at, n);
    }
    // The references after the last skip, up to the failure if one is due.
    while (log.refs.size() < expected.refs.size() || !expected.failure.empty()) {
      const std::span<const trace::MemRef> chunk = stream.next_chunk();
      log.refs.insert(log.refs.end(), chunk.begin(), chunk.end());
    }
    // The plan's end: nothing follows.
    EXPECT_THROW(stream.next_chunk(), std::logic_error);
  } catch (const std::runtime_error& e) {
    log.failure = e.what();
  } catch (const std::logic_error& e) {
    log.failure = std::string("refused: ") + e.what();
  }
  return log;
}

TEST(Prefetch, PlannedStreamMatchesAWalkOfTheTwinGenerator) {
  using Make = std::function<std::unique_ptr<trace::AccessGenerator>()>;
  struct Case {
    std::string name;
    SamplePlan plan;
    Make make;
  };
  std::vector<Case> cases;
  for (const SamplePlan& plan : generator_plans()) {
    const std::string period = "period " + std::to_string(plan.period);
    cases.push_back({period, plan, [] { return std::make_unique<FailingGenerator>(~0ULL, 331); }});
    // Failing in the warm-up skip, the warm tail, around chunk boundaries,
    // in a window and in a period's skip.
    for (const std::uint64_t ok : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2'000},
                                   std::uint64_t{RefPrefetcher::kChunkRefs},
                                   std::uint64_t{RefPrefetcher::kChunkRefs + 1},
                                   std::uint64_t{9'000}, std::uint64_t{40'000}}) {
      cases.push_back({period + ", failing at " + std::to_string(ok), plan,
                       [ok] { return std::make_unique<FailingGenerator>(ok, 331); }});
    }
  }
  for (const bool overshoot : {false, true}) {
    // A synthetic profile's analytic skip (InstructionMixer::skip).
    const SamplePlan plan =
        make_sample_plan(small_sampling(overshoot), overshoot ? 60'000 : 250'000, 30'000);
    cases.push_back({std::string("h264ref") + (overshoot ? ", overshooting" : ""), plan, [] {
                       return trace::make_generator(trace::profile_by_name("h264ref"),
                                                    {1024, 64}, 17);
                     }});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::unique_ptr<trace::AccessGenerator> twin = c.make();
    const StreamLog want = walk_plan(*twin, c.plan);
    if (want.failure.empty()) {
      ASSERT_GT(want.skips.size(), 2u);
    }
    for (const bool threaded : {false, true}) {
      SCOPED_TRACE(threaded ? "threaded" : "inline");
      const std::unique_ptr<trace::AccessGenerator> gen = c.make();
      RefPrefetcher stream(*gen, &c.plan, threaded);
      ASSERT_EQ(stream.threaded(), threaded);
      const StreamLog got = drain(stream, want);
      EXPECT_EQ(got.failure, want.failure);
      EXPECT_EQ(got.refs.size(), want.refs.size());
      EXPECT_TRUE(same_refs(got.refs, want.refs));
      EXPECT_TRUE(got.skips == want.skips);
    }
  }
}

TEST(Prefetch, PlannedSkipsMatchInlineWhereSegmentsOvershoot) {
  for (const SamplePlan& plan : generator_plans()) {
    SCOPED_TRACE(plan.period);
    MemorySystem mem_a(tiny(), Technique::BaselinePeriodicAll);
    MemorySystem mem_b(tiny(), Technique::BaselinePeriodicAll);
    Core piped(0, std::make_unique<FailingGenerator>(~0ULL, 331), 0);
    Core inline_(0, std::make_unique<FailingGenerator>(~0ULL, 331), 0);
    piped.start_stream(&plan, true);
    inline_.start_stream(&plan, false);
    ASSERT_TRUE(piped.prefetching());
    const PlanRun a = follow_plan(piped, mem_a, plan);
    const PlanRun b = follow_plan(inline_, mem_b, plan);
    EXPECT_EQ(a.failure, "");
    EXPECT_EQ(a.skips, b.skips);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_TRUE(a.points == b.points);
    EXPECT_GT(a.points.size(), 2 * RefPrefetcher::kChunks * RefPrefetcher::kChunkRefs);
    // Both branches ran: skips made, and targets a segment had overshot.
    EXPECT_GT(a.skips, 10u);
    if (plan.period == 1'000) {
      EXPECT_GT(a.passed, 10u);
    }
    // The producer stopped after the tail skip: nothing follows.
    EXPECT_THROW(piped.step(mem_a), std::logic_error);
  }
}

TEST(Prefetch, GeneratorFailureMidPlanSurfacesAtTheSameReference) {
  constexpr std::uint64_t kChunk = RefPrefetcher::kChunkRefs;
  const SamplePlan plan = generator_plans()[1];
  // In the warm-up skip (which pulls references), the warm tail, a window,
  // a period's skip, and around chunk boundaries.
  for (const std::uint64_t ok :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2'000}, kChunk - 1, kChunk,
        kChunk + 1, std::uint64_t{9'000}, std::uint64_t{20'000}, std::uint64_t{40'000}}) {
    SCOPED_TRACE(ok);
    MemorySystem mem_a(tiny(), Technique::BaselinePeriodicAll);
    MemorySystem mem_b(tiny(), Technique::BaselinePeriodicAll);
    Core piped(0, std::make_unique<FailingGenerator>(ok, 331), 0);
    Core inline_(0, std::make_unique<FailingGenerator>(ok, 331), 0);
    piped.start_stream(&plan, true);
    inline_.start_stream(&plan, false);
    const PlanRun a = follow_plan(piped, mem_a, plan);
    const PlanRun b = follow_plan(inline_, mem_b, plan);
    EXPECT_EQ(a.failure, "generator failed at " + std::to_string(ok));
    EXPECT_EQ(a.failure, b.failure);
    EXPECT_EQ(a.skips, b.skips);
    EXPECT_TRUE(a.points == b.points);
    // The failure sticks, whether the core steps or skips next.
    for (Core* core : {&piped, &inline_}) {
      EXPECT_THROW(core->step(mem_a), std::runtime_error);
      EXPECT_THROW(core->skip(10, 1.0), std::runtime_error);
    }
  }
}

TEST(Prefetch, LeavingThePlanThrows) {
  const SamplePlan plan = generator_plans()[0];
  ASSERT_GT(plan.warm_skip, 0u);
  using Action = std::function<void(Core&, MemorySystem&)>;
  // Each refused call leaves the stream as it was: a threaded and an inline
  // core then follow the plan exactly as an inline core that made the same
  // calls but that one.
  const auto expect_refused = [&plan](const Action& before, const Action& refused) {
    PlanRun runs[3];
    for (int mode = 0; mode < 3; ++mode) {  // threaded, inline, inline and not refused
      MemorySystem mem(tiny(), Technique::BaselinePeriodicAll);
      Core core(0, std::make_unique<FailingGenerator>(~0ULL), 0);
      core.start_stream(&plan, mode == 0);
      ASSERT_EQ(core.prefetching(), mode == 0);
      before(core, mem);
      if (mode < 2) {
        EXPECT_THROW(refused(core, mem), std::logic_error);
      }
      runs[mode] = follow_plan(core, mem, plan);
      EXPECT_EQ(runs[mode].failure, "");
    }
    EXPECT_TRUE(runs[0].points == runs[2].points);
    EXPECT_TRUE(runs[1].points == runs[2].points);
  };
  const Action start = [](Core&, MemorySystem&) {};
  const Action warm_skip = [&plan](Core& core, MemorySystem&) { core.skip(plan.warm_skip, 1.0); };
  const Action warmed = [&plan](Core& core, MemorySystem& mem) {
    core.skip(plan.warm_skip, 1.0);
    while (core.instret() < plan.warmup) core.step(mem);
  };
  {
    SCOPED_TRACE("a reference where the plan skips first");
    expect_refused(start, [](Core& core, MemorySystem& mem) { core.step(mem); });
  }
  {
    SCOPED_TRACE("a skip of another size");
    expect_refused(start, [&plan](Core& core, MemorySystem&) {
      core.skip(plan.warm_skip - 1, 1.0);
    });
  }
  {
    SCOPED_TRACE("a skip of another size after references");
    expect_refused(warmed, [&plan](Core& core, MemorySystem&) {
      const instr_t base = core.instret();
      core.skip(plan.skip_target(base, 0) - base + 1, 1.0);
    });
  }
  {
    SCOPED_TRACE("a skip with references left before it");
    expect_refused(
        [&plan](Core& core, MemorySystem& mem) {
          core.skip(plan.warm_skip, 1.0);
          core.step(mem);
        },
        [](Core& core, MemorySystem&) { core.skip(10, 1.0); });
  }
  {
    SCOPED_TRACE("a skip where the plan makes none");
    expect_refused(warm_skip, [&plan](Core& core, MemorySystem&) {
      core.skip(plan.warm_skip, 1.0);
    });
  }
  {  // a plan on a core that already ran
    MemorySystem mem(tiny(), Technique::BaselinePeriodicAll);
    Core core(0, std::make_unique<FailingGenerator>(~0ULL), 0);
    core.step(mem);
    EXPECT_THROW(core.start_stream(&plan, false), std::logic_error);
  }
}

}  // namespace
}  // namespace esteem::cpu
