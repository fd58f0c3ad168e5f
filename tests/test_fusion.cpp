// Tests of fused groups (sim::run_fused, cpu::run_fused and
// RunCache::get_or_run_group): the cells of a single-core workload that
// share one generated stream, fed to every cell's hierarchy chunk by chunk,
// give exactly the outcomes of separate runs; cells that cannot share a
// stream run alone; and a group that fails leaves the per-cell path intact.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "common/json.hpp"
#include "cpu/system.hpp"
#include "resilience/watchdog.hpp"
#include "sim/experiment.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/file_trace.hpp"
#include "trace/spec_profiles.hpp"

namespace esteem::sim {
namespace {

constexpr Technique kAllTechniques[] = {
    Technique::BaselinePeriodicAll, Technique::PeriodicValid, Technique::RefrintRPV,
    Technique::RefrintRPD,          Technique::SmartRefresh,  Technique::EccExtended,
    Technique::CacheDecay,          Technique::Esteem};

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
  return cfg;
}

RunSpec spec_for(const std::string& benchmark, Technique technique, std::uint64_t seed,
                 bool faults = false) {
  RunSpec spec;
  spec.config = tiny();
  spec.config.faults.enabled = faults;
  spec.config.faults.sigma = 0.5;
  spec.technique = technique;
  spec.workload = {benchmark, {benchmark}};
  spec.seed = seed;
  spec.instr_per_core = 100'000;
  spec.warmup_instr_per_core = 20'000;
  return spec;
}

/// One spec per technique over the same stream.
std::vector<RunSpec> group_for(const std::string& benchmark, std::uint64_t seed,
                               bool faults = false) {
  std::vector<RunSpec> specs;
  for (const Technique t : kAllTechniques) specs.push_back(spec_for(benchmark, t, seed, faults));
  return specs;
}

void expect_solo_digests(const std::vector<RunSpec>& specs,
                         const std::vector<RunOutcome>& fused) {
  ASSERT_EQ(fused.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(outcome_digest(fused[i]), outcome_digest(run_experiment(specs[i])))
        << "cell " << i << " (" << to_string(specs[i].technique) << ")";
  }
}

/// Passes `inner`'s references through and throws from next() at reference
/// `ok`, as a failing generator does.
class FailAfter final : public trace::AccessGenerator {
 public:
  FailAfter(std::unique_ptr<trace::AccessGenerator> inner, std::uint64_t ok)
      : inner_(std::move(inner)), ok_(ok) {}
  trace::MemRef next() override {
    if (n_ == ok_) throw std::runtime_error("stream failed at " + std::to_string(n_));
    ++n_;
    return inner_->next();
  }

 private:
  std::unique_ptr<trace::AccessGenerator> inner_;
  std::uint64_t ok_;
  std::uint64_t n_ = 0;
};

/// Fed Systems for `specs`, each with its options.
struct Group {
  explicit Group(const std::vector<RunSpec>& specs) {
    for (const RunSpec& s : specs) {
      systems.push_back(std::make_unique<cpu::System>(s.config, s.technique, s.workload.benchmarks,
                                                      s.seed, cpu::CoreStreams::Fed));
      cpu::FusedCell cell;
      cell.system = systems.back().get();
      cell.options.instr_per_core = s.instr_per_core;
      cell.options.warmup_instr_per_core = s.warmup_instr_per_core;
      cells.push_back(cell);
    }
  }
  std::vector<std::unique_ptr<cpu::System>> systems;
  std::vector<cpu::FusedCell> cells;
};

TEST(Fusion, GroupMatchesSoloRunsForEveryTechnique) {
  for (const char* benchmark : {"gamess", "mcf", "h264ref"}) {
    for (const std::uint64_t seed : {42ULL, 7ULL}) {
      SCOPED_TRACE(std::string(benchmark) + " seed " + std::to_string(seed));
      std::vector<RunSpec> specs = group_for(benchmark, seed);
      specs[7].record_timeline = true;  // per-cell options stay per cell
      expect_solo_digests(specs, run_fused(specs));
    }
  }
}

TEST(Fusion, GroupMatchesSoloRunsWithFaultInjection) {
  for (const std::uint64_t seed : {42ULL, 7ULL}) {
    SCOPED_TRACE(seed);
    const std::vector<RunSpec> specs = group_for("omnetpp", seed, /*faults=*/true);
    const std::vector<RunOutcome> fused = run_fused(specs);
    expect_solo_digests(specs, fused);
    std::uint64_t corrected = 0;
    for (const RunOutcome& o : fused) corrected += o.raw.faults.corrected_reads;
    EXPECT_GT(corrected, 0u);  // the injector was live
  }
}

TEST(Fusion, GroupWithoutWarmupAndGroupOfOneMatchSoloRuns) {
  std::vector<RunSpec> specs = group_for("bzip2", 3);
  for (RunSpec& s : specs) s.warmup_instr_per_core = 0;
  expect_solo_digests(specs, run_fused(specs));
  const std::vector<RunSpec> one{spec_for("bzip2", Technique::Esteem, 3)};
  expect_solo_digests(one, run_fused(one));
}

TEST(Fusion, InlineAndPipelinedStreamsGiveTheSameResults) {
  const std::vector<RunSpec> specs = group_for("gobmk", 11);
  std::vector<std::uint64_t> digests[2];
  for (const bool pipelined : {false, true}) {
    const RunSpec& first = specs.front();
    auto stream = cpu::make_core_stream(stream_of(first), 0);
    Group g(specs);
    std::vector<cpu::FusedCell>& cells = g.cells;
    cpu::run_fused(cells, *stream, pipelined);
    for (const cpu::FusedCell& c : cells) {
      digests[pipelined].push_back(outcome_digest(RunOutcome{c.result, {}, {}}));
      EXPECT_GT(c.seconds, 0.0);
    }
  }
  EXPECT_EQ(digests[0], digests[1]);
  // The raw results of solo runs, bit for bit.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    cpu::System solo(specs[i].config, specs[i].technique, specs[i].workload.benchmarks,
                     specs[i].seed);
    cpu::RunOptions opt;
    opt.instr_per_core = specs[i].instr_per_core;
    opt.warmup_instr_per_core = specs[i].warmup_instr_per_core;
    EXPECT_EQ(digests[0][i], outcome_digest(RunOutcome{solo.run(opt), {}, {}})) << i;
  }
}

TEST(Fusion, ResumableRunFedOneReferenceAtATimeMatchesRun) {
  const RunSpec spec = spec_for("libquantum", Technique::Esteem, 5);
  cpu::System fed(spec.config, spec.technique, spec.workload.benchmarks, spec.seed,
                  cpu::CoreStreams::Fed);
  cpu::RunOptions opt;
  opt.instr_per_core = spec.instr_per_core;
  opt.warmup_instr_per_core = spec.warmup_instr_per_core;
  EXPECT_THROW(fed.run(opt), std::logic_error);  // only run_fused runs a fed System
  auto stream = cpu::make_core_stream(stream_of(spec), 0);
  fed.begin(opt);
  EXPECT_THROW(fed.finish(), std::logic_error);
  std::uint64_t used = 0;
  trace::MemRef ref;
  do {
    ref = stream->next();
    fed.cores()[0].feed({&ref, 1});
    ++used;
  } while (!fed.advance());
  EXPECT_EQ(outcome_digest(RunOutcome{fed.finish(), {}, {}}),
            outcome_digest(RunOutcome{cpu::System(spec.config, spec.technique,
                                                  spec.workload.benchmarks, spec.seed)
                                          .run(opt),
                                      {}, {}}));

  // A stream that fails right after the last reference the run uses does
  // not fail the group, inline or pipelined; one reference earlier, every
  // cell fails with the stream's own error, as each solo run would.
  const std::vector<RunSpec> specs = group_for("libquantum", 5);
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined);
    {
      Group g(specs);
      FailAfter late(cpu::make_core_stream(stream_of(spec), 0),
                     used);
      cpu::run_fused(g.cells, late, pipelined);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(outcome_digest(RunOutcome{g.cells[i].result, {}, {}}),
                  outcome_digest(RunOutcome{run_experiment(specs[i]).raw, {}, {}}));
      }
    }
    Group g(specs);
    FailAfter early(cpu::make_core_stream(stream_of(spec), 0),
                    used - 1);
    try {
      cpu::run_fused(g.cells, early, pipelined);
      ADD_FAILURE() << "the group outran its stream";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "stream failed at " + std::to_string(used - 1));
    }
  }
}

TEST(Fusion, CellsThatWouldEndApartThrow) {
  std::vector<RunSpec> specs = group_for("mcf", 1);
  specs.resize(2);
  auto stream = cpu::make_core_stream(stream_of(specs[0]), 0);
  for (const std::size_t longer : {0, 1}) {  // either cell may be the one that runs on
    Group g(specs);
    g.cells[longer].options.instr_per_core += 50'000;
    try {
      cpu::run_fused(g.cells, *stream, true);
      ADD_FAILURE() << "cells of different budgets fused";
    } catch (const std::logic_error& e) {
      EXPECT_EQ(std::string(e.what()), "run_fused: the cells ended on different references");
    }
  }

  // Generated (not fed) or multi-core Systems are not cells.
  cpu::System generated(specs[0].config, specs[0].technique, specs[0].workload.benchmarks, 1);
  std::vector<cpu::FusedCell> bad{{&generated, {}, {}, 0.0}};
  EXPECT_THROW(cpu::run_fused(bad, *stream, true), std::invalid_argument);
}

TEST(Fusion, EachCellRecordsItsOwnSimulatePhase) {
  const std::vector<RunSpec> specs = group_for("gamess", 2);
  auto count = [] {
    for (const telemetry::PhaseProfiler::Phase& p : telemetry::profiler().rollup()) {
      if (p.name == "run.simulate") return p.count;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = count();
  (void)run_fused(specs);
  EXPECT_EQ(count() - before, specs.size());
}

TEST(Fusion, EachCellWritesItsOwnIntervalSeries) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("esteem_test_fusion_tel_" + std::to_string(::getpid())))
          .string();
  std::vector<RunSpec> specs{spec_for("mcf", Technique::BaselinePeriodicAll, 4),
                             spec_for("mcf", Technique::Esteem, 4),
                             spec_for("mcf", Technique::RefrintRPV, 4)};
  for (RunSpec& s : specs) s.instr_per_core = 300'000;  // several intervals
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  telemetry::TelemetryConfig tcfg;
  tcfg.interval_stats = true;
  tcfg.dir = dir;
  telemetry::Telemetry& tel = telemetry::Telemetry::instance();
  tel.configure(tcfg);
  (void)run_fused(specs);
  std::vector<std::string> fused;
  for (const RunSpec& s : specs) fused.push_back(slurp(tel.interval_series_path(run_label(s))));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    (void)run_experiment(specs[i]);
    EXPECT_FALSE(fused[i].empty()) << i;
    EXPECT_EQ(fused[i], slurp(tel.interval_series_path(run_label(specs[i])))) << i;
  }
  tel.configure({});
  std::filesystem::remove_all(dir);
}

RunSpec dual_spec(Technique t) {
  RunSpec spec = spec_for("gobmk", t, 42);
  spec.config = tiny(2);
  spec.workload = {"GkNe", {"gobmk", "namd"}};
  return spec;
}

RunSpec sampled_spec(Technique t) {
  RunSpec spec = spec_for("mcf", t, 42);
  spec.config.sampling.enabled = true;
  spec.config.sampling.window_instr = 2'000;
  spec.config.sampling.detail_warm_instr = 500;
  spec.config.sampling.ff_warm_instr = 5'000;
  spec.config.sampling.cold_warm_instr = 20'000;
  spec.config.sampling.period_instr = 50'000;
  spec.instr_per_core = 200'000;
  return spec;
}

TEST(Fusion, MultiCoreSampledAndTraceSpecsRunAsGroupsOfOne) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("esteem_test_fusion_" + std::to_string(::getpid()) + ".etr"))
                               .string();
  auto gen = trace::make_generator(trace::profile_by_name("gamess"), {1024, 64}, 11);
  trace::record_trace(*gen, path, 30'000);
  const auto trace_spec = [&](Technique t) {
    RunSpec spec = spec_for("gamess", t, 42);
    spec.workload = {"replay", {"trace:" + path}};
    return spec;
  };

  for (const auto& make : {std::function<RunSpec(Technique)>(dual_spec),
                           std::function<RunSpec(Technique)>(sampled_spec),
                           std::function<RunSpec(Technique)>(trace_spec)}) {
    std::vector<RunSpec> specs;
    for (const Technique t :
         {Technique::BaselinePeriodicAll, Technique::Esteem, Technique::RefrintRPV}) {
      specs.push_back(make(t));
    }
    SCOPED_TRACE(specs[0].workload.name);
    EXPECT_FALSE(fusable(specs[0]));
    EXPECT_THROW(run_fused(specs), std::invalid_argument);
    RunCache cache;
    const auto outcomes = cache.get_or_run_group(specs);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(outcome_digest(*outcomes[i]), outcome_digest(run_experiment(specs[i]))) << i;
    }
    EXPECT_EQ(cache.stats().misses, specs.size());
  }
  std::filesystem::remove(path);
}

TEST(Fusion, StreamInputsMustMatch) {
  const RunSpec a = spec_for("gamess", Technique::Esteem, 42);
  EXPECT_TRUE(fusable(a));
  EXPECT_TRUE(shares_stream(a, spec_for("gamess", Technique::RefrintRPV, 42)));
  RunSpec b = a;
  b.seed = 43;
  EXPECT_FALSE(shares_stream(a, b));
  b = spec_for("mcf", Technique::Esteem, 42);
  EXPECT_FALSE(shares_stream(a, b));
  b = a;
  b.config.l2.geom.size_bytes *= 2;  // more sets: another generator context
  EXPECT_FALSE(shares_stream(a, b));
  b = a;
  b.instr_per_core += 1;
  EXPECT_FALSE(shares_stream(a, b));
  b = a;
  b.warmup_instr_per_core += 1;
  EXPECT_FALSE(shares_stream(a, b));
  EXPECT_THROW(run_fused({a, spec_for("mcf", Technique::Esteem, 42)}), std::invalid_argument);
}

TEST(Fusion, MemoWithOneCellCachedFusesTheRest) {
  const std::vector<RunSpec> specs{spec_for("astar", Technique::BaselinePeriodicAll, 9),
                                   spec_for("astar", Technique::Esteem, 9),
                                   spec_for("astar", Technique::RefrintRPV, 9)};
  RunCache cache;
  const auto cached = cache.get_or_run(specs[1]);
  cache.reset_stats();
  const auto outcomes = cache.get_or_run_group(specs);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(outcomes[1], cached);  // shared, not recomputed
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(outcome_digest(*outcomes[i]), outcome_digest(run_experiment(specs[i]))) << i;
  }
  // Every outcome is now stored under its own spec.
  cache.reset_stats();
  for (std::size_t i = 0; i < specs.size(); ++i) EXPECT_EQ(cache.get_or_run(specs[i]), outcomes[i]);
  EXPECT_EQ(cache.stats().hits, specs.size());
}

TEST(Fusion, MemoFileForOneCellFusesTheRest) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("esteem_test_fusion_memo_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  const std::vector<RunSpec> specs{spec_for("astar", Technique::BaselinePeriodicAll, 8),
                                   spec_for("astar", Technique::Esteem, 8),
                                   spec_for("astar", Technique::RefrintRPV, 8)};
  {
    RunCache writer;
    writer.set_disk_dir(dir);
    (void)writer.get_or_run(specs[0]);  // the first key: owned and missing indices differ
  }
  RunCache cache;
  cache.set_disk_dir(dir);
  const auto outcomes = cache.get_or_run_group(specs);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.stats().disk_stores, 2u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(outcome_digest(*outcomes[i]), outcome_digest(run_experiment(specs[i]))) << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(Fusion, FailedGroupLeavesItsKeysUncached) {
  const std::vector<RunSpec> specs{spec_for("no-such-benchmark", Technique::BaselinePeriodicAll, 1),
                                   spec_for("no-such-benchmark", Technique::Esteem, 1)};
  RunCache cache;
  EXPECT_THROW(cache.get_or_run_group(specs), std::out_of_range);  // unknown benchmark
  EXPECT_EQ(cache.entries(), 0u);
}

std::vector<std::uint64_t> row_digests(const SweepResult& r) {
  std::vector<std::uint64_t> out;
  for (const WorkloadRow& row : r.rows) {
    for (const TechniqueComparison& c : row.comparisons) {
      out.push_back(std::hash<std::string>{}(row.workload));
      for (const double v : {c.energy_saving_pct, c.weighted_speedup, c.fair_speedup, c.rpki_base,
                             c.rpki_tech, c.mpki_base, c.mpki_tech, c.active_ratio_pct,
                             c.correction_rpki}) {
        out.push_back(std::bit_cast<std::uint64_t>(v));
      }
    }
  }
  return out;
}

/// Wall-clock spans ("X" events) of the trace recorded so far, by name.
std::vector<std::pair<std::string, std::pair<double, double>>> wall_spans() {
  std::ostringstream os;
  telemetry::trace_sink()->write_json(os);
  const std::optional<json::Value> doc = json::parse(os.str());
  std::vector<std::pair<std::string, std::pair<double, double>>> out;
  if (!doc) return out;
  const json::Value* events = doc->find("traceEvents");
  if (events == nullptr) return out;
  for (const json::Value& e : events->items) {
    const json::Value* ph = e.find("ph");
    if (ph == nullptr || ph->text != "X" || e.find("pid")->text != "2") continue;
    out.push_back({e.find("name")->text,
                   {std::stod(e.find("ts")->text), std::stod(e.find("dur")->text)}});
  }
  return out;
}

TEST(Fusion, CellSpansLastTheirOwnTimeInsideTheGroupSpan) {
  const std::vector<RunSpec> specs{spec_for("mcf", Technique::BaselinePeriodicAll, 6),
                                   spec_for("mcf", Technique::Esteem, 6),
                                   spec_for("mcf", Technique::RefrintRPV, 6)};
  telemetry::TelemetryConfig tcfg;
  tcfg.trace_path = "unused-trace.json";  // never flushed
  telemetry::Telemetry& tel = telemetry::Telemetry::instance();
  tel.configure(tcfg);
  const double before = telemetry::profiler().seconds("run.simulate");
  (void)run_fused(specs);
  const double simulate_us = (telemetry::profiler().seconds("run.simulate") - before) * 1e6;
  const auto spans = wall_spans();
  tel.configure({});

  const auto find = [&](const std::string& name) {
    for (const auto& [n, span] : spans) {
      if (n == name) return span;
    }
    ADD_FAILURE() << "no span " << name;
    return std::pair<double, double>{0.0, 0.0};
  };
  const auto [group_ts, group_dur] = find("fused mcf.s6");
  double cells_us = 0.0;
  double end = group_ts;
  for (const RunSpec& s : specs) {
    SCOPED_TRACE(run_label(s));
    const auto [ts, dur] = find("simulate " + run_label(s));
    EXPECT_GT(dur, 0.0);
    EXPECT_LE(dur, simulate_us + 1.0);  // at most its own run.simulate sample
    EXPECT_GE(ts + 0.01, end);          // no overlap with the cell before
    end = ts + dur;
    cells_us += dur;
  }
  EXPECT_LE(end, group_ts + group_dur + 0.01);  // nested in the group span
  EXPECT_NEAR(cells_us, simulate_us, 1.0);      // the cells' own time, not the group's
  EXPECT_LT(cells_us, group_dur);
}

TEST(Fusion, CellPastItsDeadlineFailsTheGroup) {
  std::vector<RunSpec> specs{spec_for("gamess", Technique::BaselinePeriodicAll, 3),
                             spec_for("gamess", Technique::Esteem, 3)};
  for (RunSpec& s : specs) {
    s.instr_per_core = 2'000'000;  // well over a millisecond per cell
    s.config.resilience.run_deadline_ms = 1;
  }
  EXPECT_THROW(run_fused(specs), resilience::DeadlineExceeded);
  RunCache cache;
  (void)cache.get_or_run(specs[0]);  // a solo run does not enforce the deadline
  EXPECT_THROW(cache.get_or_run_group(specs), resilience::DeadlineExceeded);
  EXPECT_EQ(cache.entries(), 1u);  // the one cell left still fused, and failed uncached
}

TEST(Fusion, SweepFusesWhileEveryThreadHasAWorkload) {
  EXPECT_TRUE(fuses_workload(1, 1));
  EXPECT_TRUE(fuses_workload(34, 1));
  EXPECT_FALSE(fuses_workload(1, 4));  // one workload on four threads
  EXPECT_TRUE(fuses_workload(4, 4));
  EXPECT_FALSE(fuses_workload(3, 4));  // the last three spread their cells
}

TEST(Fusion, SweepRowsAndErrorsMatchThePerCellPath) {
  SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {{"gamess", {"gamess"}}, {"nope", {"no-such-benchmark"}}, {"mcf", {"mcf"}}};
  spec.techniques = {Technique::Esteem, Technique::RefrintRPV};
  spec.instr_per_core = 80'000;
  spec.warmup_instr_per_core = 10'000;
  telemetry::TelemetryConfig tcfg;
  tcfg.trace_path = "unused-trace.json";  // never flushed
  // Fused groups that completed, each one trace span: a failing group
  // leaves none.
  const auto sweep = [&](unsigned threads, std::size_t min_groups, std::size_t max_groups) {
    spec.threads = threads;
    RunCache::instance().clear();
    telemetry::Telemetry::instance().configure(tcfg);
    const SweepResult r = run_sweep(spec);
    std::size_t fused = 0;
    for (const auto& [name, span] : wall_spans()) fused += name.rfind("fused ", 0) == 0;
    telemetry::Telemetry::instance().configure({});
    EXPECT_GE(fused, min_groups) << threads << " threads";
    EXPECT_LE(fused, max_groups) << threads << " threads";
    EXPECT_EQ(RunCache::instance().stats().hits, 0u);  // one lookup per cell
    return r;
  };
  const SweepResult per_cell = sweep(8, 0, 0);  // a pool wider than the sweep
  // Serially, gamess and mcf fuse. On two threads the first two workloads
  // to start fuse, in an order the pool picks: one group if "nope" is among
  // them, else two.
  for (const auto& [threads, min_groups, max_groups] :
       {std::tuple{1u, 2u, 2u}, std::tuple{2u, 1u, 2u}}) {
    SCOPED_TRACE(threads);
    const SweepResult fused = sweep(threads, min_groups, max_groups);
    EXPECT_EQ(row_digests(fused), row_digests(per_cell));
    ASSERT_EQ(fused.errors.size(), 1u);
    ASSERT_EQ(per_cell.errors.size(), 1u);
    EXPECT_EQ(fused.errors[0].workload, "nope");
    EXPECT_EQ(fused.errors[0].technique, per_cell.errors[0].technique);
    EXPECT_EQ(fused.errors[0].what, per_cell.errors[0].what);
    EXPECT_TRUE(fused.rows[0].completed);
    EXPECT_FALSE(fused.rows[1].completed);
    EXPECT_TRUE(fused.rows[2].completed);
  }
  RunCache::instance().clear();
}

TEST(Fusion, FusedSweepKeepsTheRunDeadline) {
  SweepSpec spec;
  spec.config = tiny();
  spec.config.resilience.run_deadline_ms = 1;
  spec.workloads = {{"gamess", {"gamess"}}};
  spec.techniques = {Technique::Esteem};
  spec.instr_per_core = 2'000'000;  // well over a millisecond per cell
  for (const unsigned threads : {1u, 4u}) {  // fused, then per-cell
    SCOPED_TRACE(threads);
    spec.threads = threads;
    RunCache::instance().clear();
    const SweepResult r = run_sweep(spec);
    ASSERT_EQ(r.errors.size(), 1u);
    EXPECT_EQ(r.errors[0].phase, "deadline");
    EXPECT_EQ(r.errors[0].technique, "baseline");
    EXPECT_FALSE(r.rows[0].completed);
  }
  RunCache::instance().clear();
}

}  // namespace
}  // namespace esteem::sim
