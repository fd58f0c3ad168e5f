// Tests for the telemetry subsystem: counter registry (sharded merge
// exactness, duplicate-name rejection), interval recorder (row accounting,
// JSONL round-trip), trace emitter, phase profiler, and the hub's
// integration with the experiment layer — including the observer-effect
// guard (telemetry on vs. off must not change simulation results).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "telemetry/counter_registry.hpp"
#include "telemetry/export.hpp"
#include "telemetry/interval_recorder.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_emitter.hpp"

namespace esteem::telemetry {
namespace {

// ---------------------------------------------------------------------------
// CounterRegistry

TEST(CounterRegistry, ConcurrentShardMergeIsExact) {
  CounterRegistry reg;
  Counter hits = reg.counter("merge.hits");
  Histogram lat = reg.histogram("merge.latency");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 20'000;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        hits.add();
        lat.observe(i % 1000);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Addition commutes, so the merged totals are exact regardless of how the
  // threads' updates were striped over the shards.
  EXPECT_EQ(reg.value("merge.hits"), static_cast<double>(kThreads * kIters));
  double expect_sum = 0;
  for (std::uint64_t i = 0; i < kIters; ++i) expect_sum += static_cast<double>(i % 1000);
  expect_sum *= kThreads;
  for (const MetricSample& s : reg.snapshot()) {
    if (s.name != "merge.latency") continue;
    EXPECT_EQ(s.count, kThreads * kIters);
    EXPECT_EQ(s.value, expect_sum);
  }
}

TEST(CounterRegistry, DuplicateNameKindMismatchThrows) {
  CounterRegistry reg;
  Counter a = reg.counter("l2.miss");
  EXPECT_TRUE(a.bound());
  // Same name, same kind: idempotent — the second handle hits the same cell.
  Counter b = reg.counter("l2.miss");
  a.add(2);
  b.add(3);
  EXPECT_EQ(reg.value("l2.miss"), 5.0);
  EXPECT_EQ(reg.size(), 1u);
  // Same name, different kind: rejected.
  EXPECT_THROW((void)reg.gauge("l2.miss"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("l2.miss"), std::invalid_argument);
}

TEST(CounterRegistry, GaugeLastWriteWinsAndReset) {
  CounterRegistry reg;
  Gauge g = reg.gauge("esteem.module0.active_ways");
  g.set(16.0);
  g.set(3.0);
  EXPECT_EQ(reg.value("esteem.module0.active_ways"), 3.0);
  reg.reset();
  EXPECT_EQ(reg.value("esteem.module0.active_ways"), 0.0);
  g.set(7.5);  // handles survive reset
  EXPECT_EQ(reg.value("esteem.module0.active_ways"), 7.5);
}

TEST(CounterRegistry, HistogramBucketsByBitWidth) {
  CounterRegistry reg;
  Histogram h = reg.histogram("run.cycles");
  h.observe(0);     // bucket 0
  h.observe(1);     // bucket 1
  h.observe(2);     // bucket 2
  h.observe(3);     // bucket 2
  h.observe(1024);  // bit_width = 11
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const MetricSample& s = snap[0];
  EXPECT_EQ(s.kind, MetricKind::Histogram);
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.value, 1030.0);
  ASSERT_EQ(s.buckets.size(), 12u);  // trailing empties trimmed
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[11], 1u);
}

TEST(CounterRegistry, SnapshotIsNameSortedAndUnknownIsZero) {
  CounterRegistry reg;
  reg.counter("b.second").add(1);
  reg.counter("a.first").add(1);
  reg.counter("c.third").add(1);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "b.second");
  EXPECT_EQ(snap[2].name, "c.third");
  EXPECT_EQ(reg.value("no.such.metric"), 0.0);
}

TEST(CounterRegistry, DefaultHandlesAreInert) {
  Counter c;
  Gauge g;
  Histogram h;
  EXPECT_FALSE(c.bound());
  c.add(5);     // must not crash
  g.set(1.0);   // must not crash
  h.observe(9); // must not crash
}

TEST(CounterRegistry, GaugeLastWriteWinsAcrossThreads) {
  // Threads stripe over different shards, so "latest" cannot be read off any
  // single shard: the registry-wide write sequence decides. Writes are
  // serialized by join() here — only the shard placement varies.
  CounterRegistry reg;
  Gauge g = reg.gauge("fleet.phase");
  std::thread([&] { g.set(10.0); }).join();
  std::thread([&] { g.set(20.0); }).join();
  EXPECT_EQ(reg.value("fleet.phase"), 20.0);
  std::thread([&] { g.set(5.0); }).join();
  g.set(7.0);  // main thread last: its shard's write has the newest sequence
  EXPECT_EQ(reg.value("fleet.phase"), 7.0);
}

// ---------------------------------------------------------------------------
// Snapshot export codec (telemetry/export)

TEST(SnapshotExport, JsonlRoundTripIsByteIdentical) {
  CounterRegistry reg;
  // A counter total past 2^53 would be mangled by a double round-trip — the
  // codec must carry the exact integer (MetricSample::raw).
  reg.counter("svc.rows").add(0x8000000000000001ULL);
  reg.gauge("worker.rows_completed").set(1.0 / 3.0);
  Histogram h = reg.histogram("row.duration_ms");
  h.observe(0);
  h.observe(7);
  h.observe(123456);

  const Snapshot snap = take_snapshot(reg, 1722988800123, "w-1");
  EXPECT_EQ(snap.source, "w-1");
  ASSERT_EQ(snap.metrics.size(), 3u);

  const std::string text = encode_snapshot_jsonl(snap);
  Snapshot back;
  ASSERT_TRUE(decode_snapshot_jsonl(text, back));
  EXPECT_EQ(back.t_ms, snap.t_ms);
  EXPECT_EQ(back.source, snap.source);
  ASSERT_EQ(back.metrics.size(), snap.metrics.size());
  for (std::size_t i = 0; i < snap.metrics.size(); ++i) {
    EXPECT_EQ(back.metrics[i].name, snap.metrics[i].name);
    EXPECT_EQ(back.metrics[i].kind, snap.metrics[i].kind);
    EXPECT_EQ(back.metrics[i].raw, snap.metrics[i].raw);       // exact u64
    EXPECT_EQ(back.metrics[i].value, snap.metrics[i].value);   // %.17g exact
    EXPECT_EQ(back.metrics[i].count, snap.metrics[i].count);
    EXPECT_EQ(back.metrics[i].buckets, snap.metrics[i].buckets);
  }
  // The byte-identity pin: decode followed by encode reproduces the wire.
  EXPECT_EQ(encode_snapshot_jsonl(back), text);
}

TEST(SnapshotExport, DecodeRejectsMalformedInput) {
  CounterRegistry reg;
  reg.counter("a").add(1);
  reg.counter("b").add(2);
  const std::string text = encode_snapshot_jsonl(take_snapshot(reg, 50, "w"));
  Snapshot out;
  ASSERT_TRUE(decode_snapshot_jsonl(text, out));

  EXPECT_FALSE(decode_snapshot_jsonl("", out));
  // Drop the last metric line: header count no longer matches.
  const std::size_t cut = text.rfind("{\"name\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_FALSE(decode_snapshot_jsonl(text.substr(0, cut), out));
  // Trailing garbage after the declared metric count.
  EXPECT_FALSE(decode_snapshot_jsonl(text + "{\"name\":\"x\"}\n", out));
  // Foreign header kind.
  std::string wrong = text;
  wrong.replace(wrong.find("snapshot"), 8, "snapshut");
  EXPECT_FALSE(decode_snapshot_jsonl(wrong, out));
}

TEST(SnapshotExport, MergeSumsCountersAddsHistogramsLwwGauges) {
  CounterRegistry r1, r2;
  r1.counter("hits").add(5);
  r2.counter("hits").add(7);
  r1.gauge("ways").set(4.0);
  r2.gauge("ways").set(9.0);
  Histogram h1 = r1.histogram("lat");
  Histogram h2 = r2.histogram("lat");
  h1.observe(1);
  h2.observe(300);
  r2.counter("only.in.two").add(1);

  const Snapshot s1 = take_snapshot(r1, 100, "w1");
  const Snapshot s2 = take_snapshot(r2, 200, "w2");

  auto metric = [](const Snapshot& s, const std::string& name) {
    for (const MetricSample& m : s.metrics) {
      if (m.name == name) return m;
    }
    ADD_FAILURE() << "missing metric " << name;
    return MetricSample{};
  };

  const Snapshot m = merge_snapshots({s1, s2});
  EXPECT_EQ(m.source, "merged");
  EXPECT_EQ(m.t_ms, 200);
  EXPECT_EQ(metric(m, "hits").raw, 12u);                // counters sum
  EXPECT_EQ(metric(m, "ways").value, 9.0);              // newer snapshot wins
  EXPECT_EQ(metric(m, "lat").count, 2u);                // histograms add
  EXPECT_EQ(metric(m, "lat").raw, 301u);
  EXPECT_EQ(metric(m, "only.in.two").raw, 1u);          // union of names

  // LWW is by timestamp, not operand order: reversing the merge changes
  // nothing except nothing.
  const Snapshot rev = merge_snapshots({s2, s1});
  EXPECT_EQ(metric(rev, "ways").value, 9.0);
  EXPECT_EQ(encode_snapshot_jsonl(rev), encode_snapshot_jsonl(m));

  // Equal timestamps: the later operand wins (mirrors file order).
  CounterRegistry r3;
  r3.gauge("ways").set(1.5);
  const Snapshot s3 = take_snapshot(r3, 200, "w3");
  EXPECT_EQ(metric(merge_snapshots({s2, s3}), "ways").value, 1.5);
  EXPECT_EQ(metric(merge_snapshots({s3, s2}), "ways").value, 9.0);
}

TEST(SnapshotExport, MergeKindMismatchThrows) {
  CounterRegistry r1, r2;
  r1.counter("hits").add(1);
  r2.gauge("hits").set(2.0);
  const Snapshot s1 = take_snapshot(r1, 100, "w1");
  const Snapshot s2 = take_snapshot(r2, 200, "w2");
  EXPECT_THROW((void)merge_snapshots({s1, s2}), std::invalid_argument);
}

TEST(SnapshotExport, OpenMetricsExpositionPassesChecker) {
  CounterRegistry reg;
  reg.counter("memo.hits").add(12);
  reg.gauge("worker.rows_completed").set(3.0);
  Histogram h = reg.histogram("row.duration_ms");
  h.observe(0);
  h.observe(900);

  const std::string text = to_openmetrics(take_snapshot(reg, 77, "w"));
  std::string error;
  EXPECT_TRUE(check_openmetrics(text, error)) << error;

  // Name mangling and the mandated shapes.
  EXPECT_NE(text.find("# TYPE esteem_memo_hits counter"), std::string::npos);
  EXPECT_NE(text.find("esteem_memo_hits_total 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE esteem_worker_rows_completed gauge"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("esteem_row_duration_ms_count 2"), std::string::npos);
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST(SnapshotExport, OpenMetricsCheckerRejectsMalformed) {
  CounterRegistry reg;
  reg.counter("a").add(1);
  Histogram h = reg.histogram("lat");
  h.observe(1);
  h.observe(2);
  const std::string good = to_openmetrics(take_snapshot(reg, 1, "w"));
  std::string error;
  ASSERT_TRUE(check_openmetrics(good, error)) << error;

  // Missing terminal # EOF.
  EXPECT_FALSE(check_openmetrics(good.substr(0, good.size() - 6), error));
  EXPECT_FALSE(error.empty());

  // Re-declared family: duplicate TYPE blocks are an error.
  const std::string body = good.substr(0, good.size() - 6);
  EXPECT_FALSE(check_openmetrics(body + body + "# EOF\n", error));

  // _count disagreeing with the +Inf bucket breaks the histogram invariant.
  std::string torn = good;
  const std::size_t pos = torn.find("esteem_lat_count 2");
  ASSERT_NE(pos, std::string::npos);
  torn.replace(pos, 18, "esteem_lat_count 3");
  EXPECT_FALSE(check_openmetrics(torn, error));
}

// ---------------------------------------------------------------------------
// IntervalRecorder

TEST(IntervalRecorder, RowCountMatchesRecordedIntervals) {
  IntervalRecorder rec({"active_ratio", "demand_misses"});
  for (std::uint64_t i = 0; i < 37; ++i) {
    rec.record((i + 1) * 1000, {1.0 / static_cast<double>(i + 1), static_cast<double>(i)});
  }
  EXPECT_EQ(rec.rows(), 37u);
  EXPECT_EQ(rec.cycle(36), 37'000u);
  EXPECT_EQ(rec.series("demand_misses").size(), 37u);
  EXPECT_THROW((void)rec.series("bogus"), std::out_of_range);
  EXPECT_THROW(rec.record(99, {1.0}), std::invalid_argument);  // width mismatch
}

TEST(IntervalRecorder, JsonlRoundTripIsBitExact) {
  IntervalRecorder rec({"ratio", "huge", "tiny"});
  rec.record(100, {1.0 / 3.0, 1.2345678901234567e18, -7.02e-17});
  rec.record(200, {0.1, 0.0, 123456789.123456789});
  std::ostringstream out;
  rec.write_jsonl(out);

  std::istringstream in(out.str());
  const IntervalRecorder back = IntervalRecorder::read_jsonl(in);
  ASSERT_EQ(back.columns(), rec.columns());
  ASSERT_EQ(back.rows(), rec.rows());
  for (std::size_t r = 0; r < rec.rows(); ++r) {
    EXPECT_EQ(back.cycle(r), rec.cycle(r));
    for (std::size_t c = 0; c < rec.columns().size(); ++c) {
      // %.17g printing makes the round-trip exact, not approximate.
      EXPECT_EQ(back.value(r, c), rec.value(r, c));
    }
  }
}

TEST(IntervalRecorder, ReadJsonlRejectsMalformedInput) {
  std::istringstream missing_cycle(R"({"a":1})");
  EXPECT_THROW((void)IntervalRecorder::read_jsonl(missing_cycle), std::runtime_error);
  std::istringstream ragged(
      "{\"cycle\":1,\"a\":1}\n{\"cycle\":2,\"b\":1}\n");
  EXPECT_THROW((void)IntervalRecorder::read_jsonl(ragged), std::runtime_error);
}

TEST(IntervalRecorder, CsvHasHeaderAndRows) {
  IntervalRecorder rec({"x"});
  rec.record(10, {1.5});
  rec.record(20, {2.5});
  std::ostringstream out;
  rec.write_csv(out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "cycle,x");
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2);
}

// ---------------------------------------------------------------------------
// TraceEmitter / PhaseProfiler

TEST(TraceEmitter, EmitsChromeTraceEvents) {
  TraceEmitter tr;
  tr.set_process_name(TraceEmitter::kSimPid, "simulated time");
  tr.set_thread_name(TraceEmitter::kSimPid, 1, "mcf.esteem.s42");
  tr.complete(TraceEmitter::kSimPid, 1, "interval", 10.0, 5.0, "{\"hits\":12}");
  tr.instant(TraceEmitter::kSimPid, 1, "reconfig", 12.0);
  tr.counter(TraceEmitter::kSimPid, "active_ratio", 14.0, 0.25);
  EXPECT_EQ(tr.events(), 5u);

  std::ostringstream out;
  tr.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5"), std::string::npos);
  EXPECT_NE(json.find("\"hits\":12"), std::string::npos);
  EXPECT_NE(json.find("mcf.esteem.s42"), std::string::npos);

  // Quotes, backslashes and control characters must be escaped for embedding.
  EXPECT_EQ(TraceEmitter::json_escape("a\\b\"c\n"), "a\\\\b\\\"c\\n");
}

TEST(PhaseProfiler, ScopedTimerAccumulates) {
  PhaseProfiler prof;
  for (int i = 0; i < 3; ++i) {
    ScopedTimer t(prof, "phase.a");
  }
  {
    ScopedTimer t(prof, "phase.b");
    t.stop();
    t.stop();  // idempotent
  }
  const auto rollup = prof.rollup();
  ASSERT_EQ(rollup.size(), 2u);
  EXPECT_EQ(rollup[0].name, "phase.a");
  EXPECT_EQ(rollup[0].count, 3u);
  EXPECT_GE(rollup[0].seconds, 0.0);
  EXPECT_EQ(rollup[1].name, "phase.b");
  EXPECT_EQ(rollup[1].count, 1u);
  EXPECT_NE(prof.to_json().find("phase.a"), std::string::npos);
  prof.reset();
  EXPECT_TRUE(prof.rollup().empty());
}

// ---------------------------------------------------------------------------
// Hub + experiment integration

SystemConfig tiny() {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 50'000;
  cfg.esteem.sampling_ratio = 32;
  cfg.esteem.a_min = 2;
  return cfg;
}

trace::Workload wl(const std::string& name) { return {name, {name}}; }

// RAII guard: whatever a test configures, the process-global hub is off
// again afterwards so later tests see the default (disabled) state.
struct TelemetryGuard {
  ~TelemetryGuard() { Telemetry::instance().configure({}); }
};

TEST(TelemetryHub, DisabledByDefaultCreatesNoSink) {
  TelemetryGuard guard;
  Telemetry::instance().configure({});
  EXPECT_FALSE(active());
  EXPECT_EQ(trace_sink(), nullptr);
  auto sink = Telemetry::instance().begin_run("x", 2.0, interval_columns(0), 1);
  EXPECT_EQ(sink, nullptr);
}

TEST(TelemetryHub, SanitizeLabelAndColumns) {
  EXPECT_EQ(sanitize_label("mcf/esteem s42"), "mcf_esteem_s42");
  const auto cols = interval_columns(2);
  ASSERT_EQ(cols.size(), 10u);
  EXPECT_EQ(cols[0], "active_ratio");
  EXPECT_EQ(cols[8], "module0_active_ways");
  EXPECT_EQ(cols[9], "module1_active_ways");
}

// Acceptance criterion: a telemetry-enabled ESTEEM run writes a per-interval
// JSONL whose active-ways series matches the algorithm's own decisions (the
// RawRunResult timeline the paper's Figure 2 is drawn from).
TEST(TelemetryHub, IntervalSeriesMatchesAlgorithmTimeline) {
  TelemetryGuard guard;
  const std::string dir = "test_telemetry_out";
  std::filesystem::remove_all(dir);
  TelemetryConfig cfg;
  cfg.interval_stats = true;
  cfg.dir = dir;
  Telemetry::instance().configure(cfg);

  sim::RunSpec spec;
  spec.config = tiny();
  spec.technique = sim::Technique::Esteem;
  spec.workload = wl("mcf");
  spec.instr_per_core = 300'000;
  spec.warmup_instr_per_core = 50'000;
  spec.record_timeline = true;
  const sim::RunOutcome outcome = sim::run_experiment(spec);
  ASSERT_FALSE(outcome.raw.timeline.empty());

  const std::string path =
      Telemetry::instance().interval_series_path(sim::run_label(spec));
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  const IntervalRecorder rec = IntervalRecorder::read_jsonl(in);

  // One JSONL row per algorithm interval, at the same cycle boundaries.
  ASSERT_EQ(rec.rows(), outcome.raw.timeline.size());
  const std::uint32_t modules = spec.config.esteem.modules;
  for (std::size_t i = 0; i < rec.rows(); ++i) {
    const cpu::IntervalSample& s = outcome.raw.timeline[i];
    EXPECT_EQ(rec.cycle(i), s.cycle);
    EXPECT_EQ(rec.series("active_ratio")[i], s.active_ratio);
    ASSERT_EQ(s.module_ways.size(), modules);
    for (std::uint32_t m = 0; m < modules; ++m) {
      EXPECT_EQ(rec.series("module" + std::to_string(m) + "_active_ways")[i],
                static_cast<double>(s.module_ways[m]))
          << "interval " << i << " module " << m;
    }
  }
  std::filesystem::remove_all(dir);
}

// The cores' producer threads count chunks and waits into the registry only
// while telemetry is active, and the counters reach the OpenMetrics export.
TEST(TelemetryHub, PrefetchCountersReachOpenMetrics) {
  if (std::thread::hardware_concurrency() <= 1) {
    GTEST_SKIP() << "single hardware thread: cores generate inline";
  }
  TelemetryGuard guard;
  sim::RunSpec spec;
  spec.config = tiny();
  spec.technique = sim::Technique::Esteem;
  spec.workload = wl("gcc");
  spec.instr_per_core = 300'000;

  Telemetry::instance().configure({});
  registry().reset();
  sim::run_experiment(spec);
  EXPECT_EQ(registry().value("trace.prefetch.chunks"), 0.0);

  TelemetryConfig cfg;
  cfg.counters = true;
  Telemetry::instance().configure(cfg);
  registry().reset();
  sim::run_experiment(spec);
  // ~105k references in 4096-reference chunks, plus the ring's read-ahead.
  const double chunks = registry().value("trace.prefetch.chunks");
  EXPECT_GE(chunks, 10.0);
  EXPECT_LE(chunks, 40.0);
  // The wait counters depend on thread timing; they are registered (and
  // exported) whether or not either side ever waited.

  const std::string text = to_openmetrics(take_snapshot(registry(), 0, "test"));
  std::string error;
  EXPECT_TRUE(check_openmetrics(text, error)) << error;
  for (const char* family : {"esteem_trace_prefetch_chunks", "esteem_trace_prefetch_consumer_waits",
                             "esteem_trace_prefetch_producer_waits"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

// Observer-effect guard: running the same sweep with full telemetry enabled
// must produce a byte-identical CSV. Telemetry reads simulator state; it
// never perturbs it.
TEST(TelemetryHub, SweepCsvIsByteIdenticalWithTelemetryOn) {
  TelemetryGuard guard;
  const std::string dir = "test_telemetry_observer";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  sim::SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("gamess"), wl("gobmk")};
  spec.techniques = {sim::Technique::Esteem, sim::Technique::RefrintRPV};
  spec.instr_per_core = 100'000;
  spec.warmup_instr_per_core = 20'000;
  spec.threads = 2;

  auto sweep_to_csv = [&](const std::string& name) {
    // Clear the memo cache so both passes genuinely simulate.
    sim::RunCache::instance().clear();
    const sim::SweepResult result = sim::run_sweep(spec);
    EXPECT_TRUE(result.ok());
    const std::string path = dir + "/" + name;
    sim::write_csv(result, path);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  };

  Telemetry::instance().configure({});
  const std::string off = sweep_to_csv("off.csv");

  TelemetryConfig cfg;
  cfg.interval_stats = true;
  cfg.dir = dir;
  cfg.trace_path = dir + "/trace.json";
  Telemetry::instance().configure(cfg);
  const std::string on = sweep_to_csv("on.csv");

  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on);

  Telemetry::instance().configure({});
  sim::RunCache::instance().clear();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace esteem::telemetry
