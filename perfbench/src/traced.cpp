// Traced mode: where a sweep's host time goes, layer by layer, measured from
// outside the simulator.
//
// Per workload:
//  1. The sweep runs once through sim::run_sweep with the wall-clock trace
//     on (one span per cell task); run.py reads the spans for the sim.*
//     metrics. Its outcomes stay in the memo cache as the reference results.
//  2. Record. Every cell is re-executed by a replica of the memory system and
//     core scheduler built only from the layers' public objects: L1/L2 as
//     cache::SetAssocCache, cache::BankGroup, the technique's
//     edram::RefreshPolicy + edram::RefreshEngine, profiler::ModuleProfiler,
//     core::EsteemController and mem::MainMemory. The references come from
//     trace::make_generator with cpu::System's splitmix64 seed chain. The
//     replica logs each layer's input (the calls it made, in order).
//  3. Replay through the system. Each workload's recorded streams are
//     written as trace files and replayed through cpu::System via
//     `trace:<file>` names, once, with the sweep's techniques taken in
//     rotation; the RawRunResult must equal the synthetic run's bit for bit.
//     The replica itself must match the synthetic run in every cell.
//  4. Replay layer by layer. Each layer's log is replayed into a fresh
//     instance of that layer alone, timed as one pass (no clock read per
//     call). The controller is the exception: it cannot run without the L2
//     and profiler state it reshapes, so its time is read around each
//     run_interval call during recording — one clock pair per interval.
//
// Sampled cells (the sampled-paper workload) are replicated with the SMARTS
// schedule of sampling/sampled_run.cpp for their first kSampledPeriods
// periods; their per-layer costs are scaled to the full run by executed
// references. Their trace-file fidelity check uses the exhaustive sweep
// scale (2M + 0.4M instructions) of the same cell, because a trace file
// cannot reproduce the generator's analytic skip.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "cache/bank.hpp"
#include "cache/cache.hpp"
#include "cache/module_map.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "cpu/system.hpp"
#include "edram/refresh_engine.hpp"
#include "edram/refresh_policy.hpp"
#include "energy/cacti_table.hpp"
#include "energy/energy_model.hpp"
#include "mem/main_memory.hpp"
#include "profiler/atd.hpp"
#include "profiler/leader_sets.hpp"
#include "refrint/rpv.hpp"
#include "sim/run_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/file_trace.hpp"
#include "trace/spec_profiles.hpp"

namespace perfbench {

using namespace esteem;
using trace::MemRef;

namespace {

/// Sampling periods of each sampled cell the replica executes.
constexpr std::uint64_t kSampledPeriods = 16;
/// Energy-model evaluations per cell in the energy pass.
constexpr int kEnergyEvals = 2000;

// ---------------------------------------------------------------- streams --

/// One core's reference stream, generated on demand and kept for the trace
/// file. Generation is timed per chunk, never per reference.
class RecordedStream {
 public:
  explicit RecordedStream(std::unique_ptr<trace::AccessGenerator> gen)
      : gen_(std::move(gen)) {}

  const MemRef& at(std::size_t i) {
    while (i >= refs_.size()) extend(i + 1);
    return refs_[i];
  }
  /// Generates until the stream covers `instr` instructions.
  void cover(std::uint64_t instr) {
    while (instr_ < instr) extend(refs_.size() + 1);
  }
  const std::vector<MemRef>& refs() const noexcept { return refs_; }
  double gen_seconds() const noexcept { return gen_s_; }

 private:
  void extend(std::size_t need) {
    const std::size_t target = std::max(need, refs_.size() + kChunk);
    const std::int64_t t0 = mono_ns();
    while (refs_.size() < target) {
      refs_.push_back(gen_->next());
      instr_ += refs_.back().gap + 1ULL;
    }
    gen_s_ += seconds_since(t0);
  }

  static constexpr std::size_t kChunk = 1 << 16;
  std::unique_ptr<trace::AccessGenerator> gen_;
  std::vector<MemRef> refs_;
  std::uint64_t instr_ = 0;
  double gen_s_ = 0.0;
};

/// Where a replica core pulls references from.
class RefSource {
 public:
  virtual ~RefSource() = default;
  virtual MemRef next() = 0;
  virtual void skip(std::uint64_t n_instr) = 0;
};

class StreamCursor final : public RefSource {
 public:
  explicit StreamCursor(RecordedStream& s) : s_(s) {}
  MemRef next() override { return s_.at(pos_++); }
  void skip(std::uint64_t) override {
    throw std::logic_error("recorded streams are exhaustive; no skip");
  }

 private:
  RecordedStream& s_;
  std::size_t pos_ = 0;
};

class LiveSource final : public RefSource {
 public:
  explicit LiveSource(std::unique_ptr<trace::AccessGenerator> g) : g_(std::move(g)) {}
  MemRef next() override { return g_->next(); }
  void skip(std::uint64_t n) override { g_->skip(n); }

 private:
  std::unique_ptr<trace::AccessGenerator> g_;
};

/// Per-core generators exactly as cpu::System seeds them.
std::vector<std::unique_ptr<trace::AccessGenerator>> make_generators(
    const SystemConfig& cfg, const trace::Workload& wl, std::uint64_t seed) {
  const trace::GeneratorContext ctx{cfg.l2.geom.sets(), cfg.l2.geom.line_bytes};
  std::uint64_t state = seed;
  std::vector<std::unique_ptr<trace::AccessGenerator>> out;
  for (const std::string& b : wl.benchmarks) {
    out.push_back(trace::make_generator(trace::profile_by_name(b), ctx, splitmix64(state)));
  }
  return out;
}

// ------------------------------------------------------------ layer logs --

struct L1Op {
  block_t block;
  cycle_t now;
  std::uint32_t core;
  std::uint8_t kind;  // 0 load, 1 store, 2 back-invalidate in every L1
};
struct L2Op {
  block_t block;  // resize: new active way count
  cycle_t now;
  std::uint32_t set;
  std::uint8_t kind;  // 0 load, 1 store, 2 resize_set
};
struct RefreshOp {
  cycle_t now;
  std::uint32_t set;
  std::uint32_t way;
  block_t block;
  std::uint8_t kind;  // 0 fill, 1 touch, 2 invalidate, 3 invalidate dirty, 4 advance
};
struct BankOp {
  cycle_t now;
  double lines;  // set_refresh_load only
  std::uint32_t set;
  std::uint8_t kind;  // 0 access, 1 set_refresh_load
};
struct ProfilerOp {
  std::uint32_t set;
  std::uint32_t lru_pos;
  std::uint8_t kind;  // 0 record_access, 1 record_hit, 2 clear
};
struct MemOp {
  cycle_t now;
  std::uint8_t kind;  // 0 read, 1 write
};

struct LayerLogs {
  std::vector<L1Op> l1;
  std::vector<L2Op> l2;
  std::vector<RefreshOp> refresh;
  std::vector<BankOp> bank;
  std::vector<ProfilerOp> profiler;
  std::vector<MemOp> mem;

  /// Empties every log but keeps the capacity for the next cell.
  void clear() {
    l1.clear();
    l2.clear();
    refresh.clear();
    bank.clear();
    profiler.clear();
    mem.clear();
  }
};

/// What the recording replica observed, for the replay checks.
struct ReplicaTotals {
  std::uint64_t refs = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;  // whole run, warm-up included
  std::uint64_t bank_accesses = 0, bank_wait = 0;
  std::uint64_t mm_read_latency = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t intervals = 0;
  double controller_s = 0.0;
  // Measurement window, as cpu::RawRunResult reports it.
  std::uint64_t m_demand_hits = 0, m_demand_misses = 0;
  std::uint64_t m_l2_hits = 0, m_l2_misses = 0;
  std::uint64_t m_refreshes = 0, m_mm_accesses = 0, m_transitions = 0;
  cycle_t m_wall_cycles = 0;
};

/// Forwards line events to the refresh policy and logs them.
class LoggingListener final : public cache::LineListener {
 public:
  LoggingListener(edram::RefreshPolicy& policy, std::vector<RefreshOp>& log)
      : policy_(policy), log_(log) {}
  void on_fill(std::uint32_t set, std::uint32_t way, block_t blk, cycle_t now) override {
    log_.push_back({now, set, way, blk, 0});
    policy_.on_fill(set, way, blk, now);
  }
  void on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) override {
    log_.push_back({now, set, way, 0, 1});
    policy_.on_touch(set, way, now);
  }
  void on_invalidate(std::uint32_t set, std::uint32_t way, bool dirty,
                     cycle_t now) override {
    log_.push_back({now, set, way, 0, static_cast<std::uint8_t>(dirty ? 3 : 2)});
    policy_.on_invalidate(set, way, dirty, now);
  }
  bool wants_touch() const noexcept override { return policy_.wants_touch(); }

 private:
  edram::RefreshPolicy& policy_;
  std::vector<RefreshOp>& log_;
};

std::unique_ptr<edram::RefreshPolicy> make_policy(const SystemConfig& cfg,
                                                  sim::Technique t) {
  const cycle_t retention = cfg.retention_cycles();
  switch (t) {
    case sim::Technique::BaselinePeriodicAll:
      return std::make_unique<edram::PeriodicAllPolicy>(cfg.l2.geom.lines(), retention);
    case sim::Technique::RefrintRPV:
      return std::make_unique<refrint::PolyphaseValidPolicy>(
          cfg.l2.geom.sets(), cfg.l2.geom.ways, cfg.edram.rpv_phases, retention);
    case sim::Technique::Esteem:
      return std::make_unique<edram::PeriodicValidPolicy>(retention);
    default:
      throw std::invalid_argument("traced mode covers baseline, rpv and esteem only");
  }
}

// ---------------------------------------------------------------- replica --

/// cpu::MemorySystem rebuilt from the layers' public objects, logging every
/// call it makes into them. Faults, cache decay and telemetry are not
/// replicated (the benchmark's configurations use none of them), nor is the
/// F_A integral (the energy pass evaluates the system run's counters).
class Replica {
 public:
  Replica(const SystemConfig& cfg, sim::Technique t, LayerLogs& logs)
      : cfg_(cfg),
        logs_(logs),
        l2_({cfg.l2.geom.sets(), cfg.l2.geom.ways}, "L2"),
        banks_(cfg.l2.banks, cfg.l2.geom.sets(), cfg.l2.refresh_occupancy_cycles,
               cfg.l2.access_occupancy_cycles, cfg.l2.queue_pressure),
        modules_(cfg.l2.geom.sets(), cfg.esteem.modules),
        mm_({cfg.mem.latency_cycles, cfg.mem_service_cycles()}),
        policy_(make_policy(cfg, t)),
        listener_(*policy_, logs.refresh),
        engine_(*policy_, &banks_, static_cast<double>(cfg.retention_cycles())) {
    if (cfg.faults.enabled) throw std::invalid_argument("traced mode needs faults off");
    for (std::uint32_t c = 0; c < cfg.ncores; ++c) {
      l1_.emplace_back(cache::CacheParams{cfg.l1.geom.sets(), cfg.l1.geom.ways},
                       "L1-" + std::to_string(c));
      l1_.back().set_lru_tracking(false);
    }
    if (t == sim::Technique::Esteem) {
      leaders_ = std::make_unique<profiler::LeaderSets>(
          l2_.sets(), cfg.esteem.sampling_ratio, modules_);
      profiler_ = std::make_unique<profiler::ModuleProfiler>(modules_, l2_.ways(),
                                                             *leaders_);
      controller_ = std::make_unique<core::EsteemController>(
          l2_, modules_, *leaders_, *profiler_, cfg.esteem);
      active_.resize(l2_.sets());
      for (std::uint32_t s = 0; s < l2_.sets(); ++s) active_[s] = l2_.active_ways(s);
    }
    l2_.set_listener(&listener_);
    l2_.set_lru_tracking(profiler_ != nullptr);
    sync_bank_load(0);
  }

  cycle_t access(std::uint32_t core, block_t block, bool is_store, cycle_t now) {
    ++accesses_since_tick_;
    ++totals.refs;
    logs_.l1.push_back({block, now, core, static_cast<std::uint8_t>(is_store ? 1 : 0)});
    const cache::AccessOutcome out = l1_[core].access(block, is_store, now);
    cycle_t latency = cfg_.l1.latency_cycles;
    if (!out.hit) {
      ++totals.l1_misses;
      latency += l2_access(block, false, now + latency, true);
      if (out.victim != kInvalidBlock && out.victim_dirty) {
        (void)l2_access(out.victim, true, now + latency, false);
      }
    }
    return latency;
  }

  void tick_interval(cycle_t now) {
    advance(now);
    const bool skip_gap = sampled_mode && accesses_since_tick_ == 0;
    accesses_since_tick_ = 0;
    if (controller_ && !skip_gap) {
      const std::int64_t t0 = mono_ns();
      const core::ReconfigResult r = controller_->run_interval(now, [&](block_t) {
        logs_.mem.push_back({now, 1});
        mm_.write(now);
      });
      totals.controller_s += seconds_since(t0);
      ++totals.intervals;
      transitions_ += r.transitions;
      logs_.profiler.push_back({0, 0, 2});  // run_interval clears the profiler
      for (std::uint32_t s = 0; s < l2_.sets(); ++s) {
        if (l2_.active_ways(s) == active_[s]) continue;
        active_[s] = l2_.active_ways(s);
        logs_.l2.push_back({active_[s], now, s, 2});
      }
    }
    sync_bank_load(now);
  }

  void reset_measurement(cycle_t now) {
    advance(now);
    l2_.reset_stats();
    mm_.reset_stats();
    demand_hits_ = demand_misses_ = transitions_ = 0;
    refresh_baseline_ = engine_.total_refreshes();
    measure_start_ = now;
    if (profiler_) {
      profiler_->clear();
      logs_.profiler.push_back({0, 0, 2});
    }
  }

  void finish(cycle_t now) {
    advance(now);
    totals.m_demand_hits = demand_hits_;
    totals.m_demand_misses = demand_misses_;
    totals.m_l2_hits = l2_.stats().hits;
    totals.m_l2_misses = l2_.stats().misses;
    totals.m_refreshes = engine_.total_refreshes() - refresh_baseline_;
    totals.m_mm_accesses = mm_.stats().reads + mm_.stats().writes;
    totals.m_transitions = transitions_;
    totals.m_wall_cycles = now - measure_start_;
    totals.refreshes = engine_.total_refreshes();
  }

  bool warming = false;
  bool sampled_mode = false;
  ReplicaTotals totals;

 private:
  void advance(cycle_t now) {
    logs_.refresh.push_back({now, 0, 0, 0, 4});
    engine_.advance(now);
  }

  void sync_bank_load(cycle_t now) {
    logs_.bank.push_back({now, policy_->refresh_lines_per_period(), 0, 1});
    engine_.sync_bank_load(now);
  }

  cycle_t l2_access(block_t block, bool is_store, cycle_t now, bool demand) {
    advance(now);
    const std::uint32_t set = l2_.set_index_of(block);
    if (profiler_) {
      logs_.profiler.push_back({set, 0, 0});
      profiler_->record_access(set);
    }
    cycle_t bank_wait = 0;
    if (!warming) {
      logs_.bank.push_back({now, 0.0, set, 0});
      bank_wait = banks_.access(set, now);
      ++totals.bank_accesses;
      totals.bank_wait += bank_wait;
    }
    logs_.l2.push_back({block, now, set, static_cast<std::uint8_t>(is_store ? 1 : 0)});
    const cache::AccessOutcome out = l2_.access(block, is_store, now);
    cycle_t latency = cfg_.l2.latency_cycles + bank_wait;
    if (out.hit) {
      ++totals.l2_hits;
      if (profiler_) {
        logs_.profiler.push_back({set, out.lru_pos, 1});
        profiler_->record_hit(set, out.lru_pos);
      }
      if (demand) ++demand_hits_;
    } else {
      ++totals.l2_misses;
      if (demand) {
        ++demand_misses_;
        if (warming) {
          latency += cfg_.mem.latency_cycles;
        } else {
          logs_.mem.push_back({now + latency, 0});
          const cycle_t mm = mm_.read(now + latency);
          totals.mm_read_latency += mm;
          latency += mm;
        }
      }
    }
    if (out.victim != kInvalidBlock) {
      if (out.victim_dirty && !warming) {
        logs_.mem.push_back({now + latency, 1});
        mm_.write(now + latency);
      }
      logs_.l1.push_back({out.victim, now, 0, 2});
      for (auto& l1 : l1_) l1.invalidate(out.victim, now);
    }
    return latency;
  }

  SystemConfig cfg_;
  LayerLogs& logs_;
  std::vector<cache::SetAssocCache> l1_;
  cache::SetAssocCache l2_;
  cache::BankGroup banks_;
  cache::ModuleMap modules_;
  mem::MainMemory mm_;
  std::unique_ptr<edram::RefreshPolicy> policy_;
  LoggingListener listener_;
  edram::RefreshEngine engine_;
  std::unique_ptr<profiler::LeaderSets> leaders_;
  std::unique_ptr<profiler::ModuleProfiler> profiler_;
  std::unique_ptr<core::EsteemController> controller_;
  std::vector<std::uint32_t> active_;
  std::uint64_t accesses_since_tick_ = 0;
  std::uint64_t demand_hits_ = 0, demand_misses_ = 0, transitions_ = 0;
  std::uint64_t refresh_baseline_ = 0;
  cycle_t measure_start_ = 0;
};

/// cpu::Core's clock and retirement rules over a RefSource.
struct ReplicaCore {
  std::uint32_t id = 0;
  RefSource* src = nullptr;
  block_t offset = 0;
  cycle_t cycles = 0;
  instr_t instret = 0;
  double carry = 0.0;
  std::uint64_t refs = 0;

  void step(Replica& mem) {
    const MemRef r = src->next();
    ++refs;
    cycles += r.gap;
    instret += r.gap;
    cycles += mem.access(id, r.block + offset, r.is_store, cycles);
    ++instret;
  }
  void advance_clock(instr_t n, double cpi) {
    const double due = static_cast<double>(n) * cpi + carry;
    const auto whole = static_cast<cycle_t>(due);
    carry = due - static_cast<double>(whole);
    cycles += whole;
  }
  void skip(instr_t n, double cpi) {
    src->skip(n);
    instret += n;
    advance_clock(n, cpi);
  }
  void step_warm(Replica& mem, double cpi) {
    const MemRef r = src->next();
    ++refs;
    const instr_t retired = static_cast<instr_t>(r.gap) + 1;
    instret += retired;
    advance_clock(retired, cpi);
    (void)mem.access(id, r.block + offset, r.is_store, cycles);
  }
};

std::vector<ReplicaCore> make_cores(std::vector<RefSource*> sources) {
  std::vector<ReplicaCore> cores(sources.size());
  for (std::size_t c = 0; c < sources.size(); ++c) {
    cores[c].id = static_cast<std::uint32_t>(c);
    cores[c].src = sources[c];
    cores[c].offset = static_cast<block_t>(c) << 44;
  }
  return cores;
}

cycle_t min_cycles(const std::vector<ReplicaCore>& cores) {
  cycle_t w = cores[0].cycles;
  for (const ReplicaCore& c : cores) w = std::min(w, c.cycles);
  return w;
}

/// cpu::System::run over the replica (exhaustive runs).
void replicate_exhaustive(Replica& mem, std::vector<ReplicaCore>& cores,
                          const sim::RunSpec& rs) {
  const cycle_t interval = rs.config.esteem.interval_cycles;
  const instr_t warmup = rs.warmup_instr_per_core;
  if (warmup > 0) {
    std::size_t cold = cores.size();
    std::vector<bool> warm(cores.size(), false);
    while (cold > 0) {
      std::size_t next = 0;
      for (std::size_t c = 1; c < cores.size(); ++c) {
        if (!warm[c] && (warm[next] || cores[c].cycles < cores[next].cycles)) next = c;
      }
      cores[next].step(mem);
      if (!warm[next] && cores[next].instret >= warmup) {
        warm[next] = true;
        --cold;
      }
    }
  }
  const cycle_t measure_start = min_cycles(cores);
  mem.reset_measurement(measure_start);
  const instr_t target = warmup + rs.instr_per_core;
  std::vector<bool> recorded(cores.size(), false);
  std::size_t unfinished = cores.size();
  cycle_t next_interval = measure_start + interval;
  while (unfinished > 0) {
    std::size_t next = 0;
    for (std::size_t c = 1; c < cores.size(); ++c) {
      if (cores[c].cycles < cores[next].cycles) next = c;
    }
    cores[next].step(mem);
    if (!recorded[next] && cores[next].instret >= target) {
      recorded[next] = true;
      --unfinished;
    }
    const cycle_t wall = min_cycles(cores);
    while (wall >= next_interval) {
      mem.tick_interval(next_interval);
      next_interval += interval;
    }
  }
  cycle_t wall_end = 0;
  for (const ReplicaCore& c : cores) wall_end = std::max(wall_end, c.cycles);
  mem.finish(wall_end);
}

/// sampling::run_sampled's segment schedule over the replica, for the first
/// `periods` periods.
void replicate_sampled(Replica& mem, std::vector<ReplicaCore>& cores,
                          const sim::RunSpec& rs, std::uint64_t periods) {
  const SamplingConfig& sc = rs.config.sampling;
  constexpr cycle_t kNever = std::numeric_limits<cycle_t>::max();
  const instr_t pre_skip =
      sc.period_instr - sc.window_instr - sc.detail_warm_instr - sc.ff_warm_instr;
  const std::size_t n = cores.size();
  const cycle_t interval = rs.config.esteem.interval_cycles;
  cycle_t next_tick = kNever;
  mem.sampled_mode = true;
  const auto pump = [&] {
    if (next_tick == kNever) return;
    const cycle_t w = min_cycles(cores);
    while (w >= next_tick) {
      mem.tick_interval(next_tick);
      next_tick += interval;
    }
  };
  const auto segment = [&](const std::vector<instr_t>& targets, bool warm,
                           const std::vector<double>& cpi) {
    std::vector<bool> done(n);
    std::size_t remaining = 0;
    for (std::size_t c = 0; c < n; ++c) {
      done[c] = cores[c].instret >= targets[c];
      if (!done[c]) ++remaining;
    }
    while (remaining > 0) {
      std::size_t next = n;
      for (std::size_t c = 0; c < n; ++c) {
        if (!done[c] && (next == n || cores[c].cycles < cores[next].cycles)) next = c;
      }
      if (warm) cores[next].step_warm(mem, cpi[next]);
      else cores[next].step(mem);
      if (cores[next].instret >= targets[next]) {
        done[next] = true;
        --remaining;
      }
      pump();
    }
  };
  const auto align = [&] {
    if (n < 2) return;
    cycle_t m = 0;
    for (const ReplicaCore& c : cores) m = std::max(m, c.cycles);
    for (ReplicaCore& c : cores) c.cycles = std::max(c.cycles, m);
  };

  std::vector<double> cpi(n, 1.0);
  const instr_t warm_tail = std::min(rs.warmup_instr_per_core, sc.cold_warm_instr);
  const instr_t warm_skip = rs.warmup_instr_per_core - warm_tail;
  if (warm_skip > 0) {
    for (ReplicaCore& c : cores) c.skip(warm_skip, 1.0);
  }
  if (warm_tail > 0) {
    mem.warming = true;
    segment(std::vector<instr_t>(n, rs.warmup_instr_per_core), true, cpi);
    mem.warming = false;
  }
  align();
  const cycle_t measure_start = min_cycles(cores);
  mem.reset_measurement(measure_start);
  next_tick = measure_start + interval;
  std::vector<instr_t> base(n), target(n), i0(n);
  std::vector<cycle_t> c0(n);
  std::vector<double> cpi_sum(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) base[c] = cores[c].instret;
  const std::uint64_t windows =
      std::min<std::uint64_t>(periods, rs.instr_per_core / sc.period_instr);
  for (std::uint64_t k = 0; k < windows; ++k) {
    for (std::size_t c = 0; c < n; ++c) {
      target[c] = base[c] + k * sc.period_instr + pre_skip;
      if (cores[c].instret < target[c]) {
        cores[c].skip(target[c] - cores[c].instret, cpi[c]);
      }
    }
    align();
    pump();
    mem.warming = true;
    for (std::size_t c = 0; c < n; ++c) target[c] += sc.ff_warm_instr;
    segment(target, true, cpi);
    mem.warming = false;
    align();
    for (std::size_t c = 0; c < n; ++c) target[c] += sc.detail_warm_instr;
    segment(target, false, cpi);
    for (std::size_t c = 0; c < n; ++c) {
      i0[c] = cores[c].instret;
      c0[c] = cores[c].cycles;
      target[c] += sc.window_instr;
    }
    segment(target, false, cpi);
    for (std::size_t c = 0; c < n; ++c) {
      cpi_sum[c] += static_cast<double>(cores[c].cycles - c0[c]) /
                    static_cast<double>(cores[c].instret - i0[c]);
      cpi[c] = cpi_sum[c] / static_cast<double>(k + 1);
    }
  }
  cycle_t wall_end = 0;
  for (const ReplicaCore& c : cores) wall_end = std::max(wall_end, c.cycles);
  mem.finish(wall_end);
}

// ---------------------------------------------------------- layer passes --

/// Host seconds each isolated layer pass took for one cell.
struct LayerTimes {
  double l1 = 0, l2 = 0, bank = 0, refresh = 0, profiler = 0, mem = 0, energy = 0;
};

/// Replays each log into a fresh instance of its layer alone; returns the
/// pass times, and appends a problem when a pass does not reproduce the
/// replica's counts.
LayerTimes replay_layers(const SystemConfig& cfg, sim::Technique t,
                         const LayerLogs& logs, const ReplicaTotals& tot,
                         const energy::EnergyModelParams& eparams,
                         const energy::EnergyCounters& counters,
                         std::vector<std::string>& problems, const std::string& cell) {
  LayerTimes out;
  const auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got != want) {
      problems.push_back(cell + ": " + what + " replay gave " + std::to_string(got) +
                         ", replica " + std::to_string(want));
    }
  };

  {  // L1: demand accesses plus the L2's back-invalidations.
    std::vector<cache::SetAssocCache> l1;
    for (std::uint32_t c = 0; c < cfg.ncores; ++c) {
      l1.emplace_back(cache::CacheParams{cfg.l1.geom.sets(), cfg.l1.geom.ways});
      l1.back().set_lru_tracking(false);
    }
    const std::int64_t t0 = mono_ns();
    for (const L1Op& op : logs.l1) {
      if (op.kind == 2) {
        for (auto& c : l1) c.invalidate(op.block, op.now);
      } else {
        (void)l1[op.core].access(op.block, op.kind == 1, op.now);
      }
    }
    out.l1 = seconds_since(t0);
    std::uint64_t misses = 0;
    for (const auto& c : l1) misses += c.stats().misses;
    expect("L1 miss", misses, tot.l1_misses);
  }
  {  // L2 tag array, with the controller's way decisions applied as logged.
    cache::SetAssocCache l2({cfg.l2.geom.sets(), cfg.l2.geom.ways});
    l2.set_lru_tracking(t == sim::Technique::Esteem);
    const std::int64_t t0 = mono_ns();
    for (const L2Op& op : logs.l2) {
      if (op.kind == 2) {
        l2.resize_set(op.set, static_cast<std::uint32_t>(op.block), op.now, nullptr);
      } else {
        (void)l2.access(op.block, op.kind == 1, op.now);
      }
    }
    out.l2 = seconds_since(t0);
    expect("L2 hit", l2.stats().hits, tot.l2_hits);
    expect("L2 miss", l2.stats().misses, tot.l2_misses);
  }
  {  // Bank timing.
    cache::BankGroup banks(cfg.l2.banks, cfg.l2.geom.sets(), cfg.l2.refresh_occupancy_cycles,
                           cfg.l2.access_occupancy_cycles, cfg.l2.queue_pressure);
    const double period = static_cast<double>(cfg.retention_cycles());
    std::uint64_t wait = 0;
    const std::int64_t t0 = mono_ns();
    for (const BankOp& op : logs.bank) {
      if (op.kind == 1) banks.set_refresh_load(op.lines, period, op.now);
      else wait += banks.access(op.set, op.now);
    }
    out.bank = seconds_since(t0);
    expect("bank wait", wait, tot.bank_wait);
  }
  {  // Refresh policy + engine, fed the L2's line events.
    std::unique_ptr<edram::RefreshPolicy> policy = make_policy(cfg, t);
    edram::RefreshEngine engine(*policy, nullptr, static_cast<double>(cfg.retention_cycles()));
    const std::int64_t t0 = mono_ns();
    for (const RefreshOp& op : logs.refresh) {
      switch (op.kind) {
        case 0: policy->on_fill(op.set, op.way, op.block, op.now); break;
        case 1: policy->on_touch(op.set, op.way, op.now); break;
        case 2: policy->on_invalidate(op.set, op.way, false, op.now); break;
        case 3: policy->on_invalidate(op.set, op.way, true, op.now); break;
        default: engine.advance(op.now); break;
      }
    }
    out.refresh = seconds_since(t0);
    expect("refresh", engine.total_refreshes(), tot.refreshes);
  }
  if (t == sim::Technique::Esteem) {  // Leader-set profiler.
    const cache::ModuleMap modules(cfg.l2.geom.sets(), cfg.esteem.modules);
    const profiler::LeaderSets leaders(cfg.l2.geom.sets(), cfg.esteem.sampling_ratio, modules);
    profiler::ModuleProfiler prof(modules, cfg.l2.geom.ways, leaders);
    const std::int64_t t0 = mono_ns();
    for (const ProfilerOp& op : logs.profiler) {
      if (op.kind == 0) prof.record_access(op.set);
      else if (op.kind == 1) prof.record_hit(op.set, op.lru_pos);
      else prof.clear();
    }
    out.profiler = seconds_since(t0);
  }
  {  // Main-memory channel.
    mem::MainMemory mm({cfg.mem.latency_cycles, cfg.mem_service_cycles()});
    std::uint64_t read_latency = 0;
    const std::int64_t t0 = mono_ns();
    for (const MemOp& op : logs.mem) {
      if (op.kind == 0) read_latency += mm.read(op.now);
      else mm.write(op.now);
    }
    out.mem = seconds_since(t0);
    expect("memory read latency", read_latency, tot.mm_read_latency);
  }
  {  // Energy model.
    double sink = 0.0;
    const std::int64_t t0 = mono_ns();
    for (int i = 0; i < kEnergyEvals; ++i) {
      energy::EnergyCounters c = counters;
      c.seconds += static_cast<double>(i) * 1e-12;  // defeat hoisting
      sink += energy::compute_energy(eparams, c).total_j();
    }
    out.energy = seconds_since(t0);
    if (!(sink > 0.0)) problems.push_back(cell + ": energy model returned no energy");
  }
  return out;
}

/// sim::run_experiment's energy parameters for a cell.
energy::EnergyModelParams energy_params(const SystemConfig& cfg) {
  energy::EnergyModelParams p;
  p.l2 = energy::l2_energy_params(cfg.l2.geom.size_bytes);
  p.refresh_scale = cfg.energy.refresh_scale;
  p.dyn_scale = cfg.energy.dyn_scale;
  p.l2.p_leak_watts *= cfg.energy.leak_scale;
  return p;
}

/// Replays `paths` through cpu::System; returns System::run seconds and
/// whether its RawRunResult equals `reference` bit for bit.
std::pair<double, bool> replay_system(const sim::RunSpec& rs,
                                      const std::vector<std::string>& paths,
                                      const sim::RunOutcome& reference) {
  std::vector<std::string> names;
  for (const std::string& p : paths) names.push_back("trace:" + p);
  cpu::System system(rs.config, rs.technique, names, rs.seed);
  cpu::RunOptions options;
  options.instr_per_core = rs.instr_per_core;
  options.warmup_instr_per_core = rs.warmup_instr_per_core;
  options.seed = rs.seed;
  const std::int64_t t0 = mono_ns();
  sim::RunOutcome replay;
  replay.raw = system.run(options);
  const double run_s = seconds_since(t0);
  replay.energy = reference.energy;
  sim::RunOutcome ref;
  ref.raw = reference.raw;
  ref.energy = reference.energy;
  return {run_s, sim::outcome_digest(replay) == sim::outcome_digest(ref)};
}

std::vector<std::string> write_traces(const std::vector<RecordedStream>& streams,
                                      const std::string& dir, const std::string& stem) {
  std::vector<std::string> paths;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    const std::string path = dir + "/" + stem + ".core" + std::to_string(c) + ".trace";
    trace::TraceFileWriter writer(path);
    for (const MemRef& r : streams[c].refs()) writer.write(r);
    writer.close();
    paths.push_back(path);
  }
  return paths;
}

/// Workload-level accumulators.
struct Sums {
  double gen_s = 0, gen_refs = 0;
  double skip_s = 0, skip_minstr = 0;
  double cell_refs = 0;  // executed references, full-run scale
  double hier_s = 0, hier_refs = 0;
  double l1_s = 0, l1_refs = 0, l1_misses = 0;
  double l2_s = 0, l2_acc = 0, l2_misses = 0;
  double bank_s = 0, bank_acc = 0, bank_wait = 0;
  double refresh_s = 0;
  double prof_s = 0, prof_acc = 0;
  double ctrl_s = 0, intervals = 0;
  double mem_s = 0, mem_ops = 0;
  double energy_s = 0, energy_evals = 0;
  double layer_s = 0;  // all layers, full-run scale
  double refreshes = 0, mm_accesses = 0, kinstr = 0, transitions = 0;
  double windows = 0, sampled_cells = 0, executed_pct = 0;
  std::uint64_t replay_cells = 0, replay_exact = 0, fidelity_required = 0;
  std::uint64_t replica_exact = 0;
  // Where the traced run's own time went.
  double record_phase_s = 0, layers_phase_s = 0, files_phase_s = 0, replay_phase_s = 0;

  /// Adds one cell's replica counts and layer pass times; `scale` converts
  /// the replayed portion to the full run.
  void add_cell(sim::Technique t, const ReplicaTotals& tot, const LayerTimes& lt,
                std::size_t mem_ops_logged, const cpu::RawRunResult& reference,
                double scale) {
    const double refs = static_cast<double>(tot.refs);
    cell_refs += refs * scale;
    l1_s += lt.l1;
    l1_refs += refs;
    l1_misses += static_cast<double>(tot.l1_misses);
    l2_s += lt.l2;
    l2_acc += static_cast<double>(tot.l2_hits + tot.l2_misses);
    l2_misses += static_cast<double>(tot.l2_misses);
    bank_s += lt.bank;
    bank_acc += static_cast<double>(tot.bank_accesses);
    bank_wait += static_cast<double>(tot.bank_wait);
    refresh_s += lt.refresh;
    if (t == sim::Technique::Esteem) {
      prof_s += lt.profiler;
      prof_acc += static_cast<double>(tot.l2_hits + tot.l2_misses);
      ctrl_s += tot.controller_s;
      intervals += static_cast<double>(tot.intervals);
      transitions += static_cast<double>(reference.mem_stats.reconfig_transitions);
    }
    mem_s += lt.mem;
    mem_ops += static_cast<double>(mem_ops_logged);
    energy_s += lt.energy;
    energy_evals += kEnergyEvals;
    layer_s += (lt.l1 + lt.l2 + lt.bank + lt.refresh + lt.profiler + lt.mem +
                tot.controller_s) * scale +
               lt.energy / kEnergyEvals;
    refreshes += static_cast<double>(reference.refreshes);
    mm_accesses += static_cast<double>(reference.counters.mm_accesses);
    kinstr += static_cast<double>(reference.total_instructions) * 1e-3;
  }
};

bool replica_matches(const ReplicaTotals& t, const cpu::RawRunResult& r, bool counts_only) {
  const bool counts = t.m_demand_hits == r.mem_stats.demand_l2_hits &&
                      t.m_demand_misses == r.mem_stats.demand_l2_misses &&
                      t.m_l2_hits == r.counters.l2_hits &&
                      t.m_l2_misses == r.counters.l2_misses;
  if (counts_only) return counts;
  return counts && t.m_refreshes == r.refreshes &&
         t.m_mm_accesses == r.counters.mm_accesses &&
         t.m_transitions == r.mem_stats.reconfig_transitions &&
         t.m_wall_cycles == r.wall_cycles;
}

/// Sampling bookkeeping of one sampled cell, plus the analytic skip timed as
/// one pass over a fresh generator (`gen`, the cell's single core). Returns
/// the factor from the replicated periods to the full run.
double account_sampled_cell(Sums& s, const sim::RunSpec& rs, const sim::RunOutcome& reference,
                            std::unique_ptr<trace::AccessGenerator> gen) {
  const SamplingConfig& sc = rs.config.sampling;
  const std::uint64_t windows = rs.instr_per_core / sc.period_instr;
  const double per_period =
      static_cast<double>(sc.ff_warm_instr + sc.detail_warm_instr + sc.window_instr);
  const instr_t warm_tail = std::min(rs.warmup_instr_per_core, sc.cold_warm_instr);
  const double executed_full = static_cast<double>(warm_tail) +
                               static_cast<double>(windows) * per_period;
  const double executed_replayed =
      static_cast<double>(warm_tail) +
      static_cast<double>(std::min(windows, kSampledPeriods)) * per_period;
  s.executed_pct += 100.0 * executed_full /
                    static_cast<double>(rs.instr_per_core + rs.warmup_instr_per_core);
  s.windows += static_cast<double>(reference.estimates.windows);
  ++s.sampled_cells;

  const instr_t pre_skip =
      sc.period_instr - sc.window_instr - sc.detail_warm_instr - sc.ff_warm_instr;
  const instr_t warm_skip = rs.warmup_instr_per_core - warm_tail;
  const std::int64_t t0 = mono_ns();
  gen->skip(warm_skip);
  for (std::uint64_t k = 0; k < windows; ++k) gen->skip(pre_skip);
  s.skip_s += seconds_since(t0);
  s.skip_minstr += static_cast<double>(warm_skip + windows * pre_skip) * 1e-6;
  return executed_full / executed_replayed;
}

/// Step 3 for one workload: writes its streams as trace files and replays
/// them through cpu::System with technique `t`, comparing against the
/// synthetic run. `replica_refs` is the references the replica consumed for
/// that cell (exhaustive workloads only).
void check_trace_replay(Sums& s, std::vector<std::string>& problems, const BenchWorkload& w,
                        const trace::Workload& wl, sim::Technique t,
                        std::vector<RecordedStream>& streams, double replica_refs,
                        const std::string& scratch) {
  const sim::SweepSpec& spec = w.spec;
  sim::RunSpec check = sim::sweep_run_spec(spec, wl, t);
  const bool sampled = check.config.sampling.enabled;
  if (sampled) {
    // Exhaustive sweep scale for the file check (see the file comment).
    check.config.sampling.enabled = false;
    check.instr_per_core = 2'000'000;
    check.warmup_instr_per_core = 400'000;
    for (auto& st : streams) st.cover(check.instr_per_core + check.warmup_instr_per_core + 1);
  }
  const std::int64_t files_t0 = mono_ns();
  const std::vector<std::string> paths = write_traces(streams, scratch, w.name + "." + wl.name);
  s.files_phase_s += seconds_since(files_t0);

  const std::int64_t replay_t0 = mono_ns();
  double stream_instr = 0.0, stream_refs = 0.0;
  for (const RecordedStream& st : streams) {
    s.gen_s += st.gen_seconds();
    s.gen_refs += static_cast<double>(st.refs().size());
    for (const MemRef& r : st.refs()) stream_instr += r.gap + 1.0;
    stream_refs += static_cast<double>(st.refs().size());
  }
  const std::shared_ptr<const sim::RunOutcome> ref =
      sampled ? std::make_shared<const sim::RunOutcome>(sim::run_experiment(check))
              : sim::RunCache::instance().get_or_run(check);
  const auto [run_s, same] = replay_system(check, paths, *ref);
  ++s.replay_cells;
  if (same) {
    ++s.replay_exact;
  } else {
    problems.push_back(wl.name + "/" + std::string(sim::to_string(t)) +
                       ": trace replay through cpu::System differs from the synthetic run");
  }
  s.hier_s += run_s;
  // References the replayed System consumed: the replica's count for
  // exhaustive cells; for the sampled workload's exhaustive-scale check,
  // its instructions at the stream's references per instruction.
  s.hier_refs += sampled ? static_cast<double>(check.config.ncores) *
                               static_cast<double>(check.instr_per_core +
                                                   check.warmup_instr_per_core) *
                               stream_refs / stream_instr
                         : replica_refs;
  for (const std::string& p : paths) std::filesystem::remove(p);
  s.replay_phase_s += seconds_since(replay_t0);
}

/// The per-layer metrics (all but the sim.* ones run.py derives from the
/// sweep's wall-clock trace).
std::string layer_metrics(const Sums& s, double simulate_s, double cells,
                          double ci_halfwidth_pp) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double e2e_ns_per_ref = ratio(simulate_s * 1e9, s.cell_refs);
  const double layer_ns_per_ref = ratio(s.layer_s * 1e9, s.cell_refs) +
                                  ratio(s.gen_s * 1e9, s.gen_refs) +
                                  ratio(s.skip_s * 1e9, s.cell_refs);
  return Json()
      .num("trace.gen_ns_per_ref", ratio(s.gen_s * 1e9, s.gen_refs))
      .num("trace.skip_ns_per_minstr", ratio(s.skip_s * 1e9, s.skip_minstr))
      .num("trace.refs_per_cell", s.cell_refs / cells)
      .num("cpu.hierarchy_ns_per_ref", ratio(s.hier_s * 1e9, s.hier_refs))
      .num("cache.l1_ns_per_ref", ratio(s.l1_s * 1e9, s.l1_refs))
      .num("cache.l1_miss_ratio", ratio(s.l1_misses, s.l1_refs))
      .num("cache.l2_ns_per_access", ratio(s.l2_s * 1e9, s.l2_acc))
      .num("cache.l2_miss_ratio", ratio(s.l2_misses, s.l2_acc))
      .num("cache.l2_accesses_per_kref", ratio(s.l2_acc * 1e3, s.l1_refs))
      .num("cache.bank_ns_per_access", ratio(s.bank_s * 1e9, s.bank_acc))
      .num("cache.bank_wait_cycles_per_access", ratio(s.bank_wait, s.l2_acc))
      .num("edram.refresh_ns_per_kref", ratio(s.refresh_s * 1e12, s.l1_refs))
      .num("edram.refreshes_per_kinstr", ratio(s.refreshes, s.kinstr))
      .num("profiler.ns_per_l2_access", ratio(s.prof_s * 1e9, s.prof_acc))
      .num("core.ns_per_interval", ratio(s.ctrl_s * 1e9, s.intervals))
      .num("core.transitions", s.transitions)
      .num("mem.ns_per_access", ratio(s.mem_s * 1e9, s.mem_ops))
      .num("mem.accesses_per_kinstr", ratio(s.mm_accesses, s.kinstr))
      .num("energy.ns_per_eval", ratio(s.energy_s * 1e9, s.energy_evals))
      .num("sampling.executed_instr_pct",
           s.sampled_cells > 0 ? s.executed_pct / s.sampled_cells : 100.0)
      .num("sampling.windows", ratio(s.windows, s.sampled_cells))
      .num("sampling.ci_halfwidth_pp", ci_halfwidth_pp)
      .num("layers.coverage_pct", 100.0 * ratio(layer_ns_per_ref, e2e_ns_per_ref))
      .done();
}

}  // namespace

int run_traced(const BenchWorkload& w, const std::string& scratch) {
  std::filesystem::create_directories(scratch);
  const sim::SweepSpec& spec = w.spec;
  std::vector<std::string> problems;

  // 1. The sweep, cold, with the wall-clock trace on.
  sim::RunCache::instance().set_disk_dir("");
  sim::RunCache::instance().clear();
  telemetry::profiler().reset();
  const std::string trace_path = scratch + "/" + w.name + ".sweep-trace.json";
  telemetry::TelemetryConfig tc;
  tc.trace_path = trace_path;
  telemetry::Telemetry::instance().configure(tc);
  const std::int64_t sweep_t0 = mono_ns();
  const sim::SweepResult result = sim::run_sweep(spec);
  const double sweep_wall = seconds_since(sweep_t0);
  const double simulate_s = telemetry::profiler().seconds("run.simulate");
  if (telemetry::Telemetry::instance().flush().trace_path.empty()) {
    problems.push_back("could not write " + trace_path);
  }
  telemetry::Telemetry::instance().configure({});
  const SweepCheck check = check_sweep(w, result);
  problems.insert(problems.end(), check.problems.begin(), check.problems.end());

  std::vector<sim::Technique> techniques{sim::Technique::BaselinePeriodicAll};
  techniques.insert(techniques.end(), spec.techniques.begin(), spec.techniques.end());
  const bool sampled = spec.config.sampling.enabled;
  Sums s;
  LayerLogs logs;

  for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
    const trace::Workload& wl = spec.workloads[wi];
    // Exhaustive cells share one recorded stream per core; sampled cells
    // pull live generators (the skip must run on the real generator) and
    // record an exhaustive-scale stream for the trace-file check.
    std::vector<RecordedStream> streams;
    for (auto& g : make_generators(spec.config, wl, spec.seed)) streams.emplace_back(std::move(g));
    std::vector<double> replica_refs;  // per technique

    // 2 + 4. Record every cell, then replay its layers one by one.
    for (const sim::Technique t : techniques) {
      const std::string cell = wl.name + "/" + std::string(sim::to_string(t));
      const sim::RunSpec rs = sim::sweep_run_spec(spec, wl, t);
      const auto reference = sim::RunCache::instance().get_or_run(rs);  // memo hit

      const std::int64_t record_t0 = mono_ns();
      logs.clear();
      Replica replica(rs.config, t, logs);
      std::vector<std::unique_ptr<RefSource>> sources;
      std::vector<RefSource*> raw_sources;
      for (std::size_t c = 0; c < streams.size(); ++c) {
        if (sampled) {
          sources.push_back(std::make_unique<LiveSource>(
              std::move(make_generators(spec.config, wl, spec.seed)[c])));
        } else {
          sources.push_back(std::make_unique<StreamCursor>(streams[c]));
        }
        raw_sources.push_back(sources.back().get());
      }
      std::vector<ReplicaCore> cores = make_cores(raw_sources);
      double scale = 1.0;
      if (sampled) {
        replicate_sampled(replica, cores, rs, kSampledPeriods);
        scale = account_sampled_cell(s, rs, *reference,
                                     std::move(make_generators(spec.config, wl, spec.seed)[0]));
      } else {
        replicate_exhaustive(replica, cores, rs);
        if (replica_matches(replica.totals, reference->raw, false)) ++s.replica_exact;
        // Single-core baseline/rpv L2 sequences do not depend on timing, so
        // the standalone L1->L2 counts must equal the system run's.
        if (spec.config.ncores == 1 && t != sim::Technique::Esteem) {
          ++s.fidelity_required;
          if (!replica_matches(replica.totals, reference->raw, true)) {
            problems.push_back(cell + ": L1->L2 replay hit/miss counts differ from the system run");
          }
        }
      }
      s.record_phase_s += seconds_since(record_t0);

      const std::int64_t layers_t0 = mono_ns();
      const LayerTimes lt = replay_layers(rs.config, t, logs, replica.totals,
                                          energy_params(rs.config), reference->raw.counters,
                                          problems, cell);
      s.layers_phase_s += seconds_since(layers_t0);
      s.add_cell(t, replica.totals, lt, logs.mem.size(), reference->raw, scale);
      replica_refs.push_back(static_cast<double>(replica.totals.refs));
    }

    // 3. One trace-file replay per stream (the streams now cover every
    //    technique of the workload), the techniques taken in rotation:
    //    parsing the text trace dominates a replay, and every cell was
    //    already checked against the replica.
    logs = LayerLogs{};  // release the largest buffers before the replay
    const std::size_t ti = wi % techniques.size();
    check_trace_replay(s, problems, w, wl, techniques[ti], streams, replica_refs[ti], scratch);
  }

  std::printf("%s\n",
              Json()
                  .str("workload", w.name)
                  .integer("seed", static_cast<std::int64_t>(spec.seed))
                  .integer("cells", static_cast<std::int64_t>(w.cells()))
                  .integer("threads", spec.threads)
                  .str("sweep_trace", trace_path)
                  .num("sweep_wall_s", sweep_wall)
                  .num("simulate_s", simulate_s)
                  .num("e2e_ns_per_ref", s.cell_refs > 0 ? simulate_s * 1e9 / s.cell_refs : 0.0)
                  .integer("replay_cells", static_cast<std::int64_t>(s.replay_cells))
                  .integer("replay_exact", static_cast<std::int64_t>(s.replay_exact))
                  .integer("l1_l2_checked_cells", static_cast<std::int64_t>(s.fidelity_required))
                  .integer("replica_exact_cells", static_cast<std::int64_t>(s.replica_exact))
                  .num("peak_rss_mb", peak_rss_mb())
                  .raw("phase_s", Json()
                                      .num("sweep", sweep_wall)
                                      .num("record", s.record_phase_s)
                                      .num("layers", s.layers_phase_s)
                                      .num("write_traces", s.files_phase_s)
                                      .num("system_replay", s.replay_phase_s)
                                      .done())
                  .num("esteem_saving_pct", check.esteem_saving_pct)
                  .num("paper_saving_pct", w.paper_saving_pct)
                  .integer("failed_cells", static_cast<std::int64_t>(check.failed_cells))
                  .raw("problems", string_array(problems))
                  .raw("digests", digests_json(check))
                  .raw("metrics", layer_metrics(s, simulate_s, static_cast<double>(w.cells()),
                                                check.ci_halfwidth_pp))
                  .done()
                  .c_str());
  return 0;
}

}  // namespace perfbench
