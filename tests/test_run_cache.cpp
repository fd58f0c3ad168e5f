// Tests for the RunOutcome memo cache: fingerprint stability/sensitivity,
// hit-equals-fresh-run, exception semantics, and disk persistence.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/run_cache.hpp"

namespace esteem::sim {
namespace {

SystemConfig tiny() {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 100'000;
  cfg.esteem.sampling_ratio = 32;
  cfg.esteem.a_min = 2;
  return cfg;
}

RunSpec tiny_spec(const std::string& benchmark = "gamess",
                  Technique technique = Technique::Esteem) {
  RunSpec spec;
  spec.config = tiny();
  spec.technique = technique;
  spec.workload = {benchmark, {benchmark}};
  spec.instr_per_core = 120'000;
  spec.warmup_instr_per_core = 20'000;
  return spec;
}

void expect_same_outcome(const RunOutcome& a, const RunOutcome& b) {
  // Exact comparisons on purpose: the cache promises bit-identical results.
  EXPECT_EQ(a.raw.ipc, b.raw.ipc);
  EXPECT_EQ(a.raw.instr_per_core, b.raw.instr_per_core);
  EXPECT_EQ(a.raw.total_instructions, b.raw.total_instructions);
  EXPECT_EQ(a.raw.wall_cycles, b.raw.wall_cycles);
  EXPECT_EQ(a.raw.refreshes, b.raw.refreshes);
  EXPECT_EQ(a.raw.demand_misses, b.raw.demand_misses);
  EXPECT_EQ(a.raw.avg_active_ratio, b.raw.avg_active_ratio);
  EXPECT_EQ(a.raw.disabled_slots, b.raw.disabled_slots);
  EXPECT_EQ(a.raw.timeline.size(), b.raw.timeline.size());
  EXPECT_EQ(a.energy.leak_l2_j, b.energy.leak_l2_j);
  EXPECT_EQ(a.energy.dyn_l2_j, b.energy.dyn_l2_j);
  EXPECT_EQ(a.energy.refresh_l2_j, b.energy.refresh_l2_j);
  EXPECT_EQ(a.energy.ecc_l2_j, b.energy.ecc_l2_j);
  EXPECT_EQ(a.energy.mm_j, b.energy.mm_j);
  EXPECT_EQ(a.energy.algo_j, b.energy.algo_j);
}

TEST(RunCacheFingerprint, StableForEqualSpecs) {
  const RunSpec a = tiny_spec();
  const RunSpec b = tiny_spec();
  EXPECT_EQ(run_spec_fingerprint(a), run_spec_fingerprint(b));
  EXPECT_EQ(fingerprint_hash(run_spec_fingerprint(a)),
            fingerprint_hash(run_spec_fingerprint(b)));
}

TEST(RunCacheFingerprint, HashIsPinned) {
  // On-disk memo files are named by this hash: if the fingerprint bytes
  // move without a kMemoFormatVersion bump, every cached outcome is
  // silently orphaned.
  EXPECT_EQ(fingerprint_hash(run_spec_fingerprint(tiny_spec())), 0x0e6482720fbb27d4ULL);
}

TEST(RunCacheFingerprint, SensitiveToEveryRunKnob) {
  const std::string base = run_spec_fingerprint(tiny_spec());

  RunSpec s = tiny_spec();
  s.technique = Technique::RefrintRPV;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.seed = 43;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.instr_per_core += 1;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.warmup_instr_per_core += 1;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.record_timeline = true;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.workload.benchmarks[0] = "gobmk";
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.config.esteem.alpha += 0.01;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.config.edram.retention_us += 1.0;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.config.faults.enabled = !s.config.faults.enabled;
  EXPECT_NE(run_spec_fingerprint(s), base);
}

TEST(RunCache, HitIsIdenticalToFreshRun) {
  auto& cache = RunCache::instance();
  cache.set_disk_dir("");
  cache.clear();

  const RunSpec spec = tiny_spec();
  const RunOutcome fresh = run_experiment(spec);

  const auto first = run_experiment_cached(spec);
  const auto second = run_experiment_cached(spec);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());  // hit shares the same object
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.entries(), 1u);
  expect_same_outcome(*first, fresh);
}

TEST(RunCache, ExceptionsAreNotCached) {
  auto& cache = RunCache::instance();
  cache.set_disk_dir("");
  cache.clear();

  const RunSpec spec = tiny_spec("no-such-benchmark");
  EXPECT_ANY_THROW(run_experiment_cached(spec));
  EXPECT_ANY_THROW(run_experiment_cached(spec));  // retried, not poisoned
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(RunCacheDigest, StableAndSensitive) {
  const RunOutcome a = run_experiment(tiny_spec());
  const RunOutcome b = run_experiment(tiny_spec());
  EXPECT_EQ(outcome_digest(a), outcome_digest(b));  // deterministic simulator

  const RunOutcome other = run_experiment(tiny_spec("gamess", Technique::RefrintRPV));
  EXPECT_NE(outcome_digest(a), outcome_digest(other));
}

TEST(RunCache, DiskPersistenceRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "esteem-memo-test";
  fs::remove_all(dir);

  auto& cache = RunCache::instance();
  cache.clear();
  cache.set_disk_dir(dir.string());

  const RunSpec spec = tiny_spec("gobmk");
  const auto first = run_experiment_cached(spec);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.stats().disk_stores, 1u);
  ASSERT_FALSE(fs::is_empty(dir));

  cache.clear();  // drop the in-memory map; the memo file survives
  const auto reloaded = run_experiment_cached(spec);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  expect_same_outcome(*reloaded, *first);

  cache.set_disk_dir("");
  cache.clear();
  fs::remove_all(dir);
}

// Shared scaffolding for the self-healing tests: run once against a temp
// memo dir, hand the single memo file to `damage`, then re-run and assert
// the damaged file was quarantined and the outcome recomputed bit-exactly.
void expect_quarantine_heals(
    const std::string& scratch_name,
    const std::function<void(const std::filesystem::path&)>& damage) {
  namespace fs = std::filesystem;
  // Per-test scratch dir: ctest runs each case as its own process, possibly
  // concurrently, so a shared dir would be stomped mid-test.
  const fs::path dir = fs::temp_directory_path() / scratch_name;
  fs::remove_all(dir);

  auto& cache = RunCache::instance();
  cache.clear();
  cache.set_disk_dir(dir.string());

  const RunSpec spec = tiny_spec("libquantum");
  const auto first = run_experiment_cached(spec);
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(cache.stats().disk_stores, 1u);

  fs::path memo_file;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) memo_file = entry.path();
  }
  ASSERT_FALSE(memo_file.empty());
  damage(memo_file);

  cache.clear();  // force the next lookup through the damaged file
  const auto healed = run_experiment_cached(spec);
  ASSERT_NE(healed, nullptr);
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);  // damaged file never served
  EXPECT_EQ(cache.stats().disk_stores, 1u);  // recomputed and re-spilled
  expect_same_outcome(*healed, *first);

  // The damaged file was moved aside for post-mortem, not silently deleted
  // (its original path now holds the freshly recomputed memo).
  const fs::path corrupt_dir = dir / "corrupt";
  ASSERT_TRUE(fs::exists(corrupt_dir));
  EXPECT_FALSE(fs::is_empty(corrupt_dir));

  // The healed store is valid: a third process-restart-equivalent lookup
  // hits disk cleanly.
  cache.clear();
  const auto reloaded = run_experiment_cached(spec);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.stats().quarantined, 0u);
  expect_same_outcome(*reloaded, *first);

  cache.set_disk_dir("");
  cache.clear();
  fs::remove_all(dir);
}

TEST(RunCacheHealing, TruncatedMemoIsQuarantinedAndRecomputed) {
  expect_quarantine_heals("esteem-memo-heal-header", [](const std::filesystem::path& file) {
    std::filesystem::resize_file(file, 10);  // tears through the header
  });
}

TEST(RunCacheHealing, TruncatedPayloadFailsCrcAndHeals) {
  expect_quarantine_heals("esteem-memo-heal-payload", [](const std::filesystem::path& file) {
    const auto size = std::filesystem::file_size(file);
    ASSERT_GT(size, 100u);
    std::filesystem::resize_file(file, size - 17);  // header intact, payload torn
  });
}

TEST(RunCacheHealing, BitFlippedMemoIsQuarantinedAndRecomputed) {
  expect_quarantine_heals("esteem-memo-heal-bitflip", [](const std::filesystem::path& file) {
    std::fstream io(file, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(200, std::ios::beg);  // deep inside the CRC-protected payload
    char byte = 0;
    io.seekg(200, std::ios::beg);
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    io.seekp(200, std::ios::beg);
    io.write(&byte, 1);
  });
}

TEST(RunCacheHealing, BadMagicIsQuarantinedAndRecomputed) {
  expect_quarantine_heals("esteem-memo-heal-magic", [](const std::filesystem::path& file) {
    std::fstream io(file, std::ios::in | std::ios::out | std::ios::binary);
    const char garbage[8] = {'n', 'o', 't', 'a', 'm', 'e', 'm', 'o'};
    io.write(garbage, sizeof garbage);
  });
}

// Model canary: outcome digests of a few small runs covering the three
// sweep techniques, the dual-core lockstep scheduler and the sampling
// executor, pinned per memo format version. Any change to what the model
// computes moves a digest; it must come with a kMemoFormatVersion bump (so
// stale memo files read as misses) and a new row here.
struct CanaryCase {
  const char* name;
  RunSpec spec;
};

RunSpec canary_spec(const std::string& benchmark, Technique technique) {
  RunSpec spec = tiny_spec(benchmark, technique);
  spec.instr_per_core = 400'000;  // several reconfiguration intervals
  return spec;
}

std::vector<CanaryCase> canary_cases() {
  std::vector<CanaryCase> cases;
  cases.push_back({"baseline", canary_spec("h264ref", Technique::BaselinePeriodicAll)});
  cases.push_back({"esteem", canary_spec("h264ref", Technique::Esteem)});
  cases.push_back({"rpv", canary_spec("h264ref", Technique::RefrintRPV)});

  RunSpec dual = canary_spec("gobmk", Technique::Esteem);
  dual.config.ncores = 2;
  dual.workload = {"GkNe", {"gobmk", "namd"}};
  cases.push_back({"dual-esteem", dual});

  RunSpec sampled = canary_spec("mcf", Technique::Esteem);
  sampled.config.sampling.enabled = true;
  sampled.config.sampling.window_instr = 2'000;
  sampled.config.sampling.detail_warm_instr = 500;
  sampled.config.sampling.ff_warm_instr = 5'000;
  sampled.config.sampling.cold_warm_instr = 20'000;
  sampled.config.sampling.period_instr = 50'000;
  sampled.instr_per_core = 300'000;
  cases.push_back({"sampled-esteem", sampled});

  // The sampling executor's multicore path: per-core segment targets and
  // clock alignment at every boundary.
  RunSpec sampled_dual = sampled;
  sampled_dual.config.ncores = 2;
  sampled_dual.workload = {"GkNe", {"gobmk", "namd"}};
  cases.push_back({"sampled-dual-esteem", sampled_dual});
  return cases;
}

TEST(ModelCanary, OutcomeDigestsPinnedPerMemoVersion) {
  using Pins = std::map<std::string, std::uint64_t>;
  const std::map<std::uint32_t, Pins> pinned = {
      {4,
       {
           {"baseline", 0x16DC27630D69C24FULL},
           {"esteem", 0x8269CC48ADAEC6D6ULL},
           {"rpv", 0xC5244B6FC83C85C9ULL},
           {"dual-esteem", 0x91A832EE3D8615BCULL},
           {"sampled-esteem", 0x8629C9AD77E705CAULL},
           {"sampled-dual-esteem", 0xB160F339211C1B7CULL},
       }},
  };
  const auto version = pinned.find(kMemoFormatVersion);
  if (version == pinned.end()) {
    ADD_FAILURE() << "no canary digests for memo format v" << kMemoFormatVersion
                  << ": pin the ones printed below";
  }
  const Pins none;
  const Pins& pins = version == pinned.end() ? none : version->second;
  for (const CanaryCase& c : canary_cases()) {
    const std::uint64_t digest = outcome_digest(run_experiment(c.spec));
    const auto it = pins.find(c.name);
    if (it == pins.end()) {
      ADD_FAILURE() << "unpinned: {\"" << c.name << "\", 0x" << std::hex
                    << std::uppercase << digest << "ULL},";
      continue;
    }
    EXPECT_EQ(digest, it->second)
        << c.name << " moved (0x" << std::hex << std::uppercase << digest
        << "): the model's behaviour changed, so bump kMemoFormatVersion and pin the new "
           "digests under it";
  }
}

}  // namespace
}  // namespace esteem::sim
