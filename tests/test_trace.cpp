// Unit tests for src/trace: patterns, benchmark profiles, workload lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "trace/patterns.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/workloads.hpp"

namespace esteem::trace {
namespace {

const GeneratorContext kCtx{4096, 64};

TEST(Streaming, SequentialAndWraps) {
  StreamingPattern p(100, 4);
  EXPECT_EQ(p.next_block(), 100u);
  EXPECT_EQ(p.next_block(), 101u);
  EXPECT_EQ(p.next_block(), 102u);
  EXPECT_EQ(p.next_block(), 103u);
  EXPECT_EQ(p.next_block(), 100u);  // wrapped
}

TEST(Streaming, StrideRespected) {
  StreamingPattern p(0, 8, 2);
  EXPECT_EQ(p.next_block(), 0u);
  EXPECT_EQ(p.next_block(), 2u);
  EXPECT_EQ(p.next_block(), 4u);
  EXPECT_EQ(p.next_block(), 6u);
  EXPECT_EQ(p.next_block(), 0u);
}

TEST(Streaming, RejectsZeroStride) {
  EXPECT_THROW(StreamingPattern(0, 8, 0), std::invalid_argument);
}

TEST(RandomWorkingSet, StaysInBounds) {
  RandomWorkingSetPattern p(1000, 64, 8, 0.5, 42);
  for (int i = 0; i < 5000; ++i) {
    const block_t b = p.next_block();
    EXPECT_GE(b, 1000u);
    EXPECT_LT(b, 1064u);
  }
}

TEST(RandomWorkingSet, HotSubsetIsHot) {
  RandomWorkingSetPattern p(0, 1000, 10, 0.8, 42);
  int hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hot += (p.next_block() < 10);
  // P(block < 10) = 0.8 + 0.2 * 10/1000 = 0.802.
  EXPECT_NEAR(static_cast<double>(hot) / n, 0.802, 0.02);
}

TEST(PointerChase, FullCyclePermutation) {
  PointerChasePattern p(0, 64, 7);
  std::set<block_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(p.next_block());
  EXPECT_EQ(seen.size(), 64u);  // Hull-Dobell LCG visits every block once
  EXPECT_LT(*seen.rbegin(), 64u);
}

TEST(PointerChase, DeterministicPerSeed) {
  PointerChasePattern a(0, 128, 3), b(0, 128, 3), c(0, 128, 4);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const block_t x = a.next_block();
    EXPECT_EQ(x, b.next_block());
    any_diff |= (x != c.next_block());
  }
  EXPECT_TRUE(any_diff);
}

TEST(MultiScan, SweepsEachDepthRegion) {
  const GeneratorContext ctx{16, 64};
  MultiScanPattern p(0, {2, 3}, ctx, 1);
  // Depth 2: region of 32 blocks, then depth 3: region of 48 blocks.
  for (block_t i = 0; i < 32; ++i) EXPECT_EQ(p.next_block(), i);
  for (block_t i = 0; i < 48; ++i) EXPECT_EQ(p.next_block(), i);
  // Back to depth 2.
  EXPECT_EQ(p.next_block(), 0u);
}

TEST(MultiScan, RejectsBadDepths) {
  EXPECT_THROW(MultiScanPattern(0, {}, kCtx), std::invalid_argument);
  EXPECT_THROW(MultiScanPattern(0, {0}, kCtx), std::invalid_argument);
}

TEST(Mixture, RespectsWeights) {
  std::vector<std::unique_ptr<BlockPattern>> kids;
  kids.push_back(std::make_unique<StreamingPattern>(0, 1));      // always block 0
  kids.push_back(std::make_unique<StreamingPattern>(1000, 1));   // always block 1000
  MixturePattern p(std::move(kids), {0.9, 0.1}, 42);
  int first = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) first += (p.next_block() == 0);
  EXPECT_NEAR(static_cast<double>(first) / n, 0.9, 0.02);
}

TEST(Mixture, ValidatesInput) {
  std::vector<std::unique_ptr<BlockPattern>> kids;
  kids.push_back(std::make_unique<StreamingPattern>(0, 1));
  EXPECT_THROW(MixturePattern(std::move(kids), {0.5, 0.5}, 1), std::invalid_argument);
  std::vector<std::unique_ptr<BlockPattern>> kids2;
  kids2.push_back(std::make_unique<StreamingPattern>(0, 1));
  EXPECT_THROW(MixturePattern(std::move(kids2), {0.0}, 1), std::invalid_argument);
}

TEST(Phased, SwitchesChildren) {
  std::vector<std::unique_ptr<BlockPattern>> kids;
  kids.push_back(std::make_unique<StreamingPattern>(0, 1));
  kids.push_back(std::make_unique<StreamingPattern>(7, 1));
  PhasedPattern p(std::move(kids), 3);
  EXPECT_EQ(p.next_block(), 0u);
  EXPECT_EQ(p.next_block(), 0u);
  EXPECT_EQ(p.next_block(), 0u);
  EXPECT_EQ(p.next_block(), 7u);
  EXPECT_EQ(p.next_block(), 7u);
  EXPECT_EQ(p.next_block(), 7u);
  EXPECT_EQ(p.next_block(), 0u);  // round-robin back
}

TEST(NestedWorkingSet, LevelsAreNestedAndInnerHot) {
  // ws 1024, 3 levels at size ratio 0.25: levels of 1024, 256, 64 blocks.
  NestedWorkingSetPattern p(0, 1024, 3, 0.25, 3.0, 42);
  std::uint64_t inner = 0, mid = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const block_t b = p.next_block();
    ASSERT_LT(b, 1024u);
    inner += (b < 64);
    mid += (b < 256);
  }
  // Weights 1 : 3 : 9 -> inner level picked ~9/13 of the time, plus the
  // fraction of outer-level draws landing inside it.
  EXPECT_GT(static_cast<double>(inner) / n, 0.6);
  EXPECT_GT(mid, inner);
}

TEST(NestedWorkingSet, Validation) {
  EXPECT_THROW(NestedWorkingSetPattern(0, 64, 0, 0.5, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(NestedWorkingSetPattern(0, 64, 3, 1.5, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(NestedWorkingSetPattern(0, 64, 3, 0.5, 0.0, 1), std::invalid_argument);
}

TEST(TemporalReuse, ReusesRecentBlocks) {
  // Child streams fresh blocks; with reuse_prob 0.9 about 90% of accesses
  // must revisit one of the last 8 distinct blocks.
  auto child = std::make_unique<StreamingPattern>(0, 1'000'000);
  TemporalReusePattern p(std::move(child), 0.9, 8, 42);
  block_t max_seen = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) max_seen = std::max(max_seen, p.next_block());
  // Fresh draws happen ~10% of the time, so the stream advanced ~n/10.
  EXPECT_NEAR(static_cast<double>(max_seen), n * 0.1, n * 0.02);
}

TEST(TemporalReuse, ReusedBlocksComeFromWindow) {
  auto child = std::make_unique<StreamingPattern>(0, 1'000'000);
  TemporalReusePattern p(std::move(child), 0.7, 16, 7);
  block_t newest = 0;
  for (int i = 0; i < 20000; ++i) {
    const block_t b = p.next_block();
    if (b > newest) {
      newest = b;  // fresh block from the stream
    } else {
      // Reuse: must be one of the 16 most recent distinct blocks.
      EXPECT_GE(b + 16, newest);
    }
  }
}

TEST(TemporalReuse, ZeroProbPassesThrough) {
  auto child = std::make_unique<StreamingPattern>(0, 100);
  TemporalReusePattern p(std::move(child), 0.0, 4, 1);
  for (block_t i = 0; i < 100; ++i) EXPECT_EQ(p.next_block(), i);
}

TEST(TemporalReuse, Validation) {
  EXPECT_THROW(TemporalReusePattern(nullptr, 0.5, 4, 1), std::invalid_argument);
  EXPECT_THROW(
      TemporalReusePattern(std::make_unique<StreamingPattern>(0, 4), 1.0, 4, 1),
      std::invalid_argument);
  EXPECT_THROW(
      TemporalReusePattern(std::make_unique<StreamingPattern>(0, 4), 0.5, 0, 1),
      std::invalid_argument);
}

TEST(MultiScan, NarrowSpanConfinesSets) {
  // Span of 4 sets in a 16-set cache: every generated block maps to sets 0-3.
  const GeneratorContext ctx{16, 64};
  MultiScanPattern p(0, {2, 3}, ctx, 1, 4);
  for (int i = 0; i < 200; ++i) {
    const block_t b = p.next_block();
    EXPECT_LT(b % 16, 4u) << "block " << b;
  }
}

TEST(InstructionMixer, GapMeanMatchesMemRatio) {
  auto pat = std::make_unique<StreamingPattern>(0, 1024);
  InstructionMixer mixer(std::move(pat), 0.25, 0.3, 42);
  double gaps = 0.0;
  int stores = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const MemRef r = mixer.next();
    gaps += r.gap;
    stores += r.is_store;
  }
  EXPECT_NEAR(gaps / n, 3.0, 0.15);  // mean gap = 1/0.25 - 1
  EXPECT_NEAR(static_cast<double>(stores) / n, 0.3, 0.02);
}

TEST(InstructionMixer, FullMemRatioHasZeroGaps) {
  auto pat = std::make_unique<StreamingPattern>(0, 16);
  InstructionMixer mixer(std::move(pat), 1.0, 0.0, 1);
  for (int i = 0; i < 100; ++i) {
    const MemRef r = mixer.next();
    EXPECT_EQ(r.gap, 0u);
    EXPECT_FALSE(r.is_store);
  }
}

TEST(InstructionMixer, ValidatesRatios) {
  EXPECT_THROW(
      InstructionMixer(std::make_unique<StreamingPattern>(0, 1), 0.0, 0.0, 1),
      std::invalid_argument);
  EXPECT_THROW(
      InstructionMixer(std::make_unique<StreamingPattern>(0, 1), 0.5, 1.5, 1),
      std::invalid_argument);
  EXPECT_THROW(InstructionMixer(nullptr, 0.5, 0.5, 1), std::invalid_argument);
}

TEST(Profiles, ThirtyFourUniqueBenchmarks) {
  const auto profiles = all_profiles();
  EXPECT_EQ(profiles.size(), 34u);
  std::unordered_set<std::string_view> names, acronyms;
  int hpc = 0, non_lru = 0, phased = 0;
  for (const auto& p : profiles) {
    EXPECT_TRUE(names.insert(p.name).second) << p.name;
    EXPECT_TRUE(acronyms.insert(p.acronym).second) << p.acronym;
    EXPECT_GT(p.mem_ratio, 0.0);
    EXPECT_LE(p.mem_ratio, 1.0);
    EXPECT_GE(p.store_ratio, 0.0);
    EXPECT_LE(p.store_ratio, 1.0);
    EXPECT_GT(p.ws_kb, 0.0);
    EXPECT_GE(p.phases, 1u);
    hpc += p.hpc;
    non_lru += p.non_lru;
    phased += (p.phases > 1);
  }
  EXPECT_EQ(hpc, 5);       // amg2013, comd, lulesh, nekbone, xsbench
  EXPECT_GE(non_lru, 2);   // omnetpp, xalancbmk (paper §3.1)
  EXPECT_GE(phased, 2);    // h264ref, gcc
}

TEST(Profiles, LookupByNameAndAcronym) {
  EXPECT_EQ(profile_by_name("h264ref").acronym, "H2");
  EXPECT_EQ(profile_by_name("H2").name, "h264ref");
  EXPECT_TRUE(profile_by_name("omnetpp").non_lru);
  EXPECT_TRUE(profile_by_name("xalancbmk").non_lru);
  EXPECT_THROW(profile_by_name("quake3"), std::out_of_range);
}

TEST(Profiles, GeneratorsBuildAndAreDeterministic) {
  for (const auto& p : all_profiles()) {
    auto a = make_generator(p, kCtx, 99);
    auto b = make_generator(p, kCtx, 99);
    ASSERT_NE(a, nullptr) << p.name;
    for (int i = 0; i < 200; ++i) {
      const MemRef ra = a->next();
      const MemRef rb = b->next();
      EXPECT_EQ(ra.block, rb.block) << p.name;
      EXPECT_EQ(ra.gap, rb.gap) << p.name;
      EXPECT_EQ(ra.is_store, rb.is_store) << p.name;
    }
  }
}

// Stream canary: a 64-bit hash of the first 200k references of every Table 1
// profile at a fixed seed and the default GeneratorContext. The generator's
// hot path may be restructured for speed, but never by one output bit; a
// deliberate model change re-records these values (and bumps the memo
// format version, see the model canary in test_run_cache.cpp).
std::uint64_t stream_hash(AccessGenerator& gen, int refs) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over (block, gap, store)
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((v >> (8 * byte)) & 0xFF)) * 0x100000001B3ULL;
    }
  };
  for (int i = 0; i < refs; ++i) {
    const MemRef r = gen.next();
    mix(r.block);
    mix((static_cast<std::uint64_t>(r.gap) << 1) | (r.is_store ? 1 : 0));
  }
  return h;
}

TEST(Profiles, StreamCanaryPinned) {
  const std::unordered_map<std::string_view, std::uint64_t> pinned = {
      {"astar", 0x48892D8E361ABD89ULL},
      {"bwaves", 0xE31F9C476FBA8B37ULL},
      {"bzip2", 0x3BCD6C21CD4BDD0DULL},
      {"cactusADM", 0x22F6D3DBAE89C04DULL},
      {"calculix", 0xFC9222045539A93AULL},
      {"dealII", 0xD761063A63A39513ULL},
      {"gamess", 0xE881175BF8834F6ULL},
      {"gcc", 0xD6CD03899D8AA032ULL},
      {"gemsFDTD", 0xC348E58D9D456C15ULL},
      {"gobmk", 0x7B2AD2D3EAD00E20ULL},
      {"gromacs", 0xCD46B38640CF7A4ULL},
      {"h264ref", 0xE2194475B4F3BC37ULL},
      {"hmmer", 0xCBFE7B3FB1B532E7ULL},
      {"lbm", 0xFD1BECFA1C26D39CULL},
      {"leslie3d", 0x2ED5780CC0A61195ULL},
      {"libquantum", 0xF3F09A04C4F7786CULL},
      {"mcf", 0x13C5B953308A143DULL},
      {"milc", 0x8E7C09E2A8EA6830ULL},
      {"namd", 0xACD6A75D4C2EAA46ULL},
      {"omnetpp", 0x298D17731A350BFFULL},
      {"perlbench", 0xB4EDC1E9F1DADB38ULL},
      {"povray", 0x704F768C75824B49ULL},
      {"sjeng", 0x1AB1BE3C6F7D53DFULL},
      {"soplex", 0x86BE9ADE6DA8CE8EULL},
      {"sphinx", 0x135B7F7DFA1EE041ULL},
      {"tonto", 0xA2D4E386AC58EE8AULL},
      {"wrf", 0x8B158B098F00ABC0ULL},
      {"xalancbmk", 0xA7E8C3FF39ADD71CULL},
      {"zeusmp", 0x66F0C3C0ECEEEA97ULL},
      {"amg2013", 0xE5277E5597DDCD63ULL},
      {"comd", 0xA3288762DC83EF3DULL},
      {"lulesh", 0x98FE5A7F15CB5EBCULL},
      {"nekbone", 0xEE8008F2C5B5A225ULL},
      {"xsbench", 0x51A84B747362529BULL},
  };
  for (const auto& p : all_profiles()) {
    auto gen = make_generator(p, GeneratorContext{}, 42);
    const std::uint64_t h = stream_hash(*gen, 200'000);
    const auto it = pinned.find(p.name);
    if (it == pinned.end()) {
      ADD_FAILURE() << "unpinned: {\"" << p.name << "\", 0x" << std::hex
                    << std::uppercase << h << "ULL},";
      continue;
    }
    EXPECT_EQ(h, it->second) << p.name << ": 0x" << std::hex << std::uppercase << h;
  }
}

// Stream equivalence: the batch API (fill / fill_blocks) must produce
// exactly the next() / next_block() sequence and leave the generator in the
// same state, whatever the batch sizes and however batches interleave with
// single pulls and skips. The producer-thread pipeline relies on this.

/// One step of a random schedule applied to both generators: a batch of 1 to
/// 4096 through the batch API, a run of single pulls, or (rarely) a skip.
struct Step {
  enum Kind { Batch, Singles, Skip } kind;
  std::size_t n;
};

std::vector<Step> random_schedule(std::uint64_t seed, std::size_t total) {
  Rng rng(seed);
  std::vector<Step> out;
  std::size_t emitted = 0;
  while (emitted < total) {
    const std::uint64_t roll = rng.below(10);
    if (roll < 6) {
      out.push_back({Step::Batch, 1 + static_cast<std::size_t>(rng.below(4096))});
    } else if (roll < 9) {
      out.push_back({Step::Singles, 1 + static_cast<std::size_t>(rng.below(64))});
    } else {
      out.push_back({Step::Skip, static_cast<std::size_t>(rng.below(50'000))});
      continue;
    }
    emitted += out.back().n;
  }
  return out;
}

bool same(const MemRef& a, const MemRef& b) {
  return a.block == b.block && a.gap == b.gap && a.is_store == b.is_store;
}

/// Drives `batched` through the schedule and `single` through next() only;
/// returns the number of references compared (0 after the first mismatch).
std::size_t compare_streams(AccessGenerator& single, AccessGenerator& batched,
                            const std::vector<Step>& schedule) {
  std::vector<MemRef> buf;
  std::size_t compared = 0;
  for (const Step& step : schedule) {
    if (step.kind == Step::Skip) {
      single.skip(step.n);
      batched.skip(step.n);
      continue;
    }
    buf.assign(step.n, MemRef{});
    if (step.kind == Step::Batch) {
      batched.fill(buf.data(), step.n);
    } else {
      for (MemRef& r : buf) r = batched.next();
    }
    for (std::size_t i = 0; i < step.n; ++i) {
      const MemRef want = single.next();
      if (!same(want, buf[i])) {
        ADD_FAILURE() << "reference " << compared + i << " differs: block " << buf[i].block
                      << " vs " << want.block << ", gap " << buf[i].gap << " vs "
                      << want.gap;
        return 0;
      }
    }
    compared += step.n;
  }
  return compared;
}

TEST(BatchApi, FillMatchesNextForEveryProfile) {
  std::uint64_t seed = 1;
  for (const auto& p : all_profiles()) {
    SCOPED_TRACE(p.name);
    const std::vector<Step> schedule = random_schedule(++seed, 120'000);
    auto single = make_generator(p, kCtx, seed);
    auto batched = make_generator(p, kCtx, seed);
    EXPECT_GE(compare_streams(*single, *batched, schedule), 120'000u);
  }
}

/// next() over a reference generator, with lookahead.
class Lookahead {
 public:
  explicit Lookahead(AccessGenerator& gen) : gen_(gen) {}
  MemRef next() {
    if (ahead_.empty()) return gen_.next();
    const MemRef r = ahead_.front();
    ahead_.pop_front();
    return r;
  }
  const MemRef& peek(std::size_t i) {
    while (ahead_.size() <= i) ahead_.push_back(gen_.next());
    return ahead_[i];
  }
  /// Skips only at the generator's own position (nothing looked ahead).
  bool skip(std::uint64_t n) {
    if (!ahead_.empty()) return false;
    gen_.skip(n);
    return true;
  }

 private:
  AccessGenerator& gen_;
  std::deque<MemRef> ahead_;
};

// fill_until must write exactly the next() stream and stop at the first
// reference whose gap+1 sum reaches the budget (or at max_refs): the
// sampled-run producer ends its chunks at sampling boundaries with it.
TEST(BatchApi, FillUntilMatchesNextForEveryProfile) {
  std::uint64_t seed = 100;
  std::size_t inside_long_gap = 0;
  for (const auto& p : all_profiles()) {
    SCOPED_TRACE(p.name);
    auto single = make_generator(p, kCtx, ++seed);
    auto batched = make_generator(p, kCtx, seed);
    Lookahead ref(*single);
    Rng rng(seed);
    std::vector<MemRef> buf(4096);
    EXPECT_EQ(batched->fill_until(buf.data(), 4096, 0), 0u);
    std::size_t compared = 0;
    while (compared < 60'000) {
      const std::uint64_t roll = rng.below(10);
      if (roll == 0) {
        const std::uint64_t n = rng.below(50'000);
        if (ref.skip(n)) batched->skip(n);
        continue;
      }
      std::size_t max_refs = 1 + static_cast<std::size_t>(rng.below(4096));
      std::uint64_t budget = roll == 1   ? 1
                             : roll < 5 ? 1 + rng.below(64)
                                        : 1 + rng.below(100'000);
      if (roll == 9) {
        // A budget that ends strictly inside the first long gap ahead.
        std::uint64_t before = 0;
        for (std::size_t i = 0; i < 256; ++i) {
          const MemRef& r = ref.peek(i);
          if (r.gap >= 8) {
            budget = before + r.gap / 2 + 1;
            max_refs = 4096;
            ++inside_long_gap;
            break;
          }
          before += static_cast<std::uint64_t>(r.gap) + 1;
        }
      }
      const std::size_t n = batched->fill_until(buf.data(), max_refs, budget);
      ASSERT_GE(n, 1u);
      ASSERT_LE(n, max_refs);
      std::uint64_t instr = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_LT(instr, budget) << "reference " << i << " of " << n << " is past the budget";
        const MemRef want = ref.next();
        ASSERT_TRUE(same(want, buf[i]))
            << "reference " << compared + i << " differs: block " << buf[i].block << " vs "
            << want.block << ", gap " << buf[i].gap << " vs " << want.gap;
        instr += static_cast<std::uint64_t>(buf[i].gap) + 1;
      }
      if (n < max_refs) {
        ASSERT_GE(instr, budget) << "stopped short of the budget";
      }
      compared += n;
    }
  }
  EXPECT_GT(inside_long_gap, 100u);
}

TEST(BatchApi, FillIsExactAcrossPhaseBoundaries) {
  // Phased profiles switch every 150k references; a long run of full
  // batches crosses several boundaries mid-batch.
  for (const auto& p : all_profiles()) {
    if (p.phases <= 1) continue;
    SCOPED_TRACE(p.name);
    auto single = make_generator(p, kCtx, 9);
    auto batched = make_generator(p, kCtx, 9);
    const std::vector<Step> schedule(160, Step{Step::Batch, 4093});
    EXPECT_GE(compare_streams(*single, *batched, schedule), 600'000u);
  }
}

/// Every BlockPattern class, built twice from the same arguments.
std::vector<std::pair<std::string, std::unique_ptr<BlockPattern>>> every_pattern() {
  std::vector<std::pair<std::string, std::unique_ptr<BlockPattern>>> out;
  auto mixture = [](std::uint64_t seed) {
    std::vector<std::unique_ptr<BlockPattern>> kids;
    kids.push_back(std::make_unique<RandomWorkingSetPattern>(0, 5000, 300, 0.7, seed));
    kids.push_back(std::make_unique<StreamingPattern>(1 << 20, 70'000, 3));
    kids.push_back(std::make_unique<PointerChasePattern>(1 << 24, 9000, seed + 1));
    kids.push_back(std::make_unique<StreamingPattern>(1 << 26, 10));  // weight 0
    return std::make_unique<MixturePattern>(std::move(kids),
                                            std::vector<double>{0.5, 0.3, 0.2, 0.0}, seed);
  };
  out.emplace_back("streaming", std::make_unique<StreamingPattern>(7, 1000, 3));
  out.emplace_back("random", std::make_unique<RandomWorkingSetPattern>(0, 4096, 64, 0.8, 3));
  out.emplace_back("nested",
                   std::make_unique<NestedWorkingSetPattern>(0, 50'000, 4, 0.3, 2.5, 4));
  out.emplace_back("chase", std::make_unique<PointerChasePattern>(0, 3000, 5));
  out.emplace_back("multiscan", std::make_unique<MultiScanPattern>(
                                    0, std::vector<std::uint32_t>{3, 9, 1}, kCtx, 2, 37));
  out.emplace_back("mixture", mixture(6));
  std::vector<std::unique_ptr<BlockPattern>> phases;
  phases.push_back(mixture(7));
  phases.push_back(std::make_unique<MultiScanPattern>(0, std::vector<std::uint32_t>{5}, kCtx));
  out.emplace_back("phased", std::make_unique<PhasedPattern>(std::move(phases), 1000));
  out.emplace_back("reuse", std::make_unique<TemporalReusePattern>(mixture(8), 0.9, 96, 9));
  return out;
}

TEST(BatchApi, FillBlocksMatchesNextBlockForEveryPattern) {
  auto singles = every_pattern();
  auto batched = every_pattern();
  ASSERT_EQ(singles.size(), 8u);
  for (std::size_t k = 0; k < singles.size(); ++k) {
    SCOPED_TRACE(singles[k].first);
    BlockPattern& a = *singles[k].second;
    BlockPattern& b = *batched[k].second;
    std::vector<block_t> buf;
    std::size_t compared = 0;
    for (const Step& step : random_schedule(100 + k, 200'000)) {
      if (step.kind == Step::Skip) {
        a.skip(step.n);
        b.skip(step.n);
        continue;
      }
      buf.resize(step.n);
      if (step.kind == Step::Batch) {
        b.fill_blocks(buf.data(), step.n);
      } else {
        for (block_t& x : buf) x = b.next_block();
      }
      for (std::size_t i = 0; i < step.n; ++i) {
        const block_t want = a.next_block();
        ASSERT_EQ(buf[i], want) << "block " << compared + i;
      }
      compared += step.n;
    }
    EXPECT_GE(compared, 200'000u);
  }
}

TEST(BatchApi, DefaultFillReportsWhereItFailed) {
  class Failing final : public AccessGenerator {
   public:
    MemRef next() override {
      if (n_ == 5) throw std::runtime_error("boom");
      return MemRef{n_++, 0, false};
    }

   private:
    std::uint64_t n_ = 0;
  };
  Failing gen;
  MemRef out[8];
  try {
    gen.fill(out, 8);
    FAIL() << "fill did not throw";
  } catch (const FillInterrupted& e) {
    EXPECT_EQ(e.done, 5u);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].block, i);
    EXPECT_THROW(std::rethrow_exception(e.cause), std::runtime_error);
  }
}

// The mixer's gap table must agree with the direct inversion formula
// everywhere. The formula is non-increasing in the draw k as long as libm's
// log is monotone; log is within 1 ulp of exact, so a non-monotone step
// could only misplace a threshold by a few units of k. Checking a wide
// neighbourhood of every threshold against the formula, evaluated here
// independently of the mixer, therefore covers every k the table can decide
// differently from the formula.
TEST(InstructionMixer, GapTableMatchesFormulaAroundEveryThreshold) {
  constexpr std::uint64_t kRadius = std::uint64_t{1} << 16;
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
  std::set<double> ratios;
  for (const auto& p : all_profiles()) {
    if (p.mem_ratio < 1.0) ratios.insert(p.mem_ratio);
  }
  ASSERT_FALSE(ratios.empty());
  std::uint64_t checked = 0, mismatches = 0;
  for (const double ratio : ratios) {
    const InstructionMixer mixer(std::make_unique<StreamingPattern>(0, 1), ratio, 0.0, 1);
    const double log_keep = std::log(1.0 - ratio);
    const auto& thresholds = mixer.gap_threshold();
    for (std::size_t n = 0; n < thresholds.size(); ++n) {
      const std::uint64_t t = thresholds[n];
      if (n > 0) {
        ASSERT_LE(t, thresholds[n - 1]) << ratio;
        if (t == thresholds[n - 1]) continue;  // same neighbourhood
      }
      const std::uint64_t lo = t > kRadius ? t - kRadius : 0;
      const std::uint64_t hi = std::min(t + kRadius, kDraws - 1);
      for (std::uint64_t k = lo; k <= hi; ++k) {
        const double u = std::max(static_cast<double>(k) * 0x1.0p-53, 1e-12);
        const auto direct = static_cast<std::uint32_t>(
            std::min(std::floor(std::log(u) / log_keep), 1e6));
        const std::uint32_t table = mixer.gap_of(k);
        ++checked;
        if (table != direct) {
          ++mismatches;
          ADD_FAILURE() << "mem_ratio " << ratio << " k " << k << ": table " << table
                        << " formula " << direct;
          if (mismatches > 10) return;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(checked, ratios.size() * kRadius);
}

TEST(Workloads, Table1Lists) {
  const auto singles = single_core_workloads();
  const auto duals = dual_core_workloads();
  EXPECT_EQ(singles.size(), 34u);
  EXPECT_EQ(duals.size(), 17u);

  // Every dual-core pair uses valid benchmarks, and each of the 34
  // benchmarks appears exactly once across the pairs (Table 1).
  std::unordered_set<std::string> used;
  for (const auto& w : duals) {
    ASSERT_EQ(w.benchmarks.size(), 2u) << w.name;
    for (const auto& b : w.benchmarks) {
      EXPECT_NO_THROW(profile_by_name(b));
      EXPECT_TRUE(used.insert(b).second) << b << " reused";
    }
  }
  EXPECT_EQ(used.size(), 34u);
}

TEST(Workloads, PairNamesMatchPaper) {
  const auto duals = dual_core_workloads();
  EXPECT_EQ(duals.front().name, "GmDl");
  EXPECT_EQ(duals.back().name, "CoAm");
  bool has_gkne = false;
  for (const auto& w : duals) has_gkne |= (w.name == "GkNe");
  EXPECT_TRUE(has_gkne);
}

}  // namespace
}  // namespace esteem::trace
