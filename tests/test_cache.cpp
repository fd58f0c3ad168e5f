// Unit + property tests for the set-associative cache and module map.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/module_map.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"

namespace esteem::cache {
namespace {

// Records every listener callback for verification.
struct RecordingListener final : LineListener {
  struct Event {
    char kind;  // 'F' fill, 'T' touch, 'I' invalidate
    std::uint32_t set;
    std::uint32_t way;
    bool dirty = false;
    cycle_t now = 0;
  };
  std::vector<Event> events;

  void on_fill(std::uint32_t set, std::uint32_t way, block_t, cycle_t now) override {
    events.push_back({'F', set, way, false, now});
  }
  void on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) override {
    events.push_back({'T', set, way, false, now});
  }
  void on_invalidate(std::uint32_t set, std::uint32_t way, bool dirty,
                     cycle_t now) override {
    events.push_back({'I', set, way, dirty, now});
  }
};

/// RecordingListener that opts out of per-touch notification (fast lane).
struct TouchlessListener final : LineListener {
  int fills = 0, touches = 0, invalidates = 0;
  void on_fill(std::uint32_t, std::uint32_t, block_t, cycle_t) override { ++fills; }
  void on_touch(std::uint32_t, std::uint32_t, cycle_t) override { ++touches; }
  void on_invalidate(std::uint32_t, std::uint32_t, bool, cycle_t) override {
    ++invalidates;
  }
  bool wants_touch() const noexcept override { return false; }
};

TEST(Cache, HitAfterFill) {
  SetAssocCache c({4, 2});
  EXPECT_FALSE(c.access(0, false, 0).hit);
  EXPECT_TRUE(c.access(0, false, 1).hit);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(4));  // same set, different block
}

TEST(Cache, LruEvictionOrder) {
  SetAssocCache c({1, 2});  // single set, 2 ways
  c.access(0, false, 0);
  c.access(1, false, 1);
  c.access(0, false, 2);  // 0 now MRU, 1 LRU
  const AccessOutcome out = c.access(2, false, 3);
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.victim, 1u);  // LRU block evicted
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(1));
}

TEST(Cache, LruPositionSemantics) {
  SetAssocCache c({1, 4});
  for (block_t b = 0; b < 4; ++b) c.access(b, false, b);
  // Recency order (MRU..LRU): 3,2,1,0.
  EXPECT_EQ(c.access(3, false, 10).lru_pos, 0u);  // MRU
  EXPECT_EQ(c.access(0, false, 11).lru_pos, 3u);  // was LRU
  // After touching 0 it is MRU; 3 is now position 1.
  EXPECT_EQ(c.access(3, false, 12).lru_pos, 1u);
}

TEST(Cache, DirtyVictimReported) {
  SetAssocCache c({1, 1});
  c.access(0, true, 0);  // store: dirty
  const AccessOutcome out = c.access(1, false, 1);
  EXPECT_EQ(out.victim, 0u);
  EXPECT_TRUE(out.victim_dirty);
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, StoreHitMarksDirty) {
  SetAssocCache c({1, 2});
  c.access(0, false, 0);  // clean fill
  c.access(0, true, 1);   // store hit dirties it
  const AccessOutcome out1 = c.access(1, false, 2);
  EXPECT_FALSE(out1.hit);
  const AccessOutcome out2 = c.access(2, false, 3);  // evicts block 0 (LRU)
  EXPECT_EQ(out2.victim, 0u);
  EXPECT_TRUE(out2.victim_dirty);
}

TEST(Cache, ValidLinesTracked) {
  SetAssocCache c({4, 2});
  EXPECT_EQ(c.valid_lines(), 0u);
  for (block_t b = 0; b < 8; ++b) c.access(b, false, b);
  EXPECT_EQ(c.valid_lines(), 8u);
  c.access(8, false, 100);  // evicts one
  EXPECT_EQ(c.valid_lines(), 8u);
  c.invalidate(8, 101);
  EXPECT_EQ(c.valid_lines(), 7u);
}

TEST(Cache, InvalidateReturnsDirtiness) {
  SetAssocCache c({2, 2});
  c.access(0, true, 0);
  c.access(1, false, 1);
  EXPECT_TRUE(c.invalidate(0, 2));
  EXPECT_FALSE(c.invalidate(1, 3));
  EXPECT_FALSE(c.invalidate(1, 4));  // already gone
  EXPECT_FALSE(c.contains(0));
}

TEST(Cache, InvalidateSlot) {
  SetAssocCache c({1, 2});
  c.access(0, true, 0);
  EXPECT_TRUE(c.slot_valid(0, 0));
  EXPECT_TRUE(c.invalidate_slot(0, 0, 1));   // dirty
  EXPECT_FALSE(c.invalidate_slot(0, 0, 2));  // no-op now
  EXPECT_THROW(c.invalidate_slot(5, 0, 0), std::out_of_range);
}

TEST(Cache, ResizeSetFlushesDeactivatedWays) {
  SetAssocCache c({1, 4});
  c.access(0, true, 0);   // dirty
  c.access(1, false, 1);  // clean
  c.access(2, false, 2);
  c.access(3, false, 3);
  std::vector<std::pair<block_t, bool>> evicted;
  c.resize_set(0, 2, 4, [&](block_t b, bool d) { evicted.emplace_back(b, d); });
  EXPECT_EQ(c.active_ways(0), 2u);
  EXPECT_EQ(evicted.size(), 2u);
  EXPECT_EQ(c.valid_lines(), 2u);
  // Lines in ways [0,2) survive: blocks 0 and 1 were filled there.
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_FALSE(c.contains(3));
}

TEST(Cache, ShrunkSetUsesOnlyActiveWays) {
  SetAssocCache c({1, 4});
  c.resize_set(0, 2, 0, nullptr);
  for (block_t b = 0; b < 10; ++b) c.access(b, false, b);
  EXPECT_EQ(c.valid_lines(), 2u);  // only 2 ways available
  // Re-grow: capacity returns.
  c.resize_set(0, 4, 11, nullptr);
  for (block_t b = 0; b < 4; ++b) c.access(100 + b, false, 100 + b);
  EXPECT_EQ(c.valid_lines(), 4u);
}

TEST(Cache, ResizeValidation) {
  SetAssocCache c({2, 2});
  EXPECT_THROW(c.resize_set(0, 0, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(c.resize_set(0, 3, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(c.resize_set(9, 1, 0, nullptr), std::out_of_range);
}

TEST(Cache, ListenerSeesLifecycle) {
  SetAssocCache c({1, 1});
  RecordingListener listener;
  c.set_listener(&listener);
  c.access(0, true, 0);   // fill
  c.access(0, false, 1);  // touch
  c.access(1, false, 2);  // invalidate (dirty victim) + fill
  ASSERT_EQ(listener.events.size(), 4u);
  EXPECT_EQ(listener.events[0].kind, 'F');
  EXPECT_EQ(listener.events[1].kind, 'T');
  EXPECT_EQ(listener.events[2].kind, 'I');
  EXPECT_TRUE(listener.events[2].dirty);
  EXPECT_EQ(listener.events[3].kind, 'F');
}

TEST(Cache, TouchlessListenerSkipsPerHitDispatch) {
  SetAssocCache c({1, 2});
  TouchlessListener listener;
  c.set_listener(&listener);
  c.access(0, false, 0);  // fill
  c.access(0, false, 1);  // hit: on_touch must be skipped
  c.access(0, false, 2);
  c.access(1, false, 3);  // fill
  c.access(2, false, 4);  // evict + fill
  EXPECT_EQ(listener.fills, 3);
  EXPECT_EQ(listener.touches, 0);
  EXPECT_EQ(listener.invalidates, 1);
}

TEST(Cache, LruTrackingToggleAffectsOnlyLruPos) {
  SetAssocCache tracked({1, 4});
  SetAssocCache untracked({1, 4});
  untracked.set_lru_tracking(false);
  EXPECT_TRUE(tracked.lru_tracking());
  EXPECT_FALSE(untracked.lru_tracking());

  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const block_t blk = rng.below(12);
    const AccessOutcome a = tracked.access(blk, false, i);
    const AccessOutcome b = untracked.access(blk, false, i);
    // Identical behaviour in everything but the lru_pos computation.
    ASSERT_EQ(a.hit, b.hit);
    ASSERT_EQ(a.way, b.way);
    ASSERT_EQ(a.victim, b.victim);
    ASSERT_EQ(a.victim_dirty, b.victim_dirty);
  }
  EXPECT_EQ(tracked.stats().hits, untracked.stats().hits);
  EXPECT_EQ(tracked.stats().evictions, untracked.stats().evictions);
}

TEST(Cache, ResizeSetStampsListenerWithActualCycle) {
  SetAssocCache c({1, 4});
  RecordingListener listener;
  c.set_listener(&listener);
  for (block_t b = 0; b < 4; ++b) c.access(b, false, b);
  listener.events.clear();
  c.resize_set(0, 2, 777, nullptr);
  ASSERT_EQ(listener.events.size(), 2u);
  for (const auto& e : listener.events) {
    EXPECT_EQ(e.kind, 'I');
    EXPECT_EQ(e.now, 777u);  // the reconfiguration cycle, not 0
  }
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache({0, 4}), std::invalid_argument);
  EXPECT_THROW(SetAssocCache({4, 0}), std::invalid_argument);
  EXPECT_THROW(SetAssocCache({3, 4}), std::invalid_argument);  // non-pow2 sets
}

// Property test: the cache agrees with a reference model (map from block to
// dirty bit with capacity bookkeeping) under random traffic.
class CacheProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheProperty, MatchesReferenceOccupancy) {
  const std::uint32_t ways = GetParam();
  const std::uint32_t sets = 16;
  SetAssocCache c({sets, ways});
  std::unordered_map<block_t, bool> resident;  // block -> dirty
  Rng rng(ways * 977 + 1);

  for (int i = 0; i < 20000; ++i) {
    const block_t blk = rng.below(sets * ways * 4);
    const bool store = rng.chance(0.3);
    const bool expected_hit = resident.count(blk) > 0;
    const AccessOutcome out = c.access(blk, store, i);
    ASSERT_EQ(out.hit, expected_hit) << "block " << blk << " iter " << i;
    if (out.victim != kInvalidBlock) {
      ASSERT_TRUE(resident.count(out.victim));
      ASSERT_EQ(resident[out.victim], out.victim_dirty);
      resident.erase(out.victim);
    }
    resident[blk] = resident.count(blk) ? (resident[blk] || store) : store;
    ASSERT_LE(c.valid_lines(), static_cast<std::uint64_t>(sets) * ways);
    ASSERT_EQ(c.valid_lines(), resident.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

// LRU stack-inclusion property: running the same stream against a cache
// with k active ways hits exactly the accesses whose recency position in
// the fully-associative run is < k. This is the property that makes
// ESTEEM's LRU-position histogram an exact predictor of hit loss (§3.1).
class StackInclusion : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StackInclusion, ShrunkCacheHitsMatchShallowPositions) {
  const std::uint32_t active = GetParam();
  constexpr std::uint32_t kSets = 8;
  constexpr std::uint32_t kWays = 8;

  SetAssocCache full({kSets, kWays});
  SetAssocCache shrunk({kSets, kWays});
  for (std::uint32_t s = 0; s < kSets; ++s) shrunk.resize_set(s, active, 0, nullptr);

  Rng rng(active * 1009 + 13);
  std::uint64_t shallow_hits = 0;
  std::uint64_t shrunk_hits = 0;
  for (int i = 0; i < 30000; ++i) {
    const block_t blk = rng.below(kSets * kWays * 3);
    const AccessOutcome f = full.access(blk, false, i);
    const AccessOutcome s = shrunk.access(blk, false, i);
    const bool expect_hit = f.hit && f.lru_pos < active;
    ASSERT_EQ(s.hit, expect_hit) << "block " << blk << " iter " << i;
    shallow_hits += expect_hit;
    shrunk_hits += s.hit;
  }
  EXPECT_EQ(shrunk_hits, shallow_hits);
  EXPECT_GT(shrunk_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(ActiveWays, StackInclusion,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 8u));

// Differential test against a deliberately naive reference: per set, a
// std::list of the valid ways in recency order (front = MRU) and explicit
// per-way valid/dirty/disabled flags. Both run the same randomized stream of
// accesses interleaved with shrinks and grows, invalidations and slot
// retirements, and must agree on every observable result.
class NaiveLruCache {
 public:
  NaiveLruCache(std::uint32_t sets, std::uint32_t ways)
      : sets_(sets), ways_(ways), slots_(static_cast<std::size_t>(sets) * ways),
        recency_(sets), active_(sets, ways) {}

  AccessOutcome access(block_t blk, bool is_store) {
    AccessOutcome out;
    const std::uint32_t set = static_cast<std::uint32_t>(blk % sets_);
    auto& order = recency_[set];
    for (std::uint32_t w = 0; w < active_[set]; ++w) {
      Way& s = slot(set, w);
      if (!s.valid || s.block != blk) continue;
      out.hit = true;
      out.way = w;
      auto it = std::find(order.begin(), order.end(), w);
      out.lru_pos = static_cast<std::uint32_t>(std::distance(order.begin(), it));
      order.erase(it);
      order.push_front(w);
      s.dirty = s.dirty || is_store;
      return out;
    }
    std::uint32_t victim = kNoWay;
    for (std::uint32_t w = 0; w < active_[set] && victim == kNoWay; ++w) {
      if (!slot(set, w).valid && !slot(set, w).disabled) victim = w;
    }
    if (victim == kNoWay) {
      if (order.empty()) return out;  // every usable way disabled
      victim = order.back();
      out.victim = slot(set, victim).block;
      out.victim_dirty = slot(set, victim).dirty;
      order.pop_back();
    }
    slot(set, victim) = Way{blk, true, is_store, false};
    order.push_front(victim);
    out.way = victim;
    return out;
  }

  bool invalidate(block_t blk) {
    const std::uint32_t set = static_cast<std::uint32_t>(blk % sets_);
    for (std::uint32_t w = 0; w < active_[set]; ++w) {
      if (slot(set, w).valid && slot(set, w).block == blk) return invalidate_slot(set, w);
    }
    return false;
  }

  bool invalidate_slot(std::uint32_t set, std::uint32_t way) {
    Way& s = slot(set, way);
    if (!s.valid) return false;
    const bool dirty = s.dirty;
    s.valid = s.dirty = false;
    recency_[set].remove(way);
    return dirty;
  }

  bool disable_slot(std::uint32_t set, std::uint32_t way) {
    if (slot(set, way).disabled) return false;
    invalidate_slot(set, way);
    slot(set, way).disabled = true;
    return true;
  }

  std::vector<std::pair<block_t, bool>> resize_set(std::uint32_t set, std::uint32_t active) {
    std::vector<std::pair<block_t, bool>> flushed;
    for (std::uint32_t w = active; w < active_[set]; ++w) {
      if (slot(set, w).valid) {
        flushed.emplace_back(slot(set, w).block, slot(set, w).dirty);
        invalidate_slot(set, w);
      }
    }
    active_[set] = active;
    return flushed;
  }

  void expect_same_state(const SetAssocCache& c) const {
    std::uint64_t valid = 0;
    for (std::uint32_t set = 0; set < sets_; ++set) {
      ASSERT_EQ(c.active_ways(set), active_[set]) << "set " << set;
      for (std::uint32_t w = 0; w < ways_; ++w) {
        const Way& s = slots_[static_cast<std::size_t>(set) * ways_ + w];
        ASSERT_EQ(c.slot_valid(set, w), s.valid) << set << "/" << w;
        ASSERT_EQ(c.slot_disabled(set, w), s.disabled) << set << "/" << w;
        if (!s.valid) continue;
        ++valid;
        ASSERT_EQ(c.slot_dirty(set, w), s.dirty) << set << "/" << w;
        ASSERT_EQ(c.slot_block(set, w), s.block) << set << "/" << w;
      }
    }
    ASSERT_EQ(c.valid_lines(), valid);
  }

 private:
  struct Way {
    block_t block = kInvalidBlock;
    bool valid = false;
    bool dirty = false;
    bool disabled = false;
  };
  Way& slot(std::uint32_t set, std::uint32_t way) {
    return slots_[static_cast<std::size_t>(set) * ways_ + way];
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<Way> slots_;
  std::vector<std::list<std::uint32_t>> recency_;
  std::vector<std::uint32_t> active_;
};

class CacheDifferential : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheDifferential, LockstepWithNaiveLru) {
  const std::uint32_t ways = GetParam();
  constexpr std::uint32_t kSets = 8;
  SetAssocCache cache({kSets, ways});
  NaiveLruCache ref(kSets, ways);
  Rng rng(ways * 7919 + 3);
  const std::uint64_t blocks = static_cast<std::uint64_t>(kSets) * ways * 2;

  for (int i = 0; i < 40'000; ++i) {
    const std::uint64_t op = rng.below(1000);
    const auto set = static_cast<std::uint32_t>(rng.below(kSets));
    const auto way = static_cast<std::uint32_t>(rng.below(ways));
    if (op < 880) {
      const block_t blk = rng.below(blocks);
      const bool store = rng.chance(0.3);
      const AccessOutcome got = cache.access(blk, store, i);
      const AccessOutcome want = ref.access(blk, store);
      ASSERT_EQ(got.hit, want.hit) << "iter " << i << " block " << blk;
      ASSERT_EQ(got.way, want.way) << "iter " << i;
      if (got.hit) {
        ASSERT_EQ(got.lru_pos, want.lru_pos) << "iter " << i;
      }
      ASSERT_EQ(got.victim, want.victim) << "iter " << i;
      ASSERT_EQ(got.victim_dirty, want.victim_dirty) << "iter " << i;
    } else if (op < 920) {
      const block_t blk = rng.below(blocks);
      ASSERT_EQ(cache.invalidate(blk, i), ref.invalidate(blk)) << "iter " << i;
    } else if (op < 950) {
      ASSERT_EQ(cache.invalidate_slot(set, way, i), ref.invalidate_slot(set, way))
          << "iter " << i;
    } else if (op < 952) {
      ASSERT_EQ(cache.disable_slot(set, way, i), ref.disable_slot(set, way))
          << "iter " << i;
    } else {
      // Shrink or grow; grows dominate so the sets spend time near full size.
      const std::uint32_t active =
          rng.chance(0.5) ? ways : static_cast<std::uint32_t>(1 + rng.below(ways));
      std::vector<std::pair<block_t, bool>> flushed;
      cache.resize_set(set, active, i,
                       [&](block_t b, bool dirty) { flushed.emplace_back(b, dirty); });
      ASSERT_EQ(flushed, ref.resize_set(set, active)) << "iter " << i;
    }
    if (i % 4096 == 0) {
      ref.expect_same_state(cache);
      if (HasFatalFailure()) return;
    }
  }
  ref.expect_same_state(cache);
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheDifferential,
                         ::testing::Values(1u, 4u, 16u, 63u, 64u));

TEST(Cache, RejectsMoreThan64Ways) {
  EXPECT_NO_THROW(SetAssocCache({8, 64}));
  EXPECT_THROW(SetAssocCache({8, 65}), std::invalid_argument);
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l2.geom = CacheGeometry{65ULL * 64 * 1024, 65, 64};
  try {
    cfg.validate();
    ADD_FAILURE() << "a 65-way L2 passed validation";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("64 ways"), std::string::npos) << e.what();
  }
  cfg.l2.geom = CacheGeometry{64ULL * 64 * 1024, 64, 64};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ModuleMap, PartitionsSets) {
  ModuleMap m(4096, 8);
  EXPECT_EQ(m.modules(), 8u);
  EXPECT_EQ(m.sets_per_module(), 512u);
  EXPECT_EQ(m.module_of(0), 0u);
  EXPECT_EQ(m.module_of(511), 0u);
  EXPECT_EQ(m.module_of(512), 1u);
  EXPECT_EQ(m.module_of(4095), 7u);
  EXPECT_EQ(m.first_set(3), 1536u);
}

TEST(ModuleMap, RejectsNonDivisors) {
  EXPECT_THROW(ModuleMap(4096, 3), std::invalid_argument);
  EXPECT_THROW(ModuleMap(0, 1), std::invalid_argument);
  EXPECT_THROW(ModuleMap(8, 0), std::invalid_argument);
}

}  // namespace
}  // namespace esteem::cache
