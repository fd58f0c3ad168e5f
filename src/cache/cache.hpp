// Set-associative cache with true-LRU replacement, per-set active-way
// masking (selective-ways reconfiguration, paper §3.1/§5), dirty bits, and a
// line-lifecycle listener hook that the eDRAM refresh policies subscribe to.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace esteem::cache {

struct CacheParams {
  std::uint32_t sets = 1;
  std::uint32_t ways = 1;
};

/// Observer of line lifecycle events. All callbacks identify the line by its
/// (set, way) slot so policies can keep flat per-slot state.
class LineListener {
 public:
  virtual ~LineListener() = default;
  virtual void on_fill(std::uint32_t set, std::uint32_t way, block_t blk, cycle_t now) = 0;
  virtual void on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) = 0;
  virtual void on_invalidate(std::uint32_t set, std::uint32_t way, bool dirty,
                             cycle_t now) = 0;

  /// Fast-lane opt-out: a listener with no per-touch state (empty on_touch)
  /// returns false and the cache skips the virtual dispatch on every hit —
  /// the hottest call site in the simulator. Queried once, at
  /// set_listener() time.
  virtual bool wants_touch() const noexcept { return true; }
};

/// Sentinel way index: the access neither hit nor allocated a slot (every
/// usable way of the set was disabled).
inline constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

struct AccessOutcome {
  bool hit = false;
  /// Way of the slot the block occupies after the access (hit or fill);
  /// kNoWay when the access could not allocate.
  std::uint32_t way = kNoWay;
  /// On a hit, when LRU-position tracking is enabled (the default): recency
  /// position of the line among valid lines in its set (0 = MRU). Undefined
  /// on a miss or with tracking disabled (set_lru_tracking(false)).
  std::uint32_t lru_pos = 0;
  /// On a miss that evicted a victim: the victim block, else kInvalidBlock.
  block_t victim = kInvalidBlock;
  bool victim_dirty = false;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  std::uint64_t accesses() const noexcept { return hits + misses; }
};

/// The storage/replacement core shared by L1, L2, and (implicitly, via the
/// never-reconfigured leader sets) the embedded ATD.
///
/// Invariant: valid lines live only in physical ways [0, active_ways(set)).
/// Associativity is limited to 64 ways: per-set state is a 64-bit mask.
class SetAssocCache {
 public:
  SetAssocCache(const CacheParams& params, std::string name = "cache");

  std::uint32_t sets() const noexcept { return sets_; }
  std::uint32_t ways() const noexcept { return ways_; }
  const std::string& name() const noexcept { return name_; }

  /// Lookup + allocate-on-miss. Victim selection prefers an invalid slot,
  /// else the LRU valid line, among the set's active ways.
  AccessOutcome access(block_t blk, bool is_store, cycle_t now);

  /// Probe without side effects.
  bool contains(block_t blk) const noexcept;

  /// Invalidate a block if present (used for back-invalidation). Returns
  /// true if the line was present and dirty.
  bool invalidate(block_t blk, cycle_t now);

  /// Invalidate a specific slot (used by Refrint RPD's eager invalidation).
  /// No-op on an already-invalid slot. Returns true if the line was dirty.
  bool invalidate_slot(std::uint32_t set, std::uint32_t way, cycle_t now);

  /// Changes a set's active way count at cycle `now`. When shrinking, lines
  /// in deactivated ways are invalidated and reported through
  /// `on_evict(block, dirty)` (the paper: clean lines are discarded, dirty
  /// lines written back, §5); the listener sees the invalidations stamped
  /// with `now`, the actual reconfiguration cycle.
  void resize_set(std::uint32_t set, std::uint32_t new_active, cycle_t now,
                  const std::function<void(block_t, bool)>& on_evict);

  std::uint32_t active_ways(std::uint32_t set) const noexcept { return state_[set].active; }

  /// Permanently retires a slot (fault-induced capacity degradation): any
  /// resident line is invalidated (listener notified) and the slot is never
  /// allocated again. Returns false if the slot was already disabled.
  bool disable_slot(std::uint32_t set, std::uint32_t way, cycle_t now);

  bool slot_disabled(std::uint32_t set, std::uint32_t way) const noexcept {
    return (state_[set].disabled & bit(way)) != 0;
  }

  /// Number of slots retired by disable_slot().
  std::uint64_t disabled_slots() const noexcept { return disabled_count_; }

  /// Number of currently valid lines (maintained incrementally).
  std::uint64_t valid_lines() const noexcept { return valid_count_; }

  std::uint32_t set_index_of(block_t blk) const noexcept {
    return static_cast<std::uint32_t>(blk & (sets_ - 1));
  }

  const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// At most one listener (the refresh policy); may be null. The listener's
  /// wants_touch() is sampled here: per-touch notification is skipped
  /// entirely for listeners without per-touch state.
  void set_listener(LineListener* listener) noexcept {
    listener_ = listener;
    touch_listener_ = (listener != nullptr && listener->wants_touch()) ? listener : nullptr;
  }

  /// Enables/disables hit LRU-position computation (AccessOutcome::lru_pos).
  /// The position costs an O(ways) stamp scan per hit; the memory system
  /// turns it on only when a consumer (the ESTEEM leader-set profiler) reads
  /// it. On by default for API compatibility.
  void set_lru_tracking(bool enabled) noexcept { track_lru_ = enabled; }
  bool lru_tracking() const noexcept { return track_lru_; }

  /// True if the slot currently holds a valid line.
  bool slot_valid(std::uint32_t set, std::uint32_t way) const noexcept {
    return (state_[set].valid & bit(way)) != 0;
  }
  bool slot_dirty(std::uint32_t set, std::uint32_t way) const noexcept {
    return (state_[set].dirty & bit(way)) != 0;
  }
  block_t slot_block(std::uint32_t set, std::uint32_t way) const noexcept {
    return slots_[idx(set, way)].block;
  }

 private:
  /// One (set, way) slot: 16 bytes, so a 4-way set spans 64 bytes and a
  /// lookup reads tags and stamps from the same lines.
  struct Slot {
    block_t block = kInvalidBlock;
    std::uint64_t stamp = 0;  ///< recency: larger = more recent
  };
  /// Per-set line state, one bit per way (hence the 64-way limit).
  struct SetState {
    std::uint64_t valid = 0;
    std::uint64_t dirty = 0;
    std::uint64_t disabled = 0;
    std::uint32_t active = 0;  ///< active way count
  };

  static constexpr std::uint64_t bit(std::uint32_t way) noexcept {
    return std::uint64_t{1} << way;
  }
  std::size_t idx(std::uint32_t set, std::uint32_t way) const noexcept {
    return static_cast<std::size_t>(set) * ways_ + way;
  }
  /// Bit w set iff way w < active holds `blk` and is valid (at most one bit).
  std::uint64_t match_mask(std::uint32_t set, block_t blk) const noexcept;

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::string name_;

  std::vector<Slot> slots_;       // sets_ * ways_, set-major
  std::vector<SetState> state_;  // one per set

  std::uint64_t stamp_counter_ = 0;
  std::uint64_t valid_count_ = 0;
  std::uint64_t disabled_count_ = 0;
  CacheStats stats_;
  LineListener* listener_ = nullptr;
  LineListener* touch_listener_ = nullptr;  ///< listener_ iff it wants_touch().
  bool track_lru_ = true;
};

}  // namespace esteem::cache
