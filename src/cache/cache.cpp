#include "cache/cache.hpp"

#include <bit>
#include <stdexcept>

namespace esteem::cache {

SetAssocCache::SetAssocCache(const CacheParams& params, std::string name)
    : sets_(params.sets), ways_(params.ways), name_(std::move(name)) {
  if (sets_ == 0 || ways_ == 0) {
    throw std::invalid_argument("SetAssocCache: sets and ways must be >= 1");
  }
  if (ways_ > 64) {
    throw std::invalid_argument(
        "SetAssocCache: associativity above 64 ways is not supported (per-set way masks "
        "are 64-bit)");
  }
  if (!is_pow2(sets_)) {
    throw std::invalid_argument("SetAssocCache: set count must be a power of two");
  }
  slots_.resize(static_cast<std::size_t>(sets_) * ways_);
  state_.assign(sets_, SetState{0, 0, 0, ways_});
}

AccessOutcome SetAssocCache::access_slow(std::uint32_t set, std::uint64_t match,
                                         block_t blk, bool is_store, cycle_t now) {
  SetState& st = state_[set];
  Slot* slot = &slots_[idx(set, 0)];
  if (match != 0) {
    // Recency position: count valid lines touched more recently. Computed
    // only when a consumer (the ESTEEM leader-set profiler) asked for it.
    const auto way = static_cast<std::uint32_t>(std::countr_zero(match));
    std::uint32_t pos = 0;
    const std::uint64_t my_stamp = slot[way].stamp;
    for (std::uint64_t m = st.valid & ~bit(way); m != 0; m &= m - 1) {
      pos += slot[std::countr_zero(m)].stamp > my_stamp ? 1 : 0;
    }
    AccessOutcome out = touch(set, way, is_store, now);
    out.lru_pos = pos;
    return out;
  }

  AccessOutcome out;
  ++stats_.misses;
  // Victim: the first usable invalid way among the active ones (disabled
  // slots are never allocated), else the LRU valid line. Only a full set
  // scans stamps; valid lines always sit in active ways.
  const std::uint64_t active_mask = st.active >= 64 ? ~std::uint64_t{0} : bit(st.active) - 1;
  const std::uint64_t free = ~(st.valid | st.disabled) & active_mask;
  std::uint32_t victim_way;
  if (free != 0) {
    victim_way = static_cast<std::uint32_t>(std::countr_zero(free));
  } else {
    if (st.valid == 0) return out;  // every usable way disabled: bypass
    victim_way = static_cast<std::uint32_t>(std::countr_zero(st.valid));
    for (std::uint64_t m = st.valid & (st.valid - 1); m != 0; m &= m - 1) {
      const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
      if (slot[w].stamp < slot[victim_way].stamp) victim_way = w;
    }
    out.victim = slot[victim_way].block;
    out.victim_dirty = (st.dirty & bit(victim_way)) != 0;
    ++stats_.evictions;
    if (out.victim_dirty) ++stats_.dirty_evictions;
    --valid_count_;
    if (listener_ != nullptr) {
      listener_->on_invalidate(set, victim_way, out.victim_dirty, now);
    }
  }

  const std::uint64_t vbit = bit(victim_way);
  slot[victim_way] = Slot{blk, ++stamp_counter_};
  st.valid |= vbit;
  st.dirty = is_store ? (st.dirty | vbit) : (st.dirty & ~vbit);
  ++valid_count_;
  out.way = victim_way;
  if (listener_ != nullptr) listener_->on_fill(set, victim_way, blk, now);
  return out;
}

bool SetAssocCache::contains(block_t blk) const noexcept {
  return match_mask(set_index_of(blk), blk) != 0;
}

bool SetAssocCache::invalidate(block_t blk, cycle_t now) {
  const std::uint32_t set = set_index_of(blk);
  const std::uint64_t match = match_mask(set, blk);
  if (match == 0) return false;
  return invalidate_slot(set, static_cast<std::uint32_t>(std::countr_zero(match)), now);
}

bool SetAssocCache::invalidate_slot(std::uint32_t set, std::uint32_t way, cycle_t now) {
  if (set >= sets_ || way >= ways_) {
    throw std::out_of_range("invalidate_slot: bad slot");
  }
  SetState& st = state_[set];
  const std::uint64_t b = bit(way);
  if ((st.valid & b) == 0) return false;
  const bool was_dirty = (st.dirty & b) != 0;
  st.valid &= ~b;
  st.dirty &= ~b;
  --valid_count_;
  if (listener_ != nullptr) listener_->on_invalidate(set, way, was_dirty, now);
  return was_dirty;
}

bool SetAssocCache::disable_slot(std::uint32_t set, std::uint32_t way, cycle_t now) {
  if (set >= sets_ || way >= ways_) {
    throw std::out_of_range("disable_slot: bad slot");
  }
  if (slot_disabled(set, way)) return false;
  invalidate_slot(set, way, now);
  state_[set].disabled |= bit(way);
  ++disabled_count_;
  return true;
}

void SetAssocCache::resize_set(std::uint32_t set, std::uint32_t new_active, cycle_t now,
                               const std::function<void(block_t, bool)>& on_evict) {
  if (set >= sets_) throw std::out_of_range("resize_set: bad set index");
  if (new_active == 0 || new_active > ways_) {
    throw std::invalid_argument("resize_set: active count must be in [1, ways]");
  }
  SetState& st = state_[set];
  // Shrinking: flush lines in the deactivated ways. The reconfiguration
  // happens off the critical access path (paper §5), but the listener still
  // sees the true reconfiguration cycle so timestamp-keeping refresh
  // policies stay consistent.
  for (std::uint32_t w = new_active; w < st.active; ++w) {
    const std::uint64_t b = bit(w);
    if ((st.valid & b) == 0) continue;
    const bool was_dirty = (st.dirty & b) != 0;
    if (on_evict) on_evict(slots_[idx(set, w)].block, was_dirty);
    st.valid &= ~b;
    st.dirty &= ~b;
    --valid_count_;
    ++stats_.evictions;
    if (was_dirty) ++stats_.dirty_evictions;
    if (listener_ != nullptr) listener_->on_invalidate(set, w, was_dirty, now);
  }
  st.active = new_active;
}

}  // namespace esteem::cache
