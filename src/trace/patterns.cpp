#include "trace/patterns.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace esteem::trace {

namespace {
/// References per internal batch: the stack scratch of the fill loops that
/// split a request (reuse decisions, mixer blocks).
constexpr std::size_t kFillBatch = 256;

/// Index picked by the uniform draw `u` from sorted cumulative weights: the
/// count of weights at or below `u`, which is where upper_bound lands. The
/// last weight is 1.0 > u, so it is never counted.
std::size_t pick_index(const std::vector<double>& cumulative, double u) noexcept {
  std::size_t idx = 0;
  for (std::size_t i = 0; i + 1 < cumulative.size(); ++i) idx += cumulative[i] <= u;
  return idx;
}
}  // namespace

StreamingPattern::StreamingPattern(block_t base, std::uint64_t region_blocks,
                                   std::uint64_t stride)
    : base_(base), region_(std::max<std::uint64_t>(1, region_blocks)), stride_(stride) {
  if (stride_ == 0) throw std::invalid_argument("StreamingPattern: stride must be nonzero");
}

block_t StreamingPattern::next_block() {
  const block_t b = base_ + pos_;
  pos_ += stride_;
  if (pos_ >= region_) pos_ = 0;
  return b;
}

void StreamingPattern::skip(std::uint64_t n) {
  // pos_ only ever holds multiples of stride_ below region_, so the walk is
  // a cycle of length ceil(region/stride) over grid indices.
  const std::uint64_t cycle = (region_ + stride_ - 1) / stride_;
  const std::uint64_t idx = (pos_ / stride_ + n) % cycle;
  pos_ = idx * stride_;
}

RandomWorkingSetPattern::RandomWorkingSetPattern(block_t base, std::uint64_t ws_blocks,
                                                 std::uint64_t hot_blocks, double hot_prob,
                                                 std::uint64_t seed)
    : base_(base),
      ws_(std::max<std::uint64_t>(1, ws_blocks)),
      hot_(std::clamp<std::uint64_t>(hot_blocks, 1, ws_)),
      hot_prob_(hot_prob),
      rng_(seed) {}

block_t RandomWorkingSetPattern::next_block() {
  const std::uint64_t span = rng_.chance(hot_prob_) ? hot_ : ws_;
  return base_ + rng_.below(span);
}

NestedWorkingSetPattern::NestedWorkingSetPattern(block_t base, std::uint64_t ws_blocks,
                                                 std::uint32_t levels, double size_ratio,
                                                 double weight_ratio, std::uint64_t seed)
    : base_(base), rng_(seed) {
  if (levels == 0) throw std::invalid_argument("NestedWorkingSet: levels must be >= 1");
  if (size_ratio <= 0.0 || size_ratio >= 1.0) {
    throw std::invalid_argument("NestedWorkingSet: size_ratio must be in (0,1)");
  }
  if (weight_ratio <= 0.0) {
    throw std::invalid_argument("NestedWorkingSet: weight_ratio must be positive");
  }
  double size = static_cast<double>(std::max<std::uint64_t>(1, ws_blocks));
  double weight = 1.0;
  double acc = 0.0;
  for (std::uint32_t i = 0; i < levels; ++i) {
    level_size_.push_back(std::max<std::uint64_t>(1, static_cast<std::uint64_t>(size)));
    acc += weight;
    cumulative_.push_back(acc);
    size *= size_ratio;
    weight *= weight_ratio;
  }
  for (double& c : cumulative_) c /= acc;
  cumulative_.back() = 1.0;
}

block_t NestedWorkingSetPattern::next_block() {
  const std::size_t lvl = pick_index(cumulative_, rng_.uniform());
  return base_ + rng_.below(level_size_[lvl]);
}

namespace {
std::uint64_t ceil_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

PointerChasePattern::PointerChasePattern(block_t base, std::uint64_t ws_blocks,
                                         std::uint64_t seed)
    : base_(base), ws_pow2_(ceil_pow2(std::max<std::uint64_t>(2, ws_blocks))) {
  // Hull-Dobell for modulus 2^k: increment odd, multiplier = 1 (mod 4).
  std::uint64_t sm = seed;
  mult_ = (splitmix64(sm) & ~std::uint64_t{3}) | 1;  // = 1 (mod 4)
  inc_ = splitmix64(sm) | 1;                         // odd
  cur_ = splitmix64(sm) & (ws_pow2_ - 1);
}

block_t PointerChasePattern::next_block() {
  cur_ = (mult_ * cur_ + inc_) & (ws_pow2_ - 1);
  return base_ + cur_;
}

void PointerChasePattern::skip(std::uint64_t n) {
  // Compose x -> mult*x + inc with itself n times by repeated squaring; all
  // arithmetic mod 2^64 (a multiple of ws_pow2_, so the mask commutes).
  std::uint64_t a = mult_, c = inc_;
  std::uint64_t acc_a = 1, acc_c = 0;
  while (n != 0) {
    if (n & 1) {
      acc_a *= a;
      acc_c = acc_c * a + c;
    }
    c *= a + 1;
    a *= a;
    n >>= 1;
  }
  cur_ = (acc_a * cur_ + acc_c) & (ws_pow2_ - 1);
}

MultiScanPattern::MultiScanPattern(block_t base, std::vector<std::uint32_t> depths,
                                   const GeneratorContext& ctx,
                                   std::uint64_t sweeps_per_depth,
                                   std::uint32_t sets_span)
    : base_(base),
      depths_(std::move(depths)),
      total_sets_(ctx.l2_sets),
      span_(sets_span == 0 ? ctx.l2_sets : std::min(sets_span, ctx.l2_sets)),
      sweeps_per_depth_(std::max<std::uint64_t>(1, sweeps_per_depth)) {
  if (depths_.empty()) throw std::invalid_argument("MultiScanPattern: need >= 1 depth");
  for (auto d : depths_) {
    if (d == 0) throw std::invalid_argument("MultiScanPattern: depth must be >= 1");
  }
}

block_t MultiScanPattern::next_block() {
  // Walk row-major over a footprint of `depth` lines per set across the
  // first `span_` sets: block layout keeps the set index = col_ while
  // distinct rows land in distinct cache lines of the same set.
  const block_t b = base_ + row_ * total_sets_ + col_;
  if (++col_ == span_) end_row();
  return b;
}

void MultiScanPattern::skip(std::uint64_t n) {
  std::uint64_t full = 0;
  for (std::uint32_t d : depths_) {
    full += static_cast<std::uint64_t>(d) * span_ * sweeps_per_depth_;
  }
  n %= full;
  std::uint64_t pos = row_ * span_ + col_;
  while (n > 0) {
    const std::uint64_t region = static_cast<std::uint64_t>(depths_[depth_idx_]) * span_;
    const std::uint64_t left = region * (sweeps_per_depth_ - sweep_) - pos;
    if (n < left) {
      const std::uint64_t adv = pos + n;
      sweep_ += adv / region;
      pos = adv % region;
      break;
    }
    n -= left;
    pos = 0;
    sweep_ = 0;
    depth_idx_ = (depth_idx_ + 1) % depths_.size();
  }
  row_ = pos / span_;
  col_ = static_cast<std::uint32_t>(pos % span_);
}

MixturePattern::MixturePattern(std::vector<std::unique_ptr<BlockPattern>> children,
                               std::vector<double> weights, std::uint64_t seed)
    : children_(std::move(children)), rng_(seed) {
  if (children_.empty() || children_.size() != weights.size()) {
    throw std::invalid_argument("MixturePattern: children/weights size mismatch");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("MixturePattern: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("MixturePattern: zero total weight");
  double acc = 0.0;
  for (double w : weights) {
    acc += w / total;
    cumulative_.push_back(acc);
  }
  cumulative_.back() = 1.0;  // guard against FP drift
  skip_carry_.assign(children_.size(), 0.0);
}

block_t MixturePattern::next_block() {
  return children_[pick_index(cumulative_, rng_.uniform())]->next_block();
}

void MixturePattern::skip(std::uint64_t n) {
  double prev = 0.0;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    const double weight = cumulative_[i] - prev;
    prev = cumulative_[i];
    const double due = static_cast<double>(n) * weight + skip_carry_[i];
    const auto whole = static_cast<std::uint64_t>(due);
    skip_carry_[i] = due - static_cast<double>(whole);
    if (whole > 0) children_[i]->skip(whole);
  }
}

PhasedPattern::PhasedPattern(std::vector<std::unique_ptr<BlockPattern>> children,
                             std::uint64_t refs_per_phase)
    : children_(std::move(children)),
      refs_per_phase_(std::max<std::uint64_t>(1, refs_per_phase)) {
  if (children_.empty()) throw std::invalid_argument("PhasedPattern: need >= 1 child");
}

block_t PhasedPattern::next_block() {
  const block_t b = children_[active_]->next_block();
  if (++pos_ >= refs_per_phase_) {
    pos_ = 0;
    active_ = (active_ + 1) % children_.size();
  }
  return b;
}

void PhasedPattern::skip(std::uint64_t n) {
  if (n == 0) return;
  std::vector<std::uint64_t> take(children_.size(), 0);
  std::size_t idx = active_;
  // Finish the current phase first.
  const std::uint64_t head = std::min(n, refs_per_phase_ - pos_);
  take[idx] += head;
  n -= head;
  pos_ += head;
  if (pos_ >= refs_per_phase_) {
    pos_ = 0;
    idx = (idx + 1) % children_.size();
  }
  // n > 0 here implies the head completed its phase, so pos_ == 0.
  const std::uint64_t phases = n / refs_per_phase_;
  const std::uint64_t per_child = phases / children_.size();
  if (per_child > 0) {
    for (std::uint64_t& t : take) t += per_child * refs_per_phase_;
  }
  for (std::uint64_t p = 0; p < phases % children_.size(); ++p) {
    take[(idx + p) % children_.size()] += refs_per_phase_;
  }
  idx = (idx + phases) % children_.size();
  n -= phases * refs_per_phase_;
  take[idx] += n;
  pos_ += n;
  active_ = idx;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (take[i] > 0) children_[i]->skip(take[i]);
  }
}

TemporalReusePattern::TemporalReusePattern(std::unique_ptr<BlockPattern> child,
                                           double reuse_prob, std::uint32_t window,
                                           std::uint64_t seed)
    : child_(std::move(child)), reuse_prob_(reuse_prob), ring_(window), rng_(seed) {
  if (!child_) throw std::invalid_argument("TemporalReuse: null child");
  if (window == 0) throw std::invalid_argument("TemporalReuse: window must be >= 1");
  if (reuse_prob_ < 0.0 || reuse_prob_ >= 1.0) {
    throw std::invalid_argument("TemporalReuse: reuse_prob must be in [0,1)");
  }
}

block_t TemporalReusePattern::next_block() {
  const auto size = static_cast<std::uint32_t>(ring_.size());
  if (filled_ > 0 && rng_.chance(reuse_prob_)) {
    // Geometric recency bias: halve the candidate range per fair coin flip.
    // The coin is the top bit of one draw, which is exactly chance(0.5):
    // (x >> 11) * 2^-53 < 0.5 holds iff bit 63 of x is clear.
    std::uint32_t span = filled_;
    while (span > 1 && (rng_() >> 63) == 0) span = (span + 1) / 2;
    const auto back = static_cast<std::uint32_t>(rng_.below(span));
    // back < filled_ <= size, so one conditional subtract wraps the index.
    std::uint32_t idx = head_ + size - 1 - back;
    if (idx >= size) idx -= size;
    return ring_[idx];
  }
  const block_t b = child_->next_block();
  ring_[head_] = b;
  if (++head_ == size) head_ = 0;
  if (filled_ < size) ++filled_;
  return b;
}

void TemporalReusePattern::fill_blocks(block_t* out, std::size_t n) {
  constexpr std::uint32_t kFresh = ~std::uint32_t{0};
  const auto size = static_cast<std::uint32_t>(ring_.size());
  std::uint32_t back[kFillBatch];
  block_t fresh[kFillBatch];
  while (n > 0) {
    const std::size_t m = std::min(n, kFillBatch);
    // Pass 1: the same draws next_block() makes, in the same order; only
    // the fill count (not the ring's contents) steers them.
    Rng rng = rng_;
    std::uint32_t filled = filled_;
    std::size_t pulls = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (filled > 0 && rng.chance(reuse_prob_)) {
        std::uint32_t span = filled;
        while (span > 1 && (rng() >> 63) == 0) span = (span + 1) / 2;
        back[i] = static_cast<std::uint32_t>(rng.below(span));
      } else {
        back[i] = kFresh;
        ++pulls;
        if (filled < size) ++filled;
      }
    }
    rng_ = rng;
    child_->fill_blocks(fresh, pulls);
    // Pass 2: replay the ring.
    std::uint32_t head = head_;
    const block_t* next_fresh = fresh;
    for (std::size_t i = 0; i < m; ++i) {
      if (back[i] == kFresh) {
        out[i] = ring_[head] = *next_fresh++;
        if (++head == size) head = 0;
      } else {
        std::uint32_t idx = head + size - 1 - back[i];
        if (idx >= size) idx -= size;
        out[i] = ring_[idx];
      }
    }
    head_ = head;
    filled_ = filled;
    out += m;
    n -= m;
  }
}

void TemporalReusePattern::skip(std::uint64_t n) {
  const double due = static_cast<double>(n) * (1.0 - reuse_prob_) + skip_carry_;
  const auto fresh = static_cast<std::uint64_t>(due);
  skip_carry_ = due - static_cast<double>(fresh);
  // Skip the bulk, then pull the tail through the ring so the recency window
  // holds the blocks a continuous run would have ended on.
  const std::uint64_t warm = std::min<std::uint64_t>(fresh, ring_.size());
  child_->skip(fresh - warm);
  for (std::uint64_t i = 0; i < warm; ++i) {
    ring_[head_] = child_->next_block();
    head_ = (head_ + 1) % static_cast<std::uint32_t>(ring_.size());
    filled_ = std::min<std::uint32_t>(filled_ + 1,
                                      static_cast<std::uint32_t>(ring_.size()));
  }
}

InstructionMixer::InstructionMixer(std::unique_ptr<BlockPattern> pattern, double mem_ratio,
                                   double store_ratio, std::uint64_t seed)
    : pattern_(std::move(pattern)),
      mem_ratio_(mem_ratio),
      store_ratio_(store_ratio),
      rng_(seed) {
  if (!pattern_) throw std::invalid_argument("InstructionMixer: null pattern");
  if (mem_ratio_ <= 0.0 || mem_ratio_ > 1.0) {
    throw std::invalid_argument("InstructionMixer: mem_ratio must be in (0,1]");
  }
  if (store_ratio_ < 0.0 || store_ratio_ > 1.0) {
    throw std::invalid_argument("InstructionMixer: store_ratio must be in [0,1]");
  }
  if (mem_ratio_ < 1.0) {
    log_keep_ = std::log(1.0 - mem_ratio_);
    // gap_threshold_[n] = smallest k with gap_formula(k) <= n. The gap of
    // the largest draw is 0, so every threshold lies in [0, 2^53 - 1].
    for (std::size_t n = 0; n < kGapTableSize; ++n) {
      std::uint64_t lo = 0, hi = (std::uint64_t{1} << 53) - 1;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (gap_formula(mid) <= n) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      gap_threshold_[n] = lo;
    }
  }
}

std::uint32_t InstructionMixer::gap_formula(std::uint64_t k) const noexcept {
  // Geometric gap with mean 1/mem_ratio - 1 (inversion method). Capped so a
  // single op can never skip more than a few intervals' worth of work.
  const double u = std::max(static_cast<double>(k) * 0x1.0p-53, 1e-12);
  const double g = std::floor(std::log(u) / log_keep_);
  return static_cast<std::uint32_t>(std::min(g, 1e6));
}

MemRef InstructionMixer::next() {
  MemRef ref;
  ref.block = pattern_->next_block();
  ref.is_store = rng_.chance(store_ratio_);
  if (mem_ratio_ < 1.0) ref.gap = gap_of(rng_() >> 11);
  return ref;
}

void InstructionMixer::fill(MemRef* out, std::size_t n) {
  block_t blocks[kFillBatch];
  const bool gaps = mem_ratio_ < 1.0;
  while (n > 0) {
    const std::size_t m = std::min(n, kFillBatch);
    pattern_->fill_blocks(blocks, m);
    Rng rng = rng_;
    for (std::size_t i = 0; i < m; ++i) {
      out[i].block = blocks[i];
      out[i].is_store = rng.chance(store_ratio_);
      out[i].gap = gaps ? gap_of(rng() >> 11) : 0;
    }
    rng_ = rng;
    out += m;
    n -= m;
  }
}

std::size_t InstructionMixer::fill_until(MemRef* out, std::size_t max_refs,
                                         std::uint64_t instr_budget) {
  const bool gaps = mem_ratio_ < 1.0;
  Rng rng = rng_;
  std::size_t m = 0;
  for (std::uint64_t instr = 0; m < max_refs && instr < instr_budget; ++m) {
    out[m].is_store = rng.chance(store_ratio_);
    out[m].gap = gaps ? gap_of(rng() >> 11) : 0;
    instr += static_cast<std::uint64_t>(out[m].gap) + 1;
  }
  block_t blocks[kFillBatch];
  for (std::size_t i = 0; i < m; i += kFillBatch) {
    const std::size_t b = std::min(m - i, kFillBatch);
    pattern_->fill_blocks(blocks, b);
    for (std::size_t j = 0; j < b; ++j) out[i + j].block = blocks[j];
  }
  rng_ = rng;
  return m;
}

void InstructionMixer::skip(std::uint64_t n_instr) {
  const double due = static_cast<double>(n_instr) * mem_ratio_ + skip_carry_;
  const auto refs = static_cast<std::uint64_t>(due);
  skip_carry_ = due - static_cast<double>(refs);
  if (refs > 0) pattern_->skip(refs);
}

}  // namespace esteem::trace
