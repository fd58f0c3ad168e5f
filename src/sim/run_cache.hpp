// RunOutcome memoization shared by the sweep runner, the CLI, and every
// bench binary in the process.
//
// Key: a canonical byte-level fingerprint of everything that determines a
// run's result — the full SystemConfig, the workload spec, the technique,
// the seed, the instruction/warm-up budgets, and the timeline flag. The
// simulator is deterministic in these inputs, so a fingerprint match means
// the cached RunOutcome is bit-identical to what a fresh run would produce.
//
// Concurrency: the first requester of a key computes the run; concurrent
// requesters of the same key block on a shared_future instead of
// recomputing. Distinct keys never contend beyond the map lookup.
//
// Persistence (optional): pointing `ESTEEM_MEMO_DIR` at a directory (or
// calling set_disk_dir) spills every computed outcome to
// `esteem-memo-<hash>.bin` and reloads it in later processes, so
// regenerating a figure after the first run costs file reads, not
// simulation. Files carry a magic, a format version, and a CRC32 over the
// payload; a hash collision or a stale format reads as a plain miss, while
// a *damaged* file (truncated, bit-flipped, bad magic) is self-healing:
// it is quarantined to `<dir>/corrupt/`, counted in stats().quarantined
// and the `memo.quarantined` telemetry counter, and the outcome is
// transparently recomputed and re-stored. Delete the directory after
// changing simulator behaviour — the fingerprint hashes inputs, not code.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/experiment.hpp"

namespace esteem::sim {

/// Memo file format version. Bump whenever the fingerprint layout, the
/// serialized RunOutcome layout, or simulator behaviour changes: stale memo
/// files then read as misses. The model canary (tests/test_run_cache.cpp)
/// pins outcome digests per version, so a behaviour change without a bump
/// fails tier 1.
/// v2: EnergyScaleConfig joined the fingerprint.
/// v3: CRC32 over the payload joined the header (self-healing memo files).
/// v4: [sampling] joined the fingerprint; SamplingEstimates joined the outcome.
inline constexpr std::uint32_t kMemoFormatVersion = 4;

/// Canonical fingerprint of a RunSpec (stable across processes).
std::string run_spec_fingerprint(const RunSpec& spec);

/// FNV-1a of the fingerprint — the short key used for disk filenames and
/// log lines.
std::uint64_t fingerprint_hash(const std::string& fingerprint);

/// FNV-1a over the canonical serialized form of a RunOutcome: a bit-exact
/// identity for checking a memoized or replayed run against a fresh one.
std::uint64_t outcome_digest(const RunOutcome& outcome);

struct RunCacheStats {
  std::uint64_t hits = 0;          ///< Served from the in-process map.
  std::uint64_t misses = 0;        ///< Keys that had to be resolved.
  std::uint64_t disk_hits = 0;     ///< Misses satisfied by a memo file.
  std::uint64_t disk_stores = 0;   ///< Outcomes spilled to disk.
  std::uint64_t quarantined = 0;   ///< Damaged memo files moved to corrupt/.
  std::uint64_t store_errors = 0;  ///< Failed write-then-rename spills.
  std::uint64_t store_fsync_errors = 0;  ///< Temp-file fsync failures.

  std::uint64_t lookups() const noexcept { return hits + misses; }
};

class RunCache {
 public:
  /// Process-wide instance; adopts ESTEEM_MEMO_DIR on first use.
  static RunCache& instance();

  RunCache() = default;
  RunCache(const RunCache&) = delete;
  RunCache& operator=(const RunCache&) = delete;

  /// Returns the memoized outcome for `spec`, computing it (at most once per
  /// key, even under concurrency) on a miss. Propagates the run's exception
  /// and leaves the key uncached so a later call can retry.
  std::shared_ptr<const RunOutcome> get_or_run(const RunSpec& spec);

  /// get_or_run for each of `specs`, one outcome per spec (get_or_run is the
  /// group of one): each key counts one hit or miss, and hits and keys in
  /// flight elsewhere are shared. The keys that miss are looked for in memo
  /// files, then computed together: when two or more specs were asked for
  /// and all are fusable and share one stream, as one fused group
  /// (sim::run_fused, which also enforces each cell's run deadline), even if
  /// only one of them is left; otherwise each alone. Each outcome is stored
  /// under its own spec. A failure leaves every key this call computed
  /// uncached and propagates, so callers can fall back to get_or_run per
  /// spec, which reproduces each cell's own error.
  std::vector<std::shared_ptr<const RunOutcome>> get_or_run_group(
      const std::vector<RunSpec>& specs);

  /// Drops every in-memory entry and zeroes the stats. Disk files survive.
  void clear();

  /// Zeroes the hit/miss/disk counters while keeping every cached entry.
  /// Benches and tools call this to scope the process-global counters to one
  /// invocation, so a second bench in the same process reports its own hit
  /// rate instead of inheriting the first one's history.
  void reset_stats();

  /// Enables ("" disables) on-disk persistence. The directory is created on
  /// first store.
  void set_disk_dir(std::string dir);
  std::string disk_dir() const;

  RunCacheStats stats() const;
  std::size_t entries() const;

 private:
  using OutcomePtr = std::shared_ptr<const RunOutcome>;

  bool load_from_disk(std::uint64_t hash, const std::string& fingerprint,
                      OutcomePtr& out) const;
  void store_to_disk(std::uint64_t hash, const std::string& fingerprint,
                     const RunOutcome& outcome);
  /// Moves a damaged memo file into `<dir>/corrupt/` (removes it when the
  /// move fails) and counts the event; the caller then recomputes.
  void quarantine_file(const std::string& dir, std::uint64_t hash,
                       const char* reason) const;
  /// Counts a failed spill (stats, telemetry, stderr).
  void note_store_error(const char* reason);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_future<OutcomePtr>> map_;
  mutable RunCacheStats stats_;  ///< disk_hits ticks inside const load path.
  std::string disk_dir_;
};

}  // namespace esteem::sim
