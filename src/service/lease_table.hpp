// Lease-based work distribution over the shared service journal
// (DESIGN.md §12).
//
// The unit of work is one *row* — a (workload x technique) cell of the
// sweep, indexed `workload_index * n_techniques + technique_index`. The row
// manifest is implicit in the sweep spec carried by the `svc` header record,
// so the journal only stores state transitions:
//
//   {"v":1,"kind":"svc","hash":...,"wire":"1","spec":"<hex>","crc":...}
//   {"v":1,"kind":"lease","row":"7","id":...,"gen":"2","owner":"host:412",
//    "ttl":"30000","t":"<ms>","crc":...}
//   {"v":1,"kind":"hb","row":"7","id":...,"t":"<ms>","crc":...}
//   {"v":1,"kind":"cell","row":"7","id":...,"gen":"2","digest":...,
//    "owner":...,"t":"<ms>","data":"<hex>","crc":...}
//   {"v":1,"kind":"err","row":"7","id":...,"owner":...,"t":"<ms>",
//    "workload":"mcf","technique":"esteem","phase":"run","what":"<hex>",
//    "crc":...}
//
// The `t` wall-clock stamps on svc/cell/err (alongside lease/hb's) exist for
// the observability plane: claim->resolution durations feed the --status ETA
// and the merged trace (src/service/observer.hpp). Loaders treat them as
// optional, so journals written before the field existed still replay.
//
// Claiming is optimistic: a worker appends a `lease` line and re-reads the
// journal; the *last* lease line for a row wins (O_APPEND gives all writers
// a total file order), so the loser of a race simply observes a foreign
// lease id and moves to another row. A lease is live until `t + ttl` in
// journal-recorded wall-clock; `hb` heartbeats extend it, and an expired
// lease is claimable by anyone (the generation number increments on every
// re-lease, making steals auditable).
//
// Fencing: complete()/fail() re-read the journal first and refuse to append
// when the row's current lease is no longer the caller's — a worker that
// stalled past its TTL (zombie) cannot journal over the thief's result.
// record() is the lease-free append of a sole in-process owner
// (service::run_journaled): its `cell` records carry no id/gen. The
// residual append/append race between two live-looking writers is resolved
// at read time: the simulator is deterministic, so double `cell` records
// must carry identical digests and are deduplicated; differing digests mark
// the row *conflicted*, which the coordinator reports as a hard integrity
// error (journals from mismatched binaries must never silently merge).
//
// Clocks are caller-provided (wall_ms() is the production source) so tests
// can force expiry without sleeping.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "resilience/journal_file.hpp"
#include "sim/runner.hpp"

namespace esteem::service {

/// Derived state of one row after replaying the journal.
struct RowState {
  std::uint64_t lease_id = 0;  ///< 0 = never leased.
  std::uint64_t generation = 0;
  std::string owner;
  std::int64_t lease_expires_ms = 0;  ///< Live while now < this.
  std::int64_t lease_ttl_ms = 0;      ///< TTL of the current lease.
  bool done = false;    ///< A success `cell` record exists.
  bool failed = false;  ///< Terminal `err` and no success (run_guarded already retried).
  bool conflict = false;  ///< Two success cells with differing digests.
  std::uint64_t digest = 0;
  std::string data;  ///< Canonical comparison bytes (done rows only).
  sim::RunError error;  ///< Meaningful when failed.

  bool resolved() const noexcept { return done || failed; }
  bool leased(std::int64_t now_ms) const noexcept {
    return lease_id != 0 && now_ms < lease_expires_ms;
  }
};

struct TableState {
  bool ok = false;
  std::string error;  ///< Set when !ok (missing/foreign journal, bad spec).
  std::vector<RowState> rows;
  std::size_t completed = 0;  ///< Rows with a success cell.
  std::size_t failed = 0;     ///< Terminally errored rows.
  bool conflict = false;      ///< Any row conflicted (integrity error).
  std::size_t damaged_lines = 0;

  /// Every row reached a terminal state (success or error).
  bool resolved() const noexcept { return ok && completed + failed == rows.size(); }
};

/// A successfully claimed row; the token complete()/fail() are fenced by.
struct LeaseClaim {
  std::size_t row = 0;
  std::uint64_t lease_id = 0;
  std::uint64_t generation = 0;
  bool stolen = false;  ///< Re-leased over an expired foreign lease.
};

enum class AppendStatus {
  kOk,
  kDuplicate,  ///< Row already resolved with the same digest; nothing written.
  kFenced,     ///< Our lease was superseded; nothing written.
  kConflict,   ///< Row already done with a DIFFERENT digest (integrity error).
  kError,      ///< Journal I/O failed (see last_error()).
};

class LeaseTable {
 public:
  static std::string journal_path(const std::string& dir);
  /// Wall clock in milliseconds since the Unix epoch — the production `now`.
  static std::int64_t wall_ms();

  /// Plans a sweep in `dir`: creates the directory and the service journal,
  /// and writes the `svc` header (spec bytes + sweep hash). Re-planning the
  /// *same* sweep is idempotent (resume); a dir already holding a different
  /// sweep is refused.
  bool create(const std::string& dir, const sim::SweepSpec& spec, const std::string& owner);

  /// Attaches to a planned dir: decodes the spec from the `svc` header and
  /// verifies it by recomputing the sweep hash (codec/binary-skew guard).
  bool open(const std::string& dir, const std::string& owner);

  const sim::SweepSpec& spec() const noexcept { return spec_; }
  std::uint64_t sweep_hash() const noexcept { return sweep_hash_; }
  std::size_t n_rows() const noexcept;
  std::size_t n_techniques() const noexcept { return spec_.techniques.size(); }
  const trace::Workload& row_workload(std::size_t row) const;
  sim::Technique row_technique(std::size_t row) const;
  const std::string& owner() const noexcept { return owner_; }
  const std::string& dir() const noexcept { return dir_; }
  /// By value: may be set from the heartbeat thread while the run loop reads.
  std::string last_error() const;

  /// Replays the journal into per-row state. Damaged interior lines are
  /// skipped and counted, never fatal.
  TableState load_state() const;

  /// Claims the first unresolved row whose lease is absent or expired at
  /// `now_ms` (append lease, re-read, verify we won). nullopt when nothing
  /// is claimable right now — which means "all resolved", "everything
  /// leased", or an I/O error (last_error() distinguishes the latter).
  std::optional<LeaseClaim> claim(std::int64_t now_ms);

  /// Heartbeat: extends `claim`'s lease to now + ttl. False when the lease
  /// was lost (expired and stolen) — the caller should abandon the row.
  bool renew(const LeaseClaim& claim, std::int64_t now_ms);

  /// Journals the row's result. Fenced (nothing written) when the lease is
  /// no longer ours; deduplicated when an identical result already landed.
  AppendStatus complete(const LeaseClaim& claim, const sim::TechniqueComparison& comparison);
  /// Lease-free complete(): journals `row`'s result without claiming it.
  /// Deduplicated when an identical result already landed; kConflict (and
  /// last_error()) when a different one did.
  AppendStatus record(std::size_t row, const sim::TechniqueComparison& comparison);
  AppendStatus fail(const LeaseClaim& claim, const sim::RunError& error);

 private:
  bool write_header();
  /// The one `cell` append path: dedupe/conflict against `st`, then append
  /// (with the lease id/generation when `claim` is non-null).
  AppendStatus append_cell(const TableState& st, std::size_t row, const std::string& data,
                           const LeaseClaim* claim);
  std::uint64_t next_lease_id(std::int64_t now_ms);
  /// Appends through the configured serialization: straight O_APPEND
  /// ([service] lock_mode=append) or wrapped in an advisory lock file
  /// (lock_mode=lockfile, for filesystems without atomic append).
  bool locked_append(const resilience::JournalRecord& rec);

  resilience::JournalFile file_;
  std::string dir_;
  std::string owner_;
  sim::SweepSpec spec_;
  std::uint64_t sweep_hash_ = 0;
  std::uint64_t lease_counter_ = 0;
  mutable std::mutex mutex_;  ///< Guards lease_counter_/last_error_ (heartbeat thread).
  mutable std::string last_error_;
};

}  // namespace esteem::service
