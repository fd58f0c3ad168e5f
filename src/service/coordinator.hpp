// Sweep-service coordinator: plans a sweep into a service directory, waits
// for cooperating workers to resolve every (workload x technique) row, and
// aggregates the journaled cells into the same SweepResult a single-process
// run_sweep would return — same CSV bytes, same report, same error list
// (DESIGN.md §12). run_journaled is the in-process owner of the same
// directory format: it runs the sweep on the local task pool and journals
// each clean row as it finishes (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <string>

#include "service/lease_table.hpp"

namespace esteem::service {

/// Exit codes extending the sweep protocol (0 = ok, 3 = run errors,
/// 5 = interrupted, 2 = usage/open failure — see tools/esteem_cli.cpp).
inline constexpr int kExitIntegrity = 6;  ///< Conflicting cell digests.
inline constexpr int kExitTimeout = 7;    ///< --timeout-ms elapsed unresolved.

struct CoordinatorOptions {
  std::string dir;       ///< Planned service directory.
  std::string csv_path;  ///< "" = no CSV.
  /// Merged OpenMetrics exposition written after a successful collect; ""
  /// falls back to the planned sweep's [observability] metrics_path (and ""
  /// there means none). Stderr-only notice — stdout report bytes are pinned.
  std::string metrics_path;
  std::uint32_t timeout_ms = 0;  ///< Give up waiting after this long; 0 = never.
  bool quiet = false;            ///< Suppress progress lines on stderr.
};

struct CollectResult {
  bool ok = false;  ///< Opened, fully resolved, no integrity conflict.
  bool interrupted = false;
  bool timed_out = false;
  bool integrity_error = false;
  std::string error;        ///< Human-readable reason when !ok.
  sim::SweepResult result;  ///< Aggregated rows (valid when ok).
};

/// Plans `spec` into `dir`: creates the directory and writes the service
/// journal header (spec bytes + sweep hash = the implicit row manifest).
/// Idempotent for the same sweep; refuses a dir holding a different one.
bool plan_service(const std::string& dir, const sim::SweepSpec& spec, std::string& error);

/// Pure aggregation of a table state into run_sweep's result shape: rows in
/// workload order, one deterministic RunError per failed workload (baseline
/// outranks techniques, techniques in spec order). Exposed for tests.
sim::SweepResult aggregate_rows(const LeaseTable& table, const TableState& state);

/// Blocks until every row is resolved (polling [service] poll_ms), then
/// aggregates and writes opts.csv_path. Returns early on shutdown, timeout,
/// an unreadable journal, or an integrity conflict.
CollectResult wait_and_collect(const CoordinatorOptions& opts);

struct JournaledSweep {
  std::string error;        ///< Set when the dir was refused; nothing ran.
  sim::SweepResult result;  ///< Restored and freshly run rows, in spec order.
  std::size_t restored = 0;        ///< Rows restored from the dir, not re-run.
  std::size_t damaged_lines = 0;   ///< Journal lines skipped while restoring.
  std::size_t failed_appends = 0;  ///< Clean rows whose cells did not journal.

  bool ok() const noexcept { return error.empty(); }
};

/// Runs `spec` journaled into the service directory `dir`: opens it (or
/// plans it when missing or headerless), restores every workload whose
/// cells are all done, runs the rest through sim::run_sweep, and records
/// each clean row's cells the moment the row finishes. Rerunning the same
/// sweep on the same dir resumes it. A dir holding a different sweep
/// (sweep_fingerprint_hash or workload list differ) is refused with nothing
/// appended; execution-policy keys ([resilience], [service],
/// [observability]) may change between runs. Failed appends never fail the
/// sweep: they are counted and reported once on stderr.
JournaledSweep run_journaled(const std::string& dir, const sim::SweepSpec& spec);

/// Prints the figure report + error list for a collected sweep (mirroring
/// esteem_cli's sweep output) and returns the process exit code:
/// 0 ok, 3 run errors, 5 interrupted, 6 integrity, 7 timeout, 2 otherwise.
int report_collect(const CollectResult& collected, const CoordinatorOptions& opts);

}  // namespace esteem::service
