// Canonical byte codecs of the service journal: the SweepSpec carried by
// the `svc` header, so N worker processes reconstruct the planner's sweep
// bit-exactly (INI round-trips truncate floats; this codec is f64-exact),
// and the TechniqueComparison bytes carried by every `cell` record.
//
// Only result-determining fields plus the execution-policy sections
// ([resilience], [service], [observability]) are encoded; the row callback
// and the thread count are deliberately excluded — they never change a
// row's bytes.
//
// Skew guard: the service header stores both these bytes and the sweep's
// fingerprint hash. A worker recomputes the hash from the *decoded* spec and
// refuses to start when they disagree, so a codec that silently drops a
// field (e.g. after SystemConfig grows) fails loudly instead of computing
// subtly different rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace esteem::service {

/// Bump when the encoding changes; a mismatched journal is refused.
/// v2: [observability] joined the execution-policy sections.
/// v3: [sampling] joined the config.
/// v4: resilience.max_consecutive_errors and service.lock_mode.
inline constexpr std::uint32_t kWireVersion = 4;

std::string encode_sweep_spec(const sim::SweepSpec& spec);

/// Inverse of encode_sweep_spec into a default-constructed spec; false on
/// truncation, trailing bytes, or a version mismatch.
bool decode_sweep_spec(const std::string& bytes, sim::SweepSpec& out);

/// Identity of a sweep's row bytes: a hash over everything that determines
/// them (config, techniques, seed, budgets) EXCEPT the workload list, which
/// the service header pins separately, and the execution-policy sections
/// ([resilience], [service], [observability]), which never change a row.
std::uint64_t sweep_fingerprint_hash(const sim::SweepSpec& spec);

/// Canonical byte encoding of a comparison vector (hex-armored into `cell`
/// records). Not versioned: the header's sweep hash pins the semantics.
std::string encode_comparisons(const std::vector<sim::TechniqueComparison>& comparisons);
/// Inverse of encode_comparisons; false on a count other than
/// `n_techniques`, truncation, or trailing bytes.
bool decode_comparisons(const std::string& bytes, std::size_t n_techniques,
                        std::vector<sim::TechniqueComparison>& out);

}  // namespace esteem::service
