// Baseline suppression for g5r lint: adopt an existing codebase without
// drowning in its pre-existing findings.
//
// A baseline file records a fingerprint of every finding present when it was
// written (`g5r lint --write-baseline lint.base <files>`). A later run with
// `--baseline lint.base` drops findings whose fingerprint appears in the
// file, so only *new* findings remain — the standard ratchet workflow.
//
// Fingerprints are line-independent (ruleId | file | severity | nets), so
// unrelated edits that shift line numbers do not resurrect suppressed
// findings. Identical fingerprints are counted: a baseline with two
// occurrences suppresses at most two, and a third becomes visible.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lint/diagnostics.hh"

namespace g5r::lint {

struct Baseline {
    /// Fingerprint -> number of baselined occurrences.
    std::vector<std::pair<std::string, std::size_t>> entries;

    std::size_t total() const;
};

/// Stable fingerprint of one finding (line numbers excluded, see above).
std::string fingerprint(const Diagnostic& d);

/// Build a baseline covering every finding in @p report.
Baseline makeBaseline(const Report& report);

/// Remove findings covered by @p base; returns the survivors in order.
/// @p suppressed (optional) receives the number of findings dropped.
Report applyBaseline(const Report& report, const Baseline& base,
                     std::size_t* suppressed = nullptr);

/// JSON (de)serialization. load() throws std::runtime_error on unreadable
/// or malformed files; save() throws on I/O failure.
Baseline loadBaseline(const std::string& path);
void saveBaseline(const Baseline& base, const std::string& path);

}  // namespace g5r::lint
