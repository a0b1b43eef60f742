// Shared diagnostics engine for the g5r static-analysis passes.
//
// Every lint pass (netlist, kernel-model, SoC elaboration) reports findings
// through the same vocabulary: a stable machine-readable rule ID
// ("G5R-COMB-LOOP"), a severity, a human message, an optional source
// location (meaningful for textual netlists), and the list of nets/signals/
// ports the finding cites — in a defined order, so combinational-loop
// diagnostics can name every net on the cycle path.
//
// A Report is an ordered collection of diagnostics plus severity counters.
// Two emitters are provided: a compiler-style text renderer
// ("file:12: error[G5R-COMB-LOOP]: ...") and a JSON renderer for tooling.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace g5r::lint {

enum class Severity { kNote, kWarning, kError };

std::string_view severityName(Severity s);

/// Location inside a textual source (netlist files). line == 0 means "no
/// location" — kernel/SoC findings are positionless.
struct SourceLoc {
    std::string file;
    std::size_t line = 0;

    bool present() const { return line != 0 || !file.empty(); }
};

struct Diagnostic {
    std::string ruleId;    ///< Stable ID, e.g. "G5R-COMB-LOOP".
    Severity severity = Severity::kWarning;
    std::string message;   ///< One-line human explanation.
    SourceLoc loc;
    /// Cited nets/signals/ports, in rule-defined order (for G5R-COMB-LOOP:
    /// the full cycle path, first net repeated at the end).
    std::vector<std::string> nets;
};

class Report {
public:
    Diagnostic& add(std::string ruleId, Severity severity, std::string message,
                    SourceLoc loc = {}, std::vector<std::string> nets = {});

    /// Merge another report's diagnostics (in order) into this one.
    void merge(const Report& other);

    const std::vector<Diagnostic>& diagnostics() const { return diags_; }
    bool empty() const { return diags_.empty(); }
    std::size_t size() const { return diags_.size(); }

    std::size_t count(Severity s) const;
    std::size_t errors() const { return count(Severity::kError); }
    std::size_t warnings() const { return count(Severity::kWarning); }
    bool hasErrors() const { return errors() > 0; }

    /// All diagnostics for one rule (testing convenience).
    std::vector<const Diagnostic*> byRule(std::string_view ruleId) const;

private:
    std::vector<Diagnostic> diags_;
};

/// Compiler-style rendering of one diagnostic (no trailing newline).
std::string formatDiagnostic(const Diagnostic& d);

/// Render every diagnostic, one per line, followed by a summary line when
/// @p summary is set ("3 errors, 1 warning generated.").
void emitText(const Report& report, std::ostream& os, bool summary = true);

/// Machine-readable rendering:
/// {"diagnostics":[{"rule":...,"severity":...,"message":...,"file":...,
///   "line":N,"nets":[...]}],"errors":N,"warnings":N}
void emitJson(const Report& report, std::ostream& os);

/// One registry row per stable rule ID (drives `g5r lint --list-rules` and
/// keeps DESIGN.md honest about what exists).
struct RuleInfo {
    std::string_view id;
    Severity defaultSeverity;
    std::string_view summary;
};

/// Every registered rule, ordered by subsystem then ID.
const std::vector<RuleInfo>& ruleRegistry();

/// Registry row for @p id, or nullptr for unknown IDs.
const RuleInfo* findRule(std::string_view id);

}  // namespace g5r::lint
