// Static analysis over parsed netlists (the GHDL-path IR).
//
// Structural rules (stable IDs, see lint::ruleRegistry()):
//   G5R-SYNTAX          error    unparseable statement
//   G5R-UNDRIVEN        error    operand/output names a net with no driver
//   G5R-MULTI-DRIVER    error    net defined more than once
//   G5R-COMB-LOOP       error    combinational cycle (full path cited)
//   G5R-FLOATING-INPUT  warning  declared input consumed by nothing
//   G5R-FLOATING-NET    warning  non-input net with no consumers, not output
//   G5R-DEAD-CONE       warning  nets that reach no declared output
//   G5R-NO-OUTPUT       warning  netlist exports nothing
//   G5R-WIDTH-MISMATCH  warning  add/sub/mux operand widths disagree
//
// Semantic rules, driven by the rtl::analysis dataflow layer (levelization,
// value-range constant propagation, cone hashing — src/rtl/analysis/):
//   G5R-WIDTH-TRUNC     warning  result narrower than an operand AND the
//                                value-range analysis cannot prove the
//                                truncation benign; the diagnostic carries
//                                the computed range as evidence. Truncations
//                                proven benign (range fits) are not reported.
//   G5R-TRUNC-LOSS      warning  truncation proven lossy: every reachable
//                                value of the operation drops bits
//   G5R-CONST-NET       warning  non-const net provably stuck at one value
//                                (dead logic beyond G5R-DEAD-CONE's reach)
//   G5R-CONST-COMPARE   warning  lt/ltu/eq provably always-true/always-false
//   G5R-DUP-CONE        warning  structurally identical combinational cones
//   G5R-DEEP-LOGIC      warning  combinational depth exceeds the configured
//                                critical-level budget
//
// All passes are purely structural/static: no cycle of the design is
// executed.
#pragma once

#include <string>
#include <string_view>

#include "lint/diagnostics.hh"
#include "rtl/netlist_graph.hh"

namespace g5r::rtl {
class Netlist;
}

namespace g5r::lint {

struct NetlistLintOptions {
    /// G5R-DEEP-LOGIC fires when the levelized combinational depth exceeds
    /// this many levels (`g5r lint --max-level N`).
    unsigned maxLogicDepth = 64;
};

/// Run every netlist rule over an already-parsed graph. @p file is used for
/// diagnostic source locations ("" renders as "<netlist>").
Report run(const rtl::NetlistGraph& graph, const std::string& file = "",
           const NetlistLintOptions& opts = {});

/// Parse @p source tolerantly and lint the result.
Report runNetlistSource(std::string_view source, const std::string& file = "",
                        const NetlistLintOptions& opts = {});

/// Lint an elaborated (therefore error-free) netlist; only warnings can
/// result, since elaboration already enforced the error rules.
Report run(const rtl::Netlist& netlist, const std::string& file = "",
           const NetlistLintOptions& opts = {});

}  // namespace g5r::lint
