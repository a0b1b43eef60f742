// Compiled netlist backend: emit the canonical level schedule as C++.
//
// This is the missing half of the GHDL story: the paper's GHDL path compiles
// VHDL to *native code* behind the same wrapper ABI as Verilator, while our
// netlist stand-in interpreted every node. emitCompiledModel() walks the
// analysis substrate built in src/rtl/analysis — the deterministic
// level-major LevelSchedule, the const-prop value ranges, and the structural
// cone-dedup classes — and emits a self-contained C++ translation unit:
//
//   * one function per level-partitioned basic block (straight-line code,
//     no per-node dispatch, no dirty-bit bookkeeping);
//   * every net packed into a uint64_t slot; width masking folded into each
//     statement and *skipped* wherever const prop proves the pre-mask value
//     already fits the net (preMask.hi <= mask);
//   * nets proven constant initialized once at reset and never recomputed;
//   * duplicate cones evaluated once — later members of a verified
//     identical-cone class copy the canonical member's value;
//   * the bridge/rtl_api.h v2 table (generic device register map + the PR 4
//     idle_hint), so SharedLibModel dlopen()s the result exactly like the
//     hand-written models, plus the raw-kernel table of netlist_kernel.h
//     for conformance tests and eval-rate benchmarks.
//
// The interpreter (rtl/netlist.hh) stays the reference/debug backend: both
// its modes and the compiled library must agree on every output every cycle,
// which the conformance suite and the flight-recorder identity tests enforce.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "rtl/netlist.hh"

namespace g5r::rtl::codegen {

struct CodegenOptions {
    /// Model name reported by both ABI tables.
    std::string modelName = "netlist";

    /// Device-wrapper compute latency in RTL cycles (a start written to
    /// the control register raises busy for this many ticks before outputs settle — the
    /// pipeline depth of the registered design). 0 = the schedule depth,
    /// minimum 1.
    unsigned deviceLatency = 0;

    /// Statements per emitted level-block function. Levels are packed into
    /// blocks up to this budget (an oversized single level is split — nodes
    /// on one level are mutually independent, so any cut is safe). Bigger
    /// blocks promote more nets to register-allocatable locals — every block
    /// boundary pins the nets crossing it to the v[] array — at the cost of
    /// host-compiler time on huge designs.
    std::size_t blockBudget = 4096;

    /// Identifying label woven into the generated banner (source path or
    /// builtin spec).
    std::string sourceLabel = "<netlist>";
};

/// What the emitter did — the compiled backend's analogue of the lint dumps.
struct CodegenStats {
    std::size_t combNodes = 0;     ///< Schedule nodes considered.
    std::size_t emittedExprs = 0;  ///< Nodes emitted as real expressions.
    std::size_t constFolded = 0;   ///< Nodes proven constant, set at reset.
    std::size_t dedupReused = 0;   ///< Duplicate-cone members emitted as copies.
    std::size_t masksApplied = 0;  ///< Statements that needed a width mask.
    std::size_t masksSkipped = 0;  ///< Masks dropped via const-prop pre-mask proof.
    std::size_t levelBlocks = 0;   ///< Emitted basic-block functions.
    std::size_t localsPromoted = 0;  ///< Nets kept in block-local temporaries
                                     ///< (every reader in the same block)
                                     ///< instead of the v[] state array.
    std::size_t regs = 0;
    std::size_t inputs = 0;
    std::size_t outputs = 0;
    unsigned depth = 0;            ///< Schedule depth (levels).
};

/// Emit the self-contained C++ model for @p netlist. Throws NetlistError is
/// impossible here by construction (the Netlist already elaborated strictly).
std::string emitCompiledModel(const Netlist& netlist, const CodegenOptions& opts,
                              CodegenStats* stats = nullptr);

/// Convenience: strict-elaborate @p source (throws NetlistError like the
/// Netlist constructor on syntax/undriven/multi-driver/cycle findings), then
/// emit.
std::string emitCompiledModelFromSource(std::string_view source,
                                        const CodegenOptions& opts,
                                        CodegenStats* stats = nullptr);

}  // namespace g5r::rtl::codegen
