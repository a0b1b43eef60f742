// g5r: the command-line front end, `g5r <subcommand> [args]` (see kUsage).
// Every subcommand parses through tools/args.hh, so all share one grammar
// and one exit contract: 0 success, 1 a finding (lint errors, a divergence,
// a gate violation, a failed compile), 2 usage or input errors. stats and
// critpath live in g5r_obs (obs/stats_cli.hh, obs/critpath_cli.hh) so tests
// run them in-process.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "lint/baseline.hh"
#include "lint/diagnostics.hh"
#include "lint/netlist_lint.hh"
#include "obs/critpath_cli.hh"
#include "obs/diff.hh"
#include "obs/stats_cli.hh"
#include "rtl/analysis/cones.hh"
#include "rtl/analysis/levelize.hh"
#include "rtl/codegen/compile.hh"
#include "rtl/device_regmap.hh"
#include "rtl/netlist.hh"
#include "tools/args.hh"

namespace g5r::tools {
namespace {

// lint: netlist files (the GHDL-path format of rtl/netlist_graph.hh) and
// builtin designs, without executing a single cycle. Exit 1 on any
// error-severity finding (or warning under --werror).
const Command kLint{
    "g5r lint",
    "usage: g5r lint [options] [--builtin <name:N>]... [<netlist-file>...]\n"
    "  --json                  one JSON document (per-diagnostic \"file\" field)\n"
    "  --werror                treat warnings as errors for the exit status\n"
    "  --quiet                 suppress clean-file summaries\n"
    "  --builtin <name:N>      lint a generated design (names: bitonic)\n"
    "  --list-rules            print the rule registry and exit\n"
    "  --max-level <N>         G5R-DEEP-LOGIC budget (default 64 levels)\n"
    "  --dump-levels           print each input's canonical level schedule\n"
    "  --dump-cones            print each input's duplicate-cone statistics\n"
    "  --baseline <file>       suppress findings recorded in a baseline file\n"
    "  --write-baseline <file> record current findings as the new baseline\n",
    {{"--json"}, {"--werror"}, {"--quiet"}, {"--list-rules"}, {"--dump-levels"},
     {"--dump-cones"}, {"--max-level", Arity::kValue}, {"--baseline", Arity::kValue},
     {"--write-baseline", Arity::kValue}, {"--builtin", Arity::kValue}},
};

using Input = rtl::DesignSource;

void dumpLevels(const Input& input, const rtl::NetlistGraph& g,
                const rtl::analysis::LevelSchedule& sched, std::ostream& os) {
    os << "== levels: " << input.label << " (depth " << sched.depth() << ", "
       << sched.order.size() << " combinational node(s)"
       << (sched.acyclic() ? "" : ", CYCLIC") << ")\n";
    for (std::size_t level = 0; level < sched.levels.size(); ++level) {
        os << "  L" << level << ':';
        for (const int v : sched.levels[level]) os << ' ' << g.nodes[v].name;
        os << '\n';
    }
}

void dumpCones(const Input& input, const rtl::NetlistGraph& g,
               const rtl::analysis::DuplicateCones& dup, std::ostream& os) {
    os << "== cones: " << input.label << ": " << dup.combNodes
       << " combinational node(s), " << dup.distinctCones << " distinct cone(s), "
       << dup.redundantNodes << " redundant node(s) in " << dup.classes.size()
       << " duplicate class(es)\n";
    for (const auto& cls : dup.classes) {
        os << "  class size " << cls.nodes.size() << " (cone " << cls.coneSize
           << " node(s)):";
        for (const int v : cls.nodes) os << ' ' << g.nodes[v].name;
        os << '\n';
    }
}

/// The inputs named by --builtin options and positional files, in
/// command-line order; false (reported) on the first bad one.
bool collectInputs(const Args& args, std::string_view tool, std::vector<Input>& inputs) {
    for (const Arg& a : args.items) {
        if (a.option == "--builtin") {
            std::string error;
            auto design = rtl::builtinDesign(*a.value, error);
            if (!design) {
                std::cerr << tool << ": " << error << '\n';
                return false;
            }
            inputs.push_back(std::move(*design));
        } else if (a.option.empty()) {
            auto source = readInputFile(tool, *a.value);
            if (!source) return false;
            inputs.push_back(Input{*a.value,
                                   std::filesystem::path{*a.value}.stem().string(),
                                   std::move(*source)});
        }
    }
    return true;
}

int lintMain(int argc, const char* const* argv) {
    const Args args = parseArgs(kLint, argc, argv);
    if (args.exit) return *args.exit;
    if (args.has("--list-rules")) {
        for (const auto& rule : lint::ruleRegistry()) {
            std::cout << rule.id << "  (" << lint::severityName(rule.defaultSeverity)
                      << ")  " << rule.summary << '\n';
        }
        return 0;
    }
    const bool json = args.has("--json"), werror = args.has("--werror"),
               quiet = args.has("--quiet");
    const bool wantLevels = args.has("--dump-levels"), wantCones = args.has("--dump-cones");
    const std::string baselinePath = args.value("--baseline").value_or("");
    const std::string writeBaselinePath = args.value("--write-baseline").value_or("");
    lint::NetlistLintOptions opts;
    if (!args.readUnsigned("--max-level", opts.maxLogicDepth)) return 2;
    std::vector<Input> inputs;
    if (!collectInputs(args, kLint.tool, inputs)) return 2;
    if (inputs.empty()) return args.usageError("");

    lint::Baseline baseline;
    if (!baselinePath.empty()) {
        try {
            baseline = lint::loadBaseline(baselinePath);
        } catch (const std::exception& e) {
            std::cerr << kLint.tool << ": " << e.what() << '\n';
            return 2;
        }
    }

    // In JSON mode all inputs merge into one document; the per-diagnostic
    // "file" field keeps them apart.
    lint::Report merged;
    std::size_t errors = 0, warnings = 0, suppressed = 0;
    for (const auto& input : inputs) {
        lint::Report report = lint::runNetlistSource(input.source, input.label, opts);
        if (!baselinePath.empty()) {
            std::size_t dropped = 0;
            report = lint::applyBaseline(report, baseline, &dropped);
            suppressed += dropped;
        }
        errors += report.errors();
        warnings += report.warnings();
        merged.merge(report);
        if (!json) {
            if (!report.empty()) {
                lint::emitText(report, std::cout);
            } else if (!quiet) {
                std::cout << input.label << ": clean\n";
            }
        }
        if (wantLevels || wantCones) {
            // Keep the JSON document on stdout parseable: dumps go to stderr
            // under --json.
            std::ostream& dumpOs = json ? std::cerr : std::cout;
            const auto g = rtl::parseNetlistGraph(input.source);
            const auto sched = rtl::analysis::levelize(g);
            if (wantLevels) dumpLevels(input, g, sched, dumpOs);
            if (wantCones) {
                dumpCones(input, g, rtl::analysis::findDuplicateCones(g, sched), dumpOs);
            }
        }
    }
    if (json) lint::emitJson(merged, std::cout);
    if (!writeBaselinePath.empty()) {
        try {
            lint::saveBaseline(lint::makeBaseline(merged), writeBaselinePath);
        } catch (const std::exception& e) {
            std::cerr << kLint.tool << ": " << e.what() << '\n';
            return 2;
        }
        if (!quiet && !json) {
            std::cout << "baseline: wrote " << merged.diagnostics().size()
                      << " finding(s) to " << writeBaselinePath << '\n';
        }
    }
    if (!baselinePath.empty() && !quiet && !json) {
        std::cout << "baseline: suppressed " << suppressed << " finding(s)\n";
    }
    if (!json && !quiet && inputs.size() > 1) {
        std::cout << inputs.size() << " input(s): " << errors << " error(s), "
                  << warnings << " warning(s)\n";
    }
    return (errors > 0 || (werror && warnings > 0)) ? 1 : 0;
}

// netlistc: the GHDL role in the paper's toolflow — strict elaboration,
// levelized codegen (rtl/codegen) and a host-toolchain compile into a shared
// library exporting the bridge/rtl_api.h v2 table and the raw-kernel table
// of netlist_kernel.h. Exit 1 on an elaboration, codegen or compile failure.
const Command kNetlistc{
    "g5r netlistc",
    "usage: g5r netlistc [options] (<netlist-file> | --builtin <name:N>)\n"
    "                    (-o <model.so> | --emit-only <file.cc>)\n"
    "  -o <path>           output shared library\n"
    "  --emit-only <file>  write the generated C++ and stop (no compile)\n"
    "  --builtin <name:N>  compile a generated design (names: bitonic)\n"
    "  --model-name <s>    ABI model name (default: derived from the input)\n"
    "  --latency <cycles>  device-wrapper latency (default: builtin pipeline\n"
    "                      depth, else the schedule depth)\n"
    "  --cxx <path>        host C++ compiler (default: $CXX, then c++)\n"
    "  --cxxflag <flag>    extra compiler flag (repeatable)\n"
    "  --keep-source       leave the generated <model.so>.cc next to the .so\n"
    "  --stats             print codegen statistics\n"
    "  --quiet             suppress the success line\n",
    {{"-o", Arity::kValue}, {"--emit-only", Arity::kValue}, {"--model-name", Arity::kValue},
     {"--latency", Arity::kValue}, {"--cxx", Arity::kValue}, {"--cxxflag", Arity::kValue},
     {"--builtin", Arity::kValue}, {"--keep-source"}, {"--stats"}, {"--quiet"}},
};

int netlistcMain(int argc, const char* const* argv) {
    const Args args = parseArgs(kNetlistc, argc, argv);
    if (args.exit) return *args.exit;
    const std::string& tool = kNetlistc.tool;
    rtl::codegen::CodegenOptions cgOpts;
    rtl::codegen::CompileOptions ccOpts;
    if (!args.readUnsigned("--latency", cgOpts.deviceLatency)) return 2;
    const std::string outPath = args.value("-o").value_or("");
    const std::string emitPath = args.value("--emit-only").value_or("");
    if (const auto cxx = args.value("--cxx")) ccOpts.cxx = *cxx;
    for (const Arg& a : args.items) {
        if (a.option == "--cxxflag") ccOpts.extraFlags.push_back(*a.value);
    }
    ccOpts.keepSource = args.has("--keep-source");

    std::vector<Input> inputs;
    if (!collectInputs(args, tool, inputs)) return 2;
    if (inputs.size() != 1) {
        return args.usageError(inputs.empty() ? "" : "exactly one input, please");
    }
    if (outPath.empty() && emitPath.empty()) {
        return args.usageError("-o <model.so> (or --emit-only) required");
    }
    const Input& input = inputs.front();
    cgOpts.modelName = args.value("--model-name").value_or("");
    if (cgOpts.modelName.empty()) cgOpts.modelName = input.modelName;
    cgOpts.sourceLabel = input.label;
    if (cgOpts.deviceLatency == 0) cgOpts.deviceLatency = input.latency;

    rtl::codegen::CodegenStats stats;
    try {
        const rtl::Netlist netlist{input.source};

        // The device wrapper's input and output windows end below its
        // control block. The raw kernel ABI has no such limit, but a
        // silently broken wrapper helps nobody.
        const auto& nodes = netlist.graph().nodes;
        const auto numInputs = std::count_if(nodes.begin(), nodes.end(), [](const auto& n) {
            return n.op == rtl::NetOp::kInput;
        });
        const auto numOutputs = netlist.graph().outputs.size();
        if (std::max<std::size_t>(numInputs, numOutputs) > rtl::regmap::kMaxElements) {
            std::cerr << tool << ": " << input.label << " has " << numInputs << " inputs and "
                      << numOutputs << " outputs; the device register map holds at most "
                      << rtl::regmap::kMaxElements << " of each\n";
            return 1;
        }

        if (!emitPath.empty()) {
            const std::string source =
                rtl::codegen::emitCompiledModel(netlist, cgOpts, &stats);
            std::ofstream out(emitPath, std::ios::trunc);
            if (!out || !(out << source).flush()) {
                std::cerr << tool << ": cannot write " << emitPath << '\n';
                return 1;
            }
        }
        if (!outPath.empty()) {
            std::string error;
            if (!rtl::codegen::compileNetlistModel(netlist, cgOpts, ccOpts, outPath, &error,
                                                   &stats)) {
                std::cerr << tool << ": " << error << '\n';
                return 1;
            }
        }
    } catch (const rtl::NetlistError& e) {
        std::cerr << tool << ": " << input.label << " failed to elaborate:\n"
                  << e.what() << '\n';
        return 1;
    }

    if (args.has("--stats")) {
        std::cout << "codegen " << input.label << ": " << stats.combNodes
                  << " comb node(s) -> " << stats.emittedExprs << " expr(s) in "
                  << stats.levelBlocks << " block(s) over depth " << stats.depth << "; "
                  << stats.constFolded << " const-folded, " << stats.dedupReused
                  << " dedup-reused, " << stats.localsPromoted
                  << " register-promoted; masks " << stats.masksApplied << " applied / "
                  << stats.masksSkipped << " folded away; " << stats.inputs
                  << " input(s), " << stats.outputs << " output(s), " << stats.regs
                  << " reg(s)\n";
    }
    if (!args.has("--quiet")) {
        if (!outPath.empty()) {
            std::cout << input.label << " -> " << outPath << " (model \"" << cgOpts.modelName
                      << "\", latency "
                      << (cgOpts.deviceLatency > 0 ? cgOpts.deviceLatency
                                                   : std::max(1u, stats.depth))
                      << " cycle(s))\n";
        } else {
            std::cout << input.label << " -> " << emitPath << " (emit only)\n";
        }
    }
    return 0;
}

// diff: exit 1 on a divergence, 2 on incomparable recordings (reason on
// stderr, or in the --json document so scripts never parse stderr) and on
// inputs that are not readable regular files (reported on stderr).
const Command kDiff{
    "g5r diff",
    "usage: g5r diff [--packets-only] [--json] <a.g5rec> <b.g5rec>\n"
    "  compares two flight recordings (GEM5RTL_RECORD sidecars) and\n"
    "  reports the first divergent interval and owning SimObject.\n"
    "  --packets-only  ignore the dispatch lane (gated-vs-ungated pairs)\n"
    "  --json          one JSON report document on stdout\n",
    {{"--packets-only"}, {"--json"}}, 2, 2};

int diffMain(int argc, const char* const* argv) {
    const Args args = parseArgs(kDiff, argc, argv);
    if (args.exit) return *args.exit;
    const std::vector<std::string> paths = args.positionals();
    const auto textA = readInputFile(kDiff.tool, paths[0]);
    if (!textA) return 2;
    const auto textB = readInputFile(kDiff.tool, paths[1]);
    if (!textB) return 2;
    obs::DivergenceReport rep;
    try {
        rep = obs::findFirstDivergence(
            obs::Recording::parse(*textA, paths[0]), obs::Recording::parse(*textB, paths[1]),
            args.has("--packets-only") ? obs::DiffLane::kPacketsOnly : obs::DiffLane::kBoth);
    } catch (const std::exception& e) {
        rep.comparable = false;
        rep.error = e.what();
    }
    if (args.has("--json")) {
        std::cout << obs::divergenceReportJson(rep, paths[0], paths[1]) << '\n';
    } else if (!rep.comparable) {
        std::cerr << kDiff.tool << ": " << rep.error << '\n';
    } else {
        std::cout << obs::formatDivergenceReport(rep, paths[0], paths[1]);
    }
    return !rep.comparable ? 2 : (rep.diverged ? 1 : 0);
}

constexpr std::string_view kUsage =
    "usage: g5r <command> [args]\n"
    "  lint      static analysis of netlist files and builtin designs\n"
    "  netlistc  compile a netlist into a native model shared library\n"
    "  diff      first divergence between two .g5rec flight recordings\n"
    "  stats     metrics timelines, percentile tables, the BENCH gate\n"
    "  critpath  critical-path stage blame over .reqtrace.jsonl sidecars\n"
    "run 'g5r <command> --help' for its options\n";

constexpr std::pair<std::string_view, int (*)(int, const char* const*)> kSubcommands[] = {
    {"lint", lintMain},  {"netlistc", netlistcMain},       {"diff", diffMain},
    {"stats", obs::statsCliMain}, {"critpath", obs::critpathCliMain}};

}  // namespace
}  // namespace g5r::tools

int main(int argc, char** argv) {
    using namespace g5r::tools;
    const std::string_view name = argc > 1 ? argv[1] : "";
    if (name == "--help" || name == "-h") {
        std::cout << kUsage;
        return 0;
    }
    for (const auto& [sub, subMain] : kSubcommands) {
        if (sub == name) return subMain(argc - 1, argv + 1);
    }
    if (!name.empty()) std::cerr << "g5r: unknown command " << name << '\n';
    std::cerr << kUsage;
    return 2;
}
