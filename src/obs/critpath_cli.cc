#include "obs/critpath_cli.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <iostream>
#include <string_view>
#include <vector>

#include "exp/json.hh"
#include "tools/args.hh"

namespace g5r::obs {

namespace {

std::string formatLine(const char* fmt, ...) {
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

}  // namespace

char reqStageGlyph(ReqStage stage) {
    switch (stage) {
    case ReqStage::kHostLoad: return 'h';
    case ReqStage::kDmaStage: return 'd';
    case ReqStage::kSpmFill: return 'f';
    case ReqStage::kXbarQueue: return 'x';
    case ReqStage::kDramService: return 'm';
    case ReqStage::kRtlCompute: return 'r';
    case ReqStage::kDrain: return 'n';
    }
    return '?';
}

std::string renderBlameTable(const BlameSummary& blame) {
    std::string out;
    out += formatLine("%-13s %16s %8s %8s %8s\n", "stage", "ticks", "share",
                      "p50root", "maxroot");

    const double total = blame.totalTicks > 0 ? static_cast<double>(blame.totalTicks) : 1.0;
    double shareSum = 0;
    auto row = [&](const std::string& name, Tick ticks,
                   std::vector<double> rootShares) {
        const double share = 100.0 * static_cast<double>(ticks) / total;
        shareSum += share;
        double p50 = 0;
        double maxShare = 0;
        if (!rootShares.empty()) {
            std::sort(rootShares.begin(), rootShares.end());
            p50 = rootShares[rootShares.size() / 2];
            maxShare = rootShares.back();
        }
        out += formatLine("%-13s %16llu %7.2f%% %7.2f%% %7.2f%%\n", name.c_str(),
                          static_cast<unsigned long long>(ticks), share, p50, maxShare);
    };

    // Each root's share of its own window, for roots with a non-empty one.
    const auto rootShares = [&blame](auto ticksOf) {
        std::vector<double> shares;
        for (const RequestBlame& r : blame.roots) {
            if (r.total() > 0) {
                shares.push_back(100.0 * static_cast<double>(ticksOf(r)) /
                                 static_cast<double>(r.total()));
            }
        }
        return shares;
    };
    for (unsigned s = 0; s < kNumReqStages; ++s) {
        row(reqStageName(static_cast<ReqStage>(s)), blame.stageTicks[s],
            rootShares([s](const RequestBlame& r) { return r.stageTicks[s]; }));
    }
    row("unattributed", blame.unattributed,
        rootShares([](const RequestBlame& r) { return r.unattributed; }));
    out += formatLine("%-13s %16llu %7.2f%%\n", "total",
                      static_cast<unsigned long long>(blame.totalTicks),
                      blame.totalTicks > 0 ? shareSum : 0.0);
    return out;
}

std::string renderWaterfall(const std::vector<ReqRecord>& records,
                            const BlameSummary& blame, std::size_t maxRequests,
                            std::size_t width) {
    const RequestTree tree(records);
    if (width == 0) width = 64;

    std::string out;
    out += "per-request waterfall (one column = 1/" + std::to_string(width) +
           " of the request's window; legend: h=hostLoad d=dmaStage f=spmFill "
           "x=xbarQueue m=dramService r=rtlCompute n=drain .=unattributed)\n";
    const std::size_t count =
        maxRequests == 0 ? blame.roots.size() : std::min(maxRequests, blame.roots.size());
    for (std::size_t r = 0; r < count; ++r) {
        const RequestBlame& root = blame.roots[r];
        std::string strip(width, '.');
        if (root.total() > 0) {
            std::vector<ReqSpan> spans;
            tree.forEachClampedSpan(root.record, root.begin, root.end,
                                    [&spans](ReqSpan span) { spans.push_back(span); });
            const double ticksPerCol =
                static_cast<double>(root.total()) / static_cast<double>(width);
            for (std::size_t c = 0; c < width; ++c) {
                const Tick mid = root.begin +
                                 static_cast<Tick>((static_cast<double>(c) + 0.5) *
                                                   ticksPerCol);
                const ReqSpan* best = nullptr;
                for (const ReqSpan& span : spans) {
                    if (span.begin <= mid && mid < span.end &&
                        (best == nullptr || blameRank(span.stage) > blameRank(best->stage))) {
                        best = &span;
                    }
                }
                if (best != nullptr) strip[c] = reqStageGlyph(best->stage);
            }
        }
        out += formatLine("#%-5llu %-12s |%s| %llu ticks\n",
                          static_cast<unsigned long long>(root.id), root.kind.c_str(),
                          strip.c_str(),
                          static_cast<unsigned long long>(root.total()));
    }
    if (count < blame.roots.size()) {
        out += formatLine("... %zu more root requests (raise --waterfall=N)\n",
                          blame.roots.size() - count);
    }
    return out;
}

exp::Json blameReportJson(const ReqTraceFile& file, const BlameSummary& blame) {
    exp::Json doc = exp::Json::object();
    doc["schema"] = file.schema;
    doc["run"] = file.run;
    doc["endTick"] = static_cast<std::uint64_t>(file.endTick);
    doc["requests"] = static_cast<std::uint64_t>(file.records.size());
    doc["rootRequests"] = static_cast<std::uint64_t>(blame.roots.size());
    doc["totalTicks"] = static_cast<std::uint64_t>(blame.totalTicks);

    exp::Json stages = exp::Json::object();
    exp::Json shares = exp::Json::object();
    const double total = blame.totalTicks > 0 ? static_cast<double>(blame.totalTicks) : 1.0;
    for (unsigned s = 0; s < kNumReqStages; ++s) {
        const char* name = reqStageName(static_cast<ReqStage>(s));
        stages[name] = static_cast<std::uint64_t>(blame.stageTicks[s]);
        shares[name] = 100.0 * static_cast<double>(blame.stageTicks[s]) / total;
    }
    stages["unattributed"] = static_cast<std::uint64_t>(blame.unattributed);
    shares["unattributed"] = 100.0 * static_cast<double>(blame.unattributed) / total;
    doc["stageTicks"] = std::move(stages);
    doc["stageShares"] = std::move(shares);

    exp::Json roots = exp::Json::array();
    for (const RequestBlame& r : blame.roots) {
        exp::Json one = exp::Json::object();
        one["id"] = r.id;
        one["kind"] = r.kind;
        one["begin"] = static_cast<std::uint64_t>(r.begin);
        one["end"] = static_cast<std::uint64_t>(r.end);
        one["totalTicks"] = static_cast<std::uint64_t>(r.total());
        exp::Json st = exp::Json::object();
        for (unsigned s = 0; s < kNumReqStages; ++s) {
            st[reqStageName(static_cast<ReqStage>(s))] =
                static_cast<std::uint64_t>(r.stageTicks[s]);
        }
        st["unattributed"] = static_cast<std::uint64_t>(r.unattributed);
        one["stageTicks"] = std::move(st);
        roots.push(std::move(one));
    }
    doc["roots"] = std::move(roots);
    return doc;
}

namespace {

const tools::Command kCritpath{
    "g5r critpath",
    "usage: g5r critpath [--json] [--waterfall[=N]] [--assert-sum] "
    "<trace.reqtrace.jsonl>\n"
    "  critical-path stage blame over a request-trace sidecar\n"
    "  --json          machine-readable report on stdout\n"
    "  --waterfall[=N] per-request glyph strips (first N roots; default all)\n"
    "  --assert-sum    exit 1 unless per-stage blame sums to 100% of every\n"
    "                  request's end-to-end window\n",
    {{"--json"}, {"--waterfall", tools::Arity::kOptional}, {"--assert-sum"}},
    1,
    1,
};

}  // namespace

int critpathCliMain(int argc, const char* const* argv) {
    const tools::Args args = tools::parseArgs(kCritpath, argc, argv);
    if (args.exit) return *args.exit;
    const bool json = args.has("--json");
    const bool waterfall = args.has("--waterfall");
    const bool assertSum = args.has("--assert-sum");
    std::size_t waterfallCount = 0;
    if (!args.readUnsigned("--waterfall", waterfallCount)) return 2;
    const std::string path = args.positionals()[0];

    ReqTraceFile file;
    try {
        file = readReqTrace(path);
    } catch (const std::exception& e) {
        std::cerr << kCritpath.tool << ": " << e.what() << '\n';
        return 2;
    }

    const BlameSummary blame = computeBlame(file.records);

    // The computeBlame invariant, re-checked from the outputs: every root's
    // window fully attributed, nothing double-counted.
    Tick aggregate = blame.unattributed;
    for (unsigned s = 0; s < kNumReqStages; ++s) aggregate += blame.stageTicks[s];
    bool sumOk = aggregate == blame.totalTicks;
    for (const RequestBlame& r : blame.roots) {
        Tick sum = r.unattributed;
        for (unsigned s = 0; s < kNumReqStages; ++s) sum += r.stageTicks[s];
        sumOk = sumOk && sum == r.total();
    }

    if (json) {
        exp::Json doc = blameReportJson(file, blame);
        doc["sumOk"] = sumOk;
        std::cout << doc.dump() << '\n';
    } else {
        std::printf("# g5r critpath: %s\n", path.c_str());
        std::printf("# run '%s', %zu requests (%zu roots), final tick %llu\n",
                    file.run.c_str(), file.records.size(), blame.roots.size(),
                    static_cast<unsigned long long>(file.endTick));
        std::fputs(renderBlameTable(blame).c_str(), stdout);
        if (waterfall) {
            std::fputs(renderWaterfall(file.records, blame, waterfallCount).c_str(),
                       stdout);
        }
        if (assertSum) {
            std::printf("[%s] stage blame sums to 100%% of every request window\n",
                        sumOk ? "PASS" : "FAIL");
        }
    }
    return assertSum && !sumOk ? 1 : 0;
}

}  // namespace g5r::obs
