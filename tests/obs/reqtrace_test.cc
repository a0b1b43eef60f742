// Request-level causal tracing: sidecar format round-trip, the
// sums-to-100% blame invariant, overlap precedence, in-memory mode, the
// g5r critpath CLI, and the ObsOptions environment overlay (including the
// combined multi-variable precedence case).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/json.hh"
#include "obs/critpath_cli.hh"
#include "obs/options.hh"
#include "obs/reqtrace.hh"

namespace g5r::obs {
namespace {

[[maybe_unused]] std::string slurp(const std::string& path) {
    std::ifstream in{path};
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// A small but representative tree: one root job with a DMA child, spans
/// overlapping across stages, reported deliberately out of order.
void populate(ReqTraceSession& session) {
    session.onBegin(7, 3, "dmaPrefetch", 1'000);        // Child arrives first.
    session.onSpan(7, ReqStage::kDmaStage, 1'000, 5'000);
    session.onBegin(3, 0, "nvdlaJob", 0);
    session.onSpan(3, ReqStage::kRtlCompute, 5'000, 9'000);
    session.onSpan(3, ReqStage::kDramService, 6'000, 8'000);
    session.onSpan(3, ReqStage::kHostLoad, 0, 1'000);
    session.onEnd(3, 10'000);
    session.onEnd(7, 5'000);
    session.onSpan(7, ReqStage::kDramService, 2'000, 4'000);
}

TEST(ReqTrace, SidecarRoundTrips) {
    const std::string path = ::testing::TempDir() + "/roundtrip.reqtrace.jsonl";
    {
        ReqTraceSession session{path, "unit"};
        populate(session);
        session.finish(12'345);
        ASSERT_TRUE(session.ok());
    }

    const ReqTraceFile file = readReqTrace(path);
    EXPECT_EQ(file.schema, ReqTraceSession::kSchema);
    EXPECT_EQ(file.run, "unit");
    EXPECT_EQ(file.endTick, 12'345u);
    EXPECT_EQ(file.declaredRequests, 2u);
    ASSERT_EQ(file.records.size(), 2u);

    const ReqRecord& job = file.records[0];
    EXPECT_EQ(job.id, 3u);
    EXPECT_EQ(job.parent, 0u);
    EXPECT_EQ(job.kind, "nvdlaJob");
    EXPECT_EQ(job.beginTick, 0u);
    EXPECT_TRUE(job.ended);
    EXPECT_EQ(job.endTick, 10'000u);
    ASSERT_EQ(job.spans.size(), 3u);
    // Canonical (begin, stage, end) order, delta decoding reversed exactly.
    EXPECT_EQ(job.spans[0].stage, ReqStage::kHostLoad);
    EXPECT_EQ(job.spans[0].begin, 0u);
    EXPECT_EQ(job.spans[0].end, 1'000u);
    EXPECT_EQ(job.spans[1].stage, ReqStage::kRtlCompute);
    EXPECT_EQ(job.spans[1].begin, 5'000u);
    EXPECT_EQ(job.spans[2].stage, ReqStage::kDramService);
    EXPECT_EQ(job.spans[2].end, 8'000u);

    const ReqRecord& dma = file.records[1];
    EXPECT_EQ(dma.id, 7u);
    EXPECT_EQ(dma.parent, 3u);
    EXPECT_EQ(dma.kind, "dmaPrefetch");
    ASSERT_EQ(dma.spans.size(), 2u);
    EXPECT_EQ(dma.spans[0].stage, ReqStage::kDmaStage);
    EXPECT_EQ(dma.spans[1].begin, 2'000u);
    std::remove(path.c_str());
}

TEST(ReqTrace, InMemoryModeWritesNoFile) {
    ReqTraceSession session{"", "inmem"};
    populate(session);
    session.finish(9'999);
    EXPECT_TRUE(session.ok());
    EXPECT_TRUE(session.path().empty());
    EXPECT_EQ(session.requestsRecorded(), 2u);
    // Records are canonical and analysable without any file.
    const BlameSummary blame = computeBlame(session.data());
    ASSERT_EQ(blame.roots.size(), 1u);
    EXPECT_EQ(blame.totalTicks, 10'000u);
}

TEST(ReqTrace, UnopenablePathDegrades) {
    ReqTraceSession session{"/nonexistent-g5r-dir/deep/x.reqtrace.jsonl", "bad"};
    populate(session);
    session.finish(1);
    EXPECT_FALSE(session.ok());
    EXPECT_EQ(session.requestsRecorded(), 2u);  // Data still collected.
}

TEST(ReqTrace, ZeroLengthAndUntaggedSpansAreDropped) {
    ReqTraceSession session{"", "edge"};
    session.onBegin(1, 0, "job", 0);
    session.onSpan(1, ReqStage::kDramService, 500, 500);  // Empty.
    session.onSpan(1, ReqStage::kDramService, 700, 600);  // Inverted.
    session.onSpan(0, ReqStage::kDramService, 0, 100);    // Untagged id 0.
    session.onEnd(1, 1'000);
    session.finish(1'000);
    ASSERT_EQ(session.data().size(), 1u);
    EXPECT_TRUE(session.data()[0].spans.empty());
}

TEST(ReqTrace, BlameSumsTo100PercentPerRoot) {
    ReqTraceSession session{"", "sum"};
    populate(session);
    session.finish(10'000);
    const BlameSummary blame = computeBlame(session.data());
    ASSERT_EQ(blame.roots.size(), 1u);
    const RequestBlame& root = blame.roots[0];
    Tick sum = root.unattributed;
    for (const Tick t : root.stageTicks) sum += t;
    EXPECT_EQ(sum, root.total());
    Tick aggregate = blame.unattributed;
    for (const Tick t : blame.stageTicks) aggregate += t;
    EXPECT_EQ(aggregate, blame.totalTicks);
}

TEST(ReqTrace, OverlapPrecedenceAndChildAttribution) {
    ReqTraceSession session{"", "prec"};
    populate(session);
    session.finish(10'000);
    const BlameSummary blame = computeBlame(session.data());
    const RequestBlame& root = blame.roots[0];

    const auto ticks = [&root](ReqStage s) {
        return root.stageTicks[static_cast<std::size_t>(s)];
    };
    // [0,1000) hostLoad; [1000,5000) the child's dmaStage span owns the
    // staging window outright — the DRAM service of its own traffic
    // ([2000,4000)) is subsumed, not double-counted.
    EXPECT_EQ(ticks(ReqStage::kHostLoad), 1'000u);
    EXPECT_EQ(ticks(ReqStage::kDmaStage), 4'000u);
    // [5000,9000) rtlCompute, except [6000,8000) where the root's own DRAM
    // span outranks it.
    EXPECT_EQ(ticks(ReqStage::kRtlCompute), 2'000u);
    EXPECT_EQ(ticks(ReqStage::kDramService), 2'000u);
    // [9000,10000) nothing is open.
    EXPECT_EQ(root.unattributed, 1'000u);
    EXPECT_EQ(root.total(), 10'000u);
}

TEST(ReqTrace, EffectiveEndCoversLateChildren) {
    // The job ends at 1000 but its drain child works until 4000: the blame
    // window stretches to the last subtree activity.
    ReqTraceSession session{"", "drain"};
    session.onBegin(1, 0, "nvdlaJob", 0);
    session.onEnd(1, 1'000);
    session.onBegin(2, 1, "dmaDrain", 1'000);
    session.onSpan(2, ReqStage::kDrain, 1'000, 4'000);
    session.onEnd(2, 4'000);
    session.finish(4'000);
    const BlameSummary blame = computeBlame(session.data());
    ASSERT_EQ(blame.roots.size(), 1u);
    EXPECT_EQ(blame.roots[0].end, 4'000u);
    EXPECT_EQ(blame.roots[0].stageTicks[static_cast<std::size_t>(ReqStage::kDrain)],
              3'000u);
}

TEST(ReqTrace, NeverEndedRootUsesLastSpan) {
    ReqTraceSession session{"", "cut"};
    session.onBegin(1, 0, "job", 100);
    session.onSpan(1, ReqStage::kXbarQueue, 100, 600);
    session.finish(10'000);  // Run cut short: no requestEnd.
    const BlameSummary blame = computeBlame(session.data());
    ASSERT_EQ(blame.roots.size(), 1u);
    EXPECT_FALSE(session.data()[0].ended);
    EXPECT_EQ(blame.roots[0].end, 600u);
    EXPECT_EQ(blame.totalTicks, 500u);
}

TEST(ReqTrace, BlameReportJsonSharesSumTo100) {
    const std::string path = ::testing::TempDir() + "/shares.reqtrace.jsonl";
    {
        ReqTraceSession session{path, "shares"};
        populate(session);
        session.finish(10'000);
    }
    const ReqTraceFile file = readReqTrace(path);
    const BlameSummary blame = computeBlame(file.records);
    const exp::Json doc = blameReportJson(file, blame);
    double shareSum = 0;
    for (const auto& [stage, share] : doc.at("stageShares").members()) {
        shareSum += share.asDouble();
    }
    EXPECT_NEAR(shareSum, 100.0, 1e-9);
    EXPECT_EQ(doc.at("rootRequests").asInt(), 1);
    EXPECT_EQ(doc.at("totalTicks").asInt(), 10'000);
    std::remove(path.c_str());
}

TEST(ReqTrace, WaterfallRendersPrecedenceGlyphs) {
    ReqTraceSession session{"", "wf"};
    populate(session);
    session.finish(10'000);
    const BlameSummary blame = computeBlame(session.data());
    const std::string wf = renderWaterfall(session.data(), blame, 0, 20);
    // 20 columns over 10k ticks = 500 ticks/column: h h d d d d d d r r
    // r r m m m m r r . .
    EXPECT_NE(wf.find("hhdddddddd"), std::string::npos);
    EXPECT_NE(wf.find("mmmm"), std::string::npos);
    EXPECT_NE(wf.find(".."), std::string::npos);
    EXPECT_NE(wf.find("nvdlaJob"), std::string::npos);
    // Children are folded into their root, not printed as strips.
    EXPECT_EQ(wf.find("dmaPrefetch"), std::string::npos);
}

TEST(ReqTrace, CritpathCliExitCodes) {
    const std::string path = ::testing::TempDir() + "/cli.reqtrace.jsonl";
    {
        ReqTraceSession session{path, "cli"};
        populate(session);
        session.finish(10'000);
    }
    {
        const char* argv[] = {"critpath", "--assert-sum", path.c_str()};
        EXPECT_EQ(critpathCliMain(3, argv), 0);
    }
    {
        const char* argv[] = {"critpath", "--json", path.c_str()};
        EXPECT_EQ(critpathCliMain(3, argv), 0);
    }
    {
        const char* argv[] = {"critpath", "/no/such/file.reqtrace.jsonl"};
        EXPECT_EQ(critpathCliMain(2, argv), 2);
    }
    {
        const char* argv[] = {"critpath"};
        EXPECT_EQ(critpathCliMain(1, argv), 2);  // Usage.
    }
    {
        const char* argv[] = {"critpath", "--bogus", path.c_str()};
        EXPECT_EQ(critpathCliMain(3, argv), 2);
    }
    std::remove(path.c_str());
}

TEST(ReqTrace, CritpathCliRejectsBadWaterfallCounts) {
    const std::string path = ::testing::TempDir() + "/waterfall.reqtrace.jsonl";
    {
        ReqTraceSession session{path, "waterfall"};
        populate(session);
        session.finish(10'000);
    }
    const auto run = [&path](const char* flag) {
        const char* argv[] = {"critpath", flag, path.c_str()};
        return critpathCliMain(3, argv);
    };
    EXPECT_EQ(run("--waterfall"), 0);
    EXPECT_EQ(run("--waterfall=1"), 0);
    EXPECT_EQ(run("--waterfall=0"), 0);  // 0 = every root.
    EXPECT_EQ(run("--waterfall=x"), 2);
    EXPECT_EQ(run("--waterfall=3abc"), 2);
    EXPECT_EQ(run("--waterfall=-1"), 2);
    EXPECT_EQ(run("--waterfall="), 2);
    EXPECT_EQ(run("--waterfall=99999999999999999999"), 2);
    std::remove(path.c_str());
}

TEST(ReqTrace, OptionsComeFromEnvironment) {
    ::setenv("GEM5RTL_REQTRACE", "/tmp/reqtrace-out", 1);
    ObsOptions o = ObsOptions::fromEnv();
    EXPECT_TRUE(o.reqtraceEnabled);
    EXPECT_TRUE(o.anyEnabled());
    EXPECT_EQ(o.reqtraceDir, "/tmp/reqtrace-out");

    ::setenv("GEM5RTL_REQTRACE", "1", 1);
    o = ObsOptions::fromEnv();
    EXPECT_TRUE(o.reqtraceEnabled);
    EXPECT_EQ(o.reqtraceDir, ".");

    ::setenv("GEM5RTL_REQTRACE", "0", 1);
    o = ObsOptions::fromEnv();
    EXPECT_FALSE(o.reqtraceEnabled);

    ::unsetenv("GEM5RTL_REQTRACE");
    o = ObsOptions::fromEnv();
    EXPECT_FALSE(o.reqtraceEnabled);
}

TEST(ReqTrace, CombinedEnvOverlayPrecedence) {
    // The overlay contract: every GEM5RTL_* variable independently wins
    // over the programmatic SocConfig::obs base; untouched fields pass
    // through. Exercise all four sidecar families at once with deliberately
    // conflicting settings.
    ObsOptions base;
    base.traceEnabled = true;       // Env turns this OFF.
    base.traceDir = "/cfg/trace";
    base.metricsEnabled = false;    // Env turns this ON with its own dir.
    base.recordEnabled = true;      // Env doesn't mention it: base wins.
    base.recordDir = "/cfg/rec";
    base.reqtraceEnabled = false;   // Env turns this ON, dir form.
    base.reqtracePath = "-";        // Path is NOT env-controlled: survives.

    ::setenv("GEM5RTL_TRACE", "0", 1);
    ::setenv("GEM5RTL_METRICS", "/env/metrics", 1);
    ::setenv("GEM5RTL_REQTRACE", "/env/reqtrace", 1);
    ::unsetenv("GEM5RTL_RECORD");

    const ObsOptions merged = ObsOptions::fromEnv(base);
    EXPECT_FALSE(merged.traceEnabled);
    EXPECT_EQ(merged.traceDir, "/cfg/trace");  // Dir untouched by "0".
    EXPECT_TRUE(merged.metricsEnabled);
    EXPECT_EQ(merged.metricsDir, "/env/metrics");
    EXPECT_TRUE(merged.recordEnabled);
    EXPECT_EQ(merged.recordDir, "/cfg/rec");
    EXPECT_TRUE(merged.reqtraceEnabled);
    EXPECT_EQ(merged.reqtraceDir, "/env/reqtrace");
    EXPECT_EQ(merged.reqtracePath, "-");
    EXPECT_TRUE(merged.anyEnabled());

    ::unsetenv("GEM5RTL_TRACE");
    ::unsetenv("GEM5RTL_METRICS");
    ::unsetenv("GEM5RTL_REQTRACE");
}

}  // namespace
}  // namespace g5r::obs
