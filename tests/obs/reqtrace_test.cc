// Request-level causal tracing: sidecar format round-trip, canonical span
// order regardless of arrival order, the sums-to-100% blame invariant,
// overlap precedence, a seeded differential check of the cover-based blame
// and waterfall against an event-sweep oracle, in-memory mode, the g5r
// critpath CLI, and the ObsOptions environment overlay (including the
// combined multi-variable precedence case).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

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

auto spanKey(const ReqSpan& s) { return std::make_tuple(s.begin, s.stage, s.end); }

bool spanLess(const ReqSpan& a, const ReqSpan& b) { return spanKey(a) < spanKey(b); }

bool sameSpans(const std::vector<ReqSpan>& a, const std::vector<ReqSpan>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const ReqSpan& x, const ReqSpan& y) { return spanKey(x) == spanKey(y); });
}

// ------------------------------------------------------------------ oracle --
// The event-sweep attribution computeBlame used before it moved to per-stage
// covers: every clamped span contributes an open and a close event, and each
// elementary interval between event ticks goes to the highest-ranked open
// stage. Quadratic-ish and allocation-heavy, but obviously right.

constexpr std::array<int, kNumReqStages> kOracleRank = {
    /* hostLoad    */ 1,
    /* dmaStage    */ 6,
    /* spmFill     */ 4,
    /* xbarQueue   */ 2,
    /* dramService */ 3,
    /* rtlCompute  */ 0,
    /* drain       */ 5,
};

struct SweepEvent {
    Tick tick;
    unsigned stage;
    int delta;  ///< +1 span opens, -1 span closes.
};

/// Every span of @p root's subtree clamped to [begin, end), empty ones dropped.
std::vector<ReqSpan> clampedSpans(const RequestTree& tree, std::size_t root, Tick begin,
                                  Tick end) {
    std::vector<ReqSpan> out;
    for (const std::size_t idx : tree.subtree(root)) {
        for (const ReqSpan& span : tree.records[idx].spans) {
            const Tick b = std::max(span.begin, begin);
            const Tick e = std::min(span.end, end);
            if (e > b) out.push_back(ReqSpan{span.stage, b, e});
        }
    }
    return out;
}

BlameSummary sweepBlame(const std::vector<ReqRecord>& records) {
    BlameSummary summary;
    const RequestTree tree(records);
    for (const std::size_t rootIdx : tree.roots) {
        const ReqRecord& root = records[rootIdx];
        RequestBlame blame;
        blame.record = rootIdx;
        blame.id = root.id;
        blame.kind = root.kind;
        blame.begin = root.beginTick;
        Tick effectiveEnd = root.ended ? root.endTick : root.beginTick;
        for (const std::size_t idx : tree.subtree(rootIdx)) {
            const ReqRecord& rec = records[idx];
            if (rec.ended && rec.endTick > effectiveEnd) effectiveEnd = rec.endTick;
            for (const ReqSpan& span : rec.spans) {
                if (span.end > effectiveEnd) effectiveEnd = span.end;
            }
        }
        blame.end = effectiveEnd;

        std::vector<SweepEvent> events;
        for (const ReqSpan& span : clampedSpans(tree, rootIdx, blame.begin, effectiveEnd)) {
            const auto stage = static_cast<unsigned>(span.stage);
            events.push_back(SweepEvent{span.begin, stage, +1});
            events.push_back(SweepEvent{span.end, stage, -1});
        }
        std::sort(events.begin(), events.end(), [](const SweepEvent& a, const SweepEvent& b) {
            return a.tick < b.tick;
        });
        std::array<int, kNumReqStages> open{};
        Tick cursor = blame.begin;
        std::size_t i = 0;
        auto accumulate = [&](Tick upTo) {
            if (upTo <= cursor) return;
            int best = -1;
            for (unsigned s = 0; s < kNumReqStages; ++s) {
                if (open[s] > 0 && (best < 0 || kOracleRank[s] > kOracleRank[best])) {
                    best = static_cast<int>(s);
                }
            }
            const Tick len = upTo - cursor;
            if (best >= 0) {
                blame.stageTicks[static_cast<std::size_t>(best)] += len;
            } else {
                blame.unattributed += len;
            }
            cursor = upTo;
        };
        while (i < events.size()) {
            accumulate(std::min(events[i].tick, effectiveEnd));
            const Tick t = events[i].tick;
            while (i < events.size() && events[i].tick == t) {
                open[events[i].stage] += events[i].delta;
                ++i;
            }
        }
        accumulate(effectiveEnd);

        for (unsigned s = 0; s < kNumReqStages; ++s) summary.stageTicks[s] += blame.stageTicks[s];
        summary.unattributed += blame.unattributed;
        summary.totalTicks += blame.total();
        summary.roots.push_back(std::move(blame));
    }
    return summary;
}

/// The waterfall strip the midpoint scan over clamped spans draws for @p root.
std::string sweepStrip(const RequestTree& tree, const RequestBlame& root, std::size_t width) {
    std::string strip(width, '.');
    if (root.total() == 0) return strip;
    const std::vector<ReqSpan> spans = clampedSpans(tree, root.record, root.begin, root.end);
    const double ticksPerCol = static_cast<double>(root.total()) / static_cast<double>(width);
    for (std::size_t c = 0; c < width; ++c) {
        const Tick mid =
            root.begin + static_cast<Tick>((static_cast<double>(c) + 0.5) * ticksPerCol);
        const ReqSpan* best = nullptr;
        for (const ReqSpan& span : spans) {
            if (span.begin <= mid && mid < span.end &&
                (best == nullptr || kOracleRank[static_cast<unsigned>(span.stage)] >
                                        kOracleRank[static_cast<unsigned>(best->stage)])) {
                best = &span;
            }
        }
        if (best != nullptr) strip[c] = reqStageGlyph(best->stage);
    }
    return strip;
}

/// A random request forest, built by hand (not through a session): sparse
/// IDs, orphans, nested / overlapping / adjacent / zero-length spans, spans
/// sticking out of their root's window, children outliving their root,
/// roots that never ended, and — in about half the records — spans in no
/// particular order.
std::vector<ReqRecord> randomForest(std::uint64_t seed) {
    std::mt19937_64 rng{seed};
    const auto pick = [&rng](std::uint64_t n) { return static_cast<Tick>(rng() % n); };
    std::vector<ReqRecord> records(1 + pick(10));
    ReqId nextId = 1;
    for (std::size_t i = 0; i < records.size(); ++i) {
        ReqRecord& rec = records[i];
        rec.id = nextId;
        nextId += 1 + pick(3);
        if (i > 0 && pick(4) != 0) {
            rec.parent = records[pick(i)].id;
        } else if (pick(5) == 0) {
            rec.parent = 100'000;  // Absent parent: an orphan is a root.
        }
        rec.kind = "k" + std::to_string(i);
        rec.beginTick = pick(3'000);
        rec.ended = pick(4) != 0;
        if (rec.ended) rec.endTick = rec.beginTick + pick(4'000);
        const std::size_t spanCount = pick(30);
        for (std::size_t n = 0; n < spanCount; ++n) {
            const auto stage = static_cast<ReqStage>(pick(kNumReqStages));
            Tick b = pick(8'000);
            if (!rec.spans.empty() && pick(4) == 0) b = rec.spans.back().end;  // Adjacent.
            const Tick len = pick(6) == 0 ? 0 : pick(1'500);
            rec.spans.push_back(ReqSpan{stage, b, b + len});
        }
        if (pick(2) == 0) std::sort(rec.spans.begin(), rec.spans.end(), spanLess);
    }
    if (pick(3) == 0) std::shuffle(records.begin(), records.end(), rng);
    return records;
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

TEST(ReqTrace, SpansAreCanonicalWhateverTheArrivalOrder) {
    // Spans of two requests, with many shared begin ticks and stages so the
    // (stage, end) tie-breaks matter.
    std::mt19937_64 rng{42};
    struct Report {
        ReqId id;
        ReqSpan span;
    };
    std::vector<Report> reports;
    for (int i = 0; i < 400; ++i) {
        const Tick b = rng() % 50;
        reports.push_back(Report{rng() % 3 == 0 ? ReqId{9} : ReqId{5},
                                 ReqSpan{static_cast<ReqStage>(rng() % kNumReqStages), b,
                                         b + 1 + rng() % 20}});
    }
    std::array<std::vector<ReqSpan>, 2> canonical;  // ids 5 and 9, std::sort-ed.
    for (const Report& r : reports) canonical[r.id == 9].push_back(r.span);
    for (auto& spans : canonical) std::sort(spans.begin(), spans.end(), spanLess);

    const auto record = [](const std::vector<Report>& order) {
        const std::string path = ::testing::TempDir() + "/order.reqtrace.jsonl";
        ReqTraceSession session{path, "order"};
        session.onBegin(5, 0, "job", 0);
        session.onBegin(9, 5, "child", 3);
        for (std::size_t i = 0; i < order.size(); ++i) {
            session.onSpan(order[i].id, order[i].span.stage, order[i].span.begin,
                           order[i].span.end);
            if (i % 37 == 0) {  // Canonical at all times, not only after finish().
                for (const ReqRecord& rec : session.data()) {
                    EXPECT_TRUE(std::is_sorted(rec.spans.begin(), rec.spans.end(), spanLess));
                }
            }
        }
        session.onEnd(5, 70);
        session.finish(70);
        EXPECT_EQ(session.data().size(), 2u);
        std::array<std::vector<ReqSpan>, 2> spans;
        for (const ReqRecord& rec : session.data()) spans[rec.id == 9] = rec.spans;
        std::string bytes = slurp(path);
        std::remove(path.c_str());
        return std::make_pair(spans, bytes);
    };

    std::vector<Report> inOrder;
    for (const ReqId id : {ReqId{5}, ReqId{9}}) {
        for (const ReqSpan& span : canonical[id == 9]) inOrder.push_back(Report{id, span});
    }
    std::vector<Report> reversed(inOrder.rbegin(), inOrder.rend());
    std::vector<Report> shuffled = reports;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    const auto [baseSpans, baseBytes] = record(inOrder);
    EXPECT_TRUE(sameSpans(baseSpans[0], canonical[0]));
    EXPECT_TRUE(sameSpans(baseSpans[1], canonical[1]));
    EXPECT_NE(baseBytes.find("\"kind\":\"child\""), std::string::npos);
    for (const auto* order : {&reversed, &shuffled, &reports}) {
        const auto [spans, bytes] = record(*order);
        EXPECT_TRUE(sameSpans(spans[0], canonical[0]));
        EXPECT_TRUE(sameSpans(spans[1], canonical[1]));
        EXPECT_EQ(bytes, baseBytes);
    }
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

TEST(ReqTrace, CoverBlameMatchesTheSweepOracle) {
    for (std::uint64_t seed = 1; seed <= 2'000; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::vector<ReqRecord> records = randomForest(seed);
        const BlameSummary got = computeBlame(records);
        const BlameSummary want = sweepBlame(records);
        ASSERT_EQ(got.roots.size(), want.roots.size());
        for (std::size_t r = 0; r < got.roots.size(); ++r) {
            const RequestBlame& g = got.roots[r];
            const RequestBlame& w = want.roots[r];
            EXPECT_EQ(g.record, w.record);
            EXPECT_EQ(g.id, w.id);
            EXPECT_EQ(g.kind, w.kind);
            EXPECT_EQ(g.begin, w.begin);
            EXPECT_EQ(g.end, w.end);
            EXPECT_EQ(g.stageTicks, w.stageTicks);
            EXPECT_EQ(g.unattributed, w.unattributed);
        }
        EXPECT_EQ(got.stageTicks, want.stageTicks);
        EXPECT_EQ(got.unattributed, want.unattributed);
        EXPECT_EQ(got.totalTicks, want.totalTicks);
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(ReqTrace, WaterfallMatchesTheMidpointScanOracle) {
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::vector<ReqRecord> records = randomForest(seed);
        const BlameSummary blame = computeBlame(records);
        const std::size_t width = 16 + seed % 64;
        std::istringstream lines{renderWaterfall(records, blame, 0, width)};
        std::string line;
        std::getline(lines, line);  // Legend.
        const RequestTree tree(records);
        for (const RequestBlame& root : blame.roots) {
            ASSERT_TRUE(std::getline(lines, line));
            const std::size_t open = line.find('|');
            ASSERT_NE(open, std::string::npos);
            EXPECT_EQ(line.substr(open + 1, width), sweepStrip(tree, root, width));
        }
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(ReqTrace, ParserRejectsOutOfRangeStages) {
    const std::string header = "{\"g5rReqTrace\":1,\"schema\":1,\"run\":\"x\"}\n";
    const auto request = [](const std::string& stage) {
        return "{\"id\":1,\"par\":0,\"kind\":\"job\",\"b\":0,\"e\":9,\"spans\":[[" +
               stage + ",0,5]]}\n";
    };
    EXPECT_EQ(parseReqTrace(header + request("6"), "ok").records.at(0).spans.at(0).stage,
              ReqStage::kDrain);
    EXPECT_THROW(parseReqTrace(header + request("7"), "bad"), std::runtime_error);
    EXPECT_THROW(parseReqTrace(header + request("-1"), "bad"), std::runtime_error);
    EXPECT_THROW(parseReqTrace("", "empty"), std::runtime_error);
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

TEST(ReqTrace, CritpathCliRejectsADirectory) {
    // Reported as what it is, not as an empty request trace.
    const std::string dir = ::testing::TempDir();
    const char* argv[] = {"critpath", dir.c_str()};
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(critpathCliMain(2, argv), 2);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("g5r critpath: not a regular file: "), std::string::npos) << err;
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
