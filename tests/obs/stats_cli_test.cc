// g5r stats: diff semantics (the CI perf-regression gate), threshold
// resolution, structural-loss violations, CLI exit codes, and render smoke.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "exp/json.hh"
#include "obs/metrics.hh"
#include "obs/stats_cli.hh"

namespace g5r::obs {
namespace {

/// One fig7-style hbm/q64 point. exp::Json has no erase(), so variants are
/// built, not mutated: @p includeP99 false leaves the metric out entirely.
exp::Json makePoint(double runtimeTicks, double p99 = 114688.0,
                    bool includeP99 = true, const char* memTech = "hbm") {
    exp::Json point = exp::Json::object();
    point["memTech"] = memTech;
    point["maxInflight"] = 64u;
    point["runtimeTicks"] = runtimeTicks;
    point["wallSeconds"] = 1.0;
    point["memLatencyP50"] = 21504.0;
    if (includeP99) point["memLatencyP99"] = p99;
    exp::Json one = exp::Json::object();
    one["count"] = std::uint64_t{100000};
    one["minTicks"] = 1500.0;
    one["meanTicks"] = 23456.5;
    one["maxTicks"] = 901234.0;
    one["p50Ticks"] = 21504.0;
    one["p99Ticks"] = p99;
    exp::Json lat = exp::Json::object();
    lat["nvdla0.dbbif"] = std::move(one);
    point["memLatency"] = std::move(lat);
    return point;
}

/// A minimal fig7-style BENCH document wrapping @p point.
exp::Json docWithPoint(exp::Json point) {
    exp::Json doc = exp::Json::object();
    doc["schema"] = 2;
    doc["bench"] = "fig7";
    doc["jobs"] = 2;
    exp::Json host = exp::Json::object();
    host["name"] = "somehost";
    host["threads"] = 8;
    doc["host"] = std::move(host);
    doc["points"] = exp::Json::array();
    doc["points"].push(std::move(point));
    return doc;
}

exp::Json benchDoc(double runtimeTicks, double p99 = 114688.0) {
    return docWithPoint(makePoint(runtimeTicks, p99));
}

std::string writeDoc(const std::string& name, const exp::Json& doc) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out{path};
    out << doc.dump(2);
    return path;
}

TEST(StatsDiff, IdenticalDocumentsPass) {
    const exp::Json doc = benchDoc(1e6);
    const StatsDiffReport report = diffBenchDocuments(doc, doc, StatsDiffOptions{});
    EXPECT_TRUE(report.withinThresholds());
    EXPECT_EQ(report.pointsCompared, 1u);
    EXPECT_GE(report.metricsCompared, 3u);
    EXPECT_TRUE(report.violations.empty());
}

TEST(StatsDiff, RegressionBeyondThresholdFails) {
    const exp::Json base = benchDoc(1e6);
    const exp::Json cur = benchDoc(1.6e6);  // +60% runtime.
    const StatsDiffReport report = diffBenchDocuments(base, cur, StatsDiffOptions{});
    EXPECT_FALSE(report.withinThresholds());
    ASSERT_EQ(report.violations.size(), 1u);
    const StatsDiffViolation& v = report.violations[0];
    EXPECT_EQ(v.metric, "runtimeTicks");
    EXPECT_DOUBLE_EQ(v.baseline, 1e6);
    EXPECT_DOUBLE_EQ(v.current, 1.6e6);
    EXPECT_NEAR(v.relDelta, 0.6, 1e-9);
    EXPECT_DOUBLE_EQ(v.threshold, 0.25);
    EXPECT_NE(v.point.find("memTech=hbm"), std::string::npos);
    EXPECT_NE(v.point.find("maxInflight=64"), std::string::npos);

    // Within the default 25% the same pair passes.
    const StatsDiffReport small =
        diffBenchDocuments(base, benchDoc(1.2e6), StatsDiffOptions{});
    EXPECT_TRUE(small.withinThresholds());
}

TEST(StatsDiff, PerMetricThresholdOverrides) {
    const exp::Json base = benchDoc(1e6, 114688.0);
    const exp::Json cur = benchDoc(1e6, 137000.0);  // p99 +19.5%.
    // Default 25%: passes.
    EXPECT_TRUE(diffBenchDocuments(base, cur, StatsDiffOptions{}).withinThresholds());
    // Tighten memLatencyP99 to 10%: fails; other metrics keep the default.
    StatsDiffOptions opts;
    opts.perMetric.push_back(MetricThreshold{"memLatencyP99", 0.10});
    const StatsDiffReport report = diffBenchDocuments(base, cur, opts);
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].metric, "memLatencyP99");
    EXPECT_DOUBLE_EQ(report.violations[0].threshold, 0.10);
}

TEST(StatsDiff, HostDependentMetricsAreExcluded) {
    const exp::Json base = benchDoc(1e6);
    // Current run on a very different host, with very different wall time.
    exp::Json slowPoint = makePoint(1e6);
    slowPoint["wallSeconds"] = 5000.0;
    exp::Json cur = docWithPoint(std::move(slowPoint));
    cur["host"]["threads"] = 128;
    const StatsDiffReport report = diffBenchDocuments(base, cur, StatsDiffOptions{});
    EXPECT_TRUE(report.withinThresholds()) << formatStatsDiffReport(report, "b", "c");
}

TEST(StatsDiff, StructuralLossesAreViolations) {
    const exp::Json base = benchDoc(1e6);

    // Missing point: current has a different identity (ddr4, not hbm).
    const exp::Json curPoint =
        docWithPoint(makePoint(1e6, 114688.0, true, "ddr4"));
    const StatsDiffReport missingPoint =
        diffBenchDocuments(base, curPoint, StatsDiffOptions{});
    ASSERT_FALSE(missingPoint.violations.empty());
    EXPECT_EQ(missingPoint.violations[0].note, "missing point");

    // Missing metric: current dropped memLatencyP99.
    const exp::Json curMetric = docWithPoint(makePoint(1e6, 114688.0, false));
    const StatsDiffReport missingMetric =
        diffBenchDocuments(base, curMetric, StatsDiffOptions{});
    ASSERT_EQ(missingMetric.violations.size(), 1u);
    EXPECT_EQ(missingMetric.violations[0].note, "missing metric");
    EXPECT_EQ(missingMetric.violations[0].metric, "memLatencyP99");

    // New metric: a nonzero metric the baseline does not carry.
    exp::Json extraPoint = makePoint(1e6);
    extraPoint["memLatencyP999"] = 999999.0;
    const StatsDiffReport newMetric = diffBenchDocuments(
        base, docWithPoint(std::move(extraPoint)), StatsDiffOptions{});
    ASSERT_EQ(newMetric.violations.size(), 1u);
    EXPECT_EQ(newMetric.violations[0].note, "new metric");
    EXPECT_EQ(newMetric.violations[0].metric, "memLatencyP999");

    // Bench name mismatch: not comparable at all.
    exp::Json other = benchDoc(1e6);
    other["bench"] = "fig6";
    const StatsDiffReport mismatch = diffBenchDocuments(base, other, StatsDiffOptions{});
    EXPECT_FALSE(mismatch.comparable);
    EXPECT_FALSE(mismatch.error.empty());
}

// Schema-3 points omit latency masters with no samples, so a master that
// starts sampling appears only in the current document: a violation, never
// a silent pass. A zero-valued current-only metric matches the omission.
TEST(StatsDiff, NewNonzeroMetricsAreViolations) {
    const exp::Json base = benchDoc(1e6);
    const auto withMaster = [](std::uint64_t count) {
        exp::Json point = makePoint(1e6);
        exp::Json one = exp::Json::object();
        one["count"] = count;
        one["p50Ticks"] = count > 0 ? 1500.0 : 0.0;
        point["memLatency"]["nvdla0.sramif"] = std::move(one);
        return docWithPoint(std::move(point));
    };
    const StatsDiffReport grown = diffBenchDocuments(base, withMaster(7), StatsDiffOptions{});
    ASSERT_EQ(grown.violations.size(), 2u);
    for (const StatsDiffViolation& v : grown.violations) {
        EXPECT_EQ(v.note, "new metric");
        EXPECT_EQ(v.metric.rfind("memLatency.nvdla0.sramif.", 0), 0u) << v.metric;
    }
    EXPECT_EQ(grown.violations[0].current, 7.0);
    EXPECT_NE(formatStatsDiffReport(grown, "b", "c").find("VIOLATION new metric"),
              std::string::npos);

    // Excluded and zero-valued current-only leaves pass.
    EXPECT_TRUE(diffBenchDocuments(base, withMaster(0), StatsDiffOptions{}).withinThresholds());
    exp::Json hostOnly = makePoint(1e6);
    hostOnly["profileBuckets"]["rtl"] = 0.5;
    EXPECT_TRUE(diffBenchDocuments(base, docWithPoint(std::move(hostOnly)), StatsDiffOptions{})
                    .withinThresholds());
}

MetricsTimeline timelineOf(double finalReads, double finalP99) {
    MetricsTimeline tl;
    tl.schema = 1;
    tl.run = "t";
    tl.intervalTicks = 1000;
    tl.endTick = 5000;
    MetricsSample s1;
    s1.tick = 1000;
    s1.deltas.emplace_back("mem.numReads", finalReads / 2);
    s1.deltas.emplace_back("bus.latency.cpu0.p99", finalP99);
    MetricsSample s2;
    s2.tick = 5000;
    s2.deltas.emplace_back("mem.numReads", finalReads / 2);
    tl.samples.push_back(std::move(s1));
    tl.samples.push_back(std::move(s2));
    return tl;
}

TEST(StatsDiff, TimelinesCompareByFinalValue) {
    const MetricsTimeline base = timelineOf(100.0, 20000.0);
    EXPECT_TRUE(diffTimelines(base, timelineOf(100.0, 20000.0), StatsDiffOptions{})
                    .withinThresholds());

    const StatsDiffReport report =
        diffTimelines(base, timelineOf(100.0, 40000.0), StatsDiffOptions{});
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].metric, "bus.latency.cpu0.p99");
    EXPECT_NEAR(report.violations[0].relDelta, 1.0, 1e-9);

    // A channel present in the baseline but absent from current is a loss.
    MetricsTimeline lossy = timelineOf(100.0, 20000.0);
    for (MetricsSample& s : lossy.samples) {
        std::erase_if(s.deltas, [](const auto& d) { return d.first != "mem.numReads"; });
    }
    const StatsDiffReport loss = diffTimelines(base, lossy, StatsDiffOptions{});
    ASSERT_EQ(loss.violations.size(), 1u);
    EXPECT_EQ(loss.violations[0].note, "missing metric");
}

TEST(StatsCli, DiffExitCodesMatchTheGateContract) {
    const std::string basePath = writeDoc("cli_base.json", benchDoc(1e6));
    const std::string samePath = writeDoc("cli_same.json", benchDoc(1e6));
    const std::string worsePath = writeDoc("cli_worse.json", benchDoc(1.6e6));

    const auto run = [](std::vector<const char*> argv) {
        argv.insert(argv.begin(), "stats");
        return statsCliMain(static_cast<int>(argv.size()), argv.data());
    };

    EXPECT_EQ(run({"diff", basePath.c_str(), samePath.c_str()}), 0);
    EXPECT_EQ(run({"diff", basePath.c_str(), worsePath.c_str()}), 1);
    EXPECT_EQ(run({"diff", basePath.c_str(), worsePath.c_str(), "--threshold", "0.7"}), 0);
    EXPECT_EQ(run({"diff", basePath.c_str(), worsePath.c_str(), "--metric",
                   "runtimeTicks=0.9"}),
              0);
    EXPECT_EQ(run({"diff", basePath.c_str()}), 2);             // Missing operand.
    EXPECT_EQ(run({"diff", basePath.c_str(), "/no/such"}), 2);  // Unreadable.
    EXPECT_EQ(run({"frobnicate"}), 2);                          // Unknown command.
    EXPECT_EQ(run({"percentiles", basePath.c_str()}), 0);

    for (const std::string& p : {basePath, samePath, worsePath}) std::remove(p.c_str());
}

// A typo must not open the gate: "25%" once parsed as 25.0 (a 2500% gate).
TEST(StatsCli, NumericOptionsAreParsedWholeAndRangeChecked) {
    const std::string basePath = writeDoc("num_base.json", benchDoc(1e6));
    const std::string worsePath = writeDoc("num_worse.json", benchDoc(1.6e6));
    const auto run = [&](std::vector<const char*> extra) {
        std::vector<const char*> argv{"stats", "diff", basePath.c_str(),
                                      worsePath.c_str()};
        argv.insert(argv.end(), extra.begin(), extra.end());
        return statsCliMain(static_cast<int>(argv.size()), argv.data());
    };
    for (const char* bad : {"25%", "0.7x", "", "-0.5", "-0", "inf", "nan", "1e999"}) {
        SCOPED_TRACE(bad);
        EXPECT_EQ(run({"--threshold", bad}), 2);
        const std::string spec = std::string{"runtimeTicks="} + bad;
        EXPECT_EQ(run({"--metric", spec.c_str()}), 2);
    }
    EXPECT_EQ(run({"--threshold", "0.7"}), 0);
    EXPECT_EQ(run({"--threshold", "0"}), 1);
    EXPECT_EQ(run({"--metric", "runtimeTicks=1e0"}), 0);

    const std::string timelinePath = ::testing::TempDir() + "/num.metrics.jsonl";
    std::ofstream{timelinePath} << "{\"g5rMetrics\":1,\"schema\":1,\"intervalTicks\":1000}\n"
                                   "{\"t\":1000,\"d\":{\"mem.numReads\":50}}\n"
                                   "{\"end\":1000,\"samples\":1}\n";
    const auto timeline = [&](const char* max) {
        std::vector<const char*> argv{"stats", "timeline", timelinePath.c_str(), "--max",
                                      max};
        return statsCliMain(static_cast<int>(argv.size()), argv.data());
    };
    EXPECT_EQ(timeline("4"), 0);
    EXPECT_EQ(timeline("4abc"), 2);
    EXPECT_EQ(timeline("-1"), 2);
    EXPECT_EQ(timeline("x"), 2);

    for (const std::string& p : {basePath, worsePath, timelinePath}) std::remove(p.c_str());
}

// "--metric NAME" takes the default threshold in force after all options
// are read, not the one at its own position on the command line.
TEST(StatsCli, MetricWithoutValueTakesTheFinalDefault) {
    const std::string basePath = writeDoc("order_base.json", benchDoc(1e6));
    const std::string worsePath = writeDoc("order_worse.json", benchDoc(1.6e6));
    const auto run = [&](std::vector<const char*> extra) {
        std::vector<const char*> argv{"stats", "diff", basePath.c_str(),
                                      worsePath.c_str()};
        argv.insert(argv.end(), extra.begin(), extra.end());
        return statsCliMain(static_cast<int>(argv.size()), argv.data());
    };
    EXPECT_EQ(run({"--metric", "runtimeTicks", "--threshold", "0.7"}), 0);
    EXPECT_EQ(run({"--threshold", "0.7", "--metric", "runtimeTicks"}), 0);
    EXPECT_EQ(run({"--metric", "runtimeTicks=0.1", "--threshold", "0.7"}), 1);

    StatsDiffOptions opts;
    opts.defaultThreshold = 0.7;
    opts.perMetric.push_back(MetricThreshold{"runtimeTicks", std::nullopt});
    EXPECT_TRUE(diffBenchDocuments(benchDoc(1e6), benchDoc(1.6e6), opts).withinThresholds());

    for (const std::string& p : {basePath, worsePath}) std::remove(p.c_str());
}

TEST(StatsCli, RenderersProduceReadableOutput) {
    const MetricsTimeline tl = timelineOf(100.0, 20000.0);
    const std::string strip = renderTimeline(tl, "", 0);
    EXPECT_NE(strip.find("mem.numReads"), std::string::npos);
    EXPECT_NE(strip.find("final 100"), std::string::npos);
    // The filter drops non-matching channels.
    const std::string filtered = renderTimeline(tl, "latency.", 0);
    EXPECT_EQ(filtered.find("mem.numReads"), std::string::npos);
    EXPECT_NE(filtered.find("bus.latency.cpu0.p99"), std::string::npos);

    const std::string table = renderBenchPercentiles(benchDoc(1e6));
    EXPECT_NE(table.find("memTech=hbm"), std::string::npos);
    EXPECT_NE(table.find("p50"), std::string::npos);

    const StatsDiffReport report =
        diffBenchDocuments(benchDoc(1e6), benchDoc(1.6e6), StatsDiffOptions{});
    const std::string text = formatStatsDiffReport(report, "a.json", "b.json");
    EXPECT_NE(text.find("VIOLATION"), std::string::npos);
    EXPECT_NE(text.find("runtimeTicks"), std::string::npos);
    EXPECT_NE(text.find("FAIL"), std::string::npos);
}

}  // namespace
}  // namespace g5r::obs
