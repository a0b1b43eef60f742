// Per-requestor crossbar latency distributions and their obs/ summaries.
#include <gtest/gtest.h>

#include <sstream>

#include "common/test_requester.hh"
#include "exp/json.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "obs/session.hh"

namespace g5r {
namespace {

using testing::TestRequester;

struct Harness {
    Harness() {
        Xbar::Params xp;
        xbar = std::make_unique<Xbar>(sim, "xbar", xp);
        reqA = std::make_unique<TestRequester>(sim, "reqA");
        reqB = std::make_unique<TestRequester>(sim, "reqB");

        SimpleMemory::Params mp;
        mp.latency = 10'000;
        mp.range = AddrRange{0, 1ULL << 20};
        mem = std::make_unique<SimpleMemory>(sim, "mem", mp, store);

        reqA->port().bind(xbar->addCpuSidePort("a"));
        reqB->port().bind(xbar->addCpuSidePort("b"));
        xbar->addMemSidePort("m", RouteSpec{mem->range()}).bind(mem->port());
    }

    Simulation sim;
    BackingStore store;
    std::unique_ptr<Xbar> xbar;
    std::unique_ptr<TestRequester> reqA;
    std::unique_ptr<TestRequester> reqB;
    std::unique_ptr<SimpleMemory> mem;
};

TEST(XbarLatency, DistributionCountsEveryRoundTrip) {
    Harness h;
    constexpr int kA = 5, kB = 3;
    for (int i = 0; i < kA; ++i) h.reqA->issueAt(0, makeReadPacket(64 * i, 64));
    for (int i = 0; i < kB; ++i) h.reqB->issueAt(0, makeReadPacket(0x8000 + 64 * i, 64));
    h.sim.run();
    ASSERT_EQ(h.reqA->numResponses(), kA);
    ASSERT_EQ(h.reqB->numResponses(), kB);

    const auto* distA =
        dynamic_cast<const stats::Histogram*>(h.sim.findStat("xbar.latency.a"));
    const auto* distB =
        dynamic_cast<const stats::Histogram*>(h.sim.findStat("xbar.latency.b"));
    ASSERT_NE(distA, nullptr);
    ASSERT_NE(distB, nullptr);
    // The crossbar hands out the same histograms directly, in port order.
    EXPECT_EQ(&h.xbar->latency(0), distA);
    EXPECT_EQ(&h.xbar->latency(1), distB);
    EXPECT_EQ(h.xbar->cpuSideSuffix(0), "a");
    EXPECT_EQ(h.xbar->cpuSideSuffix(1), "b");
    EXPECT_EQ(distA->count(), kA);
    EXPECT_EQ(distB->count(), kB);

    // Round trips take at least the memory latency, and the moments are
    // ordered sanely.
    EXPECT_GE(distA->minValue(), 10'000.0);
    EXPECT_LE(distA->minValue(), distA->mean());
    EXPECT_LE(distA->mean(), distA->maxValue());
    EXPECT_GE(distA->variance(), 0.0);
}

TEST(XbarLatency, WritebacksDoNotSampleLatency) {
    Harness h;
    auto wb = std::make_unique<Packet>(MemCmd::kWritebackDirty, 0x100, 64);
    h.reqA->issueAt(0, std::move(wb));
    h.sim.run();
    const auto* dist =
        dynamic_cast<const stats::Histogram*>(h.sim.findStat("xbar.latency.a"));
    ASSERT_NE(dist, nullptr);
    // No response ever returned, so nothing was sampled.
    EXPECT_EQ(dist->count(), 0u);
}

TEST(XbarLatency, PortLatenciesSummarisesEveryMaster) {
    Harness h;
    for (int i = 0; i < 4; ++i) h.reqA->issueAt(0, makeReadPacket(64 * i, 64));
    h.sim.run();

    const auto latencies = obs::portLatencies(*h.xbar);
    ASSERT_EQ(latencies.size(), 2u);  // One summary per cpu-side port, in order.
    const auto& a = latencies[0];
    ASSERT_EQ(a.first, "a");
    EXPECT_EQ(latencies[1].first, "b");
    EXPECT_EQ(a.second.count, 4u);
    EXPECT_LE(a.second.minTicks, a.second.meanTicks);
    EXPECT_LE(a.second.meanTicks, a.second.maxTicks);
    EXPECT_LE(a.second.minTicks, a.second.p50Ticks);
    EXPECT_LE(a.second.p50Ticks, a.second.p99Ticks);
    EXPECT_LE(a.second.p99Ticks, a.second.maxTicks);
    EXPECT_EQ(latencies[1].second.count, 0u);

    // The SoC-wide rollup folds every master's histogram.
    EXPECT_EQ(obs::mergedPortLatencyHistogram(*h.xbar).count(), 4u);
}

TEST(XbarLatency, AppearsInTextAndJsonStatDumps) {
    Harness h;
    h.reqA->issueAt(0, makeReadPacket(0x0, 64));
    h.sim.run();

    std::ostringstream os;
    h.sim.dumpStats(os);
    EXPECT_NE(os.str().find("xbar.latency.a"), std::string::npos);

    const exp::Json doc = exp::Json::parse(h.sim.dumpStatsJson().dump());
    const exp::Json& lat = doc.at("xbar").at("latency.a");
    EXPECT_EQ(lat.at("count").asInt(), 1);
    EXPECT_GT(lat.at("mean").asDouble(), 0.0);
    EXPECT_TRUE(lat.contains("stddev"));
    EXPECT_TRUE(lat.contains("p99"));
}

}  // namespace
}  // namespace g5r
