// HostProfiler: buckets by declared host layer, stride scaling, report
// invariants.
#include <gtest/gtest.h>

#include <vector>

#include "exp/json.hh"
#include "mem/cache/cache.hh"
#include "mem/dma.hh"
#include "mem/simple_mem.hh"
#include "mem/spm.hh"
#include "mem/xbar.hh"
#include "obs/profiler.hh"
#include "sim/simulation.hh"

namespace g5r::obs {
namespace {

// Buckets follow each object's declared layer, not its name: the staged
// path's DMA engine and scratchpad sit under an accelerator's name, yet
// they are memory-system components.
TEST(HostLayer, MemorySystemObjectsBucketAsMemory) {
    Simulation sim;
    BackingStore store;
    const DmaEngine dma{sim, "system.nvdla0.dma", DmaEngine::Params{}};
    const Spm spm{sim, "system.nvdla0.spm", Spm::Params{}};
    const Xbar xbar{sim, "system.membus", Xbar::Params{}};
    const Cache l1d{sim, "system.cpu0.l1d", CacheParams{}};
    const SimpleMemory mem{sim, "system.mem0", SimpleMemory::Params{}, store};
    const std::vector<const SimObject*> objects{&dma, &spm, &xbar, &l1d, &mem};
    for (const SimObject* obj : objects) {
        EXPECT_EQ(obj->hostLayer(), HostLayer::kMemory) << obj->name();
    }

    HostProfiler p{1};
    for (const SimObject* obj : {objects[0], objects[1]}) {  // DMA, SPM
        const int slot = p.addSlot(obj->name(), obj->hostLayer());
        p.countDispatch(slot);
        p.addSample(slot, 0.25);
    }
    p.addRunSeconds(1.0);
    const auto buckets = p.report().buckets();
    EXPECT_DOUBLE_EQ(buckets[0].seconds, 0.0);  // rtl
    EXPECT_DOUBLE_EQ(buckets[1].seconds, 0.5);  // memory
}

TEST(HostLayer, UndeclaredObjectsAndSlotsBucketAsOther) {
    Simulation sim;
    const SimObject widget{sim, "system.nvdla0.widget"};
    EXPECT_EQ(widget.hostLayer(), HostLayer::kOther);

    HostProfiler p{1};
    const int unattributed = p.addSlot("(unattributed)");
    const int core = p.addSlot("system.scratchpad_walker", HostLayer::kCore);
    p.countDispatch(unattributed);
    p.addSample(unattributed, 0.125);
    p.countDispatch(core);
    p.addSample(core, 0.25);
    p.addRunSeconds(1.0);
    const ProfileReport rep = p.report();
    const auto buckets = rep.buckets();
    EXPECT_DOUBLE_EQ(buckets[1].seconds, 0.0);    // memory: names do not count
    EXPECT_DOUBLE_EQ(buckets[2].seconds, 0.25);   // core
    EXPECT_DOUBLE_EQ(buckets[3].seconds, 0.125);  // other
    EXPECT_EQ(rep.entries[0].layer, HostLayer::kCore);
    EXPECT_EQ(rep.entries[1].layer, HostLayer::kOther);
}

TEST(HostProfiler, StrideScalesSampledSecondsToAllDispatches) {
    HostProfiler p{4};
    const int slot = p.addSlot("system.nvdla0", HostLayer::kRtl);
    for (int i = 0; i < 8; ++i) p.countDispatch(slot);
    // With stride 4 only 2 of the 8 dispatches were actually timed.
    p.addSample(slot, 0.010);
    p.addSample(slot, 0.010);
    p.addRunSeconds(0.100);

    const ProfileReport rep = p.report();
    EXPECT_EQ(rep.stride, 4u);
    EXPECT_EQ(rep.dispatches, 8u);
    ASSERT_EQ(rep.entries.size(), 1u);
    const ProfileEntry& e = rep.entries[0];
    EXPECT_EQ(e.dispatches, 8u);
    EXPECT_EQ(e.sampled, 2u);
    EXPECT_DOUBLE_EQ(e.sampledSeconds, 0.020);
    // 0.020 s over 2 samples, scaled to 8 dispatches -> 0.080 s.
    EXPECT_NEAR(e.estimatedSeconds, 0.080, 1e-12);
}

TEST(HostProfiler, ZeroStrideIsTreatedAsOne) {
    HostProfiler p{0};
    EXPECT_EQ(p.stride(), 1u);
}

TEST(HostProfiler, BucketsAlwaysSumToRunSeconds) {
    HostProfiler p{1};
    const int rtl = p.addSlot("system.nvdla0", HostLayer::kRtl);
    const int mem = p.addSlot("system.membus", HostLayer::kMemory);
    p.countDispatch(rtl);
    p.addSample(rtl, 0.30);
    p.countDispatch(mem);
    p.addSample(mem, 0.20);
    p.addRunSeconds(1.00);

    const ProfileReport rep = p.report();
    const auto buckets = rep.buckets();
    ASSERT_EQ(buckets.size(), 5u);  // rtl, memory, core, other, queue.
    EXPECT_EQ(buckets[0].name, "rtl");
    EXPECT_EQ(buckets[4].name, "queue");
    double total = 0.0;
    double fractions = 0.0;
    for (const auto& b : buckets) {
        total += b.seconds;
        fractions += b.fraction;
    }
    EXPECT_NEAR(total, 1.00, 1e-12);
    EXPECT_NEAR(fractions, 1.0, 1e-12);
    EXPECT_NEAR(buckets[0].seconds, 0.30, 1e-12);   // rtl
    EXPECT_NEAR(buckets[1].seconds, 0.20, 1e-12);   // memory
    EXPECT_NEAR(buckets[4].seconds, 0.50, 1e-12);   // queue remainder
}

TEST(HostProfiler, QueueBucketClampsAtZeroWhenSamplingOverEstimates) {
    HostProfiler p{1};
    const int slot = p.addSlot("system.nvdla0", HostLayer::kRtl);
    p.countDispatch(slot);
    p.addSample(slot, 2.0);   // Attributed more than the run took.
    p.addRunSeconds(1.0);
    const auto buckets = p.report().buckets();
    EXPECT_DOUBLE_EQ(buckets.back().seconds, 0.0);
}

TEST(HostProfiler, EntriesSortedByEstimatedSecondsDescending) {
    HostProfiler p{1};
    const int small = p.addSlot("system.a");
    const int big = p.addSlot("system.b");
    const int idle = p.addSlot("system.never-dispatched");
    (void)idle;
    p.countDispatch(small);
    p.addSample(small, 0.1);
    p.countDispatch(big);
    p.addSample(big, 0.9);

    const ProfileReport rep = p.report();
    // The never-dispatched slot is dropped from the report entirely.
    ASSERT_EQ(rep.entries.size(), 2u);
    EXPECT_EQ(rep.entries[0].name, "system.b");
    EXPECT_EQ(rep.entries[1].name, "system.a");
}

TEST(HostProfiler, ReportSerializesToParsableJson) {
    HostProfiler p{2};
    const int slot = p.addSlot("system.membus", HostLayer::kMemory);
    p.countDispatch(slot);
    p.countDispatch(slot);
    p.addSample(slot, 0.004);
    p.addRunSeconds(0.010);

    const exp::Json doc = exp::Json::parse(p.report().toJson().dump());
    EXPECT_DOUBLE_EQ(doc.at("runSeconds").asDouble(), 0.010);
    EXPECT_EQ(doc.at("dispatches").asInt(), 2);
    EXPECT_EQ(doc.at("stride").asInt(), 2);
    EXPECT_TRUE(doc.at("buckets").contains("memory"));
    EXPECT_TRUE(doc.at("buckets").contains("queue"));
    ASSERT_EQ(doc.at("objects").size(), 1u);
    EXPECT_EQ(doc.at("objects").items()[0].at("name").asString(), "system.membus");
}

TEST(HostProfiler, TableMentionsBucketsAndObjects) {
    HostProfiler p{1};
    const int slot = p.addSlot("system.nvdla0", HostLayer::kRtl);
    p.countDispatch(slot);
    p.addSample(slot, 0.5);
    p.addRunSeconds(1.0);
    const std::string table = p.report().table();
    EXPECT_NE(table.find("rtl"), std::string::npos);
    EXPECT_NE(table.find("queue"), std::string::npos);
    EXPECT_NE(table.find("system.nvdla0"), std::string::npos);
    EXPECT_NE(table.find("stride 1"), std::string::npos);
}

}  // namespace
}  // namespace g5r::obs
