// Cache behaviour: hits/misses, MSHR merging and exhaustion, write-allocate,
// dirty writebacks, LRU victimisation, prefetching, uncacheable forwarding,
// and multi-level stacking.
#include <gtest/gtest.h>

#include "common/test_requester.hh"
#include "mem/cache/cache.hh"
#include "mem/simple_mem.hh"

namespace g5r {
namespace {

using testing::TestRequester;

constexpr Tick kMemLatency = 40'000;  // 40 ns backing memory.

struct Harness {
    explicit Harness(CacheParams cacheParams = smallCache())
        : cache(sim, "l1", cacheParams), mem(sim, "mem", memParams(), store), req(sim, "req") {
        req.port().bind(cache.cpuSidePort());
        cache.memSidePort().bind(mem.port());
    }

    static CacheParams smallCache() {
        CacheParams p;
        p.sizeBytes = 4 * 1024;  // 4 KiB, 4-way, 64 B lines -> 16 sets.
        p.assoc = 4;
        p.lookupLatency = 2;
        p.responseLatency = 2;
        p.mshrs = 4;
        return p;
    }

    static SimpleMemory::Params memParams() {
        SimpleMemory::Params p;
        p.range = AddrRange{0, 1ULL << 30};
        p.latency = kMemLatency;
        return p;
    }

    double stat(const std::string& statName) const {
        return sim.findStat("l1." + statName)->value();
    }

    Simulation sim;
    BackingStore store;
    Cache cache;
    SimpleMemory mem;
    TestRequester req;
};

TEST(Cache, ColdMissThenHit) {
    Harness h;
    h.store.store<std::uint64_t>(0x1000, 11);

    h.req.issueAt(0, makeReadPacket(0x1000, 8));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_EQ(h.req.responses()[0].pkt->get<std::uint64_t>(), 11u);
    const Tick missLatency = h.req.responses()[0].tick;
    EXPECT_GT(missLatency, kMemLatency);

    // Second access to the same line is a fast hit.
    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(0x1008, 8));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 2u);
    const Tick hitLatency = h.req.responses()[1].tick - h.req.responses()[1].pkt->issueTick();
    EXPECT_LT(hitLatency, kMemLatency);
    EXPECT_EQ(h.stat("hits"), 1.0);
    EXPECT_EQ(h.stat("misses"), 1.0);
}

TEST(Cache, MissesToSameLineMergeInMshr) {
    Harness h;
    for (int i = 0; i < 4; ++i) h.req.issueAt(0, makeReadPacket(0x2000 + 8 * i, 8));
    h.sim.run();
    EXPECT_EQ(h.req.numResponses(), 4u);
    EXPECT_EQ(h.stat("misses"), 1.0);
    EXPECT_EQ(h.stat("mshrHits"), 3.0);
    // Only one line fetch reached memory.
    EXPECT_EQ(h.sim.findStat("mem.numReads")->value(), 1.0);
}

TEST(Cache, MshrExhaustionBackPressures) {
    Harness h;  // 4 MSHRs.
    for (int i = 0; i < 16; ++i) h.req.issueAt(0, makeReadPacket(0x10000 + 64 * i, 8));
    h.sim.run();
    EXPECT_EQ(h.req.numResponses(), 16u);
    EXPECT_GT(h.stat("blockedOnMshrs"), 0.0);
    EXPECT_GT(h.req.retriesSeen(), 0);
}

TEST(Cache, WriteAllocateFetchesLineAndDirtiesIt) {
    Harness h;
    h.store.store<std::uint64_t>(0x3000, 0xAAAAAAAAAAAAAAAAULL);
    auto w = makeWritePacket(0x3008, 8);
    w->set<std::uint64_t>(0x5555555555555555ULL);
    h.req.issueAt(0, std::move(w));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_TRUE(h.cache.isCached(0x3000));
    EXPECT_TRUE(h.cache.isDirty(0x3000));

    // The line holds both the fetched and the written data.
    Packet probe{MemCmd::kReadReq, 0x3000, 16};
    h.req.port().sendFunctional(probe);
    EXPECT_EQ(probe.get<std::uint64_t>(), 0xAAAAAAAAAAAAAAAAULL);
}

TEST(Cache, DirtyVictimWrittenBack) {
    Harness h;
    // 16 sets -> addresses 64*16 apart map to the same set. 4-way: the fifth
    // distinct line evicts the LRU.
    const Addr setStride = 64 * 16;
    auto w = makeWritePacket(0x0, 8);
    w->set<std::uint64_t>(123);
    h.req.issueAt(0, std::move(w));
    h.sim.run();
    ASSERT_TRUE(h.cache.isDirty(0x0));

    for (int i = 1; i <= 4; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * i, 8));
        h.sim.run();
    }
    EXPECT_FALSE(h.cache.isCached(0x0));
    EXPECT_EQ(h.stat("writebacks"), 1.0);
    // The written data survived in memory.
    EXPECT_EQ(h.store.load<std::uint64_t>(0x0), 123u);
}

TEST(Cache, CleanVictimSilentlyDropped) {
    Harness h;
    const Addr setStride = 64 * 16;
    for (int i = 0; i <= 4; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * i, 8));
        h.sim.run();
    }
    EXPECT_FALSE(h.cache.isCached(0x0));
    EXPECT_EQ(h.stat("writebacks"), 0.0);
}

TEST(Cache, LruKeepsRecentlyUsedLines) {
    Harness h;
    const Addr setStride = 64 * 16;
    // Fill the set: lines 0..3.
    for (int i = 0; i < 4; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * i, 8));
        h.sim.run();
    }
    // Touch line 0 so line 1 becomes LRU.
    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(0, 8));
    h.sim.run();
    // Insert line 4: must evict line 1, not line 0.
    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * 4, 8));
    h.sim.run();
    EXPECT_TRUE(h.cache.isCached(0));
    EXPECT_FALSE(h.cache.isCached(setStride));
}

TEST(Cache, StridePrefetcherIssuesAndFills) {
    auto params = Harness::smallCache();
    params.enablePrefetcher = true;
    params.prefetchDegree = 2;
    params.mshrs = 8;
    Harness h{params};

    // A regular stride of 2 lines; after the detector warms up, prefetches
    // should cover upcoming misses.
    for (int i = 0; i < 8; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(0x40000 + i * 128, 8));
        h.sim.run();
    }
    EXPECT_GT(h.stat("prefetchesIssued"), 0.0);
    EXPECT_GT(h.stat("prefetchFills"), 0.0);
    // A line beyond the last demand access is already resident.
    EXPECT_TRUE(h.cache.isCached(0x40000 + 8 * 128));
}

TEST(Cache, UncacheableForwardedNotCached) {
    auto params = Harness::smallCache();
    params.uncacheable.push_back(AddrRange{0x8000000, 0x8001000});
    Harness h{params};
    h.store.store<std::uint32_t>(0x8000010, 777);

    h.req.issueAt(0, makeReadPacket(0x8000010, 4));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_EQ(h.req.responses()[0].pkt->get<std::uint32_t>(), 777u);
    EXPECT_FALSE(h.cache.isCached(0x8000010));
    EXPECT_EQ(h.stat("hits"), 0.0);
    EXPECT_EQ(h.stat("misses"), 0.0);

    // Repeated access goes to memory every time.
    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(0x8000010, 4));
    h.sim.run();
    EXPECT_EQ(h.sim.findStat("mem.numReads")->value(), 2.0);
}

TEST(Cache, PrefetcherSkipsUncacheableLines) {
    auto params = Harness::smallCache();
    params.enablePrefetcher = true;
    params.prefetchDegree = 2;
    params.mshrs = 8;
    params.uncacheable.push_back(AddrRange{0x8000000, 0x8001000});
    Harness h{params};

    // A unit-stride stream that ends just below a device window: the
    // predicted lines past its end are device reads with side effects.
    for (int i = 0; i < 4; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(0x7FFFF00 + 64 * i, 8));
        h.sim.run();
    }
    ASSERT_EQ(h.req.numResponses(), 4u);
    EXPECT_FALSE(h.cache.isCached(0x8000000));
    EXPECT_FALSE(h.cache.isCached(0x8000040));
    // Every line read from memory lies below the window.
    EXPECT_EQ(h.sim.findStat("mem.numReads")->value(),
              h.stat("misses") + h.stat("prefetchesIssued"));
    EXPECT_EQ(h.stat("prefetchesIssued"), h.stat("prefetchFills"));
    for (const auto& r : h.req.responses()) EXPECT_LT(r.pkt->addr(), 0x8000000u);
}

TEST(CacheDeath, UnalignedUncacheableRangePanics) {
    // A window ending mid-line would share a line with cacheable bytes, so
    // a fill of that line could not be told from a pass-through response.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto build = [] {
        auto params = Harness::smallCache();
        params.uncacheable.push_back(AddrRange{0x8000000, 0x8000020});
        Harness h{params};
    };
    EXPECT_DEATH(build(), "uncacheable ranges must be line-aligned");
}

TEST(Cache, FunctionalWritesUpdateCachedLine) {
    Harness h;
    h.req.issueAt(0, makeReadPacket(0x5000, 8));
    h.sim.run();
    ASSERT_TRUE(h.cache.isCached(0x5000));

    Packet w{MemCmd::kWriteReq, 0x5000, 8};
    w.set<std::uint64_t>(31415);
    h.req.port().sendFunctional(w);

    Packet r{MemCmd::kReadReq, 0x5000, 8};
    h.req.port().sendFunctional(r);
    EXPECT_EQ(r.get<std::uint64_t>(), 31415u);
    EXPECT_TRUE(h.cache.isDirty(0x5000));
}

// Two-level hierarchy: L1 -> L2 -> memory.
struct TwoLevel {
    TwoLevel() : l1(sim, "l1", l1Params()), l2(sim, "l2", l2Params()),
                 mem(sim, "mem", Harness::memParams(), store), req(sim, "req") {
        req.port().bind(l1.cpuSidePort());
        l1.memSidePort().bind(l2.cpuSidePort());
        l2.memSidePort().bind(mem.port());
    }

    static CacheParams l1Params() {
        auto p = Harness::smallCache();
        p.sizeBytes = 1024;  // Tiny L1 (4 sets) to force capacity misses.
        return p;
    }
    static CacheParams l2Params() {
        auto p = Harness::smallCache();
        p.sizeBytes = 16 * 1024;
        p.assoc = 8;
        p.lookupLatency = 9;
        p.mshrs = 24;
        return p;
    }

    Simulation sim;
    BackingStore store;
    Cache l1;
    Cache l2;
    SimpleMemory mem;
    TestRequester req;
};

TEST(CacheHierarchy, L2CatchesL1CapacityMisses) {
    TwoLevel h;
    // Touch 32 lines (2 KiB): fits in L2, thrashes the 1 KiB L1.
    for (int i = 0; i < 32; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(64 * i, 8));
        h.sim.run();
    }
    // Second sweep: L1 misses again, L2 hits, memory sees no new reads.
    const double memReadsAfterFirstSweep = h.sim.findStat("mem.numReads")->value();
    for (int i = 0; i < 32; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(64 * i, 8));
        h.sim.run();
    }
    EXPECT_EQ(h.sim.findStat("mem.numReads")->value(), memReadsAfterFirstSweep);
    EXPECT_GT(h.sim.findStat("l2.hits")->value(), 0.0);
}

TEST(CacheHierarchy, DirtyDataMigratesDownTheHierarchy) {
    TwoLevel h;
    auto w = makeWritePacket(0x0, 8);
    w->set<std::uint64_t>(0xBEEF);
    h.req.issueAt(0, std::move(w));
    h.sim.run();

    // Evict from L1 by touching the other lines of set 0 (4 sets in L1).
    for (int i = 1; i <= 4; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(64 * 4 * i, 8));
        h.sim.run();
    }
    EXPECT_FALSE(h.l1.isCached(0x0));
    // The writeback landed in L2 (absorbed as a hit there), dirty.
    EXPECT_TRUE(h.l2.isCached(0x0));
    EXPECT_TRUE(h.l2.isDirty(0x0));

    // And the data is still readable.
    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(0x0, 8));
    h.sim.run();
    EXPECT_EQ(h.req.responses().back().pkt->get<std::uint64_t>(), 0xBEEFu);
}

// Property sweep: for any associativity, a working set of exactly `assoc`
// same-set lines never evicts, and `assoc + 1` always does.
class CacheAssocSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(CacheAssocSweep, WorkingSetFitsExactlyAssocWays) {
    auto params = Harness::smallCache();
    params.assoc = GetParam();
    params.sizeBytes = 64 * 16 * params.assoc;  // Keep 16 sets.
    Harness h{params};
    const Addr setStride = 64 * 16;
    const unsigned assoc = GetParam();

    for (unsigned round = 0; round < 3; ++round) {
        for (unsigned i = 0; i < assoc; ++i) {
            h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * i, 8));
            h.sim.run();
        }
    }
    // After the first round everything hits: misses == assoc.
    EXPECT_EQ(h.stat("misses"), assoc);

    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * assoc, 8));
    h.sim.run();
    EXPECT_EQ(h.stat("misses"), assoc + 1.0);
    // One of the original lines is gone.
    unsigned resident = 0;
    for (unsigned i = 0; i <= assoc; ++i) {
        resident += h.cache.isCached(setStride * i) ? 1 : 0;
    }
    EXPECT_EQ(resident, assoc);
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheAssocSweep, ::testing::Values(1u, 2u, 4u, 8u, 16u));

}  // namespace
}  // namespace g5r
