// Evaluator identity at the bridge level: the same bitonic sort driven
// through the dlopen'd model under both interpreter modes — and through the
// g5r netlistc compiled library (eval=compiled) — must produce byte-identical
// flight recordings (the PR 5 recorder is the witness — g5r diff exit 0 ==
// DivergenceReport{!diverged}) and equal sorted outputs read back over the
// device channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bridge/rtl_object.hh"
#include "common/test_requester.hh"
#include "mem/packet.hh"
#include "obs/diff.hh"
#include "obs/session.hh"
#include "sim/packet_id.hh"
#include "sim/rng.hh"
#include "soc/model_loader.hh"

#ifndef G5R_MODEL_DIR
#error "tests must be compiled with -DG5R_MODEL_DIR"
#endif

namespace g5r {
namespace {

std::string tmpPath(const std::string& file) {
    return (std::filesystem::temp_directory_path() / file).string();
}

/// Sort @p data through the shared-library bitonic model with a flight
/// recording attached; returns the read-back (sorted) outputs.
std::vector<std::uint64_t> runRecordedSort(const std::string& config,
                                           const std::vector<std::uint64_t>& data,
                                           const std::string& recordPath) {
    Simulation sim;
    obs::ObsOptions opts;
    opts.recordEnabled = true;
    opts.recordPath = recordPath;
    opts.recordIntervalTicks = 100'000;
    auto session = obs::ObsSession::create(sim, opts, "levelized_identity");

    RtlObjectParams params;
    // eval=compiled resolves to the g5r netlistc library (libbitonic_cN.so),
    // everything else to the interpreted model.
    auto rtl = std::make_unique<RtlObject>(
        sim, "bitonic_obj", params,
        SharedLibModel::load(rtlModelPathForConfig("bitonic", config), config),
        nullptr);
    auto req = std::make_unique<testing::TestRequester>(sim, "host");
    req->port().bind(rtl->cpuSidePort(0));

    // Identical packet IDs per run: draw from a run-local counter, never the
    // process-global fallback (see tests/common/record_harness.hh).
    std::uint64_t packetIds = 0;
    PacketIdScope idScope{packetIds};

    const auto runUntilResponses = [&] {
        for (int slice = 0; slice < 1000 && !req->allResponsesReceived(); ++slice) {
            sim.run(sim.curTick() + 10'000);
        }
        ASSERT_TRUE(req->allResponsesReceived());
    };
    const auto writeReg = [&](std::uint64_t addr, std::uint64_t value) {
        auto pkt = makeWritePacket(addr, 8);
        pkt->set<std::uint64_t>(value);
        req->issueAt(sim.curTick(), std::move(pkt));
        runUntilResponses();
    };
    const auto readReg = [&](std::uint64_t addr) {
        req->issueAt(sim.curTick(), makeReadPacket(addr, 8));
        runUntilResponses();
        return req->responses().back().pkt->get<std::uint64_t>();
    };

    std::vector<std::uint64_t> sorted;
    for (std::size_t i = 0; i < data.size(); ++i) writeReg(8 * i, data[i]);
    writeReg(0x300, 1);  // Start.
    for (int spin = 0; spin < 100 && (readReg(0x308) & 2) == 0; ++spin) {
    }
    EXPECT_EQ(readReg(0x308) & 2, 2u) << "sort never finished";
    for (std::size_t i = 0; i < data.size(); ++i) {
        sorted.push_back(readReg(0x100 + 8 * i));
    }
    session->finish();
    return sorted;
}

class LevelizedRecord : public ::testing::TestWithParam<unsigned> {};

TEST_P(LevelizedRecord, BothEvalModesProduceIdenticalRecordingsAndOutputs) {
    const unsigned n = GetParam();
    Rng rng{0x1DE + n};
    std::vector<std::uint64_t> data(n);
    for (auto& v : data) v = rng.below(100'000);

    const std::string base = "n=" + std::to_string(n);
    const std::string recDirty = tmpPath("g5r_dirty_" + std::to_string(n) + ".g5rec");
    const std::string recLevel = tmpPath("g5r_level_" + std::to_string(n) + ".g5rec");

    const auto outDirty = runRecordedSort(base + ",eval=dirty", data, recDirty);
    const auto outLevel = runRecordedSort(base + ",eval=levelized", data, recLevel);

    // Functional identity: both modes sort, and sort identically.
    std::vector<std::uint64_t> expected = data;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(outDirty, expected);
    EXPECT_EQ(outLevel, outDirty);

    // Recorder identity: the library face of `g5r diff a b` returning 0.
    const auto rep = obs::diffRecordingFiles(recDirty, recLevel, obs::DiffLane::kBoth);
    EXPECT_TRUE(rep.comparable) << rep.error;
    EXPECT_FALSE(rep.diverged) << rep.lane << " @ interval " << rep.intervalIndex
                               << ": " << rep.detail;

    std::remove(recDirty.c_str());
    std::remove(recLevel.c_str());
}

INSTANTIATE_TEST_SUITE_P(Sizes, LevelizedRecord, ::testing::Values(4u, 8u, 16u));

// The compiled backend through the same lens: the native .so emitted by
// g5r netlistc, loaded over the identical dlopen ABI, must be recording-
// identical to BOTH interpreter modes — the acceptance witness that codegen
// preserves per-tick device behaviour, not just final values.
class CompiledRecord : public ::testing::TestWithParam<unsigned> {};

TEST_P(CompiledRecord, CompiledModelIsRecordingIdenticalToBothInterpreters) {
    const unsigned n = GetParam();
    Rng rng{0xC0 + n};
    std::vector<std::uint64_t> data(n);
    for (auto& v : data) v = rng.below(100'000);

    const std::string base = "n=" + std::to_string(n);
    const std::string recDirty =
        tmpPath("g5r_cdirty_" + std::to_string(n) + ".g5rec");
    const std::string recLevel =
        tmpPath("g5r_clevel_" + std::to_string(n) + ".g5rec");
    const std::string recCompiled =
        tmpPath("g5r_ccomp_" + std::to_string(n) + ".g5rec");

    const auto outDirty = runRecordedSort(base + ",eval=dirty", data, recDirty);
    const auto outLevel = runRecordedSort(base + ",eval=levelized", data, recLevel);
    const auto outCompiled =
        runRecordedSort(base + ",eval=compiled", data, recCompiled);

    std::vector<std::uint64_t> expected = data;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(outCompiled, expected);
    EXPECT_EQ(outCompiled, outDirty);
    EXPECT_EQ(outCompiled, outLevel);

    for (const auto* other : {&recDirty, &recLevel}) {
        const auto rep =
            obs::diffRecordingFiles(*other, recCompiled, obs::DiffLane::kBoth);
        EXPECT_TRUE(rep.comparable) << rep.error;
        EXPECT_FALSE(rep.diverged)
            << *other << " vs compiled: " << rep.lane << " @ interval "
            << rep.intervalIndex << ": " << rep.detail;
    }

    std::remove(recDirty.c_str());
    std::remove(recLevel.c_str());
    std::remove(recCompiled.c_str());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompiledRecord, ::testing::Values(4u, 8u, 16u));

TEST(LevelizedRecord, EnvVarSelectsTheLevelizedMode) {
    // GEM5RTL_NETLIST_EVAL covers fixed-config deployments; the run must
    // still sort correctly.
    ::setenv("GEM5RTL_NETLIST_EVAL", "levelized", 1);
    const std::string rec = tmpPath("g5r_env_level.g5rec");
    const std::vector<std::uint64_t> data{9, 3, 7, 1};
    const auto out = runRecordedSort("n=4", data, rec);
    ::unsetenv("GEM5RTL_NETLIST_EVAL");
    EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 3, 7, 9}));
    std::remove(rec.c_str());
}

}  // namespace
}  // namespace g5r
