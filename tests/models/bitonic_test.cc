// Bitonic sorter model (GHDL path) through the C ABI: configuration,
// pipeline timing, sorting correctness across sizes and random vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bridge/rtl_model.hh"
#include "sim/rng.hh"
#include "soc/model_loader.hh"

extern "C" const G5rRtlModelApi* g5r_bitonic_model_api();

namespace g5r {
namespace {

class BitonicHarness {
public:
    explicit BitonicHarness(const std::string& config = "n=16")
        : BitonicHarness(std::make_unique<ApiRtlModel>(g5r_bitonic_model_api(), config)) {}

    explicit BitonicHarness(std::unique_ptr<RtlModel> model) : model_(std::move(model)) {
        model_->reset();
    }

    G5rRtlOutput tick(const G5rRtlInput& in = {}) {
        G5rRtlOutput out{};
        model_->tick(in, out);
        return out;
    }

    void writeReg(std::uint64_t addr, std::uint64_t data) {
        G5rRtlInput in{};
        in.dev_valid = 1;
        in.dev_write = 1;
        in.dev_addr = addr;
        in.dev_wdata = data;
        tick(in);
    }

    std::uint64_t readReg(std::uint64_t addr) {
        G5rRtlInput in{};
        in.dev_valid = 1;
        in.dev_addr = addr;
        G5rRtlOutput out = tick(in);
        EXPECT_EQ(out.dev_ready, 1);
        out = tick();
        EXPECT_EQ(out.dev_resp_valid, 1);
        return out.dev_rdata;
    }

    std::vector<std::int64_t> sort(const std::vector<std::int64_t>& data) {
        for (std::size_t i = 0; i < data.size(); ++i) {
            writeReg(8 * i, static_cast<std::uint64_t>(data[i]));
        }
        writeReg(0x300, 1);  // Start.
        // Run until done (pipeline depth cycles).
        for (int t = 0; t < 200; ++t) {
            if (tick().done != 0) break;
        }
        std::vector<std::int64_t> out(data.size());
        for (std::size_t i = 0; i < data.size(); ++i) {
            out[i] = static_cast<std::int64_t>(readReg(0x100 + 8 * i));
        }
        return out;
    }

private:
    std::unique_ptr<RtlModel> model_;
};

TEST(BitonicModel, ReportsConfiguredSize) {
    BitonicHarness b{"n=8"};
    EXPECT_EQ(b.readReg(0x310), 8u);
    BitonicHarness d{""};
    EXPECT_EQ(d.readReg(0x310), 16u);  // Default.
}

TEST(BitonicModel, SortsAFixedVector) {
    BitonicHarness b{"n=8"};
    const auto out = b.sort({5, -3, 9, 0, 2, 2, -7, 100});
    EXPECT_EQ(out, (std::vector<std::int64_t>{-7, -3, 0, 2, 2, 5, 9, 100}));
}

TEST(BitonicModel, TakesPipelineDepthCyclesBeforeDone) {
    BitonicHarness b{"n=16"};  // log2=4 -> 10 stages.
    for (std::size_t i = 0; i < 16; ++i) b.writeReg(8 * i, i);
    b.writeReg(0x300, 1);
    int cyclesToDone = 0;
    while (b.tick().done == 0) {
        ++cyclesToDone;
        ASSERT_LT(cyclesToDone, 100);
    }
    EXPECT_GE(cyclesToDone, 8);   // ~stage count.
    EXPECT_LE(cyclesToDone, 12);
    // Status register reflects done.
    EXPECT_EQ(b.readReg(0x308) & 2u, 2u);
}

TEST(BitonicModel, TracingIsUnsupportedOnTheGhdlPath) {
    ApiRtlModel model{g5r_bitonic_model_api(), "n=4"};
    EXPECT_FALSE(model.traceStart("/tmp/never.vcd"));
}

class BitonicRandomSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitonicRandomSweep, MatchesStdSort) {
    const unsigned n = GetParam();
    BitonicHarness b{"n=" + std::to_string(n)};
    Rng rng{n * 131};
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<std::int64_t> data(n);
        for (auto& v : data) v = static_cast<std::int64_t>(rng.below(10000)) - 5000;
        auto expected = data;
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(b.sort(data), expected) << "n=" << n << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitonicRandomSweep, ::testing::Values(2u, 4u, 8u, 16u, 32u));

TEST(BitonicModel, RejectsBadConfig) {
    // Non-power-of-two falls back to the default size rather than failing.
    BitonicHarness b{"n=3"};
    EXPECT_EQ(b.readReg(0x310), 16u);
}

// The wrapper and the compiled-model loader read "n=" through one helper:
// whole comma-separated tokens, invalid values falling back to 16.
TEST(BitonicModel, WrapperAndLoaderAgreeOnElementCount) {
    const struct {
        const char* config;
        unsigned n;
    } cases[] = {
        {"", 16},          {"n=8", 8},        {"n=2", 2},         {"n=32", 32},
        {"gain=2,n=8", 8}, {"n=4,gain=2", 4}, {"n=8x", 16},       {"n=12", 16},
        {"n=128", 16},     {"n=3", 16},       {"n=", 16},         {"xn=8", 16},
        {"n=-8", 16},      {"n= 8", 16},      {"n=8,n=4", 8},     {"gain=2", 16},
        {"n=64", 64},      {"gain=2,n=64", 64},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(std::string{"config '"} + c.config + "'");
        BitonicHarness b{c.config};
        EXPECT_EQ(b.readReg(0x310), c.n);
        const std::string compiled =
            *c.config == '\0' ? "eval=compiled" : std::string{c.config} + ",eval=compiled";
        EXPECT_EQ(rtlModelPathForConfig("bitonic", compiled),
                  compiledNetlistModelPath("bitonic", c.n));
    }
}

// At n=64 the output window 0x100 + 8*i ends at 0x2F8, just below the
// control block: status and count stay readable on both the interpreted
// wrapper and the one g5r netlistc emits.
TEST(BitonicModel, StatusAndCountStayReadableAtN64) {
    std::vector<std::int64_t> data(64);
    Rng rng{64};
    for (auto& v : data) v = static_cast<std::int64_t>(rng.below(10000)) - 5000;
    auto expected = data;
    std::sort(expected.begin(), expected.end());

    BitonicHarness interpreted{"n=64"};
    BitonicHarness compiled{SharedLibModel::load(compiledNetlistModelPath("bitonic", 64), "")};
    for (BitonicHarness* b : {&interpreted, &compiled}) {
        SCOPED_TRACE(b == &interpreted ? "interpreted" : "compiled bitonic_c64");
        EXPECT_EQ(b->readReg(0x310), 64u);
        EXPECT_EQ(b->sort(data), expected);
        EXPECT_EQ(b->readReg(0x308), 2u);  // Done, not busy.
        EXPECT_EQ(b->readReg(0x310), 64u);
    }
}

}  // namespace
}  // namespace g5r
