// Bitonic-sorter example — the paper's GHDL/VHDL use case.
//
// The sorting network is described as a structural netlist (the GHDL-flow
// stand-in), packaged behind the same shared-library ABI as the Verilator
// models, and driven here through an RTLObject on the SoC: a program running
// on the simulated core writes unsorted values into the accelerator's
// registers, starts it, waits for completion, and reads back sorted data.
//
//   $ ./bitonic_sort
#include <cstdio>
#include <string>

#include "sim/rng.hh"
#include "soc/model_loader.hh"
#include "soc/soc.hh"

using namespace g5r;

int main() {
    constexpr unsigned kN = 8;

    Simulation sim;
    SocConfig cfg = table1Config();
    cfg.numCores = 1;
    Soc soc{sim, cfg};

    RtlObjectParams rtlParams;
    rtlParams.clockPeriod = cfg.rtlClock;  // 1 GHz accelerator in a 2 GHz SoC.
    soc.attachRtlModel("bitonic", loadRtlModel("bitonic", "n=" + std::to_string(kN)),
                       rtlParams, Soc::MemPorts::kNone, /*wireEventBus=*/false);

    // The core's program: write kN values, start, poll status, read back
    // into memory at 0x100000.
    const Addr dev = soc.deviceBaseOf(0);
    std::string src = "  li t0, " + std::to_string(dev) + "\n" +
                      "  li t6, 0x100000\n";
    Rng rng{2026};
    std::printf("input :");
    for (unsigned i = 0; i < kN; ++i) {
        const auto v = rng.below(1000);
        std::printf(" %4llu", static_cast<unsigned long long>(v));
        src += "  li t1, " + std::to_string(v) + "\n";
        src += "  sd t1, " + std::to_string(8 * i) + "(t0)\n";
    }
    std::printf("\n");
    src += R"(
      li t1, 1
      sd t1, 0x300(t0)     ; start
    poll:
      ld t1, 0x308(t0)     ; status
      andi t1, t1, 2       ; done bit
      beq t1, x0, poll
    )";
    for (unsigned i = 0; i < kN; ++i) {
        src += "  ld t1, " + std::to_string(0x100 + 8 * i) + "(t0)\n";
        src += "  sd t1, " + std::to_string(8 * i) + "(t6)\n";
    }
    src += "  li a7, 0\n  ecall\n  halt\n";
    soc.loadProgram(0, isa::assemble(src));

    const RunResult result = sim.run(10'000'000'000ULL);
    if (result.cause != ExitCause::kSimExit) {
        std::printf("program did not finish\n");
        return 1;
    }

    std::printf("sorted:");
    bool ok = true;
    std::uint64_t prev = 0;
    for (unsigned i = 0; i < kN; ++i) {
        // Results may still be dirty in the L1D; probe through the cache.
        Packet probe{MemCmd::kReadReq, 0x100000 + 8 * i, 8};
        soc.l1d(0).cpuSidePort().recvFunctional(probe);
        const auto v = probe.get<std::uint64_t>();
        std::printf(" %4llu", static_cast<unsigned long long>(v));
        if (i > 0 && v < prev) ok = false;
        prev = v;
    }
    std::printf("\n%s after %.2f us simulated\n", ok ? "sorted correctly" : "NOT SORTED",
                ticksToMs(result.tick) * 1000.0);
    return ok ? 0 : 1;
}
