// PmuObserver: the interrupt-service side of the Fig. 5 experiment.
//
// The paper configures the PMU to interrupt every 10,000 cycles and dumps
// both the PMU counters and gem5's own statistics at each interrupt,
// plotting the two IPC curves on top of each other. This object plays the
// interrupt handler: on the PMU's IRQ it reads the commit-lane, L1D-miss and
// cycle counters over the timing interconnect, snapshots the simulator
// statistics at the IRQ instant, clears the interrupt, and appends a sample.
//
// The small skew between the snapshot (instantaneous) and the counter reads
// (which take real bus time while the PMU keeps counting) plus the PMU's
// capture-delay and reset-loss artefacts are exactly the "minor differences"
// the paper reports; samples() exposes everything needed to quantify them.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "mem/port.hh"
#include "models/pmu/pmu_design.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

namespace g5r {

class PmuObserver : public ClockedObject {
public:
    /// Counters fetched at every interrupt, in read order.
    static constexpr unsigned kNumReads = 6;  // Commit lanes 0..3, L1D miss, cycles.

    struct Sample {
        Tick irqTick = 0;
        std::array<std::uint64_t, kNumReads> counters{};  ///< Raw PMU values.
        double gem5Insts = 0;    ///< Simulator stats at the IRQ instant.
        double gem5Cycles = 0;
        double gem5L1dMisses = 0;

        std::uint64_t pmuCommits() const {
            return counters[0] + counters[1] + counters[2] + counters[3];
        }
        std::uint64_t pmuL1dMisses() const { return counters[4]; }
    };

    struct Params {
        Addr pmuBase = 0;
        Tick clockPeriod = periodFromGHz(2);
    };

    /// @p gem5Probe returns {committed insts, cycles, l1d misses} at call time.
    PmuObserver(Simulation& sim, std::string name, const Params& params,
                std::function<std::array<double, 3>()> gem5Probe);
    HostLayer hostLayer() const override { return HostLayer::kCore; }

    RequestPort& port() { return port_; }

    /// Wire this to the PMU RTLObject's IRQ callback.
    void onIrq(bool level);

    const std::vector<Sample>& samples() const { return samples_; }

    struct RegWrite {
        std::uint64_t addr;  ///< Offset from pmuBase.
        std::uint64_t data;
    };

    /// Register writes performed over the bus at startup, before sampling —
    /// the "configure the PMU by enabling events and thresholds" step.
    void setConfigWrites(std::vector<RegWrite> writes) { configWrites_ = std::move(writes); }

    void startup() override;

    /// Convenience: the Fig. 5 configuration — enable commit lanes 0-3, the
    /// L1D-miss line and the cycle line; interrupt every @p intervalCycles
    /// cycles on the cycle counter.
    static std::vector<RegWrite> fig5Config(std::uint64_t intervalCycles = 10'000);

private:
    class Port final : public RequestPort {
    public:
        Port(std::string n, PmuObserver& o) : RequestPort(std::move(n)), owner_(o) {}
        bool recvTimingResp(PacketPtr& pkt) override { return owner_.handleResp(pkt); }
        void recvReqRetry() override { owner_.trySend(); }

    private:
        PmuObserver& owner_;
    };

    void startReadout();
    void issueNext();
    void trySend();
    bool handleResp(PacketPtr& pkt);

    Params params_;
    Port port_;
    std::function<std::array<double, 3>()> gem5Probe_;
    CallbackEvent kickEvent_;

    std::vector<RegWrite> configWrites_;
    /// Causal tracing: the whole script is one root request; each interrupt
    /// readout is a child whose hostLoad span covers IRQ to sample-complete.
    ReqId scriptRequest_ = 0;
    ReqId readoutRequest_ = 0;
    std::size_t nextConfig_ = 0;
    bool configuring_ = false;
    bool readoutActive_ = false;
    bool irqPendingDuringReadout_ = false;
    unsigned nextRead_ = 0;
    PacketPtr pendingSend_;
    Sample current_;
    std::vector<Sample> samples_;

    stats::Scalar& interrupts_;
    stats::Scalar& readouts_;
};

}  // namespace g5r
