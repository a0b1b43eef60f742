// SimpleMemory: a fixed-latency, optionally bandwidth-limited memory.
//
// With latency == one SoC cycle and unlimited bandwidth this is the "ideal
// 1-cycle main memory" that Figures 6 and 7 normalise against; with non-zero
// parameters it doubles as a generic scratchpad / SRAM endpoint (e.g. the
// SRAMIF scratchpad extension).
#pragma once

#include <deque>

#include "mem/addr_range.hh"
#include "mem/backing_store.hh"
#include "mem/port.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

namespace g5r {

class SimpleMemory : public ClockedObject {
public:
    struct Params {
        AddrRange range;
        Tick clockPeriod = periodFromGHz(2);
        Tick latency = periodFromGHz(2);  ///< Request-to-response latency.
        double bytesPerTick = 0.0;        ///< 0 means unlimited bandwidth.
        unsigned maxPending = 64;         ///< Response-queue depth before back-pressure.
    };

    SimpleMemory(Simulation& sim, std::string name, const Params& params,
                 BackingStore& store);
    HostLayer hostLayer() const override { return HostLayer::kMemory; }

    ResponsePort& port() { return port_; }
    const AddrRange& range() const { return params_.range; }
    BackingStore& store() { return store_; }

private:
    class MemPort final : public ResponsePort {
    public:
        MemPort(std::string portName, SimpleMemory& owner)
            : ResponsePort(std::move(portName)), owner_(owner) {}
        bool recvTimingReq(PacketPtr& pkt) override { return owner_.handleReq(pkt); }
        void recvFunctional(Packet& pkt) override { owner_.store_.access(pkt); }
        void recvRespRetry() override { owner_.respBlocked_ = false; owner_.trySendResponses(); }

    private:
        SimpleMemory& owner_;
    };

    bool handleReq(PacketPtr& pkt);
    void trySendResponses();

    Params params_;
    BackingStore& store_;
    MemPort port_;
    CallbackEvent sendEvent_;

    struct PendingResp {
        Tick readyTick;
        PacketPtr pkt;
    };
    std::deque<PendingResp> respQueue_;
    Tick nextServiceTick_ = 0;  ///< Bandwidth model: when the channel frees up.
    bool needReqRetry_ = false;
    bool respBlocked_ = false;

    stats::Scalar& numReads_;
    stats::Scalar& numWrites_;
    stats::Scalar& bytesRead_;
    stats::Scalar& bytesWritten_;
};

}  // namespace g5r
