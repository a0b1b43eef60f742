// DmaEngine: a descriptor-driven copy engine between main memory and a
// scratchpad (mem/spm.hh).
//
// Descriptors (src, dst, bytes, direction) process strictly in FIFO order,
// one at a time. The active descriptor is split into line-bounded chunks
// (never crossing a 64 B boundary on either the source or the destination
// side), read from the source port with up to maxInflight outstanding
// requests; each read response turns into a write on the destination port,
// and the descriptor completes — firing its callback — once every write has
// been acknowledged. Both ports implement the full retry protocol
// (per-port send queue + blocked flag), so back-pressure anywhere simply
// throttles the engine.
#pragma once

#include <deque>
#include <functional>

#include "mem/port.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

namespace g5r {

class DmaEngine : public ClockedObject {
public:
    enum class Direction {
        kMemToSpm,  ///< Read through memPort, write through spmPort (prefetch).
        kSpmToMem,  ///< Read through spmPort, write through memPort (drain).
    };

    struct Descriptor {
        Addr src = 0;
        Addr dst = 0;
        std::uint64_t bytes = 0;
        Direction dir = Direction::kMemToSpm;
        /// Invoked (once) when the last write of this descriptor is acked.
        std::function<void()> onComplete;
        /// Causal-tracing identity: the parent request this copy serves
        /// (0 = none), and the descriptor's own ID, allocated by enqueue().
        ReqId parent = 0;
        ReqId id = 0;
    };

    struct Params {
        Tick clockPeriod = periodFromGHz(1);
        unsigned maxInflight = 64;  ///< Outstanding line requests (reads+writes).
        unsigned lineBytes = 64;    ///< Chunking granularity.
    };

    DmaEngine(Simulation& sim, std::string name, const Params& params);
    HostLayer hostLayer() const override { return HostLayer::kMemory; }

    RequestPort& memPort() { return memPort_; }
    RequestPort& spmPort() { return spmPort_; }
    const RequestPort& memPort() const { return memPort_; }
    const RequestPort& spmPort() const { return spmPort_; }

    /// Queue a copy. Descriptors complete in submission order.
    void enqueue(Descriptor desc);

    bool idle() const { return !active_ && queue_.empty(); }
    std::uint64_t descriptorsCompleted() const {
        return static_cast<std::uint64_t>(descriptors_.value());
    }

private:
    class Port final : public RequestPort {
    public:
        Port(std::string portName, DmaEngine& owner, bool isMem)
            : RequestPort(std::move(portName)), owner_(owner), isMem_(isMem) {}
        bool recvTimingResp(PacketPtr& pkt) override { return owner_.handleResp(pkt); }
        void recvReqRetry() override { owner_.portUnblocked(isMem_); }

    private:
        DmaEngine& owner_;
        bool isMem_;
    };

    /// Per-port send machinery: queued packets drain in order; a rejection
    /// blocks the lane until the peer's retry.
    struct Lane {
        std::deque<PacketPtr> queue;
        bool blocked = false;
    };

    Lane& laneOf(bool isMem) { return isMem ? memLane_ : spmLane_; }
    bool srcIsMem() const { return active_->dir == Direction::kMemToSpm; }

    void process();
    void issueReads();
    void sendQueued(bool isMem);
    void portUnblocked(bool isMem);
    bool handleResp(PacketPtr& pkt);
    void completeActive();

    Params params_;
    Port memPort_;
    Port spmPort_;
    Lane memLane_;
    Lane spmLane_;
    CallbackEvent processEvent_;

    std::deque<Descriptor> queue_;
    std::unique_ptr<Descriptor> active_;
    Tick activeStart_ = 0;
    std::uint64_t cursor_ = 0;        ///< Bytes whose read has been issued.
    unsigned outstandingReads_ = 0;
    unsigned outstandingWrites_ = 0;

    stats::Scalar& descriptors_;
    stats::Scalar& bytesCopied_;
    stats::Histogram& descriptorLatency_;
    stats::Histogram& inflight_;
};

}  // namespace g5r
