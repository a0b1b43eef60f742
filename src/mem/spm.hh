// Spm: a banked scratchpad memory exposed as a memory-mapped slave.
//
// The software-managed buffer of the DMA+SPM memory path (DESIGN.md §13): a
// DMA engine (mem/dma.hh) stages accelerator data here ahead of the compute
// stream, and the accelerator then sees SRAM-class latency instead of the
// full DRAM round trip. Presence is tracked per 64 B line:
//
//   * writes allocate: the covered lines become present and respond at the
//     banked SRAM latency (bytes never written read back as zero — the
//     scratchpad is private storage, not a cache of main memory),
//   * read hits (all covered lines present) respond at the banked latency,
//   * read misses fetch the missing lines through the mem-side port
//     (MSHR-style, one fill per line, coalesced across waiting reads), so
//     correctness never depends on the prefetch having run.
//
// Banking: line-interleaved ((addr >> 6) % banks), one access per bank per
// cycle; a busy bank delays the access and counts a conflict.
#pragma once

#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/addr_range.hh"
#include "mem/backing_store.hh"
#include "mem/port.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

namespace g5r {

class Spm : public ClockedObject {
public:
    struct Params {
        AddrRange range;                  ///< Window the scratchpad mirrors.
        Tick clockPeriod = periodFromGHz(2);
        Cycles accessLatency = 2;         ///< SRAM array access, in cycles.
        unsigned banks = 8;               ///< Line-interleaved banks (power of two).
        unsigned maxPending = 64;         ///< Outstanding cpu-side transactions
                                          ///< before back-pressure.
        unsigned fillInflight = 16;       ///< Outstanding line fills downstream.
        std::uint64_t sizeBytes = 0;      ///< Capacity; 0 = unbounded. Overflow
                                          ///< panics (software-managed buffer:
                                          ///< spilling silently would be a bug).
    };

    Spm(Simulation& sim, std::string name, const Params& params);
    HostLayer hostLayer() const override { return HostLayer::kMemory; }

    ResponsePort& cpuSidePort() { return cpuPort_; }
    RequestPort& memSidePort() { return memPort_; }
    const ResponsePort& cpuSidePort() const { return cpuPort_; }
    const RequestPort& memSidePort() const { return memPort_; }

    const AddrRange& range() const { return params_.range; }
    BackingStore& store() { return store_; }

    /// Lines currently resident (presence directory size).
    std::uint64_t residentLines() const { return present_.size(); }

private:
    class CpuPort final : public ResponsePort {
    public:
        CpuPort(std::string portName, Spm& owner)
            : ResponsePort(std::move(portName)), owner_(owner) {}
        bool recvTimingReq(PacketPtr& pkt) override { return owner_.handleReq(pkt); }
        void recvFunctional(Packet& pkt) override { owner_.handleFunctional(pkt); }
        void recvRespRetry() override {
            owner_.respBlocked_ = false;
            owner_.trySendResponses();
        }

    private:
        Spm& owner_;
    };

    class MemPort final : public RequestPort {
    public:
        MemPort(std::string portName, Spm& owner)
            : RequestPort(std::move(portName)), owner_(owner) {}
        bool recvTimingResp(PacketPtr& pkt) override { return owner_.handleFillResp(pkt); }
        void recvReqRetry() override {
            owner_.fillBlocked_ = false;
            owner_.sendFills();
        }

    private:
        Spm& owner_;
    };

    bool handleReq(PacketPtr& pkt);
    bool handleFillResp(PacketPtr& pkt);
    void handleFunctional(Packet& pkt);

    bool linePresent(Addr lineAddr) const { return present_.count(lineAddr) != 0; }
    void markPresent(Addr addr, unsigned size);

    /// Banked SRAM timing for an access at @p addr starting now: returns the
    /// tick the data is available, advancing the bank's busy cursor.
    Tick bankedReadyTick(Addr addr);

    void respond(PacketPtr pkt, Tick readyTick);
    void trySendResponses();
    void sendFills();
    void maybeSendReqRetry();

    Params params_;
    BackingStore store_;
    CpuPort cpuPort_;
    MemPort memPort_;
    CallbackEvent sendEvent_;

    /// Presence directory: line-aligned addresses resident in the array.
    std::unordered_set<Addr> present_;

    /// Per-bank busy cursor (one access per bank per cycle).
    std::vector<Tick> bankBusyUntil_;

    struct PendingResp {
        Tick readyTick;
        PacketPtr pkt;
    };
    std::deque<PendingResp> respQueue_;

    /// Reads waiting on line fills, keyed by an arrival counter.
    struct PendingRead {
        PacketPtr pkt;
        unsigned remainingFills = 0;
        Tick arrival = 0;  ///< Miss tick; start of the read's spmFill span.
    };
    std::map<std::uint64_t, PendingRead> pendingReads_;
    std::uint64_t nextReadKey_ = 0;

    /// Line fill book-keeping: line -> waiting read keys. fillQueue_ holds
    /// lines whose fill has not been issued downstream yet.
    std::unordered_map<Addr, std::vector<std::uint64_t>> mshrs_;
    std::deque<Addr> fillQueue_;
    unsigned fillsInflight_ = 0;
    bool fillBlocked_ = false;

    bool needReqRetry_ = false;
    bool respBlocked_ = false;

    stats::Scalar& readHits_;
    stats::Scalar& readMisses_;
    stats::Scalar& writes_;
    stats::Scalar& fills_;
    stats::Scalar& mshrJoins_;
    stats::Scalar& bankConflicts_;
    stats::Scalar& bytesRead_;
    stats::Scalar& bytesWritten_;
};

}  // namespace g5r
