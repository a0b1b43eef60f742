// SimpleCore: a blocking in-order timing core.
//
// gem5 ships multiple CPU models ("in-order and out-of-order core models");
// this is the in-order one: one instruction at a time, memory operations
// block until their response returns, taken control flow pays a fixed
// redirect penalty. It shares the instruction semantics (exec.hh) and the
// syscall surface with the OoO core, so the same programs run on either —
// the core-model ablation bench quantifies the difference.
#pragma once

#include <array>
#include <functional>
#include <string>

#include "cpu/exec.hh"
#include "cpu/isa.hh"
#include "mem/port.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

namespace g5r {

struct SimpleCoreParams {
    Tick clockPeriod = periodFromGHz(2);
    unsigned execLatency = 1;      ///< Cycles per non-memory instruction.
    unsigned mulLatency = 3;
    unsigned divLatency = 12;
    unsigned branchPenalty = 2;    ///< Extra cycles on taken control flow.
};

class SimpleCore : public ClockedObject {
public:
    SimpleCore(Simulation& sim, std::string name, const SimpleCoreParams& params,
               std::uint64_t entryPc);
    HostLayer hostLayer() const override { return HostLayer::kCore; }

    RequestPort& icachePort() { return iport_; }
    RequestPort& dcachePort() { return dport_; }
    void setExitCallback(std::function<void()> cb) { exitCallback_ = std::move(cb); }

    void startup() override;

    bool halted() const { return halted_; }
    std::uint64_t committedInstructions() const { return numCommitted_; }
    std::uint64_t cyclesRetired() const { return curTick() / clockPeriod(); }
    const std::string& consoleOutput() const { return console_; }
    std::uint64_t archReg(unsigned idx) const { return state_.read(idx); }

private:
    class IPort final : public RequestPort {
    public:
        IPort(std::string n, SimpleCore& c) : RequestPort(std::move(n)), core_(c) {}
        bool recvTimingResp(PacketPtr& pkt) override { return core_.recvInstResp(pkt); }
        void recvReqRetry() override { core_.retryFetch(); }

    private:
        SimpleCore& core_;
    };

    class DPort final : public RequestPort {
    public:
        DPort(std::string n, SimpleCore& c) : RequestPort(std::move(n)), core_(c) {}
        bool recvTimingResp(PacketPtr& pkt) override { return core_.recvDataResp(pkt); }
        void recvReqRetry() override { core_.retryData(); }

    private:
        SimpleCore& core_;
    };

    static constexpr unsigned kLineBytes = 64;

    void step();                  ///< Fetch-or-execute the next instruction.
    void finishInstr(std::uint64_t nextPc, unsigned latencyCycles);
    void execute(const isa::Instr& in);
    void doSyscall();
    bool recvInstResp(PacketPtr& pkt);
    bool recvDataResp(PacketPtr& pkt);
    void retryFetch();
    void retryData();
    void haltCore();

    SimpleCoreParams params_;
    IPort iport_;
    DPort dport_;
    CallbackEvent stepEvent_;
    std::function<void()> exitCallback_;

    isa::ArchState state_;
    bool halted_ = false;
    std::string console_;
    std::uint64_t numCommitted_ = 0;

    // Fetch-line buffer.
    std::uint64_t lineAddr_ = ~std::uint64_t{0};
    std::array<std::uint8_t, kLineBytes> lineData_{};
    bool lineValid_ = false;
    bool fetchPending_ = false;
    bool fetchBlocked_ = false;

    // In-flight data access.
    isa::Instr memInstr_{};
    bool dataPending_ = false;
    bool dataBlocked_ = false;
    PacketPtr blockedPkt_;

    stats::Scalar& statCommitted_;
    stats::Scalar& statLoads_;
    stats::Scalar& statStores_;
    stats::Formula& statIpc_;
};

}  // namespace g5r
