#include "cpu/simple_core.hh"

#include <cstring>

namespace g5r {

using isa::Instr;
using isa::Opcode;

SimpleCore::SimpleCore(Simulation& sim, std::string objName, const SimpleCoreParams& params,
                       std::uint64_t entryPc)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      iport_(name() + ".icache_port", *this),
      dport_(name() + ".dcache_port", *this),
      stepEvent_([this] { step(); }, *this, "step"),
      statCommitted_(stats_.scalar("committedInsts", "instructions committed")),
      statLoads_(stats_.scalar("loads", "loads executed")),
      statStores_(stats_.scalar("stores", "stores executed")),
      statIpc_(stats_.formula("ipc", "instructions per cycle", [this] {
          const auto cycles = cyclesRetired();
          return cycles > 0 ? static_cast<double>(numCommitted_) /
                                  static_cast<double>(cycles)
                            : 0.0;
      })) {
    state_.pc = entryPc;
}

void SimpleCore::startup() {
    eventQueue().schedule(stepEvent_, clockEdge());
}

void SimpleCore::haltCore() {
    halted_ = true;
    if (exitCallback_) exitCallback_();
}

void SimpleCore::step() {
    if (halted_) return;

    const std::uint64_t line = state_.pc & ~static_cast<std::uint64_t>(kLineBytes - 1);
    if (!lineValid_ || lineAddr_ != line) {
        if (fetchPending_ || fetchBlocked_) return;  // Resumed by response/retry.
        auto pkt = makeReadPacket(line, kLineBytes);
        if (!iport_.sendTimingReq(pkt)) {
            fetchBlocked_ = true;
            return;
        }
        fetchPending_ = true;
        return;
    }

    std::uint64_t raw = 0;
    std::memcpy(&raw, lineData_.data() + (state_.pc - line), sizeof(raw));
    execute(isa::decode(raw));
}

void SimpleCore::execute(const Instr& in) {
    const std::uint64_t pc = state_.pc;

    if (in.isHalt()) {
        ++numCommitted_;
        ++statCommitted_;
        haltCore();
        return;
    }
    if (in.isSyscall()) {
        doSyscall();
        return;
    }

    if (in.isMem()) {
        // Blocking access: issue and wait for the response.
        const std::uint64_t addr = isa::effectiveAddr(in, state_.read(in.rs1));
        PacketPtr pkt;
        if (in.isLoad()) {
            pkt = makeReadPacket(addr, in.memBytes());
            ++statLoads_;
        } else {
            pkt = makeWritePacket(addr, in.memBytes());
            const std::uint64_t value = state_.read(in.rs2);
            std::memcpy(pkt->data(), &value, in.memBytes());
            ++statStores_;
        }
        memInstr_ = in;
        if (!dport_.sendTimingReq(pkt)) {
            dataBlocked_ = true;
            blockedPkt_ = std::move(pkt);
            return;
        }
        dataPending_ = true;
        return;
    }

    std::uint64_t nextPc = pc + isa::kInstrBytes;
    unsigned latency = params_.execLatency;
    if (in.isBranch()) {
        if (isa::branchTaken(in, state_.read(in.rs1), state_.read(in.rs2))) {
            nextPc = isa::controlTarget(in, pc, 0);
            latency += params_.branchPenalty;
        }
    } else if (in.isJump()) {
        state_.write(in.rd, pc + isa::kInstrBytes);
        nextPc = isa::controlTarget(in, pc, state_.read(in.rs1));
        latency += params_.branchPenalty;
    } else if (in.op == Opcode::kRdCycle) {
        state_.write(in.rd, cyclesRetired());
    } else {
        state_.write(in.rd, isa::aluResult(in, state_.read(in.rs1), state_.read(in.rs2)));
        if (in.op == Opcode::kMul) latency = params_.mulLatency;
        if (in.op == Opcode::kDiv || in.op == Opcode::kRem) latency = params_.divLatency;
    }
    finishInstr(nextPc, latency);
}

void SimpleCore::doSyscall() {
    const auto num = static_cast<isa::Syscall>(state_.read(17));
    switch (num) {
    case isa::Syscall::kExit:
        ++numCommitted_;
        ++statCommitted_;
        haltCore();
        return;
    case isa::Syscall::kSleepNs: {
        // Idle the core for the requested duration.
        ++numCommitted_;
        ++statCommitted_;
        state_.pc += isa::kInstrBytes;
        eventQueue().schedule(stepEvent_, curTick() + state_.read(10) * 1000);
        return;
    }
    case isa::Syscall::kPrintChar:
        console_.push_back(static_cast<char>(state_.read(10)));
        break;
    case isa::Syscall::kPrintInt:
        console_ += std::to_string(static_cast<std::int64_t>(state_.read(10)));
        break;
    }
    finishInstr(state_.pc + isa::kInstrBytes, params_.execLatency);
}

void SimpleCore::finishInstr(std::uint64_t nextPc, unsigned latencyCycles) {
    ++numCommitted_;
    ++statCommitted_;
    state_.pc = nextPc;
    eventQueue().schedule(stepEvent_, clockEdge(latencyCycles));
}

bool SimpleCore::recvInstResp(PacketPtr& pkt) {
    std::memcpy(lineData_.data(), pkt->constData(), kLineBytes);
    lineAddr_ = pkt->addr();
    lineValid_ = true;
    fetchPending_ = false;
    pkt.reset();
    if (!stepEvent_.scheduled()) eventQueue().schedule(stepEvent_, clockEdge(1));
    return true;
}

bool SimpleCore::recvDataResp(PacketPtr& pkt) {
    dataPending_ = false;
    std::uint64_t nextPc = state_.pc + isa::kInstrBytes;
    if (memInstr_.isLoad()) {
        std::uint64_t raw = 0;
        std::memcpy(&raw, pkt->constData(), pkt->size());
        state_.write(memInstr_.rd, isa::extendLoad(memInstr_, raw));
    }
    pkt.reset();
    finishInstr(nextPc, params_.execLatency);
    return true;
}

void SimpleCore::retryFetch() {
    fetchBlocked_ = false;
    if (!stepEvent_.scheduled() && !halted_) eventQueue().schedule(stepEvent_, clockEdge(1));
}

void SimpleCore::retryData() {
    dataBlocked_ = false;
    if (blockedPkt_ != nullptr) {
        if (!dport_.sendTimingReq(blockedPkt_)) {
            dataBlocked_ = true;
            return;
        }
        dataPending_ = true;
    }
}

}  // namespace g5r
