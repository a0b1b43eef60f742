// A minimal requester -> [FlakyForwarder] -> memory system with an
// ObsSession attached — shared by the flight-recorder and divergence-finder
// tests. The requester discards responses inside the receiving dispatch so
// every packet reaches its "complete" callback while the observer is still
// installed, mirroring the SoC's masters.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/flaky_forwarder.hh"
#include "mem/simple_mem.hh"
#include "obs/session.hh"
#include "sim/packet_id.hh"
#include "sim/simulation.hh"

namespace g5r::testing {

class SinkRequester : public SimObject {
public:
    SinkRequester(Simulation& sim, std::string objName)
        : SimObject(sim, std::move(objName)),
          port_(this->name() + ".port", *this),
          issueEvent_([this] { issuePending(); }, *this, "issue") {}

    RequestPort& port() { return port_; }

    void issueAt(Tick when, PacketPtr pkt) {
        sendQueue_.push_back(std::move(pkt));
        if (!issueEvent_.scheduled()) {
            eventQueue().schedule(issueEvent_, std::max(when, curTick()));
        }
    }

    std::size_t numResponses() const { return numResponses_; }

private:
    class Port final : public RequestPort {
    public:
        Port(std::string portName, SinkRequester& owner)
            : RequestPort(std::move(portName)), owner_(owner) {}
        bool recvTimingResp(PacketPtr& pkt) override {
            pkt.reset();
            ++owner_.numResponses_;
            return true;
        }
        void recvReqRetry() override {
            owner_.blocked_ = false;
            owner_.issuePending();
        }

    private:
        SinkRequester& owner_;
    };

    void issuePending() {
        while (!blocked_ && !sendQueue_.empty()) {
            if (!port_.sendTimingReq(sendQueue_.front())) {
                blocked_ = true;
                return;
            }
            sendQueue_.pop_front();
        }
    }

    Port port_;
    CallbackEvent issueEvent_;
    std::deque<PacketPtr> sendQueue_;
    std::size_t numResponses_ = 0;
    bool blocked_ = false;
};

struct RecordHarness {
    /// @p flaky non-null splices a FlakyForwarder ("system.flaky") between
    /// the requester and the memory.
    RecordHarness(const obs::ObsOptions& opts, std::string_view runName,
                  const FlakyForwarderParams* flaky = nullptr) {
        SimpleMemory::Params p;
        p.range = AddrRange{0, 1ULL << 20};
        p.latency = 10'000;
        mem = std::make_unique<SimpleMemory>(sim, "system.mem0", p, store);
        req = std::make_unique<SinkRequester>(sim, "system.cpu0");
        if (flaky != nullptr) {
            fwd = std::make_unique<FlakyForwarder>(sim, "system.flaky", *flaky);
            req->port().bind(fwd->cpuSidePort());
            fwd->memSidePort().bind(mem->port());
        } else {
            req->port().bind(mem->port());
        }
        session = obs::ObsSession::create(sim, opts, runName);
    }

    /// Issue @p n 64-byte reads at tick 0, run to completion, finish the
    /// session (closing the recording).
    void runReads(int n) {
        {
            // Packets are built before run() installs the per-run ID counter;
            // without a local scope they would draw from the process-global
            // fallback and the recorded digests would depend on every run
            // that preceded this one in the process.
            std::uint64_t packetIds = 0;
            PacketIdScope idScope{packetIds};
            for (int i = 0; i < n; ++i) req->issueAt(0, makeReadPacket(64 * i, 64));
        }
        sim.run();
        if (session != nullptr) session->finish();
    }

    Simulation sim;
    BackingStore store;
    std::unique_ptr<SimpleMemory> mem;
    std::unique_ptr<SinkRequester> req;
    std::unique_ptr<FlakyForwarder> fwd;
    std::unique_ptr<obs::ObsSession> session;
};

}  // namespace g5r::testing
