#include "mem/xbar.hh"

#include <algorithm>

namespace g5r {

// ------------------------------------------------------------------- ports --

class Xbar::UpPort final : public ResponsePort {
public:
    UpPort(std::string portName, Xbar& owner, unsigned idx)
        : ResponsePort(std::move(portName)), owner_(owner), idx_(idx) {}

    bool recvTimingReq(PacketPtr& pkt) override { return owner_.handleReq(idx_, pkt); }
    void recvFunctional(Packet& pkt) override { owner_.handleFunctional(pkt); }
    void recvRespRetry() override { owner_.deliverResp(idx_); }

private:
    Xbar& owner_;
    unsigned idx_;
};

class Xbar::DownPort final : public RequestPort {
public:
    DownPort(std::string portName, Xbar& owner, unsigned idx)
        : RequestPort(std::move(portName)), owner_(owner), idx_(idx) {}

    bool recvTimingResp(PacketPtr& pkt) override { return owner_.handleResp(idx_, pkt); }
    void recvReqRetry() override { owner_.deliverReq(idx_); }

private:
    Xbar& owner_;
    unsigned idx_;
};

// -------------------------------------------------------------------- xbar --

Xbar::Xbar(Simulation& sim, std::string objName, const Params& params)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      reqsRouted_(stats_.scalar("reqsRouted", "requests switched downstream")),
      respsRouted_(stats_.scalar("respsRouted", "responses switched upstream")),
      layerConflicts_(stats_.scalar("layerConflicts", "sends rejected, layer busy")),
      bytesRouted_(stats_.scalar("bytesRouted", "payload bytes through the switch")) {}

Xbar::~Xbar() = default;

ResponsePort& Xbar::addCpuSidePort(const std::string& suffix) {
    const unsigned idx = static_cast<unsigned>(upPorts_.size());
    upPorts_.push_back(std::make_unique<UpPort>(name() + ".cpu_side." + suffix, *this, idx));
    latency_.push_back({suffix, &stats_.histogram("latency." + suffix,
                                                   "round-trip ticks, request accept to "
                                                   "response arrival")});

    respLayers_.emplace_back();
    Layer& layer = respLayers_.back();
    layer.deliverEvent = std::make_unique<CallbackEvent>(
        [this, idx] { deliverResp(idx); }, *this, "respDeliver." + suffix,
        EventPriority::kResponse);
    layer.freeEvent = std::make_unique<CallbackEvent>(
        [this, idx] { finishRespLayer(idx); }, *this, "respFree." + suffix,
        EventPriority::kResponse);
    return *upPorts_.back();
}

RequestPort& Xbar::addMemSidePort(const std::string& suffix, const RouteSpec& route) {
    const unsigned idx = static_cast<unsigned>(downPorts_.size());
    downPorts_.push_back(
        std::make_unique<DownPort>(name() + ".mem_side." + suffix, *this, idx));
    routes_.push_back(route);

    reqLayers_.emplace_back();
    Layer& layer = reqLayers_.back();
    layer.deliverEvent = std::make_unique<CallbackEvent>(
        [this, idx] { deliverReq(idx); }, *this, "reqDeliver." + suffix);
    layer.freeEvent = std::make_unique<CallbackEvent>(
        [this, idx] { finishReqLayer(idx); }, *this, "reqFree." + suffix);
    return *downPorts_.back();
}

const ResponsePort& Xbar::cpuSidePort(unsigned idx) const { return *upPorts_.at(idx); }

const RequestPort& Xbar::memSidePort(unsigned idx) const { return *downPorts_.at(idx); }

unsigned Xbar::route(Addr addr) const {
    for (unsigned i = 0; i < routes_.size(); ++i) {
        if (routes_[i].matches(addr)) return i;
    }
    panicStream(strCat("xbar ", name(), ": no route for address 0x", std::hex, addr));
}

void Xbar::acceptIntoLayer(Layer& layer, PacketPtr& pkt) {
    // Only payload occupies the datapath: write requests and read responses
    // carry data; read requests and write acks are a single header beat.
    const bool carriesData = (pkt->isWrite() && pkt->isRequest()) ||
                             (pkt->isRead() && pkt->isResponse());
    const unsigned payload = carriesData ? pkt->size() : 0;
    const Cycles beats =
        std::max<Cycles>(1, (payload + params_.widthBytes - 1) / params_.widthBytes);
    layer.busy = true;
    layer.waitingPeer = false;
    layer.acceptTick = curTick();
    // Header latency is pipelined; the layer is occupied for the beats only.
    layer.freeTick = clockEdge(beats);
    bytesRouted_ += payload;
    layer.pkt = std::move(pkt);
    eventQueue().schedule(*layer.deliverEvent, clockEdge(params_.forwardLatency));
}

bool Xbar::reject(Layer& layer, unsigned src) {
    ++layerConflicts_;
    if (std::find(layer.retryList.begin(), layer.retryList.end(), src) == layer.retryList.end()) {
        layer.retryList.push_back(src);
    }
    return false;
}

// ----------------------------------------------------------- request path --

bool Xbar::handleReq(unsigned srcUp, PacketPtr& pkt) {
    const unsigned dst = route(pkt->addr());
    Layer& layer = reqLayers_[dst];
    if (layer.busy) return reject(layer, srcUp);
    ++reqsRouted_;
    // The way home: the accept tick (zero point of the round-trip latency
    // histogram) under the upstream port index, which handleResp peeks.
    if (pkt->needsResponse()) {
        pkt->pushSenderState(curTick());
        pkt->pushSenderState(srcUp);
    }
    acceptIntoLayer(layer, pkt);
    return true;
}

void Xbar::deliverReq(unsigned dstDown) {
    Layer& layer = reqLayers_[dstDown];
    if (!layer.busy || layer.pkt == nullptr) return;

    const ReqId reqId = layer.pkt->reqId();
    const Tick acceptTick = layer.acceptTick;
    if (!downPorts_[dstDown]->sendTimingReq(layer.pkt)) {
        layer.waitingPeer = true;  // Peer will recvReqRetry -> deliverReq again.
        return;
    }
    // Ticks between layer acceptance and the downstream peer taking the
    // packet are crossbar queueing, blamed on the packet's request.
    if (RequestSink* sink = sim_.requestSink(); sink && reqId != 0 && curTick() > acceptTick) {
        sink->onSpan(reqId, ReqStage::kXbarQueue, acceptTick, curTick());
    }

    if (layer.freeTick <= curTick()) {
        finishReqLayer(dstDown);
    } else if (!layer.freeEvent->scheduled()) {
        eventQueue().schedule(*layer.freeEvent, layer.freeTick);
    }
}

void Xbar::finishReqLayer(unsigned dstDown) {
    Layer& layer = reqLayers_[dstDown];
    layer.busy = false;
    layer.waitingPeer = false;
    std::vector<unsigned> waiting;
    waiting.swap(layer.retryList);
    for (const unsigned up : waiting) upPorts_[up]->sendReqRetry();
}

// ---------------------------------------------------------- response path --

bool Xbar::handleResp(unsigned srcDown, PacketPtr& pkt) {
    // Peek only: a rejected response must leave the packet untouched.
    const auto dstUp = static_cast<unsigned>(pkt->peekSenderState());
    simAssert(dstUp < respLayers_.size(), "response's sender state names no upstream port");

    Layer& layer = respLayers_[dstUp];
    if (layer.busy) return reject(layer, srcDown);
    pkt->popSenderState();
    const Tick issued = pkt->popSenderState();
    latency_[dstUp].ticks->sampleInt(curTick() - issued);
    ++respsRouted_;
    acceptIntoLayer(layer, pkt);
    return true;
}

void Xbar::deliverResp(unsigned dstUp) {
    Layer& layer = respLayers_[dstUp];
    if (!layer.busy || layer.pkt == nullptr) return;

    const ReqId reqId = layer.pkt->reqId();
    const Tick acceptTick = layer.acceptTick;
    if (!upPorts_[dstUp]->sendTimingResp(layer.pkt)) {
        layer.waitingPeer = true;  // Peer will recvRespRetry -> deliverResp again.
        return;
    }
    if (RequestSink* sink = sim_.requestSink(); sink && reqId != 0 && curTick() > acceptTick) {
        sink->onSpan(reqId, ReqStage::kXbarQueue, acceptTick, curTick());
    }

    if (layer.freeTick <= curTick()) {
        finishRespLayer(dstUp);
    } else if (!layer.freeEvent->scheduled()) {
        eventQueue().schedule(*layer.freeEvent, layer.freeTick);
    }
}

void Xbar::finishRespLayer(unsigned dstUp) {
    Layer& layer = respLayers_[dstUp];
    layer.busy = false;
    layer.waitingPeer = false;
    std::vector<unsigned> waiting;
    waiting.swap(layer.retryList);
    for (const unsigned down : waiting) downPorts_[down]->sendRespRetry();
}

void Xbar::handleFunctional(Packet& pkt) {
    downPorts_[route(pkt.addr())]->sendFunctional(pkt);
}

}  // namespace g5r
