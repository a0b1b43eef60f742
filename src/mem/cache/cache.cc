#include "mem/cache/cache.hh"

#include <algorithm>

namespace g5r {

Cache::Cache(Simulation& sim, std::string objName, const CacheParams& params)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      numSets_(params.sizeBytes / (params.lineSize * params.assoc)),
      cpuSide_(name() + ".cpu_side", *this),
      memSide_(name() + ".mem_side", *this),
      reqEvent_([this] { trySendRequests(); }, *this, "reqEvent"),
      respEvent_([this] { trySendResponses(); }, *this, "respEvent",
                 EventPriority::kResponse),
      prefetcher_(params.prefetchDegree, params.lineSize),
      hits_(stats_.scalar("hits", "demand hits")),
      misses_(stats_.scalar("misses", "demand misses sent downstream")),
      mshrHits_(stats_.scalar("mshrHits", "misses merged into in-flight MSHRs")),
      writebacks_(stats_.scalar("writebacks", "dirty victims written back")),
      prefetchesIssued_(stats_.scalar("prefetchesIssued", "prefetch requests sent")),
      prefetchFills_(stats_.scalar("prefetchFills", "fills with no demand target")),
      blockedOnMshrs_(stats_.scalar("blockedOnMshrs", "requests rejected, MSHRs full")),
      demandAccesses_(stats_.scalar("demandAccesses", "CPU-side requests observed")) {
    simAssert(numSets_ > 0 && (numSets_ & (numSets_ - 1)) == 0,
              "cache sets must be a non-zero power of two");
    // Aligned, no fetched line overlaps a window: handleFill tells by address.
    for (const AddrRange& r : params_.uncacheable) {
        simAssert(blockAlign(r.start) == r.start && blockAlign(r.end) == r.end,
                  "uncacheable ranges must be line-aligned");
    }
    sets_.resize(numSets_);
    for (auto& set : sets_) set.resize(params_.assoc);
}

bool Cache::isUncacheable(Addr a) const {
    return std::any_of(params_.uncacheable.begin(), params_.uncacheable.end(),
                       [a](const AddrRange& r) { return r.contains(a); });
}

Cache::Line* Cache::findLine(Addr blockAddr) {
    auto& set = sets_[(blockAddr / params_.lineSize) % numSets_];
    for (auto& line : set) {
        if (line.valid && line.tag == blockAddr) return &line;
    }
    return nullptr;
}

const Cache::Line* Cache::findLineConst(Addr blockAddr) const {
    return const_cast<Cache*>(this)->findLine(blockAddr);
}

bool Cache::isCached(Addr addr) const { return findLineConst(blockAlign(addr)) != nullptr; }

bool Cache::isDirty(Addr addr) const {
    const Line* line = findLineConst(blockAlign(addr));
    return line != nullptr && line->dirty;
}

// ------------------------------------------------------------ request path --

bool Cache::access(PacketPtr& pkt) {
    ++demandAccesses_;

    if (isUncacheable(pkt->addr())) {
        // Forward around the cache; handleFill knows the response by address.
        pushRequest(std::move(pkt), clockEdge(1));
        return true;
    }

    const Addr blockAddr = blockAlign(pkt->addr());
    simAssert(blockAlign(pkt->addr() + pkt->size() - 1) == blockAddr,
              "cache access crosses a line boundary");

    if (Line* line = findLine(blockAddr)) {
        ++hits_;
        const RequestorId requestor = pkt->requestor();
        handleHit(std::move(pkt), *line);
        // Train the prefetcher on hits too, so a stream it already covers
        // keeps extending instead of stalling until the next miss.
        maybePrefetch(blockAddr, requestor);
        return true;
    }
    return handleMiss(pkt);
}

void Cache::handleHit(PacketPtr pkt, Line& line) {
    line.lastUsed = ++lruCounter_;
    satisfyTarget(*pkt, line);
    if (!pkt->needsResponse()) {
        // A writeback from an upper cache hitting here is absorbed.
        return;
    }
    pkt->makeResponse();
    pushResponse(std::move(pkt), clockEdge(params_.lookupLatency));
}

bool Cache::handleMiss(PacketPtr& pkt) {
    const Addr blockAddr = blockAlign(pkt->addr());

    if (auto it = mshrs_.find(blockAddr); it != mshrs_.end()) {
        ++mshrHits_;
        if (!pkt->isPrefetch()) it->second.prefetchOnly = false;
        if (missEventBus_ != nullptr && !pkt->isPrefetch()) {
            missEventBus_->pulse(missEventLine_);
        }
        it->second.targets.push_back(std::move(pkt));
        return true;
    }

    if (mshrs_.size() >= params_.mshrs) {
        ++blockedOnMshrs_;
        needCpuRetry_ = true;
        return false;
    }

    if (missEventBus_ != nullptr && !pkt->isPrefetch()) {
        missEventBus_->pulse(missEventLine_);
    }

    ++misses_;
    const RequestorId requestor = pkt->requestor();
    Mshr& mshr = mshrs_[blockAddr];
    mshr.blockAddr = blockAddr;
    mshr.prefetchOnly = pkt->isPrefetch();
    mshr.targets.push_back(std::move(pkt));

    // Fetch the whole line (write-allocate for write misses).
    auto fetch = std::make_unique<Packet>(MemCmd::kReadReq, blockAddr, params_.lineSize);
    fetch->setRequestor(requestor);
    pushRequest(std::move(fetch), clockEdge(params_.lookupLatency));

    maybePrefetch(blockAddr, requestor);
    return true;
}

void Cache::maybePrefetch(Addr missAddr, RequestorId requestor) {
    if (!params_.enablePrefetcher) return;
    for (const Addr predicted : prefetcher_.notifyAccess(missAddr, requestor)) {
        const Addr blockAddr = blockAlign(predicted);
        // A device window is never prefetched: reads there have side effects,
        // and its fill would be mistaken for a pass-through response.
        if (isUncacheable(blockAddr) || findLine(blockAddr) != nullptr) continue;
        if (mshrs_.count(blockAddr) > 0) continue;
        if (mshrs_.size() >= params_.mshrs) break;  // Never starve demand misses.

        Mshr& mshr = mshrs_[blockAddr];
        mshr.blockAddr = blockAddr;
        mshr.prefetchOnly = true;

        auto fetch = std::make_unique<Packet>(MemCmd::kPrefetchReq, blockAddr, params_.lineSize);
        fetch->setRequestor(requestor);
        pushRequest(std::move(fetch), clockEdge(params_.lookupLatency));
        ++prefetchesIssued_;
    }
}

// --------------------------------------------------------------- fill path --

bool Cache::handleFill(PacketPtr& pkt) {
    if (isUncacheable(pkt->addr())) {
        pushResponse(std::move(pkt), clockEdge(params_.responseLatency));
        return true;
    }

    if (pkt->cmd() == MemCmd::kWriteResp) {
        // Acknowledgement of a downstream write; nothing to do.
        pkt.reset();
        return true;
    }

    const Addr blockAddr = pkt->addr();
    auto it = mshrs_.find(blockAddr);
    simAssert(it != mshrs_.end(), "fill without a matching MSHR");
    Mshr mshr = std::move(it->second);
    mshrs_.erase(it);

    Line& line = insertBlock(blockAddr, pkt->constData());
    pkt.reset();

    if (mshr.prefetchOnly) ++prefetchFills_;
    for (PacketPtr& target : mshr.targets) {
        satisfyTarget(*target, line);
        if (!target->needsResponse()) continue;  // Absorbed writeback target.
        target->makeResponse();
        pushResponse(std::move(target), clockEdge(params_.responseLatency));
    }

    if (needCpuRetry_) {
        needCpuRetry_ = false;
        cpuSide_.sendReqRetry();
    }
    return true;
}

Cache::Line& Cache::insertBlock(Addr blockAddr, const std::uint8_t* data) {
    auto& set = sets_[(blockAddr / params_.lineSize) % numSets_];

    Line* victim = nullptr;
    for (auto& line : set) {
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (victim == nullptr || line.lastUsed < victim->lastUsed) victim = &line;
    }

    if (victim->valid && victim->dirty) {
        ++writebacks_;
        auto wb = std::make_unique<Packet>(MemCmd::kWritebackDirty, victim->tag,
                                           params_.lineSize);
        wb->setData(victim->data.data());
        pushRequest(std::move(wb), clockEdge(1));
    }

    victim->tag = blockAddr;
    victim->valid = true;
    victim->dirty = false;
    victim->lastUsed = ++lruCounter_;
    victim->data.assign(data, data + params_.lineSize);
    return *victim;
}

void Cache::satisfyTarget(Packet& target, Line& line) {
    const Addr offset = target.addr() - line.tag;
    if (target.isWrite()) {
        simAssert(target.hasData(), "write without payload");
        std::copy_n(target.constData(), target.size(), line.data.begin() + offset);
        line.dirty = true;
    } else {
        std::copy_n(line.data.begin() + offset, target.size(), target.data());
    }
}

void Cache::functionalAccess(Packet& pkt) {
    if (isUncacheable(pkt.addr())) {
        memSide_.sendFunctional(pkt);
        return;
    }
    if (Line* line = findLine(blockAlign(pkt.addr()))) {
        satisfyTarget(pkt, *line);
        return;
    }
    memSide_.sendFunctional(pkt);
}

// ------------------------------------------------------------ queued sends --

void Cache::pushRequest(PacketPtr pkt, Tick readyTick) {
    auto it = std::upper_bound(reqQueue_.begin(), reqQueue_.end(), readyTick,
                               [](Tick t, const TimedPkt& q) { return t < q.readyTick; });
    reqQueue_.insert(it, TimedPkt{readyTick, std::move(pkt)});
    if (!reqEvent_.scheduled()) {
        eventQueue().schedule(reqEvent_, std::max(curTick(), reqQueue_.front().readyTick));
    }
}

void Cache::pushResponse(PacketPtr pkt, Tick readyTick) {
    auto it = std::upper_bound(respQueue_.begin(), respQueue_.end(), readyTick,
                               [](Tick t, const TimedPkt& q) { return t < q.readyTick; });
    respQueue_.insert(it, TimedPkt{readyTick, std::move(pkt)});
    if (!respEvent_.scheduled()) {
        eventQueue().schedule(respEvent_, std::max(curTick(), respQueue_.front().readyTick));
    }
}

void Cache::trySendRequests() {
    while (!memSideBlocked_ && !reqQueue_.empty() && reqQueue_.front().readyTick <= curTick()) {
        PacketPtr& pkt = reqQueue_.front().pkt;
        if (!memSide_.sendTimingReq(pkt)) {
            memSideBlocked_ = true;
            return;
        }
        reqQueue_.pop_front();
    }
    if (!reqQueue_.empty() && !memSideBlocked_ && !reqEvent_.scheduled()) {
        eventQueue().schedule(reqEvent_, std::max(curTick(), reqQueue_.front().readyTick));
    }
}

void Cache::trySendResponses() {
    while (!respBlocked_ && !respQueue_.empty() && respQueue_.front().readyTick <= curTick()) {
        PacketPtr& pkt = respQueue_.front().pkt;
        if (!cpuSide_.sendTimingResp(pkt)) {
            respBlocked_ = true;
            return;
        }
        respQueue_.pop_front();
    }
    if (!respQueue_.empty() && !respBlocked_ && !respEvent_.scheduled()) {
        eventQueue().schedule(respEvent_, std::max(curTick(), respQueue_.front().readyTick));
    }
}

}  // namespace g5r
