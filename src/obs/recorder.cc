#include "obs/recorder.hh"

#include <iomanip>
#include <sstream>

namespace g5r::obs {

namespace {

std::string hex16(std::uint64_t v) {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

std::string packetText(char op, std::uint64_t id, std::uint64_t addr, unsigned size,
                       bool isRead) {
    std::ostringstream os;
    switch (op) {
    case 'I':
        os << "issue id=" << id << " addr=0x" << std::hex << addr << std::dec
           << " size=" << size << (isRead ? " read" : " write");
        break;
    case 'F': os << "forward id=" << id; break;
    case 'R': os << "respond id=" << id; break;
    default: os << "complete id=" << id; break;
    }
    return os.str();
}

}  // namespace

Recorder::Recorder(std::string path, std::string runLabel, Tick intervalTicks,
                   unsigned blackBoxDepth)
    : path_(std::move(path)),
      runLabel_(std::move(runLabel)),
      out_(path_),
      interval_(intervalTicks > 0 ? intervalTicks : 1),
      ringDepth_(blackBoxDepth > 0 ? blackBoxDepth : 1) {
    if (out_) {
        out_ << "g5rec 1\n";
        out_ << "run " << runLabel_ << '\n';
        out_ << "interval " << interval_ << '\n';
    }
    // The hook dumps the ring and salvages the partly-written sidecar; it
    // lives exactly as long as the recorder (thread-local, one run per
    // thread), so a clean finish() unregisters before destruction.
    panicHook_ = std::make_unique<PanicHookScope>([this] {
        logRawLine(blackBoxReport());
        if (out_) out_.flush();
    });
}

Recorder::~Recorder() { finish(lastTick_); }

void Recorder::rollTo(Tick when) {
    if (when > lastTick_) lastTick_ = when;
    const std::uint64_t idx = when / interval_;
    if (intervalOpen_ && idx == intervalIndex_) return;
    if (intervalOpen_) flushInterval();
    intervalOpen_ = true;
    intervalIndex_ = idx;
    intervalStart_ = static_cast<Tick>(idx) * interval_;
    ivDispatchCount_ = 0;
    ivDispatchDigest_ = kDigestSeed;
    ivPacketCount_ = 0;
    ivPacketDigest_ = kDigestSeed;
    for (auto& acc : ivObjects_) acc = ObjAcc{};
}

void Recorder::flushInterval() {
    if (!intervalOpen_ || (ivDispatchCount_ == 0 && ivPacketCount_ == 0)) return;
    if (out_) {
        out_ << "iv " << intervalIndex_ << ' ' << intervalStart_ << ' ' << ivDispatchCount_
             << ' ' << hex16(ivDispatchDigest_) << ' ' << hex16(cumDispatchDigest_) << ' '
             << ivPacketCount_ << ' ' << hex16(ivPacketDigest_) << ' '
             << hex16(cumPacketDigest_) << '\n';
        for (std::size_t slot = 0; slot < ivObjects_.size(); ++slot) {
            const ObjAcc& acc = ivObjects_[slot];
            if (acc.count == 0) continue;
            out_ << "ob " << slot << ' ' << acc.count << ' ' << hex16(acc.digest) << ' '
                 << acc.firstTick << '\n';
        }
        // One interval is the crash-loss unit: flush so a dead run's sidecar
        // still diffs up to its last closed interval.
        out_.flush();
    }
}

void Recorder::recordDispatch(Tick when, int slot, const std::string& label) {
    rollTo(when);
    const std::uint64_t labelHash = digestOf(label);
    ++ivDispatchCount_;
    ++totalDispatches_;
    ivDispatchDigest_ = digestU64(digestU64(ivDispatchDigest_, labelHash), when);
    cumDispatchDigest_ = digestU64(digestU64(cumDispatchDigest_, labelHash), when);

    if (slot >= 0) {
        if (static_cast<std::size_t>(slot) >= ivObjects_.size()) {
            ivObjects_.resize(static_cast<std::size_t>(slot) + 1);
        }
        ObjAcc& acc = ivObjects_[static_cast<std::size_t>(slot)];
        if (acc.count == 0) acc.firstTick = when;
        ++acc.count;
        acc.digest = digestU64(digestU64(acc.digest, labelHash), when);
    }
    pushBlackBox('D', when, slot, label);
}

void Recorder::recordPacket(Tick when, int slot, char op, std::uint64_t id,
                            std::uint64_t addr, unsigned size, bool isRead) {
    rollTo(when);
    ++ivPacketCount_;
    ++totalPackets_;
    std::uint64_t key = digestByte(kDigestSeed, static_cast<unsigned char>(op));
    key = digestU64(key, id);
    if (op == 'I') {
        key = digestU64(key, addr);
        key = digestU64(key, size);
        key = digestByte(key, isRead ? 1 : 0);
    }
    ivPacketDigest_ = digestU64(digestU64(ivPacketDigest_, key), when);
    cumPacketDigest_ = digestU64(digestU64(cumPacketDigest_, key), when);
    pushBlackBox('P', when, slot, packetText(op, id, addr, size, isRead));
}

void Recorder::noteObjectName(int slot, const std::string& name) {
    if (slot < 0) return;
    if (static_cast<std::size_t>(slot) >= objectNames_.size()) {
        objectNames_.resize(static_cast<std::size_t>(slot) + 1);
    }
    objectNames_[static_cast<std::size_t>(slot)] = name;
}

void Recorder::pushBlackBox(char kind, Tick tick, int slot, std::string text) {
    BlackBoxEntry e;
    e.seq = ++ringSeq_;
    e.kind = kind;
    e.tick = tick;
    e.slot = slot;
    e.text = std::move(text);
    if (ring_.size() < ringDepth_) {
        ring_.push_back(std::move(e));
    } else {
        ring_[ringNext_] = std::move(e);
        ringNext_ = (ringNext_ + 1) % ring_.size();
    }
}

void Recorder::finish(Tick finalTick) {
    if (finished_) return;
    finished_ = true;
    panicHook_.reset();
    if (finalTick > lastTick_) lastTick_ = finalTick;
    flushInterval();
    intervalOpen_ = false;
    if (out_) {
        for (std::size_t slot = 0; slot < objectNames_.size(); ++slot) {
            if (objectNames_[slot].empty()) continue;
            out_ << "obj " << slot << ' ' << objectNames_[slot] << '\n';
        }
        const std::size_t n = ring_.size();
        for (std::size_t i = 0; i < n; ++i) {
            const BlackBoxEntry& e = ring_[(ringNext_ + i) % n];
            out_ << "bb " << e.seq << ' ' << e.kind << ' ' << e.tick << ' ' << e.slot << ' '
                 << e.text << '\n';
        }
        out_ << "end " << lastTick_ << ' ' << totalDispatches_ << ' ' << totalPackets_ << ' '
             << hex16(cumDispatchDigest_) << ' ' << hex16(cumPacketDigest_) << '\n';
        out_.close();
    }
}

std::string Recorder::blackBoxReport() const {
    std::ostringstream os;
    os << "=== black box";
    if (!runLabel_.empty()) os << " [" << runLabel_ << ']';
    os << ": last " << ring_.size() << " of " << ringSeq_ << " recorded events ===\n";
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const BlackBoxEntry& e = ring_[(ringNext_ + i) % n];
        os << "  #" << e.seq << " t=" << e.tick << ' ' << (e.kind == 'D' ? "dispatch" : "packet");
        const std::string* name = nullptr;
        if (e.slot >= 0 && static_cast<std::size_t>(e.slot) < objectNames_.size() &&
            !objectNames_[static_cast<std::size_t>(e.slot)].empty()) {
            name = &objectNames_[static_cast<std::size_t>(e.slot)];
        }
        if (name != nullptr) os << " [" << *name << ']';
        os << ' ' << e.text << '\n';
    }
    os << "=== end black box ===\n";
    return os.str();
}

}  // namespace g5r::obs
