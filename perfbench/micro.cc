#include "micro.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/dma.hh"
#include "mem/dram.hh"
#include "mem/dram_configs.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "models/nvdla/standalone.hh"
#include "obs/reqtrace.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "soc/model_loader.hh"
#include "workloads.hh"

namespace g5r::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps a computed value observable so the timed loop is not folded away.
volatile std::uint64_t sink = 0;

/// One timed batch of @p ops operations; returns its host seconds.
using Batch = std::function<double(std::uint64_t ops)>;

/// Median nanoseconds per operation over kBatches batches, each sized from
/// a calibration batch to take about @p budget / kBatches seconds.
double nsPerOp(double budget, std::uint64_t calibrationOps, const Batch& batch) {
    constexpr int kBatches = 5;
    const double calibration = std::max(batch(calibrationOps), 1e-6);
    const double perOp = calibration / static_cast<double>(calibrationOps);
    const auto ops = std::max<std::uint64_t>(
        calibrationOps / 4, static_cast<std::uint64_t>(budget / kBatches / perOp));
    std::vector<double> ns;
    for (int i = 0; i < kBatches; ++i) {
        ns.push_back(batch(ops) * 1e9 / static_cast<double>(ops));
    }
    std::sort(ns.begin(), ns.end());
    return ns[kBatches / 2];
}

// ---------------------------------------------------------------- sim layer

/// Schedule + service at a fixed pending depth: every dispatch reschedules
/// its event a pseudo-random distance ahead, so the heap stays @p depth deep.
double eventQueueBatch(std::uint64_t seed, unsigned depth, std::uint64_t ops) {
    EventQueue queue;
    std::mt19937_64 rng(seed);
    std::vector<Tick> deltas(4096);
    for (Tick& d : deltas) d = 1 + rng() % 1000;

    class Hop final : public Event {
    public:
        Hop(EventQueue& q, const std::vector<Tick>& d, std::size_t phase)
            : queue_(q), deltas_(d), next_(phase) {}
        void process() override {
            queue_.schedule(*this, queue_.curTick() + deltas_[next_++ % deltas_.size()]);
        }

    private:
        EventQueue& queue_;
        const std::vector<Tick>& deltas_;
        std::size_t next_;
    };
    std::vector<std::unique_ptr<Hop>> events;
    for (unsigned i = 0; i < std::max(depth, 1u); ++i) {
        events.push_back(std::make_unique<Hop>(queue, deltas, i * 97));
        queue.schedule(*events.back(), deltas[i % deltas.size()]);
    }
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) queue.serviceOne();
    const double seconds = secondsSince(start);
    for (auto& ev : events) queue.deschedule(*ev);
    return seconds;
}

double histogramBatch(std::uint64_t seed, std::uint64_t ops) {
    stats::Group group("perfbench");
    stats::Histogram& hist = group.histogram("latency", "microbenchmark samples");
    std::mt19937_64 rng(seed);
    // Latency-shaped stimuli: tens of ticks to ~1e7 ticks.
    std::vector<std::uint64_t> values(4096);
    for (auto& v : values) v = (rng() % 1024) << (rng() % 14);
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) hist.sampleInt(values[i % values.size()]);
    const double seconds = secondsSince(start);
    sink = sink + hist.count();
    return seconds;
}

// ---------------------------------------------------------------- mem layer

double packetBatch(std::uint64_t seed, std::uint64_t ops) {
    std::uint64_t ids = 0;
    PacketIdScope scope(ids);
    std::mt19937_64 rng(seed);
    std::vector<Addr> addrs(4096);
    for (Addr& a : addrs) a = (rng() % (1u << 24)) * 64;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        PacketPtr pkt = makeReadPacket(addrs[i % addrs.size()], 64);
        pkt->makeResponse();
        pkt->data()[0] = static_cast<std::uint8_t>(i);
        sink = sink + pkt->constData()[0];
    }
    return secondsSince(start);
}

/// Closed-loop requester: keeps @p window reads outstanding at
/// pseudo-random line addresses until @p total responses have arrived, then
/// ends the run. Honours the retry protocol.
class Requester final : public SimObject {
public:
    Requester(Simulation& sim, std::uint64_t seed, Addr span, unsigned window,
              std::uint64_t total)
        : SimObject(sim, "perfbench.requester"),
          port_(*this),
          sendEvent_([this] { sendRequests(); }, "perfbench.requester.send"),
          rng_(seed),
          span_(span / 64),
          window_(window),
          total_(total) {}

    RequestPort& port() { return port_; }
    void startup() override { eventQueue().schedule(sendEvent_, curTick()); }
    std::uint64_t completed() const { return completed_; }

private:
    class Port final : public RequestPort {
    public:
        explicit Port(Requester& owner)
            : RequestPort("perfbench.requester.port"), owner_(owner) {}
        bool recvTimingResp(PacketPtr& pkt) override {
            pkt.reset();
            owner_.responded();
            return true;
        }
        void recvReqRetry() override {
            owner_.blocked_ = false;
            owner_.sendRequests();
        }

    private:
        Requester& owner_;
    };

    void responded() {
        --outstanding_;
        if (++completed_ >= total_) {
            simulation().exitSimLoop("perfbench requester done");
            return;
        }
        sendRequests();
    }

    void sendRequests() {
        while (!blocked_ && outstanding_ < window_ && sent_ < total_) {
            if (!pending_) pending_ = makeReadPacket((rng_() % span_) * 64, 64);
            if (!port_.sendTimingReq(pending_)) {
                blocked_ = true;
                return;
            }
            ++outstanding_;
            ++sent_;
        }
    }

    Port port_;
    CallbackEvent sendEvent_;
    std::mt19937_64 rng_;
    Addr span_;
    unsigned window_;
    std::uint64_t total_;
    PacketPtr pending_;
    unsigned outstanding_ = 0;
    std::uint64_t sent_ = 0;
    std::uint64_t completed_ = 0;
    bool blocked_ = false;
};

constexpr AddrRange kMemRange{0, 1ULL << 30};

double timedRun(Simulation& sim, const Requester& req, std::uint64_t ops) {
    const auto start = Clock::now();
    sim.run();
    const double seconds = secondsSince(start);
    if (req.completed() != ops) panic("perfbench: microbenchmark lost requests");
    return seconds;
}

/// One read round trip through a crossbar to an ideal memory, eight in flight.
double xbarBatch(std::uint64_t seed, std::uint64_t ops) {
    Simulation sim;
    BackingStore store;
    Xbar xbar(sim, "perfbench.xbar", Xbar::Params{});
    SimpleMemory::Params mp;
    mp.range = kMemRange;
    SimpleMemory mem(sim, "perfbench.mem", mp, store);
    Requester req(sim, seed, 1ULL << 24, 8, ops);
    req.port().bind(xbar.addCpuSidePort("req"));
    xbar.addMemSidePort("mem", RouteSpec{kMemRange}).bind(mem.port());
    return timedRun(sim, req, ops);
}

/// Random line reads straight into a DDR4-1ch controller, @p depth in flight.
double dramBatch(std::uint64_t seed, unsigned depth, std::uint64_t ops) {
    Simulation sim;
    BackingStore store;
    MultiChannelDram dram(sim, "perfbench.dram", dramParamsFor(MemTech::kDdr4_1ch, kMemRange),
                          store);
    Requester req(sim, seed, 1ULL << 26, depth, ops);
    req.port().bind(dram.port());
    return timedRun(sim, req, ops);
}

/// Line copies of one @p lines-line descriptor between two ideal memories.
double dmaBatch(std::uint64_t seed, std::uint64_t lines) {
    Simulation sim;
    BackingStore memStore;
    BackingStore spmStore;
    DmaEngine dma(sim, "perfbench.dma", DmaEngine::Params{});
    SimpleMemory::Params mp;
    mp.range = kMemRange;
    SimpleMemory mem(sim, "perfbench.mem", mp, memStore);
    SimpleMemory spm(sim, "perfbench.spm", mp, spmStore);
    dma.memPort().bind(mem.port());
    dma.spmPort().bind(spm.port());
    const Addr base = (seed % 1024) * 64;
    dma.enqueue({base, base, lines * 64, DmaEngine::Direction::kMemToSpm,
                 [&sim] { sim.exitSimLoop("perfbench dma done"); }});
    const auto start = Clock::now();
    sim.run();
    const double seconds = secondsSince(start);
    if (dma.descriptorsCompleted() != 1) panic("perfbench: DMA descriptor did not complete");
    return seconds;
}

// ---------------------------------------------------------------- obs layer

double reqtraceSpanBatch(std::uint64_t seed, std::uint64_t ops) {
    obs::ReqTraceSession session("", "perfbench");
    constexpr ReqId kRoots = 1024;
    for (ReqId id = 1; id <= kRoots; ++id) session.onBegin(id, 0, "perfbench", 0);
    std::mt19937_64 rng(seed);
    std::vector<ReqId> ids(4096);
    for (ReqId& id : ids) id = 1 + rng() % kRoots;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        const Tick begin = i * 10;
        session.onSpan(ids[i % ids.size()], static_cast<ReqStage>(i % kNumReqStages),
                       begin, begin + 7);
    }
    return secondsSince(start);
}

// ------------------------------------------------------------- models layer

/// Table 3's baseline: the Sanity3 trace of accelerator 0 played on the
/// NVDLA model with no simulator around it. Median of five plays.
double nvdlaStandaloneSeconds() {
    const models::NvdlaTrace trace = sanity3Trace(0);
    auto model = loadRtlModel("nvdla");
    std::vector<double> seconds;
    for (int i = 0; i < 5; ++i) {
        BackingStore mem;
        const auto start = Clock::now();
        const models::StandaloneResult r = models::playTraceStandalone(*model, trace, mem);
        seconds.push_back(secondsSince(start));
        if (!r.completed || r.checksum != trace.expectedChecksum) {
            panic("perfbench: standalone NVDLA run failed its checksum");
        }
    }
    std::sort(seconds.begin(), seconds.end());
    return seconds[seconds.size() / 2];
}

}  // namespace

namespace {

// The probe's working set: static, laid out once at process start, so no
// state the simulator leaves in the heap (allocator free lists,
// fragmentation) reaches the probe. Only host speed moves it.
struct ProbeStorage {
    static constexpr std::size_t kSlots = 1 << 17;  // Open addressing, load <= 0.5.
    std::array<std::uint64_t, 64> heap;
    std::array<std::uint64_t, kSlots> keys;  // key + 1; 0 marks an empty slot.
    std::array<std::uint64_t, kSlots> values;
    std::array<std::uint8_t, 128> scratch;
};
ProbeStorage probe;

std::uint64_t& probeSlot(std::uint64_t key) {
    std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> 47;
    while (probe.keys[i] != 0 && probe.keys[i] != key + 1) {
        i = (i + 1) % ProbeStorage::kSlots;
    }
    if (probe.keys[i] == 0) {
        probe.keys[i] = key + 1;
        probe.values[i] = 0;
    }
    return probe.values[i];
}

}  // namespace

double referenceSeconds() {
    const auto start = Clock::now();
    std::mt19937_64 rng(12345);
    std::fill(probe.keys.begin(), probe.keys.end(), 0);
    std::uint64_t acc = 0;
    std::size_t size = 0;
    while (size < probe.heap.size()) {
        probe.heap[size++] = rng() % 1000;
        std::push_heap(probe.heap.begin(), probe.heap.begin() + size, std::greater<>());
    }
    for (int i = 0; i < 100'000; ++i) {
        std::pop_heap(probe.heap.begin(), probe.heap.end(), std::greater<>());
        const std::uint64_t t = probe.heap.back();
        probe.heap.back() = t + 1 + rng() % 1000;
        std::push_heap(probe.heap.begin(), probe.heap.end(), std::greater<>());
        acc += probeSlot(rng() % 65536) += t;
        if (i % 4 == 0) {
            const std::size_t len = 64 + i % 64;
            std::fill_n(probe.scratch.begin(), len, static_cast<std::uint8_t>(acc));
            acc += probe.scratch[len - 1];
        }
    }
    sink = sink + acc;
    return secondsSince(start);
}

exp::Json runMicrobenchmarks(const MicroOptions& opts) {
    const double each = opts.seconds / 9;
    const std::uint64_t seed = opts.seed;
    exp::Json out = exp::Json::object();
    out["sim.eventq_ns"] = nsPerOp(each, 100'000, [&](std::uint64_t n) {
        return eventQueueBatch(seed, opts.depth, n);
    });
    out["sim.hist_sample_ns"] = nsPerOp(each, 1'000'000, [&](std::uint64_t n) {
        return histogramBatch(seed, n);
    });
    out["mem.packet_ns"] = nsPerOp(each, 100'000, [&](std::uint64_t n) {
        return packetBatch(seed, n);
    });
    out["mem.xbar_ns"] = nsPerOp(each, 20'000, [&](std::uint64_t n) {
        return xbarBatch(seed, n);
    });
    out["mem.dram_ns_q1"] = nsPerOp(each, 5'000, [&](std::uint64_t n) {
        return dramBatch(seed, 1, n);
    });
    out["mem.dram_ns_q64"] = nsPerOp(each, 20'000, [&](std::uint64_t n) {
        return dramBatch(seed, 64, n);
    });
    out["mem.dma_ns_per_line"] = nsPerOp(each, 20'000, [&](std::uint64_t n) {
        return dmaBatch(seed, n);
    });
    out["obs.reqtrace_span_ns"] = nsPerOp(each, 100'000, [&](std::uint64_t n) {
        return reqtraceSpanBatch(seed, n);
    });
    out["models.nvdla_standalone_s"] = nvdlaStandaloneSeconds();
    return out;
}

}  // namespace g5r::perfbench
