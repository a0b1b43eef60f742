// Request-level causal tracing: the channel components report spans on.
//
// Components that own a unit of work (NvdlaHost jobs, DmaEngine
// descriptors, PmuObserver scripts) begin and end requests; components the
// work flows through (xbar, DRAM, SPM) report stage spans against the
// packet's ReqId. All of them call their Simulation's requestSink()
// directly; it is nullptr when request tracing is off, so the disabled
// cost is one branch. The production sink is obs::ReqTraceSession.
#pragma once

#include <cstdint>

#include "sim/ticks.hh"

namespace g5r {

/// Identifies one logical unit of work flowing through the SoC (an NVDLA
/// job, a DMA descriptor, a PMU script, ...). 0 means "untagged"; real IDs
/// come from Simulation::allocRequestId() and are strictly positive, so a
/// run's ID stream is per-Simulation and deterministic.
using ReqId = std::uint64_t;

/// Stage taxonomy for request span attribution. Each span a component
/// reports is labelled with the stage of the pipeline the request spent
/// those ticks in; the critical-path analysis (src/obs/reqtrace.hh) blames
/// overlapping spans by a fixed precedence. Keep the order stable: the
/// numeric values are serialized into .reqtrace.jsonl sidecars.
enum class ReqStage : std::uint8_t {
    kHostLoad,     ///< Host-side configuration (CSB register writes, PMU readout).
    kDmaStage,     ///< DMA engine staging data into the scratchpad.
    kSpmFill,      ///< SPM miss fill in flight (MSHR occupancy).
    kXbarQueue,    ///< Queued in a crossbar layer waiting for the peer.
    kDramService,  ///< In a DRAM channel queue / being serviced.
    kRtlCompute,   ///< RTL model computing (host poll window).
    kDrain,        ///< Result draining back to main memory.
};

inline constexpr unsigned kNumReqStages = 7;

inline const char* reqStageName(ReqStage stage) {
    switch (stage) {
    case ReqStage::kHostLoad: return "hostLoad";
    case ReqStage::kDmaStage: return "dmaStage";
    case ReqStage::kSpmFill: return "spmFill";
    case ReqStage::kXbarQueue: return "xbarQueue";
    case ReqStage::kDramService: return "dramService";
    case ReqStage::kRtlCompute: return "rtlCompute";
    case ReqStage::kDrain: return "drain";
    }
    return "?";
}

/// A request begins once, may reference a parent (0 = root), accumulates
/// stage spans in simulated ticks, and ends once.
class RequestSink {
public:
    virtual ~RequestSink() = default;
    virtual void onBegin(ReqId id, ReqId parent, const char* kind, Tick when) = 0;
    virtual void onEnd(ReqId id, Tick when) = 0;
    virtual void onSpan(ReqId id, ReqStage stage, Tick begin, Tick end) = 0;
};

}  // namespace g5r
