// Canned experiment setups for the paper's evaluation.
//
// Each function assembles a Table 1 SoC, runs one experimental point, and
// returns the measurements the corresponding figure/table needs. The bench
// binaries (bench/) sweep these; integration tests sanity-check single
// points.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cpu/workloads.hh"
#include "mem/dram_configs.hh"
#include "models/nvdla/trace.hh"
#include "obs/session.hh"
#include "soc/config.hh"
#include "soc/pmu_observer.hh"

namespace g5r::experiments {

// ------------------------------------------------------------------ Fig 5 --

struct PmuRunConfig {
    workloads::SortBenchmarkLayout layout;  ///< Sort-benchmark sizing.
    std::uint64_t intervalCycles = 10'000;  ///< PMU interrupt period.
    bool attachPmu = true;                  ///< false = bare-gem5 baseline (Table 2).
    bool programPmu = true;                 ///< false = attached but never configured:
                                            ///< no counter enables, so the model is
                                            ///< quiescent and idle-tick gating can
                                            ///< skip it (Table 2's idle rows).
    std::string waveformPath;               ///< Non-empty = enable VCD tracing.
    MemTech memTech = MemTech::kDdr4_1ch;
    unsigned numCores = 8;
    Tick maxTicks = 200'000'000'000ULL;     ///< Safety net (200 ms simulated).
    bool gateIdleTicks = true;              ///< Quiescence-gate the PMU tick.
    obs::ObsOptions obs;                    ///< Tracing/profiling for this run.
};

struct PmuInterval {
    double timeMs = 0;       ///< Interval end, simulated milliseconds.
    double pmuIpc = 0;       ///< IPC from PMU counters.
    double gem5Ipc = 0;      ///< IPC from simulator statistics.
    double pmuMpki = 0;      ///< L1D misses per kilo-instruction (PMU).
    double gem5Mpki = 0;     ///< Same from simulator statistics.
};

struct PmuRunResult {
    bool completed = false;
    Tick finalTick = 0;
    std::uint64_t committedInsts = 0;
    std::uint64_t cycles = 0;
    std::vector<PmuInterval> intervals;
    std::vector<PmuObserver::Sample> rawSamples;
    double maxAbsIpcError = 0;  ///< max |pmuIpc - gem5Ipc| over intervals.

    /// Per-master round-trip latency on the memory bus, plus SoC-wide
    /// percentiles from the merged latency histograms (always collected).
    std::vector<std::pair<std::string, obs::LatencySummary>> memLatency;
    double memLatencyP50 = 0;
    double memLatencyP99 = 0;
    std::shared_ptr<const obs::ProfileReport> profile;  ///< When profiling on.
    std::string recordPath;                             ///< When recording on.
    std::string metricsPath;                            ///< When metrics timeline on.
};

/// Run the three-kernel sort benchmark with (or without) the PMU attached.
PmuRunResult runPmuSortExperiment(const PmuRunConfig& config);

// --------------------------------------------------------------- Figs 6/7 --

struct DseRunConfig {
    MemTech memTech = MemTech::kIdeal;
    unsigned numAccelerators = 1;
    unsigned maxInflight = 240;             ///< The swept knob.
    models::NvdlaShape shape;               ///< sanity3Shape()/googlenetConv2Shape().
    std::string workloadName = "workload";
    unsigned numCores = 8;                  ///< The paper's SoC has 8 (idle) cores.
    bool sramScratchpad = false;            ///< Weights via a SRAMIF scratchpad
                                            ///< (the paper's proposed extension).
    MemPath memPath = MemPath::kDirect;     ///< Direct DBBIF vs DMA+SPM staging.
    unsigned dmaMaxInflight = 0;            ///< dmaSpm DMA line-request window
                                            ///< override (0 = SocConfig default).
    Tick maxTicks = 2'000'000'000'000ULL;   ///< 2 s simulated safety net.
    bool gateIdleTicks = true;              ///< Quiescence-gate accelerator ticks.
    obs::ObsOptions obs;                    ///< Tracing/profiling for this run.
};

struct DseRunResult {
    bool completed = false;
    bool checksumsOk = false;
    Tick runtimeTicks = 0;       ///< Until the last accelerator finished (for
                                 ///< dmaSpm: until its ofmap drain completed).
    std::vector<Tick> perAcceleratorTicks;
    double avgOutstanding = 0;   ///< Mean outstanding requests (accelerator 0).

    /// dmaSpm-path stats (accelerator 0; zero on the direct path).
    double spmReadHits = 0;
    double spmReadMisses = 0;
    double spmMshrJoins = 0;     ///< Misses coalesced onto in-flight fills.
    std::uint64_t dmaDescriptors = 0;

    /// Per-descriptor DMA latency percentiles (accelerator 0's engine, in
    /// ticks; zero on the direct path).
    double dmaLatencyP50 = 0;
    double dmaLatencyP99 = 0;
    double dmaLatencyMax = 0;

    /// Critical-path stage blame over all root requests, in blamed ticks.
    /// Request tracing is force-enabled (in-memory) for every DSE run, so
    /// this is always populated; stage names plus a final "unattributed"
    /// entry, in ReqStage declaration order. Shares of the summed total sum
    /// to 100% by construction.
    std::vector<std::pair<std::string, double>> stageBlame;
    std::string reqtracePath;    ///< Sidecar path, when one was written.

    /// Per-master round-trip latency on the memory bus ("latency.<suffix>"
    /// histograms), always collected — the Xbar maintains them whether
    /// or not observability is on.
    std::vector<std::pair<std::string, obs::LatencySummary>> memLatency;

    /// SoC-wide latency percentiles from the merged per-master histograms.
    double memLatencyP50 = 0;
    double memLatencyP99 = 0;

    std::shared_ptr<const obs::ProfileReport> profile;  ///< When profiling on.
    std::string tracePath;                              ///< When tracing on.
    std::string recordPath;                             ///< When recording on.
    std::string metricsPath;                            ///< When metrics timeline on.
};

/// One point of the design-space exploration: N accelerators, one memory
/// technology, one in-flight cap, all instances running the same workload.
DseRunResult runNvdlaDse(const DseRunConfig& config);

/// Normalised performance: ideal-memory runtime / tech runtime (the Figs.
/// 6/7 metric; 1.0 means memory is not the bottleneck).
inline double normalizedPerf(const DseRunResult& ideal, const DseRunResult& tech) {
    return tech.runtimeTicks > 0
               ? static_cast<double>(ideal.runtimeTicks) /
                     static_cast<double>(tech.runtimeTicks)
               : 0.0;
}

/// The in-flight request sweep of Figs. 6/7.
inline const std::vector<unsigned>& inflightSweep() {
    static const std::vector<unsigned> sweep{1, 4, 8, 16, 32, 64, 128, 240};
    return sweep;
}

/// The memory-technology series of Figs. 6/7.
inline const std::vector<MemTech>& memTechSeries() {
    static const std::vector<MemTech> series{MemTech::kDdr4_1ch, MemTech::kDdr4_2ch,
                                             MemTech::kDdr4_4ch, MemTech::kGddr5,
                                             MemTech::kHbm};
    return series;
}

/// True when the user asked for paper-scale parameters (GEM5RTL_FULL=1).
bool fullScaleRequested();

}  // namespace g5r::experiments
