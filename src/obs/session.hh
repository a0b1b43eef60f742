// ObsSession: one run's observability sinks, and the production SimObserver.
//
// One session per Simulation (and per thread — the one-thread-per-run model
// of src/exp/ carries over). It owns up to five sinks, each individually
// optional:
//
//   * TraceSession    — Perfetto trace: dispatch spans, counters, packet flows.
//   * HostProfiler    — per-SimObject wall time in rtl/memory/core/... buckets.
//   * Recorder        — .g5rec interval digests for g5r diff, panic() black box.
//   * MetricsSession  — .metrics.jsonl stat timeline for g5r stats.
//   * ReqTraceSession — request span trees for g5r critpath stage blame.
//
// The first four are fed by the dispatch and packet hooks, so the session
// installs itself as the simulation's observer only when one of them is on.
// The request collector is installed as the simulation's RequestSink and
// receives spans straight from the components; a request-tracing-only
// session (the DSE harness's always-on stage blame) installs no observer,
// so all it costs is the span collection (ReqTraceSession::onSpan) and
// computeBlame (DESIGN.md, request tracing).
//
// Each dispatch is charged to the SimObject its Event names as owner
// (Event::owner()); ownerless events land in slot 0, "(unattributed)".
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "obs/options.hh"
#include "obs/profiler.hh"
#include "obs/recorder.hh"
#include "obs/reqtrace.hh"
#include "obs/trace_session.hh"
#include "sim/observer.hh"
#include "sim/stats.hh"

namespace g5r {
class SimObject;
class Simulation;
class Xbar;
namespace stats {
class Stat;
}  // namespace stats
}  // namespace g5r

namespace g5r::obs {

/// Compact view of one per-requestor latency histogram, for BENCH_*.json.
struct LatencySummary {
    std::uint64_t count = 0;
    double minTicks = 0.0;
    double meanTicks = 0.0;
    double maxTicks = 0.0;
    double p50Ticks = 0.0;
    double p99Ticks = 0.0;
};

/// The per-master round-trip latency histograms of @p xbar, keyed by
/// cpu-side port suffix, in port order.
std::vector<std::pair<std::string, LatencySummary>> portLatencies(const Xbar& xbar);

/// Fold every per-master latency histogram of @p xbar into one SoC-wide
/// latency histogram. Bucket counts add exactly, so quantiles of the result
/// are the true quantiles of the union of all per-master sample streams.
stats::HistogramData mergedPortLatencyHistogram(const Xbar& xbar);

class ObsSession final : public SimObserver {
public:
    /// Build a session for @p sim per @p opts and attach its sinks to the
    /// simulation (see the header comment). Returns nullptr when nothing is
    /// enabled — callers hold a null unique_ptr and the simulation keeps its
    /// fast path. @p runName names the trace file ("" = generated).
    static std::unique_ptr<ObsSession> create(Simulation& sim, const ObsOptions& opts,
                                              std::string_view runName);

    ~ObsSession() override;
    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    /// Sample @p stat as a trace counter every counterIntervalTicks.
    void addCounter(const stats::Stat& stat);

    /// Flush and close the sinks; build the profile report. Idempotent,
    /// also run by the destructor.
    void finish();

    TraceSession* trace() { return trace_.get(); }
    Recorder* recorder() { return recorder_.get(); }
    MetricsSession* metrics() { return metrics_.get(); }
    ReqTraceSession* reqtrace() { return reqtrace_.get(); }
    bool profiling() const { return profiler_ != nullptr; }

    /// The profile report; non-null only after finish() when profiling.
    std::shared_ptr<const ProfileReport> profileReport() const { return report_; }

    // --- SimObserver --------------------------------------------------------
    void runBegin() override;
    void runEnd() override;
    void dispatchBegin(const Event& ev, Tick when) override;
    void dispatchEnd(Tick when) override;
    void packetIssued(std::uint64_t id, std::uint64_t addr, unsigned size,
                      bool isRead) override;
    void packetForwarded(std::uint64_t id) override;
    void packetResponded(std::uint64_t id) override;
    void packetCompleted(std::uint64_t id) override;

private:
    using Clock = std::chrono::steady_clock;

    ObsSession(Simulation& sim, const ObsOptions& opts, std::string_view runName);

    int slotFor(const SimObject& obj);
    double relUs(Clock::time_point tp) const {
        return std::chrono::duration<double, std::micro>(tp - t0_).count();
    }
    void sampleCounters(Tick when);

    /// Translate the collected request records into Perfetto spans + flow
    /// arrows on the trace's dedicated "req:*" tracks (run at finish()).
    void emitRequestSpans();

    Simulation& sim_;
    std::unique_ptr<TraceSession> trace_;
    std::unique_ptr<HostProfiler> profiler_;
    std::unique_ptr<Recorder> recorder_;
    std::unique_ptr<MetricsSession> metrics_;
    std::unique_ptr<ReqTraceSession> reqtrace_;
    std::shared_ptr<const ProfileReport> report_;

    /// Slot 0 is "(unattributed)"; object slots are allocated lazily the
    /// first time an object's event dispatches, so SimObjects created
    /// after the session (attachRtlModel, host objects) are still
    /// attributed. Trace tids equal slot indices.
    std::unordered_map<const SimObject*, int> slotByObject_;
    int nextSlot_ = 1;

    std::vector<const stats::Stat*> counters_;
    Tick counterInterval_;
    Tick nextCounterTick_ = 0;

    unsigned stride_;
    unsigned strideCount_ = 0;
    bool timedThis_ = false;
    int curSlot_ = 0;
    std::string curLabel_;  ///< Name of the dispatching event (tracing only).
    Tick curTick_ = 0;
    Clock::time_point t0_;
    Clock::time_point dispatchStart_;
    Clock::time_point runStart_;
    bool finished_ = false;
};

}  // namespace g5r::obs
