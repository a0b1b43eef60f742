// obs::ReqTraceSession — request-level causal tracing.
//
// Components that own a logical unit of work (an NVDLA job, a DMA
// descriptor, a PMU script) allocate a ReqId from their Simulation, report
// onBegin/onEnd to the Simulation's RequestSink (sim/request_sink.hh), and
// tag the packets they build with the ID. Components the work flows
// *through* (SPM fills, crossbar layers, DRAM channels) report stage spans
// against whatever ID the packet carries. The session is that sink: it
// collects the resulting span trees — all in simulated ticks — and
// serializes them to a .reqtrace.jsonl sidecar.
//
// Format (one JSON document per line):
//
//   header   {"g5rReqTrace":1,"schema":1,"run":"<label>"}
//   request  {"id":N,"par":P,"kind":"<kind>","b":<tick>,"e":<tick>,
//             "spans":[[<stageIdx>,<beginDelta>,<durTicks>],...]}
//   footer   {"end":<tick>,"requests":<count>}
//
// Requests are written in ID order; spans are sorted by (begin, stage, end)
// and their begin ticks delta-encoded (first against the request's "b",
// then against the previous span's begin). Nothing host-dependent is ever
// written and the canonical sort erases callback-arrival order, so sidecars
// of the same run are byte-identical at any --jobs count and across
// idle-tick gating (spans carry simulated time only). "e" is 0 for a
// request that never saw requestEnd (run cut short); the analysis derives
// an effective end from the span tree.
//
// The critical-path analysis (computeBlame) attributes every tick of a root
// request's [begin, effectiveEnd] window to exactly one stage: overlapping
// spans across the root's subtree are resolved by a fixed precedence
// (dmaStage > drain > spmFill > dramService > xbarQueue > hostLoad >
// rtlCompute — work owner first, then deepest shared memory resource), and
// uncovered ticks land in an "unattributed" bucket, so per-stage shares sum
// to exactly 100% of end-to-end ticks by construction. The request tree,
// its clamped subtree-span walk and the precedence are defined once, here;
// g5r critpath's waterfall and ObsSession's Perfetto request tracks reuse
// them.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sim/request_sink.hh"
#include "sim/ticks.hh"

namespace g5r::obs {

/// One stage interval of a request, in simulated ticks.
struct ReqSpan {
    ReqStage stage;
    Tick begin;
    Tick end;
};

/// One request's collected lifecycle.
struct ReqRecord {
    ReqId id = 0;
    ReqId parent = 0;          ///< 0 = root.
    std::string kind;          ///< "nvdlaJob", "dmaPrefetch", ...
    Tick beginTick = 0;
    Tick endTick = 0;          ///< 0 until onEnd (see header comment).
    bool ended = false;
    std::vector<ReqSpan> spans;
};

class ReqTraceSession final : public RequestSink {
public:
    /// Sidecar format version, written into the header line.
    static constexpr int kSchema = 1;

    /// Open @p path for writing at finish(). An empty path selects
    /// in-memory mode: records are kept (data()) but no file is written —
    /// the DSE harness uses this to compute stage blame without sidecars.
    /// An unopenable path degrades to ok()==false; records are still kept.
    ReqTraceSession(std::string path, std::string runLabel);
    ~ReqTraceSession() override;
    ReqTraceSession(const ReqTraceSession&) = delete;
    ReqTraceSession& operator=(const ReqTraceSession&) = delete;

    bool ok() const { return ok_; }
    const std::string& path() const { return path_; }
    std::uint64_t requestsRecorded() const { return records_.size(); }

    // --- RequestSink ---------------------------------------------------------
    void onBegin(ReqId id, ReqId parent, const char* kind, Tick when) override;
    void onEnd(ReqId id, Tick when) override;
    void onSpan(ReqId id, ReqStage stage, Tick begin, Tick end) override;

    /// Sort records canonically and (in file mode) write the sidecar.
    /// Idempotent; also run by the destructor.
    void finish(Tick finalTick);

    /// The collected records, canonical after finish(). Valid in both file
    /// and in-memory mode.
    const std::vector<ReqRecord>& data() const { return records_; }

private:
    std::size_t slotFor(ReqId id);

    std::string path_;
    std::string runLabel_;
    bool ok_ = false;
    bool finished_ = false;
    std::vector<ReqRecord> records_;
    std::vector<std::size_t> index_;  ///< id -> slot + 1 (0 = absent).
};

// --------------------------------------------------------------- analysis --

/// The request forest of a record list, by record index. A record whose
/// parent is 0 or absent from the list is a root.
struct RequestTree {
    explicit RequestTree(const std::vector<ReqRecord>& records);
    explicit RequestTree(std::vector<ReqRecord>&&) = delete;  ///< Holds a reference.

    /// Record indices of @p root's subtree, @p root first.
    std::vector<std::size_t> subtree(std::size_t root) const;

    /// Call @p fn with every span of @p root's subtree, clamped to
    /// [begin, end); spans that clamp to nothing are skipped.
    template <typename Fn>
    void forEachClampedSpan(std::size_t root, Tick begin, Tick end, Fn&& fn) const {
        for (const std::size_t idx : subtree(root)) {
            for (const ReqSpan& span : records[idx].spans) {
                const Tick b = std::max(span.begin, begin);
                const Tick e = std::min(span.end, end);
                if (e > b) fn(ReqSpan{span.stage, b, e});
            }
        }
    }

    const std::vector<ReqRecord>& records;
    std::vector<std::vector<std::size_t>> children;  ///< Per record.
    std::vector<std::size_t> roots;                  ///< In record order.
    std::vector<std::size_t> owningRoot;  ///< Per record: its tree's root.
};

/// Blame precedence of @p stage: where spans overlap, the stage with the
/// higher rank takes the tick (see the header comment for the order).
int blameRank(ReqStage stage);

/// Stage attribution of one root request's end-to-end window.
struct RequestBlame {
    std::size_t record = 0;  ///< Index of the root's record in the analysed list.
    ReqId id = 0;
    std::string kind;
    Tick begin = 0;
    Tick end = 0;    ///< Effective end (explicit end or last subtree span).
    std::array<Tick, kNumReqStages> stageTicks{};
    Tick unattributed = 0;

    Tick total() const { return end - begin; }
};

/// Aggregate over all roots of a trace.
struct BlameSummary {
    std::vector<RequestBlame> roots;
    std::array<Tick, kNumReqStages> stageTicks{};
    Tick unattributed = 0;
    Tick totalTicks = 0;  ///< Sum of root end-to-end windows.
};

/// Attribute every root's window to stages (see header comment for the
/// precedence rule). Invariant: for each root, sum(stageTicks) +
/// unattributed == total(); the aggregate inherits it.
BlameSummary computeBlame(const std::vector<ReqRecord>& records);

// ---------------------------------------------------------------- reading --

/// A fully parsed .reqtrace.jsonl sidecar.
struct ReqTraceFile {
    int schema = 0;
    std::string run;
    Tick endTick = 0;
    std::uint64_t declaredRequests = 0;  ///< From the footer.
    std::vector<ReqRecord> records;
};

/// Parse a sidecar written by ReqTraceSession. Throws std::runtime_error on
/// unreadable files or malformed lines.
ReqTraceFile readReqTrace(const std::string& path);

}  // namespace g5r::obs
