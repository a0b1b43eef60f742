// Per-SimObject host-time profiling.
//
// Answers "where does the wall-clock of Simulation::run() actually go?" —
// the question behind the paper's fig. 6/7 and table 2 overhead numbers —
// by attributing the host time of every event dispatch to the SimObject
// that owns the event, then folding objects into a handful of buckets
// (RTL evaluation, memory system, cores, queue overhead) by the layer each
// object declares (SimObject::hostLayer()).
//
// HostProfiler itself is a passive accumulator: obs::ObsSession owns the
// steady_clock reads and feeds it exact dispatch counts plus (possibly
// strided) timing samples. With stride N only every Nth dispatch is timed;
// the report scales each slot's sampled seconds by dispatches/sampled, so
// the expensive steady_clock calls shrink by N while counts stay exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_object.hh"

namespace g5r::exp {
class Json;
}  // namespace g5r::exp

namespace g5r::obs {

struct ProfileEntry {
    std::string name;               ///< SimObject name (or "(unattributed)").
    HostLayer layer = HostLayer::kOther;  ///< Bucket the entry folds into.
    std::uint64_t dispatches = 0;   ///< Exact dispatch count.
    std::uint64_t sampled = 0;      ///< Dispatches that were actually timed.
    double sampledSeconds = 0.0;    ///< Wall time of the timed subset.
    double estimatedSeconds = 0.0;  ///< sampledSeconds scaled to all dispatches.
};

struct ProfileBucket {
    std::string name;
    double seconds = 0.0;
    double fraction = 0.0;  ///< Of runSeconds.
};

struct ProfileReport {
    double runSeconds = 0.0;        ///< Wall time inside Simulation::run().
    std::uint64_t dispatches = 0;   ///< Total events dispatched.
    unsigned stride = 1;

    /// Per-object attribution, sorted by estimatedSeconds, largest first.
    std::vector<ProfileEntry> entries;

    /// Fixed-order buckets: rtl, memory, core, other, queue. "queue" is the
    /// remainder runSeconds minus all attributed handler time — the event
    /// loop, heap maintenance, and timing skew — so the buckets always sum
    /// to runSeconds exactly.
    std::vector<ProfileBucket> buckets() const;

    /// Human-readable table (buckets then the top object entries).
    std::string table() const;

    /// Machine-readable form for BENCH_*.json (exp/bench_report).
    exp::Json toJson() const;
};

class HostProfiler {
public:
    explicit HostProfiler(unsigned stride) : stride_(stride ? stride : 1) {}

    /// Register an attribution slot charged to @p layer's bucket; returns
    /// its index. Call before use.
    int addSlot(std::string name, HostLayer layer = HostLayer::kOther);

    void countDispatch(int slot) { ++slots_[static_cast<std::size_t>(slot)].dispatches; }

    void addSample(int slot, double seconds) {
        Slot& s = slots_[static_cast<std::size_t>(slot)];
        ++s.sampled;
        s.seconds += seconds;
    }

    void addRunSeconds(double seconds) { runSeconds_ += seconds; }

    unsigned stride() const { return stride_; }

    ProfileReport report() const;

private:
    struct Slot {
        std::string name;
        HostLayer layer = HostLayer::kOther;
        std::uint64_t dispatches = 0;
        std::uint64_t sampled = 0;
        double seconds = 0.0;
    };

    unsigned stride_;
    double runSeconds_ = 0.0;
    std::vector<Slot> slots_;
};

}  // namespace g5r::obs
