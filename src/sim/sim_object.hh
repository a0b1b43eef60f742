// SimObject: the base of every simulated component.
//
// A SimObject is constructed against a Simulation, which provides the shared
// event queue and registers the object for lifecycle hooks. Construction
// order defines wiring order; Simulation::run() calls init() on every object
// (after all wiring is complete) and startup() just before the first event is
// serviced.
#pragma once

#include <string>

#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace g5r {

class EventQueue;
class Simulation;

/// The part of the simulated system a component belongs to: the host-time
/// profiler (obs/profiler.hh) charges its event handlers to this bucket.
enum class HostLayer { kRtl, kMemory, kCore, kOther };

class SimObject {
public:
    SimObject(Simulation& sim, std::string name);
    SimObject(const SimObject&) = delete;
    SimObject& operator=(const SimObject&) = delete;
    virtual ~SimObject() = default;

    const std::string& name() const { return name_; }

    /// Called once after the full system is constructed and connected.
    virtual void init() {}

    /// Called once immediately before simulation begins; schedule initial
    /// events here.
    virtual void startup() {}

    /// Host-profile bucket of this object's event handlers.
    virtual HostLayer hostLayer() const { return HostLayer::kOther; }

    Simulation& simulation() { return sim_; }
    EventQueue& eventQueue();
    Tick curTick() const;

    stats::Group& statsGroup() { return stats_; }
    const stats::Group& statsGroup() const { return stats_; }

protected:
    Simulation& sim_;
    stats::Group stats_;

private:
    std::string name_;
};

}  // namespace g5r
