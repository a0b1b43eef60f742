// Observability hook points for the simulation core.
//
// A SimObserver sees every event-queue dispatch (wrapped around
// Event::process()) and the lifecycle of every timing packet (reported from
// the port layer). The production implementation is obs::ObsSession
// (src/obs/), which fans the callbacks out to the Perfetto trace writer,
// the host-time profiler, the flight recorder and the metrics timeline; the
// simulation core knows only this interface. Request spans do not pass
// through here: components report them to the Simulation's RequestSink
// (sim/request_sink.hh), so a run that only traces requests installs no
// observer at all.
//
// Cost when off: the event loop pays one branch on a null pointer per
// dispatch, and the port layer one thread-local load + branch per hop —
// there is no locking, no allocation, and no string work on the disabled
// path.
//
// The packet hooks are delivered through a *thread-local* channel
// (ObserverScope, installed by Simulation::run() exactly like
// PacketIdScope): ports and packets are plain objects with no back-pointer
// to their Simulation, and one thread drives one Simulation (DESIGN.md), so
// the thread identifies the run.
#pragma once

#include <cstdint>

#include "sim/ticks.hh"

namespace g5r {

class Event;

class SimObserver {
public:
    virtual ~SimObserver() = default;

    /// Bracketing Simulation::run(): wall time between the two calls is the
    /// run's host cost (the profiler's denominator).
    virtual void runBegin() {}
    virtual void runEnd() {}

    /// Wrapped around Event::process(). dispatchEnd() deliberately does not
    /// receive the event again: a handler may destroy its own event, so
    /// implementations must cache whatever they need at dispatchBegin().
    virtual void dispatchBegin(const Event& ev, Tick when) = 0;
    virtual void dispatchEnd(Tick when) = 0;

    /// Packet lifecycle, reported by the port layer (mem/port.hh). "Issued"
    /// fires at the first accepted timing send of a response-needing packet,
    /// "forwarded" at each later accepted request hop, "responded" at each
    /// accepted response hop, and "completed" when the (response) packet is
    /// finally destroyed by its requester. Simulated time is not passed:
    /// the observer tracks the current tick via dispatchBegin().
    virtual void packetIssued(std::uint64_t id, std::uint64_t addr, unsigned size,
                              bool isRead) {
        (void)id; (void)addr; (void)size; (void)isRead;
    }
    virtual void packetForwarded(std::uint64_t id) { (void)id; }
    virtual void packetResponded(std::uint64_t id) { (void)id; }
    virtual void packetCompleted(std::uint64_t id) { (void)id; }
};

namespace detail {
extern thread_local SimObserver* tlsSimObserver;
}  // namespace detail

/// The calling thread's active observer; nullptr when observability is off
/// (the common case — callers branch on this and pay nothing more).
inline SimObserver* threadObserver() { return detail::tlsSimObserver; }

/// RAII: install @p observer (may be nullptr) as the calling thread's
/// active observer. Scopes nest; the previous observer is restored on
/// destruction.
class ObserverScope {
public:
    explicit ObserverScope(SimObserver* observer);
    ~ObserverScope();
    ObserverScope(const ObserverScope&) = delete;
    ObserverScope& operator=(const ObserverScope&) = delete;

private:
    SimObserver* prev_;
};

}  // namespace g5r
