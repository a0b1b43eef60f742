#include "sim/event_queue.hh"

#include "sim/logging.hh"
#include "sim/observer.hh"
#include "sim/sim_object.hh"

namespace g5r {

CallbackEvent::CallbackEvent(std::function<void()> callback, const SimObject& owner,
                             std::string_view what, EventPriority prio)
    : Event(&owner, owner.name() + "." + std::string{what}, prio),
      callback_(std::move(callback)) {}

Event::~Event() {
    if (scheduled_ && queue_ != nullptr) queue_->deschedule(*this);
}

bool EventQueue::laterThan(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.sequence > b.sequence;
}

void EventQueue::siftUp(std::size_t idx) {
    while (idx > 0) {
        const std::size_t parent = (idx - 1) / 2;
        if (!laterThan(heap_[parent], heap_[idx])) break;
        std::swap(heap_[parent], heap_[idx]);
        idx = parent;
    }
}

void EventQueue::siftDown(std::size_t idx) {
    const std::size_t n = heap_.size();
    while (true) {
        const std::size_t left = 2 * idx + 1;
        const std::size_t right = left + 1;
        std::size_t smallest = idx;
        if (left < n && laterThan(heap_[smallest], heap_[left])) smallest = left;
        if (right < n && laterThan(heap_[smallest], heap_[right])) smallest = right;
        if (smallest == idx) break;
        std::swap(heap_[idx], heap_[smallest]);
        idx = smallest;
    }
}

void EventQueue::schedule(Event& ev, Tick when) {
    simAssert(!ev.scheduled_, "schedule() on an already-scheduled event");
    simAssert(when >= curTick_, "schedule() into the past");
    ev.when_ = when;
    ev.scheduled_ = true;
    ev.queue_ = this;
    ++ev.generation_;
    heap_.push_back(Entry{when, ev.priority_, nextSequence_++, ev.generation_, &ev});
    siftUp(heap_.size() - 1);
    ++liveEvents_;
}

void EventQueue::deschedule(Event& ev) {
    simAssert(ev.scheduled_, "deschedule() on an idle event");
    simAssert(ev.queue_ == this, "deschedule() on the wrong queue");
    ev.scheduled_ = false;
    ++ev.generation_;  // Invalidates the heap entry; it is dropped lazily.
    --liveEvents_;
}

void EventQueue::reschedule(Event& ev, Tick when) {
    if (ev.scheduled_) deschedule(ev);
    schedule(ev, when);
}

void EventQueue::popStale() {
    while (!heap_.empty()) {
        const Entry& top = heap_.front();
        const bool live = top.event->scheduled_ && top.event->generation_ == top.generation;
        if (live) return;
        std::swap(heap_.front(), heap_.back());
        heap_.pop_back();
        if (!heap_.empty()) siftDown(0);
    }
}

Tick EventQueue::nextTick() {
    popStale();
    simAssert(!heap_.empty(), "nextTick() on an empty queue");
    return heap_.front().when;
}

void EventQueue::serviceOne() {
    popStale();
    simAssert(!heap_.empty(), "serviceOne() on an empty queue");
    const Entry top = heap_.front();
    std::swap(heap_.front(), heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) siftDown(0);

    Event& ev = *top.event;
    simAssert(top.when >= curTick_, "event queue went backwards");
    if (top.when > curTick_) {
        curTick_ = top.when;
        passedPriority_ = top.priority;
    } else if (top.priority > passedPriority_) {
        passedPriority_ = top.priority;
    }
    ev.scheduled_ = false;
    ++ev.generation_;
    --liveEvents_;
    ++numProcessed_;
    if (observer_ == nullptr) {
        ev.process();
    } else {
        // The observer must cache what it needs at dispatchBegin(): the
        // handler may legally destroy its own event.
        observer_->dispatchBegin(ev, curTick_);
        ev.process();
        observer_->dispatchEnd(curTick_);
    }
}

}  // namespace g5r
