#include "sim/observer.hh"

namespace g5r {

namespace detail {
thread_local SimObserver* tlsSimObserver = nullptr;
}  // namespace detail

ObserverScope::ObserverScope(SimObserver* observer) : prev_(detail::tlsSimObserver) {
    detail::tlsSimObserver = observer;
}

ObserverScope::~ObserverScope() { detail::tlsSimObserver = prev_; }

}  // namespace g5r
