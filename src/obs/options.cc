#include "obs/options.hh"

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "sim/logging.hh"
#include "sim/parse_number.hh"

namespace g5r::obs {
namespace {

/// A `0|1|<dir>` switch: unset leaves @p enabled and @p dir alone; empty or
/// "0" switches off; "1" switches on; anything else switches on into that
/// directory.
void readSwitch(const char* var, bool& enabled, std::string& dir) {
    const char* env = std::getenv(var);
    if (env == nullptr) return;
    const std::string_view v{env};
    enabled = !v.empty() && v != "0";
    if (enabled && v != "1") dir = std::string{v};
}

/// A whole base-10 count of at least 1 (unset leaves @p value alone).
/// Anything else ("10x", "abc", "-5", "0") throws std::invalid_argument.
template <typename T>
void readCount(const char* var, T& value) {
    const char* env = std::getenv(var);
    if (env == nullptr) return;
    const auto v = parseUnsigned(env, std::numeric_limits<T>::max());
    if (!v || *v < 1) {
        throw std::invalid_argument(
            strCat(var, ": bad value '", env, "' (want a whole number >= 1)"));
    }
    value = static_cast<T>(*v);
}

}  // namespace

ObsOptions ObsOptions::fromEnv() { return fromEnv(ObsOptions{}); }

ObsOptions ObsOptions::fromEnv(ObsOptions base) {
    readSwitch("GEM5RTL_TRACE", base.traceEnabled, base.traceDir);
    if (const char* env = std::getenv("GEM5RTL_PROFILE")) {
        const std::string_view v{env};
        base.profileEnabled = !v.empty() && v != "0";
    }
    readCount("GEM5RTL_PROFILE_STRIDE", base.profileStride);
    readCount("GEM5RTL_TRACE_INTERVAL", base.counterIntervalTicks);
    readSwitch("GEM5RTL_RECORD", base.recordEnabled, base.recordDir);
    readCount("GEM5RTL_RECORD_INTERVAL", base.recordIntervalTicks);
    readSwitch("GEM5RTL_METRICS", base.metricsEnabled, base.metricsDir);
    readCount("GEM5RTL_METRICS_INTERVAL", base.metricsIntervalTicks);
    readSwitch("GEM5RTL_REQTRACE", base.reqtraceEnabled, base.reqtraceDir);
    return base;
}

}  // namespace g5r::obs
