// The three SoC workloads of the host-time benchmark, driven only through
// the simulator's public entry points: experiments::runNvdlaDse,
// experiments::runPmuSortExperiment, loadRtlModel and the Soc constructor.
// See perfbench/README.md for why each workload was chosen.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/json.hh"
#include "models/nvdla/trace.hh"
#include "obs/options.hh"
#include "obs/profiler.hh"
#include "sim/ticks.hh"

namespace g5r::perfbench {

enum class Workload { kNvdlaStarved, kNvdlaStaged, kPmuSort };

std::optional<Workload> parseWorkload(std::string_view name);
const char* workloadName(Workload w);

/// One simulation call. A call that throws is reported here, not raised.
struct SimOutcome {
    bool completed = false;     ///< Reached its own end before maxTicks.
    bool checksumOk = false;    ///< Datapath check (NVDLA checksums; PMU vs
                                ///< simulator IPC agreement).
    std::string error;          ///< Exception text when the call threw.
    double wallSeconds = 0;     ///< Host seconds of the whole call.
    Tick simTicks = 0;          ///< Simulated ticks (runtime / finalTick).
    std::uint64_t insts = 0;    ///< Committed instructions (PMU workload).
    exp::Json digest;           ///< Simulated results, sealed with a hash.
    std::shared_ptr<const obs::ProfileReport> profile;  ///< Traced runs only.
    std::string metricsPath;    ///< Traced runs only.

    bool ok() const { return error.empty() && completed && checksumOk; }
};

/// Run workload @p w once. @p obs switches on the program's own sinks (the
/// traced run); @p maxTicks > 0 overrides the simulated-time safety net
/// (the smoke test uses a tiny one to force an incomplete run).
SimOutcome runWorkload(Workload w, const obs::ObsOptions& obs = {}, Tick maxTicks = 0);

/// Host seconds of the set-up a simulation of @p w performs before its
/// first event, split by part. Meaningful once per process (cold).
struct SetupTimes {
    double workloadGen = 0;  ///< makeConvTrace per accelerator, or the sort
                             ///< program + array population.
    double modelLoad = 0;    ///< loadRtlModel per model (dlopen + create).
    double construct = 0;    ///< Soc constructor plus attachRtlModel.
    double total() const { return workloadGen + modelLoad + construct; }
};
SetupTimes timeSetup(Workload w);

/// Accelerator @p i's Sanity3 trace, placed and seeded as runNvdlaDse
/// places and seeds it.
models::NvdlaTrace sanity3Trace(unsigned i);

}  // namespace g5r::perfbench
