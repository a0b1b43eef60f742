// Table 2 — "Simulation time overhead when using gem5 and the PMU RTL model
// (gem5+PMU) and with waveform tracing enabled (gem5+PMU+waveform),
// normalized to a gem5 execution without PMU", over three array sizes.
//
// Wall-clock times are averaged over three runs, like the paper. Default
// sizes are scaled down (the paper's 3k/30k/60k quadratic sorts would take
// hours of host time); GEM5RTL_FULL=1 selects larger arrays.
//
// Every (config, size, rep) run is an independent simulation, so all of
// them fan out over the parallel runner (--jobs / GEM5RTL_JOBS). Note that
// overhead *ratios* stay meaningful under parallel execution (every config
// shares the host contention), but absolute seconds are only comparable to
// the paper's in --jobs 1 runs. Results serialize to BENCH_table2.json.
//
// Further configurations measure quiescence gating: gem5+PMU repeated with
// gating disabled (the fig. 5-programmed PMU counts cycles, so it never
// reports idle and the two should match), and an *unprogrammed* PMU pair —
// attached but never configured, the idle-heavy case where gating
// deschedules nearly every RTL tick. The gated/ungated host-time ratios
// (and a final-tick identity check — the gate must be invisible in
// simulated time) land in the JSON.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/bench_report.hh"
#include "exp/runner.hh"
#include "obs/diff.hh"
#include "soc/experiments.hh"

using namespace g5r;

namespace {

struct OnceResult {
    double wallSeconds = 0;
    bool completed = false;
    Tick finalTick = 0;
    double memLatencyP50 = 0;  ///< SoC-wide memory-bus latency percentiles.
    double memLatencyP99 = 0;
    std::shared_ptr<const obs::ProfileReport> profile;  ///< GEM5RTL_PROFILE=1.
};

OnceResult runOnce(std::uint64_t baseElems, bool attachPmu, bool waveform, bool gate,
                   bool program, int rep) {
    experiments::PmuRunConfig cfg;
    cfg.layout.baseElems = baseElems;
    cfg.layout.sleepNs = 20'000;
    cfg.numCores = 1;
    cfg.attachPmu = attachPmu;
    cfg.programPmu = program;
    cfg.gateIdleTicks = gate;
    if (waveform) {
        cfg.waveformPath = "/tmp/g5r_table2_" + std::to_string(baseElems) + "_" +
                           std::to_string(rep) + ".vcd";
    }
    const auto start = std::chrono::steady_clock::now();
    const auto result = experiments::runPmuSortExperiment(cfg);
    const auto end = std::chrono::steady_clock::now();
    if (!cfg.waveformPath.empty()) std::remove(cfg.waveformPath.c_str());

    OnceResult once;
    once.wallSeconds = std::chrono::duration<double>(end - start).count();
    once.completed = result.completed;
    once.finalTick = result.finalTick;
    once.memLatencyP50 = result.memLatencyP50;
    once.memLatencyP99 = result.memLatencyP99;
    once.profile = result.profile;
    return once;
}

struct Cell {
    const char* config;
    const char* sizeLabel;
    std::uint64_t baseElems;
    bool attachPmu;
    bool waveform;
    bool gate;
    bool program;
    int rep;
};

// When the gated/ungated final-tick identity check fails, re-run just the
// mismatched pair with flight recording on and localize the first divergent
// interval. This happens after every timed run, so the recorder's cost never
// pollutes the wall-clock measurements. Packet lane only: gating removes
// dispatches by design, but the memory traffic must be identical.
void reportGatingDivergence(std::uint64_t baseElems, bool program, int rep) {
    const auto runRecorded = [&](bool gate) {
        experiments::PmuRunConfig cfg;
        cfg.layout.baseElems = baseElems;
        cfg.layout.sleepNs = 20'000;
        cfg.numCores = 1;
        cfg.attachPmu = true;
        cfg.programPmu = program;
        cfg.gateIdleTicks = gate;
        cfg.obs.recordEnabled = true;
        cfg.obs.recordPath = "/tmp/g5r_table2_" + std::to_string(baseElems) + "_" +
                             std::to_string(rep) + (gate ? "_gated" : "_ungated") +
                             ".g5rec";
        const auto result = experiments::runPmuSortExperiment(cfg);
        return result.recordPath;
    };
    const std::string gated = runRecorded(true);
    const std::string ungated = runRecorded(false);
    const auto rep2 =
        obs::diffRecordingFiles(gated, ungated, obs::DiffLane::kPacketsOnly);
    std::printf("%s\n", obs::formatDivergenceReport(rep2, "gated", "ungated").c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const unsigned jobs = exp::parseJobsFlag(argc, argv);
    const bool full = experiments::fullScaleRequested();
    // Labelled after the paper's 3k/30k/60k columns; scaled for bench time.
    const std::vector<std::pair<const char*, std::uint64_t>> sizes =
        full ? std::vector<std::pair<const char*, std::uint64_t>>{
                   {"3k", 3000}, {"30k", 30000}, {"60k", 60000}}
             : std::vector<std::pair<const char*, std::uint64_t>>{
                   {"3k(x1/20)", 150}, {"30k(x1/60)", 500}, {"60k(x1/60)", 1000}};

    std::printf("# Table 2: simulation-time overhead of the PMU RTL model,\n");
    std::printf("# normalized to gem5 without the PMU (average of 3 runs)\n");
    std::printf("%-26s", "Configs \\ Size");
    for (const auto& [label, elems] : sizes) std::printf(" %14s", label);
    std::printf("\n");

    // One task per (config, size, rep), in the historical measurement order.
    constexpr int kReps = 3;  // The paper averages over three simulations.
    const struct {
        const char* name;
        bool attachPmu;
        bool waveform;
        bool gate;
        bool program;
    } configs[] = {
        {"gem5 (baseline)", false, false, true, true},
        {"gem5+PMU", true, false, true, true},
        {"gem5+PMU (ungated)", true, false, false, true},
        {"gem5+PMU (idle)", true, false, true, false},
        {"gem5+PMU (idle, ungated)", true, false, false, false},
        {"gem5+PMU+waveform", true, true, true, true},
    };
    std::vector<Cell> cells;
    std::vector<exp::Task<OnceResult>> tasks;
    for (const auto& config : configs) {
        for (const auto& [label, elems] : sizes) {
            for (int rep = 0; rep < kReps; ++rep) {
                cells.push_back(Cell{config.name, label, elems, config.attachPmu,
                                     config.waveform, config.gate, config.program, rep});
                const Cell& cell = cells.back();
                tasks.push_back(exp::Task<OnceResult>{
                    std::string{config.name} + "/" + label + "/rep" + std::to_string(rep),
                    [cell] {
                        return runOnce(cell.baseElems, cell.attachPmu, cell.waveform,
                                       cell.gate, cell.program, cell.rep);
                    }});
            }
        }
    }
    const auto sweepStart = std::chrono::steady_clock::now();
    const auto outcomes = exp::runTasks(std::move(tasks), jobs);
    const double sweepWall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - sweepStart).count();

    // Per-(config, size) averages, in the same layout as before.
    const auto average = [&](bool attachPmu, bool waveform, bool gate, bool program) {
        std::vector<double> avg;
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            double total = 0;
            int count = 0;
            for (std::size_t i = 0; i < cells.size(); ++i) {
                if (cells[i].attachPmu != attachPmu || cells[i].waveform != waveform ||
                    cells[i].gate != gate || cells[i].program != program ||
                    cells[i].baseElems != sizes[s].second) {
                    continue;
                }
                if (!outcomes[i].ok) {
                    std::printf("WARN: %s failed: %s\n", outcomes[i].label.c_str(),
                                outcomes[i].error.c_str());
                    continue;
                }
                if (!waveform && !outcomes[i].value.completed) {
                    std::printf("WARN: run did not complete\n");
                }
                total += outcomes[i].value.wallSeconds;
                ++count;
            }
            avg.push_back(count > 0 ? total / count : 0.0);
        }
        return avg;
    };
    const std::vector<double> base = average(false, false, true, true);
    const std::vector<double> pmu = average(true, false, true, true);
    const std::vector<double> pmuUngated = average(true, false, false, true);
    const std::vector<double> idle = average(true, false, true, false);
    const std::vector<double> idleUngated = average(true, false, false, false);
    const std::vector<double> wave = average(true, true, true, true);

    auto row = [&](const char* name, const std::vector<double>& t) {
        std::printf("%-26s", name);
        for (std::size_t i = 0; i < t.size(); ++i) std::printf(" %14.2f", t[i] / base[i]);
        std::printf("\n");
    };
    row("gem5 (baseline)", base);
    row("gem5+PMU", pmu);
    row("gem5+PMU (ungated)", pmuUngated);
    row("gem5+PMU (idle)", idle);
    row("gem5+PMU (idle, ungated)", idleUngated);
    row("gem5+PMU+waveform", wave);

    std::printf("\n# absolute wall seconds: ");
    for (std::size_t i = 0; i < base.size(); ++i) {
        std::printf("base=%.2fs pmu=%.2fs pmu_ungated=%.2fs idle=%.2fs "
                    "idle_ungated=%.2fs wave=%.2fs  ",
                    base[i], pmu[i], pmuUngated[i], idle[i], idleUngated[i], wave[i]);
    }
    std::printf("\n");

    // Idle-tick gating must be invisible in simulated time: every gated PMU
    // run must finish on exactly the same tick as its ungated twin (same
    // programming, same size, same rep).
    bool gatingTimingNeutral = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].attachPmu || cells[i].waveform || !cells[i].gate) continue;
        for (std::size_t j = 0; j < cells.size(); ++j) {
            if (!cells[j].attachPmu || cells[j].waveform || cells[j].gate) continue;
            if (cells[j].program != cells[i].program ||
                cells[j].baseElems != cells[i].baseElems || cells[j].rep != cells[i].rep) {
                continue;
            }
            if (outcomes[i].ok && outcomes[j].ok &&
                outcomes[i].value.finalTick != outcomes[j].value.finalTick) {
                if (gatingTimingNeutral) {
                    std::printf("\n# gating broke timing at %s/%zu elems: localizing "
                                "via flight recordings...\n",
                                cells[i].sizeLabel, cells[i].baseElems);
                    reportGatingDivergence(cells[i].baseElems, cells[i].program,
                                           cells[i].rep);
                }
                gatingTimingNeutral = false;
            }
        }
    }

    // Shape checks: PMU adds modest overhead; waveforms add a lot more.
    int failures = 0;
    auto check = [&](bool ok, const char* what) {
        std::printf("[%s] %s\n", ok ? "PASS" : "WARN", what);
        if (!ok) ++failures;
    };
    const std::size_t last = sizes.size() - 1;
    check(pmu[last] / base[last] < 2.0, "PMU overhead is manageable (< 2x)");
    check(wave[last] > pmu[last], "waveform tracing costs more than the bare PMU");
    check(wave[last] / base[last] > 1.5, "waveform overhead is substantial");
    check(gatingTimingNeutral,
          "idle-tick gating is timing-neutral (identical final ticks)");
    check(idle[last] < idleUngated[last] * 0.9,
          "gating an idle (unprogrammed) PMU saves host time");

    // ---- machine-readable results ------------------------------------------
    exp::Json doc = exp::benchDocument("table2", jobs);
    doc["sweepWallSeconds"] = sweepWall;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        exp::Json entry = exp::Json::object();
        entry["config"] = cells[i].config;
        entry["size"] = cells[i].sizeLabel;
        entry["baseElems"] = cells[i].baseElems;
        entry["rep"] = cells[i].rep;
        entry["gated"] = cells[i].gate;
        entry["programmed"] = cells[i].program;
        entry["runtimeTicks"] = outcomes[i].ok ? outcomes[i].value.finalTick : Tick{0};
        entry["wallSeconds"] = outcomes[i].wallSeconds;
        entry["completed"] = outcomes[i].ok && outcomes[i].value.completed;
        entry["memLatencyP50"] = outcomes[i].ok ? outcomes[i].value.memLatencyP50 : 0.0;
        entry["memLatencyP99"] = outcomes[i].ok ? outcomes[i].value.memLatencyP99 : 0.0;
        if (!outcomes[i].error.empty()) entry["error"] = outcomes[i].error;
        if (outcomes[i].ok && outcomes[i].value.profile != nullptr) {
            exp::Json buckets = exp::Json::object();
            for (const auto& b : outcomes[i].value.profile->buckets()) {
                exp::Json one = exp::Json::object();
                one["seconds"] = b.seconds;
                one["fraction"] = b.fraction;
                buckets[b.name] = std::move(one);
            }
            entry["profileBuckets"] = std::move(buckets);
        }
        doc["points"].push(std::move(entry));
    }
    // The paper's normalized matrix, for trend tracking at a glance.
    exp::Json norm = exp::Json::object();
    const std::vector<double>* perConfig[] = {&base, &pmu,  &pmuUngated,
                                              &idle, &idleUngated, &wave};
    for (std::size_t c = 0; c < 6; ++c) {
        const std::vector<double>& t = *perConfig[c];
        exp::Json perSize = exp::Json::object();
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            perSize[sizes[i].first] = base[i] > 0 ? t[i] / base[i] : 0.0;
        }
        norm[configs[c].name] = std::move(perSize);
    }
    doc["normalizedOverhead"] = std::move(norm);
    // Host-time win from quiescence gating, per size (< 1.0 means gating
    // saved wall clock; simulated time is identical by construction). The
    // programmed PMU counts cycles and is expected near 1.0; the idle rows
    // are where gating can actually deschedule ticks.
    exp::Json gatedRatio = exp::Json::object();
    exp::Json gatedRatioIdle = exp::Json::object();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        gatedRatio[sizes[i].first] = pmuUngated[i] > 0 ? pmu[i] / pmuUngated[i] : 0.0;
        gatedRatioIdle[sizes[i].first] =
            idleUngated[i] > 0 ? idle[i] / idleUngated[i] : 0.0;
    }
    doc["gatedVsUngated"] = std::move(gatedRatio);
    doc["gatedVsUngatedIdle"] = std::move(gatedRatioIdle);
    doc["gatingTimingNeutral"] = gatingTimingNeutral;
    const std::string path = exp::writeBenchJson("BENCH_table2.json", doc);
    if (path.empty()) return 2;
    std::printf("# wrote %s (%zu points, jobs=%u, sweep %.1fs)\n", path.c_str(),
                doc["points"].size(), jobs, sweepWall);
    return failures == 0 ? 0 : 2;
}
