// g5r stats — render metrics timelines and gate perf regressions.
//
// Three subcommands, all exposed here as library functions so tests can
// drive them without spawning processes:
//
//   timeline <file.metrics.jsonl>      render channels over simulated time
//   percentiles <BENCH.json|timeline>  print latency percentile tables
//   diff <baseline> <current>          compare two BENCH_*.json documents or
//                                      two metrics timelines against
//                                      per-metric relative thresholds
//
// diff semantics (the CI perf-regression gate):
//   * Points pair up by an identity key built from their config members
//     (every string/bool member plus the integer sweep knobs) — never from
//     measured values.
//   * Within paired points, numeric leaves are flattened to dotted metric
//     paths and compared by relative delta |cur - base| / max(|base|, eps).
//   * Host-dependent metrics (wallSeconds, sweepWallSeconds,
//     profileBuckets.*, host.*) are excluded: a committed baseline must be
//     comparable across machines. Simulated results (runtimeTicks,
//     memLatency*, normalizedPerf) are deterministic and do compare.
//   * A point or metric present in the baseline but missing from the
//     current document is a violation, and so is a nonzero metric only the
//     current one has ("new metric": points omit latency masters with no
//     samples). Silent metric loss or gain must not pass a gate.
//   * Exit status mirrors g5r diff: 0 = within thresholds, 1 = violations,
//     2 = usage / unreadable input.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace g5r::exp { class Json; }

namespace g5r::obs {

struct MetricsTimeline;

/// One metric threshold override: metrics whose dotted path contains
/// @p match (substring) use @p threshold instead of the default (an unset
/// threshold pins the metric to the default, whatever it is set to).
struct MetricThreshold {
    std::string match;
    std::optional<double> threshold;
};

struct StatsDiffOptions {
    double defaultThreshold = 0.25;        ///< Relative delta allowed.
    std::vector<MetricThreshold> perMetric;  ///< First match wins.
};

/// One out-of-threshold metric (or a structural loss, note != "").
struct StatsDiffViolation {
    std::string point;   ///< Identity key of the owning point ("" = doc level).
    std::string metric;  ///< Dotted metric path.
    double baseline = 0;
    double current = 0;
    double relDelta = 0;
    double threshold = 0;
    std::string note;    ///< "missing point" / "missing metric" / "new metric".
};

struct StatsDiffReport {
    bool comparable = false;  ///< False: inputs unreadable/mismatched (error set).
    std::string error;
    std::size_t pointsCompared = 0;
    std::size_t metricsCompared = 0;
    std::vector<StatsDiffViolation> violations;

    bool withinThresholds() const { return comparable && violations.empty(); }
};

/// Diff two parsed BENCH_*.json documents.
StatsDiffReport diffBenchDocuments(const exp::Json& baseline, const exp::Json& current,
                                   const StatsDiffOptions& opts);

/// Diff two metrics timelines by the final absolute value of every channel.
StatsDiffReport diffTimelines(const MetricsTimeline& baseline,
                              const MetricsTimeline& current,
                              const StatsDiffOptions& opts);

/// Human-readable report (one line per violation plus a summary).
std::string formatStatsDiffReport(const StatsDiffReport& report,
                                  const std::string& baselinePath,
                                  const std::string& currentPath);

/// ASCII rendering of a timeline: one bar chart per channel over simulated
/// time. @p channelFilter: only channels containing the substring ("" =
/// all). @p maxChannels caps the output (0 = unlimited).
std::string renderTimeline(const MetricsTimeline& timeline,
                           const std::string& channelFilter, std::size_t maxChannels);

/// Percentile tables from a BENCH document: every memLatency entry of every
/// point becomes a row (count, min, mean, p50, p99, max).
std::string renderBenchPercentiles(const exp::Json& doc);

/// Full CLI entry point (argv-style, argv[0] ignored). Writes to stdout /
/// stderr; returns the process exit status (0/1/2).
int statsCliMain(int argc, const char* const* argv);

}  // namespace g5r::obs
