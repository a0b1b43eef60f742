// Machine-readable BENCH_*.json emission.
//
// Every bench sweep serializes one JSON document — host/config metadata plus
// one entry per sweep point — so future changes have a perf trajectory to
// regress against. Files land in the current directory unless the
// GEM5RTL_BENCH_DIR environment variable points elsewhere.
//
// Document shape (schema 3 — v2 added latency percentile fields to points:
// per-suffix memLatency p50Ticks/p99Ticks and point-level memLatencyP50/P99
// from the merged per-master histograms; v3 leaves out memLatency masters
// with no samples):
//   {
//     "schema": 3,
//     "bench": "fig6",            // sweep name
//     "jobs": 4,                  // worker threads used
//     "host": { "threads": ..., "compiler": ..., "timestampUtc": ... },
//     "fullScale": false,         // GEM5RTL_FULL
//     "sweepWallSeconds": 12.3,   // whole-sweep wall clock
//     "points": [ { per-point keys... }, ... ]
//   }
#pragma once

#include <string>
#include <string_view>

#include "exp/json.hh"

namespace g5r::exp {

/// The common document skeleton: schema version, bench name, jobs, host
/// metadata, GEM5RTL_FULL flag. Callers fill "points" and
/// "sweepWallSeconds".
Json benchDocument(std::string_view benchName, unsigned jobs);

/// Where @p filename will be written: $GEM5RTL_BENCH_DIR/<filename> when the
/// variable is set and non-empty, ./<filename> otherwise.
std::string benchOutputPath(std::string_view filename);

/// Serialize @p doc (pretty, 2-space indent) to benchOutputPath(filename).
/// Returns the path written, or "" (with an error on stderr) on I/O failure.
/// Callers must then exit non-zero: a bench whose output was lost has not
/// passed.
std::string writeBenchJson(std::string_view filename, const Json& doc);

}  // namespace g5r::exp
