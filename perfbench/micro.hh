// Microbenchmarks: isolated host cost of single-layer operations, timed
// from the benchmark's own files through each layer's public interface.
#pragma once

#include <cstdint>

#include "exp/json.hh"

namespace g5r::perfbench {

struct MicroOptions {
    std::uint64_t seed = 1;  ///< Drives every stimulus (addresses, values).
    unsigned depth = 16;     ///< Event-queue pending depth to measure at.
    double seconds = 2;      ///< Total budget, split across the benches.
};

/// Run every microbenchmark; one JSON member per per-layer metric.
exp::Json runMicrobenchmarks(const MicroOptions& opts);

/// Host seconds of a fixed reference computation that runs no simulator
/// code (a small heap, a hash table and buffer writes, like the simulator's
/// hot loops): a probe of the host's current speed. Its storage is static,
/// so the heap the simulator leaves behind does not change its time.
double referenceSeconds();

}  // namespace g5r::perfbench
