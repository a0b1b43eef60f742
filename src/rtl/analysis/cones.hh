// Combinational-cone extraction, canonicalization, and structural dedup.
//
// The cone of a combinational node is the sub-DAG of combinational logic
// feeding it, cut at sources (inputs, constants, register outputs). Two
// nodes with *identical* cones — same operators, widths, and wiring over the
// same source nets — compute the same value every cycle, so one of them is
// redundant: a compiled backend evaluates the class once and fans the result
// out, and g5r lint reports the duplication as a design smell.
//
// Canonicalization: cones are hashed bottom-up in level order (FNV-1a-64
// over op, width, and operand hashes). Sources hash by identity (node
// index), except constants, which hash by masked value + width so equal
// literals are interchangeable. Operand hashes of commutative ops (and, or,
// xor, add, eq) are sorted before mixing, so `and x a b` and `and y b a`
// land in one class. Hash-equal nodes are verified by exact recursive
// comparison before being reported — a 64-bit collision can suggest a class,
// never corrupt one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rtl/analysis/levelize.hh"
#include "rtl/netlist_graph.hh"

namespace g5r::rtl::analysis {

struct ConeHashes {
    /// Canonical cone hash per node (sources included).
    std::vector<std::uint64_t> hash;

    /// Combinational nodes inside the cone, self included (0 for sources).
    /// Shared sub-cones are counted once per path, i.e. this is the cone's
    /// *expression* size, an upper bound on its gate count.
    std::vector<std::size_t> coneSize;
};

/// Hash every node's cone. @p sched must come from levelize() on @p g.
/// Cycle members keep hash 0 (their cone is not a DAG).
ConeHashes hashCones(const NetlistGraph& g, const LevelSchedule& sched);

struct DuplicateCones {
    struct Class {
        std::vector<int> nodes;  ///< Members, ascending; nodes[0] is canonical.
        std::size_t coneSize;    ///< Expression size of the shared cone.
        std::uint64_t hash;
    };

    /// Verified classes of >= 2 structurally identical cones, ordered by
    /// first member index.
    std::vector<Class> classes;

    std::size_t combNodes = 0;       ///< Total combinational nodes analyzed.
    std::size_t distinctCones = 0;   ///< Equivalence classes (incl. singletons).
    std::size_t redundantNodes = 0;  ///< Sum over classes of (members - 1).
};

/// Group combinational nodes into identical-cone classes.
DuplicateCones findDuplicateCones(const NetlistGraph& g, const LevelSchedule& sched);

}  // namespace g5r::rtl::analysis
