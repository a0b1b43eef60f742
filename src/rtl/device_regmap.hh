// Register map of the generic netlist-accelerator device wrapper, read by
// the interpreted bitonic model (models/bitonic/bitonic_api.cc), the wrapper
// the compiled backend emits (rtl/codegen/codegen.cc) and g5r netlistc's
// window guard. Offsets are device-address bits [9:0]:
//   0x000 + 8*i  input element i (write)
//   0x100 + 8*i  output element i (read; valid when done)
//   0x300        control: write 1 to start
//   0x308        status: bit0 busy, bit1 done
//   0x310        element count (read-only)
#pragma once

#include <cstdint>

namespace g5r::rtl::regmap {

inline constexpr std::uint64_t kInputBase = 0x000;
inline constexpr std::uint64_t kOutputBase = 0x100;
inline constexpr std::uint64_t kControl = 0x300;
inline constexpr std::uint64_t kStatus = 0x308;
inline constexpr std::uint64_t kCount = 0x310;
inline constexpr std::uint64_t kOffsetMask = 0x3FF;

/// Elements each window holds before reaching the control block.
inline constexpr unsigned kMaxElements = 64;
static_assert(kOutputBase + 8 * kMaxElements <= kControl && kInputBase <= kOutputBase);

}  // namespace g5r::rtl::regmap
