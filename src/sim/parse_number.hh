// Whole-string numeric parsing for command-line values: "12abc", "25%", "",
// a sign or whitespace, and out-of-range values are all rejected, so a
// mistyped option fails loudly instead of silently taking a prefix.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string_view>

namespace g5r {

/// A base-10 unsigned integer no larger than @p max.
inline std::optional<std::uint64_t> parseUnsigned(
    std::string_view text, std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    std::uint64_t value = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size() || value > max) return {};
    return value;
}

/// A finite, non-negative decimal number.
inline std::optional<double> parseNonNegative(std::string_view text) {
    double value = 0.0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size() || !std::isfinite(value) ||
        std::signbit(value)) {
        return {};
    }
    return value;
}

/// Report a malformed value of a command-line option on stderr as
/// "<tool>: bad <option> value '<text>'"; returns 2, the usage exit status.
inline int badOptionValue(const char* tool, const char* option, std::string_view text) {
    std::fprintf(stderr, "%s: bad %s value '%.*s'\n", tool, option,
                 static_cast<int>(text.size()), text.data());
    return 2;
}

}  // namespace g5r
