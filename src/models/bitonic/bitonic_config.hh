// The element count a bitonic model config string selects. The model
// wrapper (bitonic_api.cc) and the loader that picks a compiled library for
// the same config (soc/model_loader.hh) both read it here, so they agree.
#pragma once

#include <algorithm>
#include <string_view>

#include "sim/parse_number.hh"

namespace g5r::models {

/// The first "n=<N>" token of the comma-separated @p config, read whole:
/// N must be a power of two in [2, 64]. A missing or invalid token selects
/// the default, 16.
inline unsigned bitonicElements(std::string_view config) {
    for (std::size_t pos = 0; pos <= config.size();) {
        const std::size_t comma = std::min(config.find(',', pos), config.size());
        const std::string_view token = config.substr(pos, comma - pos);
        if (token.substr(0, 2) == "n=") {
            const auto n = parseUnsigned(token.substr(2), 64);
            return n && *n >= 2 && (*n & (*n - 1)) == 0 ? static_cast<unsigned>(*n) : 16;
        }
        pos = comma + 1;
    }
    return 16;
}

}  // namespace g5r::models
