#include "tools/args.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace g5r::tools {

bool Args::has(std::string_view option) const {
    return std::any_of(items.begin(), items.end(),
                       [option](const Arg& a) { return a.option == option; });
}

std::optional<std::string> Args::value(std::string_view option) const {
    const auto it = std::find_if(items.rbegin(), items.rend(),
                                 [option](const Arg& a) { return a.option == option; });
    return it != items.rend() ? it->value : std::nullopt;
}

std::vector<std::string> Args::positionals() const {
    std::vector<std::string> out;
    for (const Arg& a : items) {
        if (a.option.empty()) out.push_back(*a.value);
    }
    return out;
}

bool Args::readNonNegative(std::string_view option, double& out) const {
    const auto text = value(option);
    if (!text) return true;
    const auto v = parseNonNegative(*text);
    if (!v) {
        bad(option, *text);
        return false;
    }
    out = *v;
    return true;
}

int Args::bad(std::string_view option, std::string_view text) const {
    return badOptionValue(cmd->tool.c_str(), std::string{option}.c_str(), text);
}

int Args::usageError(std::string_view message) const {
    if (!message.empty()) std::cerr << cmd->tool << ": " << message << '\n';
    std::cerr << cmd->usage;
    return 2;
}

Args parseArgs(const Command& cmd, int argc, const char* const* argv) {
    Args args{&cmd, {}, std::nullopt};
    const auto fail = [&](const std::string& message) {
        args.exit = args.usageError(message);
        return args;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg{argv[i]};
        if (arg == "--help" || arg == "-h") {
            std::cout << cmd.usage;
            args.exit = 0;
            return args;
        }
        if (arg.empty() || arg[0] != '-') {
            args.items.push_back(Arg{"", std::string{arg}});
            continue;
        }
        const std::size_t eq = arg.rfind("--", 0) == 0 ? arg.find('=') : arg.npos;
        const std::string name{arg.substr(0, eq)};
        const auto spec = std::find_if(cmd.options.begin(), cmd.options.end(),
                                       [&name](const Option& o) { return o.name == name; });
        if (spec == cmd.options.end()) return fail("unknown option " + std::string{arg});
        Arg item{spec->name, std::nullopt};
        if (eq != arg.npos) {
            if (spec->arity == Arity::kFlag) return fail(name + " takes no value");
            item.value = std::string{arg.substr(eq + 1)};
        } else if (spec->arity == Arity::kValue) {
            if (++i >= argc) return fail(name + " needs a value");
            item.value = argv[i];
        }
        args.items.push_back(std::move(item));
    }
    const std::size_t positionals = args.positionals().size();
    if (positionals < cmd.minPositionals || positionals > cmd.maxPositionals) return fail("");
    return args;
}

std::optional<std::string> readInputFile(std::string_view tool, const std::string& path) {
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec)) {
        std::cerr << tool << ": not a regular file: " << path << '\n';
        return std::nullopt;
    }
    std::ifstream in(path);
    if (!in) {
        std::cerr << tool << ": cannot open " << path << '\n';
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

}  // namespace g5r::tools
