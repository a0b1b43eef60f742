#include "obs/recording.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace g5r::obs {

namespace {

const std::string kUnknownObject = "(unknown)";

[[noreturn]] void parseError(const std::string& path, std::size_t lineNo, const std::string& what) {
    throw std::runtime_error(path + ":" + std::to_string(lineNo) + ": " + what);
}

std::uint64_t parseHex(const std::string& tok) {
    return std::stoull(tok, nullptr, 16);
}

}  // namespace

const std::string& Recording::objectName(int slot) const {
    if (slot < 0 || static_cast<std::size_t>(slot) >= objectNames.size() ||
        objectNames[static_cast<std::size_t>(slot)].empty()) {
        return kUnknownObject;
    }
    return objectNames[static_cast<std::size_t>(slot)];
}

Recording Recording::parse(const std::string& text, const std::string& source) {
    std::istringstream in{text};
    Recording rec;
    std::string line;
    std::size_t lineNo = 0;
    bool sawHeader = false;

    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty()) continue;
        std::istringstream ls{line};
        std::string tag;
        ls >> tag;

        if (!sawHeader) {
            unsigned version = 0;
            if (tag != "g5rec" || !(ls >> version) || version != 1) {
                parseError(source, lineNo, "not a g5rec version-1 recording");
            }
            sawHeader = true;
            continue;
        }

        if (tag == "run") {
            // Rest of line verbatim (label may contain anything but '\n').
            std::getline(ls >> std::ws, rec.runLabel);
        } else if (tag == "interval") {
            if (!(ls >> rec.intervalTicks)) parseError(source, lineNo, "bad interval line");
        } else if (tag == "iv") {
            IntervalRecord iv;
            std::string dDig, dCum, pDig, pCum;
            if (!(ls >> iv.index >> iv.startTick >> iv.dispatchCount >> dDig >> dCum >>
                  iv.packetCount >> pDig >> pCum)) {
                parseError(source, lineNo, "bad iv line");
            }
            iv.dispatchDigest = parseHex(dDig);
            iv.cumDispatchDigest = parseHex(dCum);
            iv.packetDigest = parseHex(pDig);
            iv.cumPacketDigest = parseHex(pCum);
            if (!rec.intervals.empty() && rec.intervals.back().index >= iv.index) {
                parseError(source, lineNo, "iv indices not strictly increasing");
            }
            rec.intervals.push_back(std::move(iv));
        } else if (tag == "ob") {
            if (rec.intervals.empty()) parseError(source, lineNo, "ob line before any iv line");
            ObjEntry e;
            std::string dig;
            if (!(ls >> e.slot >> e.count >> dig >> e.firstTick)) {
                parseError(source, lineNo, "bad ob line");
            }
            e.digest = parseHex(dig);
            rec.intervals.back().objects.push_back(std::move(e));
        } else if (tag == "obj") {
            int slot = 0;
            std::string name;
            if (!(ls >> slot) || slot < 0) parseError(source, lineNo, "bad obj line");
            std::getline(ls >> std::ws, name);
            if (static_cast<std::size_t>(slot) >= rec.objectNames.size()) {
                rec.objectNames.resize(static_cast<std::size_t>(slot) + 1);
            }
            rec.objectNames[static_cast<std::size_t>(slot)] = std::move(name);
        } else if (tag == "bb") {
            BlackBoxEntry e;
            if (!(ls >> e.seq >> e.kind >> e.tick >> e.slot)) {
                parseError(source, lineNo, "bad bb line");
            }
            std::getline(ls >> std::ws, e.text);
            rec.blackBox.push_back(std::move(e));
        } else if (tag == "end") {
            std::string dCum, pCum;
            if (!(ls >> rec.finalTick >> rec.totalDispatches >> rec.totalPackets >> dCum >>
                  pCum)) {
                parseError(source, lineNo, "bad end line");
            }
            rec.finalDispatchDigest = parseHex(dCum);
            rec.finalPacketDigest = parseHex(pCum);
            rec.hasEnd = true;
        } else {
            parseError(source, lineNo, "unknown record tag '" + tag + "'");
        }
    }
    if (!sawHeader) throw std::runtime_error(source + ": empty recording");
    if (rec.intervalTicks == 0) throw std::runtime_error(source + ": missing interval line");
    return rec;
}

Recording Recording::load(const std::string& path) {
    std::ifstream in{path};
    if (!in) throw std::runtime_error(path + ": cannot open recording");
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), path);
}

}  // namespace g5r::obs
