#include "sim/stats.hh"

#include <iomanip>
#include <ostream>

#include "exp/json.hh"
#include "sim/logging.hh"

namespace g5r::stats {

double HistogramData::quantile(double q) const {
    if (count_ == 0) return 0.0;
    if (q <= 0.0) return minValue();
    if (q >= 1.0) return maxValue();
    // Rank of the quantile sample, 1-based: the smallest r such that at
    // least ceil(q * count) samples are <= the returned value.
    const std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= rank) {
            // Report the upper bucket edge, clamped to the true max so an
            // all-in-one-bucket histogram never reports above its largest
            // sample.
            const std::uint64_t hi = bucketHigh(i);
            return static_cast<double>(hi < max_ ? hi : max_);
        }
    }
    return maxValue();  // Unreachable when counts_ is consistent with count_.
}

void HistogramData::merge(const HistogramData& other) {
    if (other.count_ == 0) return;
    if (other.counts_.size() > counts_.size()) counts_.resize(other.counts_.size(), 0);
    for (std::size_t i = 0; i < other.counts_.size(); ++i) counts_[i] += other.counts_[i];
    const double n = static_cast<double>(count_ + other.count_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                           static_cast<double>(other.count_) / n;
    mean_ += delta * static_cast<double>(other.count_) / n;
    count_ += other.count_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
}

std::string Group::qualify(std::string_view name) const {
    std::string full = prefix_;
    if (!full.empty()) full += '.';
    full += name;
    return full;
}

Stat& Group::adopt(std::unique_ptr<Stat> stat) {
    Stat& ref = *stat;
    // Two stats under one name would alias: find() and dumpJson() could
    // only ever see one of them.
    if (!index_.emplace(ref.name(), stats_.size()).second) {
        panicStream("duplicate stat name '" + ref.name() + "'");
    }
    stats_.push_back(std::move(stat));
    return ref;
}

Scalar& Group::scalar(std::string_view name, std::string_view desc) {
    return static_cast<Scalar&>(
        adopt(std::make_unique<Scalar>(qualify(name), std::string{desc})));
}

Formula& Group::formula(std::string_view name, std::string_view desc,
                        std::function<double()> fn) {
    return static_cast<Formula&>(adopt(
        std::make_unique<Formula>(qualify(name), std::string{desc}, std::move(fn))));
}

Histogram& Group::histogram(std::string_view name, std::string_view desc) {
    return static_cast<Histogram&>(
        adopt(std::make_unique<Histogram>(qualify(name), std::string{desc})));
}

const Stat* Group::find(std::string_view name) const {
    const auto it = index_.find(qualify(name));
    return it == index_.end() ? nullptr : stats_[it->second].get();
}

void Group::dump(std::ostream& os) const {
    for (const auto& s : stats_) {
        os << std::left << std::setw(48) << s->name() << ' '
           << std::right << std::setw(16) << s->value() << "  # " << s->desc() << '\n';
    }
}

exp::Json Group::dumpJson() const {
    exp::Json doc = exp::Json::object();
    for (const auto& s : stats_) {
        // Stat names are fully qualified; strip "<prefix>." so the JSON
        // nests naturally under a member keyed by the group prefix.
        std::string_view rel = s->name();
        if (!prefix_.empty() && rel.size() > prefix_.size() &&
            rel.substr(0, prefix_.size()) == prefix_ && rel[prefix_.size()] == '.') {
            rel.remove_prefix(prefix_.size() + 1);
        }
        if (const auto* hist = dynamic_cast<const Histogram*>(s.get())) {
            // The accessors guard count==0, so an empty histogram
            // serializes as all-zeros rather than its min>max sentinels.
            exp::Json h = exp::Json::object();
            h["count"] = hist->count();
            h["min"] = hist->minValue();
            h["mean"] = hist->mean();
            h["max"] = hist->maxValue();
            h["stddev"] = hist->stddev();
            h["p50"] = hist->quantile(0.50);
            h["p90"] = hist->quantile(0.90);
            h["p99"] = hist->quantile(0.99);
            h["p999"] = hist->quantile(0.999);
            doc[rel] = std::move(h);
        } else {
            doc[rel] = s->value();
        }
    }
    return doc;
}

void Group::resetAll() {
    for (auto& s : stats_) s->reset();
}

}  // namespace g5r::stats
