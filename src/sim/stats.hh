// Statistics framework.
//
// Each SimObject owns a stats::Group named after it. Stats are created once
// (during construction or regStats()) and updated on the fast path with plain
// arithmetic. Formulas are evaluated lazily at read time, so derived metrics
// such as IPC or MPKI always reflect the current counter values — which is
// exactly what the Fig. 5 interval-dump machinery needs.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace g5r {
namespace exp { class Json; }
}  // namespace g5r

namespace g5r::stats {

/// Base of every statistic: a named, documented, readable value.
class Stat {
public:
    Stat(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc)) {}
    Stat(const Stat&) = delete;
    Stat& operator=(const Stat&) = delete;
    virtual ~Stat() = default;

    const std::string& name() const { return name_; }
    const std::string& desc() const { return desc_; }

    /// Current value of the statistic (counters: total; formulas: computed).
    virtual double value() const = 0;

    /// Reset accumulated state (formulas are stateless and ignore this).
    virtual void reset() {}

private:
    std::string name_;
    std::string desc_;
};

/// A simple accumulating counter / gauge.
class Scalar final : public Stat {
public:
    using Stat::Stat;

    Scalar& operator+=(double d) { value_ += d; return *this; }
    Scalar& operator++() { value_ += 1.0; return *this; }
    void inc(double d = 1.0) { value_ += d; }
    void set(double v) { value_ = v; }

    double value() const override { return value_; }
    void reset() override { value_ = 0.0; }

private:
    double value_ = 0.0;
};

/// A derived metric computed on demand from other stats.
class Formula final : public Stat {
public:
    Formula(std::string name, std::string desc, std::function<double()> fn)
        : Stat(std::move(name), std::move(desc)), fn_(std::move(fn)) {}

    double value() const override { return fn_ ? fn_() : 0.0; }

private:
    std::function<double()> fn_;
};

/// Exact-count log2-bucketed histogram state (HDR-style), the one sampled
/// stat type.
///
/// Buckets are octaves split into 2^kSubBucketBits linear sub-buckets, so
/// values below kSubBuckets are recorded exactly and larger values with a
/// bounded relative error of 1/kSubBuckets (~3.1%). Counts are exact 64-bit
/// integers, so arbitrary quantiles (p50/p90/p99/p999) are answerable and
/// instances merge losslessly (per-master latency histograms fold into one
/// SoC-wide histogram by adding bucket counts).
///
/// count, min and max are exact. mean and variance come from running
/// moments updated with Welford's online algorithm: the naive
/// sum-of-squares form cancels catastrophically once samples carry a large
/// common offset (e.g. absolute ticks late in a long run), while Welford
/// tracks the centered second moment directly and stays accurate and
/// non-negative regardless of offset. merge() combines the moments with the
/// pairwise formula of Chan et al.
///
/// This is a plain copyable value type; the Stat wrapper below registers it
/// in a Group. Samples are non-negative magnitudes (ticks, queue depths);
/// negative inputs clamp to zero.
class HistogramData {
public:
    static constexpr unsigned kSubBucketBits = 5;
    static constexpr std::uint64_t kSubBuckets = std::uint64_t{1} << kSubBucketBits;

    /// Bucket index of @p v: identity below kSubBuckets, then kSubBuckets
    /// linear sub-buckets per octave.
    static std::size_t bucketIndex(std::uint64_t v) {
        if (v < kSubBuckets) return static_cast<std::size_t>(v);
        const unsigned exp = static_cast<unsigned>(std::bit_width(v)) - kSubBucketBits - 1;
        const std::uint64_t sub = v >> exp;  // In [kSubBuckets, 2*kSubBuckets).
        return static_cast<std::size_t>((std::uint64_t{exp} + 1) * kSubBuckets +
                                        (sub - kSubBuckets));
    }

    /// Smallest / largest value mapping to bucket @p idx.
    static std::uint64_t bucketLow(std::size_t idx) {
        if (idx < kSubBuckets) return idx;
        const std::uint64_t exp = idx / kSubBuckets - 1;
        const std::uint64_t sub = kSubBuckets + idx % kSubBuckets;
        return sub << exp;
    }
    static std::uint64_t bucketHigh(std::size_t idx) {
        if (idx < kSubBuckets) return idx;
        const std::uint64_t exp = idx / kSubBuckets - 1;
        const std::uint64_t sub = kSubBuckets + idx % kSubBuckets;
        return ((sub + 1) << exp) - 1;
    }

    void sampleInt(std::uint64_t v) {
        const std::size_t idx = bucketIndex(v);
        if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
        ++counts_[idx];
        ++count_;
        const double x = static_cast<double>(v);
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
        if (v < min_) min_ = v;
        if (v > max_) max_ = v;
    }

    /// Doubles round to the nearest integer magnitude; negatives clamp to 0.
    void sample(double v) {
        if (!(v > 0.0)) { sampleInt(0); return; }  // NaN and negatives too.
        sampleInt(v >= 9.2e18 ? std::uint64_t{9'200'000'000'000'000'000ULL}
                              : static_cast<std::uint64_t>(std::llround(v)));
    }

    /// Fold @p other into this histogram. Bucket counts add exactly; the
    /// moments combine pairwise (Chan et al.).
    void merge(const HistogramData& other);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double minValue() const { return count_ ? static_cast<double>(min_) : 0.0; }
    double maxValue() const { return count_ ? static_cast<double>(max_) : 0.0; }

    /// Population variance (divide by n).
    double variance() const {
        if (count_ < 2) return 0.0;
        return m2_ / static_cast<double>(count_);
    }
    double stddev() const { return std::sqrt(variance()); }

    /// Value v such that at least ceil(q * count) samples are <= v, reported
    /// as the upper edge of the containing bucket (exact for values below
    /// kSubBuckets). Returns 0 on an empty histogram.
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }
    double p999() const { return quantile(0.999); }

    void reset() {
        counts_.clear();
        count_ = 0;
        mean_ = m2_ = 0.0;
        min_ = std::numeric_limits<std::uint64_t>::max();
        max_ = 0;
    }

    /// Visit every non-empty bucket in ascending value order:
    /// fn(low, high, count).
    template <typename Fn>
    void forEachBucket(Fn&& fn) const {
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            if (counts_[i] != 0) fn(bucketLow(i), bucketHigh(i), counts_[i]);
        }
    }

private:
    std::vector<std::uint64_t> counts_;  ///< Grown on demand to the top bucket.
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;  ///< Sum of squared deviations from the running mean.
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/// The Stat wrapper over HistogramData. The headline value is the mean.
class Histogram final : public Stat {
public:
    using Stat::Stat;

    void sample(double v) { data_.sample(v); }
    void sampleInt(std::uint64_t v) { data_.sampleInt(v); }

    const HistogramData& data() const { return data_; }

    std::uint64_t count() const { return data_.count(); }
    double mean() const { return data_.mean(); }
    double minValue() const { return data_.minValue(); }
    double maxValue() const { return data_.maxValue(); }
    double variance() const { return data_.variance(); }
    double stddev() const { return data_.stddev(); }
    double quantile(double q) const { return data_.quantile(q); }

    double value() const override { return data_.mean(); }
    void reset() override { data_.reset(); }

private:
    HistogramData data_;
};

/// A named collection of stats; one per SimObject, prefix = object name.
class Group {
public:
    explicit Group(std::string prefix) : prefix_(std::move(prefix)) {}
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    Scalar& scalar(std::string_view name, std::string_view desc);
    Formula& formula(std::string_view name, std::string_view desc, std::function<double()> fn);
    Histogram& histogram(std::string_view name, std::string_view desc);

    const std::string& prefix() const { return prefix_; }

    /// Look up a stat by its name relative to this group; nullptr if absent.
    /// O(1): an index keyed by fully-qualified name is maintained at
    /// registration time (MetricsSession and the timeline tests resolve
    /// stats by name every sample, so lookup must not scan).
    const Stat* find(std::string_view name) const;

    void dump(std::ostream& os) const;

    /// The same snapshot as a JSON object keyed by stat name relative to
    /// this group's prefix. Scalars and formulas become numbers; histograms
    /// become {count, min, mean, max, stddev, p50, p90, p99, p999} objects.
    /// This is a parallel machine-readable view of dump() for
    /// BENCH_*.json-style consumers.
    exp::Json dumpJson() const;

    void resetAll();

    const std::vector<std::unique_ptr<Stat>>& all() const { return stats_; }

private:
    std::string qualify(std::string_view name) const;

    /// Take ownership of @p stat and index it by fully-qualified name.
    Stat& adopt(std::unique_ptr<Stat> stat);

    std::string prefix_;
    std::vector<std::unique_ptr<Stat>> stats_;
    std::unordered_map<std::string, std::size_t> index_;  ///< Full name -> stats_ slot.
};

}  // namespace g5r::stats
