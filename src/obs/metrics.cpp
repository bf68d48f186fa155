#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <ranges>

namespace newtop::obs {

// -- LatencyHistogram ---------------------------------------------------------

void LatencyHistogram::record(SimDuration value) {
    if (value < 0) value = 0;
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    const std::size_t index = std::bit_width(static_cast<std::uint64_t>(value));
    ++buckets_[std::min(index, kBucketCount - 1)];
}

SimDuration LatencyHistogram::bucket_floor(std::size_t index) {
    if (index == 0) return 0;
    return static_cast<SimDuration>(std::uint64_t{1} << (index - 1));
}

SimDuration LatencyHistogram::quantile(double q) const {
    if (count_ == 0) return 0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    auto rank = static_cast<std::uint64_t>(std::ceil(clamped * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        seen += buckets_[i];
        if (seen >= rank) return std::clamp(bucket_floor(i), min_, max_);
    }
    return max_;
}

void LatencyHistogram::append_json(std::string& out) const {
    out += "{\"count\":" + std::to_string(count_);
    out += ",\"sum\":" + std::to_string(sum_);
    out += ",\"min\":" + std::to_string(min_);
    out += ",\"max\":" + std::to_string(max_);
    out += ",\"p50\":" + std::to_string(quantile(0.50));
    out += ",\"p90\":" + std::to_string(quantile(0.90));
    out += ",\"p99\":" + std::to_string(quantile(0.99));
    out += ",\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        if (buckets_[i] == 0) continue;
        if (!first) out += ',';
        first = false;
        out += '[';
        out += std::to_string(i);
        out += ',';
        out += std::to_string(buckets_[i]);
        out += ']';
    }
    out += "]}";
}

// -- MetricsRegistry ----------------------------------------------------------

namespace {

/// The table ids in name order, for lookups by name.
constexpr auto kTableByName = [] {
    std::array<MetricId, kMetricTableSize> ids{};
    for (std::uint32_t i = 0; i < kMetricTableSize; ++i) ids[i] = MetricId{i, kMetricTable[i]};
    std::sort(ids.begin(), ids.end(),
              [](const MetricId& a, const MetricId& b) { return a.name < b.name; });
    return ids;
}();

constexpr bool table_names_unique() {
    for (std::size_t i = 1; i < kTableByName.size(); ++i) {
        if (kTableByName[i - 1].name == kTableByName[i].name) return false;
    }
    return true;
}
static_assert(table_names_unique(), "kMetricTable lists a name twice");

/// Append `"name":` to `out`.
void append_key(std::string& out, std::string_view name) {
    out += '"';
    out += name;
    out += "\":";
}

}  // namespace

MetricsRegistry::MetricsRegistry() : counters_(kMetricTableSize), histograms_(kMetricTableSize) {}

const MetricId* MetricsRegistry::find(std::string_view name) const {
    const auto it = std::lower_bound(
        kTableByName.begin(), kTableByName.end(), name,
        [](const MetricId& id, std::string_view key) { return id.name < key; });
    if (it != kTableByName.end() && it->name == name) return &*it;
    const auto interned = interned_.find(name);
    return interned == interned_.end() ? nullptr : &interned->second;
}

MetricId MetricsRegistry::intern(std::string_view name) {
    if (const MetricId* id = find(name)) return *id;
    const MetricId id{static_cast<std::uint32_t>(counters_.size()),
                      interned_names_.emplace_back(name)};
    interned_.emplace(id.name, id);
    counters_.emplace_back();
    histograms_.emplace_back();
    return id;
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
    const MetricId* id = find(name);
    return id == nullptr ? 0 : counters_[id->index].value;
}

const LatencyHistogram* MetricsRegistry::histogram(std::string_view name) const {
    const MetricId* id = find(name);
    return id == nullptr ? nullptr : histograms_[id->index].get();
}

GaugeHandle MetricsRegistry::register_gauge(std::string_view name, GaugeFn fn) {
    const GaugeHandle handle = next_gauge_++;
    gauges_.emplace(handle, Gauge{std::string(name), std::move(fn)});
    return handle;
}

void MetricsRegistry::unregister_gauge(GaugeHandle handle) { gauges_.erase(handle); }

void MetricsRegistry::sample_gauges(SimTime at) {
    // Sum same-named gauges first, then append one point per name; the
    // intermediate map keeps the result independent of registration order.
    std::map<std::string_view, std::uint64_t, std::less<>> totals;
    for (const auto& [handle, gauge] : gauges_) totals[gauge.name] += gauge.fn(at);
    for (const auto& [name, value] : totals) sample(name, at, value);
}

void MetricsRegistry::sample(std::string_view name, SimTime at, std::uint64_t value) {
    auto it = series_.find(name);
    if (it == series_.end()) {
        it = series_.emplace(std::string(name),
                             std::vector<std::pair<SimTime, std::uint64_t>>{})
                 .first;
    }
    it->second.emplace_back(at, value);
}

const std::vector<std::pair<SimTime, std::uint64_t>>* MetricsRegistry::series(
    std::string_view name) const {
    const auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::to_json() const {
    // Every id that was ever recorded, in name order (the table's and the
    // interned names interleave).
    const auto interned = std::views::values(interned_);
    std::vector<MetricId> ids;
    ids.reserve(kTableByName.size() + interned_.size());
    std::merge(kTableByName.begin(), kTableByName.end(), interned.begin(), interned.end(),
               std::back_inserter(ids),
               [](const MetricId& a, const MetricId& b) { return a.name < b.name; });
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const MetricId& id : ids) {
        const Counter& c = counters_[id.index];
        if (!c.touched) continue;
        if (!first) out += ',';
        first = false;
        append_key(out, id.name);
        out += std::to_string(c.value);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const MetricId& id : ids) {
        const LatencyHistogram* h = histograms_[id.index].get();
        if (h == nullptr) continue;
        if (!first) out += ',';
        first = false;
        append_key(out, id.name);
        h->append_json(out);
    }
    out += '}';
    // Emitted only when samples exist, so worlds without gauge sampling
    // produce the exact pre-series JSON (golden outputs stay stable).
    if (!series_.empty()) {
        out += ",\"series\":{";
        first = true;
        for (const auto& [name, points] : series_) {
            if (!first) out += ',';
            first = false;
            out += '"';
            out += name;
            out += "\":[";
            bool first_point = true;
            for (const auto& [at, value] : points) {
                if (!first_point) out += ',';
                first_point = false;
                out += '[';
                out += std::to_string(at);
                out += ',';
                out += std::to_string(value);
                out += ']';
            }
            out += ']';
        }
        out += '}';
    }
    out += '}';
    return out;
}

}  // namespace newtop::obs
