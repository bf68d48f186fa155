#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Quantile exact_quantile(std::vector<double>& samples, double q) {
    Quantile out;
    out.samples = samples.size();
    if (samples.empty()) return out;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    out.value = samples[rank - 1];
    out.beyond = samples.size() - rank;
    out.ok = out.beyond >= kMinBeyond;
    return out;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double fail_frac(const CallTally& tally) {
    if (tally.issued == 0) return 0.0;
    return static_cast<double>(tally.failed + tally.timed_out + tally.shed) /
           static_cast<double>(tally.issued);
}

std::string hex_digest(std::string_view text) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

namespace {

/// Index just past the JSON value starting at `i` (number, string or a
/// balanced object/array; registry JSON holds no strings with braces).
std::size_t skip_value(std::string_view json, std::size_t i) {
    if (i < json.size() && (json[i] == '{' || json[i] == '[')) {
        int depth = 0;
        for (; i < json.size(); ++i) {
            if (json[i] == '{' || json[i] == '[') ++depth;
            if (json[i] == '}' || json[i] == ']') {
                if (--depth == 0) return i + 1;
            }
        }
        return i;
    }
    while (i < json.size() && json[i] != ',' && json[i] != '}' && json[i] != ']') ++i;
    return i;
}

}  // namespace

std::string strip_obs_members(std::string_view json) {
    std::string out;
    out.reserve(json.size());
    std::size_t i = 0;
    while (i < json.size()) {
        // A member key "obs.…": drop the key, its value and one separator.
        if (json.compare(i, 5, "\"obs.") == 0 && i > 0 && (json[i - 1] == '{' || json[i - 1] == ',')) {
            const std::size_t key_end = json.find('"', i + 1);
            std::size_t j = skip_value(json, key_end + 2);  // past `":`
            if (j < json.size() && json[j] == ',') {
                ++j;
            } else if (!out.empty() && out.back() == ',') {
                out.pop_back();
            }
            i = j;
            continue;
        }
        out += json[i++];
    }
    return out;
}

std::string registry_digest(const newtop::obs::MetricsRegistry& metrics) {
    return hex_digest(strip_obs_members(metrics.to_json()));
}

}  // namespace perfbench
