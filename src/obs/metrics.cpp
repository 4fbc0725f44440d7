#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace powermove::obs {

namespace {

/** Escapes a Prometheus label value (backslash, quote, newline). */
std::string
escapeLabelValue(std::string_view value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

/** Shortest round-trippable decimal for @p value. */
std::string
formatDouble(double value)
{
    if (!std::isfinite(value))
        return value > 0 ? "1e999" : (value < 0 ? "-1e999" : "0");
    char buffer[64];
    // Integer-valued doubles render without an exponent ("10", not
    // "1e+01") so histogram `le` labels keep the conventional shape.
    if (value == std::floor(value) && std::fabs(value) < 1e15) {
        std::snprintf(buffer, sizeof(buffer), "%.0f", value);
        return buffer;
    }
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    // Prefer the shortest representation that still round-trips.
    for (const int precision : {1, 3, 6, 9, 12, 15}) {
        char candidate[64];
        std::snprintf(candidate, sizeof(candidate), "%.*g", precision, value);
        if (std::strtod(candidate, nullptr) == value)
            return candidate;
    }
    return buffer;
}

/** Canonical `k="v",k2="v2"` rendering of @p labels. */
std::string
labelText(const Labels &labels)
{
    std::string out;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0)
            out += ',';
        out += labels[i].first;
        out += "=\"";
        out += escapeLabelValue(labels[i].second);
        out += '"';
    }
    return out;
}

/** `{"k":"v",...}` JSON object for @p labels. */
std::string
labelsJson(const Labels &labels)
{
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0)
            out += ',';
        out += '"';
        out += escapeJson(labels[i].first);
        out += "\":\"";
        out += escapeJson(labels[i].second);
        out += '"';
    }
    out += '}';
    return out;
}

} // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        if (!(bounds_[i] > bounds_[i - 1]))
            throw Error("histogram boundaries must be strictly increasing");
}

void
Histogram::observe(double value)
{
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    const std::size_t bucket =
        static_cast<std::size_t>(it - bounds_.begin());
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double sum = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(sum, sum + value,
                                       std::memory_order_relaxed))
        ;
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> counts(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        counts[i] = buckets_[i].load(std::memory_order_relaxed);
    return counts;
}

double
Histogram::percentile(double q) const
{
    const std::vector<std::uint64_t> counts = bucketCounts();
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // The same fractional rank percentileOfSorted() uses; the in-bucket
    // position is then interpolated linearly between the boundaries.
    const double rank = q * static_cast<double>(total - 1);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const std::uint64_t below = cumulative;
        cumulative += counts[i];
        if (rank >= static_cast<double>(cumulative))
            continue;
        const double lo = i == 0 ? 0.0 : bounds_[i - 1];
        // Observations past the last boundary clamp to it: the +Inf
        // bucket has no finite width to interpolate into.
        if (i == bounds_.size())
            return bounds_.empty() ? 0.0 : bounds_.back();
        const double hi = bounds_[i];
        const double within =
            (rank - static_cast<double>(below) + 0.5) /
            static_cast<double>(counts[i]);
        return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    return bounds_.empty() ? 0.0 : bounds_.back();
}

double
percentileOfSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::vector<double>
defaultLatencyBoundsUs()
{
    return {100.0,    250.0,    500.0,    1000.0,    2500.0,    5000.0,
            10000.0,  25000.0,  50000.0,  100000.0,  250000.0,  500000.0,
            1.0e6,    2.5e6,    5.0e6,    1.0e7,     3.0e7};
}

std::vector<double>
passWallBoundsUs()
{
    return {10.0,    25.0,    50.0,     100.0,    250.0,   500.0,
            1000.0,  2500.0,  5000.0,   10000.0,  25000.0, 50000.0,
            100000.0, 250000.0, 1.0e6};
}

MetricsRegistry::MetricsRegistry() : shards_(kNumShards) {}

MetricsRegistry::Series &
MetricsRegistry::resolve(std::string_view name, const Labels &labels,
                         Kind kind, std::vector<double> *bounds)
{
    const std::string text = labelText(labels);
    std::string key(name);
    key += '{';
    key += text;
    key += '}';
    Shard &shard = shards_[std::hash<std::string>{}(key) % kNumShards];

    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto &series : shard.series) {
        if (series->name != name || series->label_text != text)
            continue;
        if (series->kind != kind)
            throw Error("metric '" + key + "' registered as two kinds");
        return *series;
    }
    auto series = std::make_unique<Series>();
    series->name = std::string(name);
    series->labels = labels;
    series->label_text = text;
    series->kind = kind;
    switch (kind) {
    case Kind::Counter:
        series->counter = std::make_unique<Counter>();
        break;
    case Kind::Gauge:
        series->gauge = std::make_unique<Gauge>();
        break;
    case Kind::Histogram:
        series->histogram = std::make_unique<Histogram>(
            bounds != nullptr ? std::move(*bounds) : std::vector<double>{});
        break;
    }
    shard.series.push_back(std::move(series));
    return *shard.series.back();
}

Counter &
MetricsRegistry::counter(std::string_view name, const Labels &labels)
{
    return *resolve(name, labels, Kind::Counter, nullptr).counter;
}

Gauge &
MetricsRegistry::gauge(std::string_view name, const Labels &labels)
{
    return *resolve(name, labels, Kind::Gauge, nullptr).gauge;
}

Histogram &
MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds,
                           const Labels &labels)
{
    return *resolve(name, labels, Kind::Histogram, &bounds).histogram;
}

std::vector<const MetricsRegistry::Series *>
MetricsRegistry::sortedSeries() const
{
    std::vector<const Series *> all;
    for (const Shard &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        for (const auto &series : shard.series)
            all.push_back(series.get());
    }
    std::sort(all.begin(), all.end(),
              [](const Series *a, const Series *b) {
                  if (a->name != b->name)
                      return a->name < b->name;
                  return a->label_text < b->label_text;
              });
    return all;
}

std::string
MetricsRegistry::toPrometheusText() const
{
    const std::vector<const Series *> all = sortedSeries();
    std::string out;
    std::string_view last_family;
    for (const Series *series : all) {
        if (series->name != last_family) {
            out += "# TYPE ";
            out += series->name;
            switch (series->kind) {
            case Kind::Counter:
                out += " counter\n";
                break;
            case Kind::Gauge:
                out += " gauge\n";
                break;
            case Kind::Histogram:
                out += " histogram\n";
                break;
            }
            last_family = series->name;
        }
        const auto suffixed = [&](std::string_view suffix,
                                  std::string_view extra_label) {
            std::string line = series->name;
            line += suffix;
            if (!series->label_text.empty() || !extra_label.empty()) {
                line += '{';
                line += series->label_text;
                if (!series->label_text.empty() && !extra_label.empty())
                    line += ',';
                line += extra_label;
                line += '}';
            }
            line += ' ';
            return line;
        };
        switch (series->kind) {
        case Kind::Counter:
            out += suffixed("", "");
            out += std::to_string(series->counter->value());
            out += '\n';
            break;
        case Kind::Gauge:
            out += suffixed("", "");
            out += formatDouble(series->gauge->value());
            out += '\n';
            break;
        case Kind::Histogram: {
            const Histogram &histogram = *series->histogram;
            const std::vector<std::uint64_t> counts =
                histogram.bucketCounts();
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < counts.size(); ++i) {
                cumulative += counts[i];
                const std::string le =
                    i < histogram.bounds().size()
                        ? formatDouble(histogram.bounds()[i])
                        : "+Inf";
                out += suffixed("_bucket", "le=\"" + le + "\"");
                out += std::to_string(cumulative);
                out += '\n';
            }
            out += suffixed("_sum", "");
            out += formatDouble(histogram.sum());
            out += '\n';
            out += suffixed("_count", "");
            out += std::to_string(histogram.count());
            out += '\n';
            break;
        }
        }
    }
    return out;
}

std::string
MetricsRegistry::toJson() const
{
    const std::vector<const Series *> all = sortedSeries();
    std::string counters, gauges, histograms;
    for (const Series *series : all) {
        std::string entry = "{\"name\":\"";
        entry += escapeJson(series->name);
        entry += "\",\"labels\":";
        entry += labelsJson(series->labels);
        switch (series->kind) {
        case Kind::Counter:
            entry += ",\"value\":";
            entry += std::to_string(series->counter->value());
            entry += '}';
            if (!counters.empty())
                counters += ',';
            counters += entry;
            break;
        case Kind::Gauge:
            entry += ",\"value\":";
            entry += formatDouble(series->gauge->value());
            entry += '}';
            if (!gauges.empty())
                gauges += ',';
            gauges += entry;
            break;
        case Kind::Histogram: {
            const Histogram &histogram = *series->histogram;
            const std::vector<std::uint64_t> counts =
                histogram.bucketCounts();
            entry += ",\"count\":";
            entry += std::to_string(histogram.count());
            entry += ",\"sum\":";
            entry += formatDouble(histogram.sum());
            entry += ",\"p50\":";
            entry += formatDouble(histogram.percentile(0.50));
            entry += ",\"p95\":";
            entry += formatDouble(histogram.percentile(0.95));
            entry += ",\"p99\":";
            entry += formatDouble(histogram.percentile(0.99));
            entry += ",\"buckets\":[";
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < counts.size(); ++i) {
                cumulative += counts[i];
                if (i > 0)
                    entry += ',';
                entry += "{\"le\":\"";
                entry += i < histogram.bounds().size()
                             ? formatDouble(histogram.bounds()[i])
                             : "+Inf";
                entry += "\",\"count\":";
                entry += std::to_string(cumulative);
                entry += '}';
            }
            entry += "]}";
            if (!histograms.empty())
                histograms += ',';
            histograms += entry;
            break;
        }
        }
    }
    std::string out = "{\"counters\":[";
    out += counters;
    out += "],\"gauges\":[";
    out += gauges;
    out += "],\"histograms\":[";
    out += histograms;
    out += "]}";
    return out;
}

} // namespace powermove::obs
