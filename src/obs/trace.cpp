#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "common/strings.hpp"

namespace powermove::obs {

namespace {

std::string
formatTs(double micros)
{
    if (!std::isfinite(micros))
        micros = 0.0;
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%.3f", micros);
    return buffer;
}

} // namespace

TraceCollector::TraceCollector() : epoch_(Clock::now()) {}

double
TraceCollector::tsOf(Clock::time_point at) const
{
    return std::chrono::duration<double, std::micro>(at - epoch_).count();
}

void
TraceCollector::add(TraceEvent event)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
TraceCollector::addComplete(
    std::string name, std::string cat, std::uint64_t tid,
    Clock::time_point start, Clock::time_point end,
    std::vector<std::pair<std::string, std::string>> args)
{
    TraceEvent event;
    event.name = std::move(name);
    event.cat = std::move(cat);
    event.phase = 'X';
    event.ts_us = tsOf(start);
    event.dur_us =
        std::max(0.0, std::chrono::duration<double, std::micro>(end - start)
                          .count());
    event.tid = tid;
    event.args = std::move(args);
    add(std::move(event));
}

void
TraceCollector::addInstant(
    std::string name, std::string cat, std::uint64_t tid,
    Clock::time_point at,
    std::vector<std::pair<std::string, std::string>> args)
{
    TraceEvent event;
    event.name = std::move(name);
    event.cat = std::move(cat);
    event.phase = 'i';
    event.ts_us = tsOf(at);
    event.tid = tid;
    event.args = std::move(args);
    add(std::move(event));
}

std::size_t
TraceCollector::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::string
TraceCollector::toChromeTraceJson() const
{
    std::vector<TraceEvent> events;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        events = events_;
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts_us < b.ts_us;
                     });

    std::string out = "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &event = events[i];
        if (i > 0)
            out += ',';
        out += "{\"name\":\"";
        out += escapeJson(event.name);
        out += "\",\"cat\":\"";
        out += escapeJson(event.cat);
        out += "\",\"ph\":\"";
        out += event.phase;
        out += "\",\"ts\":";
        out += formatTs(event.ts_us);
        if (event.phase == 'X') {
            out += ",\"dur\":";
            out += formatTs(event.dur_us);
        } else if (event.phase == 'i') {
            out += ",\"s\":\"t\"";
        }
        out += ",\"pid\":";
        out += std::to_string(event.pid);
        out += ",\"tid\":";
        out += std::to_string(event.tid);
        if (!event.args.empty()) {
            out += ",\"args\":{";
            for (std::size_t a = 0; a < event.args.size(); ++a) {
                if (a > 0)
                    out += ',';
                out += '"';
                out += escapeJson(event.args[a].first);
                out += "\":\"";
                out += escapeJson(event.args[a].second);
                out += '"';
            }
            out += '}';
        }
        out += '}';
    }
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
}

} // namespace powermove::obs
