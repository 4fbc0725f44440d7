/**
 * @file
 * In-memory span log of the traced perfbench run.
 *
 * The benchmark records one span around each call it makes into the
 * library (load, compile or submit/wait, validate, serialize) and one
 * root span per request. Spans stay in memory while the workload runs
 * and are written out as JSON lines when it ends, so recording costs a
 * vector append. A span's self time is its duration minus the part of
 * it that its children cover; the root's uncovered time is the request
 * time no layer accounts for.
 *
 * Only one thread records into a log.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
millis(Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

/** One timed interval of one request. */
struct Span
{
    /** 1-based id; 0 is "no span" and the parent of every root. */
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint64_t request = 0;
    /** Static layer name, e.g. "isa.validate". */
    const char *name = "";
    Clock::time_point start;
    Clock::time_point end;
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Reserves the id of a span whose end is not known yet; 0 if off. */
    std::uint32_t
    open(std::uint64_t request)
    {
        if (!enabled_)
            return 0;
        Span span;
        span.id = static_cast<std::uint32_t>(spans_.size() + 1);
        span.request = request;
        spans_.push_back(span);
        return span.id;
    }

    /** Fills in a span reserved by open(). */
    void
    close(std::uint32_t id, std::uint32_t parent, const char *name,
          Clock::time_point start, Clock::time_point end)
    {
        if (id == 0)
            return;
        Span &span = spans_[id - 1];
        span.parent = parent;
        span.name = name;
        span.start = start;
        span.end = end;
    }

    /** Records a finished span; returns its id (0 if off). */
    std::uint32_t
    add(std::uint64_t request, std::uint32_t parent, const char *name,
        Clock::time_point start, Clock::time_point end)
    {
        const std::uint32_t id = open(request);
        close(id, parent, name, start, end);
        return id;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Per span id, the time its children leave uncovered (its self
     * time), in milliseconds. Overlapping children count once.
     */
    std::vector<double>
    selfTimes() const
    {
        std::vector<std::vector<std::pair<Clock::time_point,
                                          Clock::time_point>>>
            children(spans_.size() + 1);
        for (const Span &span : spans_)
            if (span.parent != 0)
                children[span.parent].emplace_back(span.start, span.end);
        std::vector<double> self(spans_.size() + 1, 0.0);
        for (const Span &span : spans_) {
            auto &kids = children[span.id];
            std::sort(kids.begin(), kids.end());
            Clock::duration covered{0};
            Clock::time_point cursor = span.start;
            for (const auto &[start, end] : kids) {
                const auto from = std::max(start, cursor);
                const auto to = std::min(end, span.end);
                if (to > from) {
                    covered += to - from;
                    cursor = to;
                }
            }
            self[span.id] = millis(span.end - span.start - covered);
        }
        return self;
    }

    /** Writes one JSON object per span; times in us from @p origin. */
    bool
    write(const std::string &path, Clock::time_point origin) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (out == nullptr)
            return false;
        const auto us = [origin](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin)
                .count();
        };
        for (const Span &span : spans_)
            std::fprintf(out,
                         "{\"id\":%u,\"parent\":%u,\"request\":%llu,"
                         "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                         span.id, span.parent,
                         static_cast<unsigned long long>(span.request),
                         span.name, us(span.start), us(span.end));
        return std::fclose(out) == 0;
    }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
