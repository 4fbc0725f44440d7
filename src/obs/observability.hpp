/**
 * @file
 * The observability bundle the service and CLI layers share.
 *
 * One Observability instance groups the three signal planes — a
 * MetricsRegistry, a TraceCollector, and a Logger — behind a single
 * shared_ptr that JobServiceOptions / DiskCacheOptions carry. The
 * registry is where the service counters live; given a null bundle, a
 * service makes a private one with logging off, so counting never
 * stops while exports, logs and spans stay off. The compile pipeline
 * itself is never touched (its PassProfiles are folded in at job
 * resolution).
 *
 * PeriodicReporter drives the "stats line every N ms" surface: it owns
 * one background thread invoking a caller-supplied callback on a fixed
 * interval until destruction, and fires the callback one final time on
 * shutdown so short runs still produce a report.
 */

#ifndef POWERMOVE_OBS_OBSERVABILITY_HPP
#define POWERMOVE_OBS_OBSERVABILITY_HPP

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace powermove::obs {

/** Bundle construction knobs. */
struct ObservabilityOptions
{
    LogLevel log_level = LogLevel::Info;
    /** Log destination (not owned); stderr by default. */
    std::FILE *log_out = stderr;
};

/** Metrics + traces + logs behind one handle. */
class Observability
{
  public:
    explicit Observability(ObservabilityOptions options = {})
        : log(options.log_level, options.log_out)
    {
    }

    MetricsRegistry metrics;
    TraceCollector trace;
    Logger log;
};

/**
 * @p bundle itself, or, when it is null, a new bundle with logging off:
 * the private registry of a service nobody instruments.
 */
std::shared_ptr<Observability>
bundleOrPrivate(std::shared_ptr<Observability> bundle);

/** Calls @p fn every @p interval on a background thread until destroyed. */
class PeriodicReporter
{
  public:
    PeriodicReporter(std::chrono::milliseconds interval,
                     std::function<void()> fn);

    /** Stops the thread; fires @p fn once more if it never fired. */
    ~PeriodicReporter();

    PeriodicReporter(const PeriodicReporter &) = delete;
    PeriodicReporter &operator=(const PeriodicReporter &) = delete;

    /** Times the callback has run. */
    std::size_t reports() const;

  private:
    std::chrono::milliseconds interval_;
    std::function<void()> fn_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::size_t reports_ = 0;
    std::thread thread_;
};

} // namespace powermove::obs

#endif // POWERMOVE_OBS_OBSERVABILITY_HPP
