/**
 * @file
 * The bridge between the service layer and the observability planes:
 * the service-wide metric catalog, pass-profile folding, and per-job
 * trace-span stitching.
 *
 * Metric catalog (all series pre-registered by ServiceMetricHandles so
 * an export always covers every cache tier, pipeline pass, and job
 * state, even at zero). These series are the service's only counters:
 * JobService::stats() and DiskCache::stats() read them back, so
 * services sharing one bundle also share their stats():
 *
 *   powermove_jobs_submitted_total           counter
 *   powermove_job_states_total{state=...}    counter, all 8 JobStates
 *   powermove_jobs_tier_total{tier=...}      counter, the 4 serving
 *                                            tiers: coalesced / memory
 *                                            / disk / miss
 *   powermove_compile_failures_total         counter, worker compiles
 *                                            that threw (one per run,
 *                                            not per waiter)
 *   powermove_job_wait_us{priority=...}      histogram of queue wait,
 *                                            per priority class
 *                                            (low / normal / high)
 *   powermove_job_run_us{priority=...}       histogram of on-worker
 *                                            compile time
 *   powermove_pass_wall_us{pass=...}         histogram, per-job wall
 *                                            time of each of the 6
 *                                            pipeline passes
 *   powermove_pass_invocations_total{pass=.} counter
 *   powermove_pass_counter_total{pass=.,counter=.}
 *                                            counter, folded from the
 *                                            PassProfile counters
 *   powermove_shard_queue_depth{shard=...}   gauge, queued jobs per shard
 *   powermove_shard_imbalance                gauge, max-min queue depth
 *   powermove_memory_cache_evictions_total   counter
 *   powermove_disk_cache_*                   see service/disk_cache.cpp
 *
 * Trace-span hierarchy (one tid lane per job, Chrome trace JSON):
 *
 *   queued    [span]  submit -> admission outcome
 *   admitted  [span]  shard queue wait
 *   running   [span]  on-worker compilation
 *     <pass>  [span]  one per pipeline pass, laid out sequentially
 *                     inside `running` from the pass's profiled wall
 *                     time (synthetic offsets, measured durations)
 *   disk-read / disk-write [span]  real-timestamped cache-tier I/O
 *   done/cached/failed/rejected/expired [instant]  terminal marker
 */

#ifndef POWERMOVE_SERVICE_OBSERVE_HPP
#define POWERMOVE_SERVICE_OBSERVE_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compiler/profile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/timeline.hpp"

namespace powermove::service {

/** Number of serving tiers a submission can resolve to. */
inline constexpr std::size_t kNumTiers = 4;

/** Tier index for the tier-attribution counters. */
enum class TierIndex : std::size_t
{
    Coalesced = 0,
    Memory = 1,
    Disk = 2,
    Miss = 3,
};

/** Stable tier label, e.g. "memory". */
std::string_view tierName(TierIndex tier);

/** Number of priority classes the latency histograms distinguish. */
inline constexpr std::size_t kNumPriorityClasses = 3;

/** 0 = low (< 0), 1 = normal (0), 2 = high (> 0). */
std::size_t priorityClassIndex(int priority);

/** Stable priority-class label, e.g. "normal". */
std::string_view priorityClassName(int priority);

/**
 * Every service-layer metric handle, registered and resolved once at
 * service construction so the instrumented paths touch only atomics.
 * Registering twice against the same registry returns the same
 * underlying series.
 */
struct ServiceMetricHandles
{
    explicit ServiceMetricHandles(obs::MetricsRegistry &registry);

    obs::Counter *submitted;
    std::array<obs::Counter *, kNumJobStates> state_total;
    std::array<obs::Counter *, kNumTiers> tier_total;
    obs::Counter *compile_failures;
    std::array<obs::Histogram *, kNumPriorityClasses> wait_us;
    std::array<obs::Histogram *, kNumPriorityClasses> run_us;
    std::array<obs::Histogram *, kNumPasses> pass_wall_us;
    std::array<obs::Counter *, kNumPasses> pass_invocations;
    obs::Counter *memory_cache_evictions;
    obs::Gauge *shard_imbalance;

    /** The job_states_total / jobs_tier_total series of @p s / @p t. */
    obs::Counter &state(JobState s) const
    {
        return *state_total[static_cast<std::size_t>(s)];
    }
    obs::Counter &tier(TierIndex t) const
    {
        return *tier_total[static_cast<std::size_t>(t)];
    }

    /**
     * Folds one compiled job's PassProfiles in: per pass, the wall time
     * becomes one histogram observation, invocations accumulate, and
     * every profile counter lands on
     * powermove_pass_counter_total{pass, counter}.
     */
    void foldPassProfiles(const std::vector<PassProfile> &profiles);

    /**
     * The folded totals read back as PassProfiles, in pipeline order:
     * every pass with an invocation, its summed wall time, and its
     * counters in the order this fold first saw them (on a shared
     * registry, counters only another service folded are left out).
     */
    std::vector<PassProfile> passTotals() const;

  private:
    obs::MetricsRegistry &registry_;
    /** Guards pass_counters_ (the handle lists, not their values). */
    mutable std::mutex pass_counters_mutex_;
    /** Per pass, the counter handles in first-fold order. */
    std::array<std::vector<std::pair<std::string, obs::Counter *>>,
               kNumPasses>
        pass_counters_;
};

/** Real-timestamped disk-tier I/O of the worker that resolved a job. */
struct JobTraceIo
{
    using Clock = std::chrono::steady_clock;

    bool read = false;
    Clock::time_point read_start;
    Clock::time_point read_end;
    bool read_hit = false;

    bool write = false;
    Clock::time_point write_start;
    Clock::time_point write_end;
};

/**
 * Stitches one job's record into trace spans on @p trace (tid = job
 * id): one span per non-terminal timeline state, an instant marker for
 * the terminal state, one synthetic-offset span per pipeline pass when
 * @p passes is non-null (the compiled job only), and real disk
 * read/write spans from @p io. @p source annotates the terminal marker
 * with the serving tier.
 */
void appendJobTrace(obs::TraceCollector &trace, std::uint64_t job_id,
                    const Timeline &timeline,
                    const std::vector<PassProfile> *passes,
                    std::string_view source,
                    const JobTraceIo *io = nullptr);

} // namespace powermove::service

#endif // POWERMOVE_SERVICE_OBSERVE_HPP
