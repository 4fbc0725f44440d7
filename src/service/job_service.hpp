/**
 * @file
 * The compilation service: priorities, deadlines, admission control,
 * and fingerprint-sharded worker pools over a content-addressed result
 * cache.
 *
 * submit() returns immediately with a job ID plus a future, every
 * lifecycle transition lands in a queryable per-job timeline
 * (service/timeline.hpp), and the service pushes back instead of
 * buffering unboundedly.
 *
 *  - Tiers: submit() fingerprints the job (service/fingerprint.hpp) and,
 *    under its shard's lock, resolves it against the fast tiers: an
 *    identical job already *in flight* (the new future attaches to it —
 *    no duplicate work), a memory-cached result (the future is ready
 *    immediately), or a fresh entry queued for a worker. A worker
 *    consults the optional persistent disk cache
 *    (service/disk_cache.hpp) and compiles only on a full miss, then
 *    fulfills every attached future: the submission that created the
 *    entry is attributed Compiled or Disk, every later one Coalesced.
 *    Successful results enter the LRU memory cache and the disk cache;
 *    failures propagate through each waiting future and are never
 *    cached.
 *  - Priority: higher-priority jobs pop first within their shard; ties
 *    run in submission order. A duplicate submission of an in-flight
 *    fingerprint at a higher priority promotes the queued job
 *    (priority inheritance), so a cheap duplicate can never be starved
 *    behind the original's low priority.
 *  - Deadlines: a job's optional deadline bounds its *queue wait*. A
 *    job still queued when its deadline passes is Expired and its
 *    future fails; once a compilation started (or the job attached to
 *    one already running), it completes. Expiry is detected when a
 *    worker pops the job — there is no timer thread.
 *  - Admission control: each shard accepts at most
 *    JobServiceOptions::max_queue queued (not yet running) jobs;
 *    beyond that, submissions are Rejected and their future fails with
 *    RejectedError immediately, so overload surfaces as backpressure
 *    at the edge instead of unbounded memory growth.
 *  - Sharding: jobs land on shard (fingerprint % num_shards). Each
 *    shard owns its queue, mutex, worker threads, in-memory LRU cache,
 *    and machine interning, so jobs for independent machine configs
 *    never contend on one queue or one cache lock. All shards share
 *    one persistent DiskCache (its index lock covers bookkeeping only,
 *    never file I/O or deserialization).
 *  - Machines are interned per shard by config fingerprint and handed
 *    out as shared_ptrs, because a MachineSchedule references its
 *    Machine: a JobResult keeps its machine alive no matter what the
 *    service does afterwards, and a config nothing references any more
 *    is rebuilt on next use.
 *
 * Determinism: each job compiles with the deriveJobSeed() rule
 * (service/job.hpp), so results are independent of shard count, worker
 * count, priority order, and cache state — effectiveOptions() replays
 * any job bit-identically outside the service, and a result served
 * from disk is byte-identical to a fresh compile.
 *
 * Thread safety: every public member function may be called from any
 * thread. The Machine, Circuit, and CompileResult objects handed out
 * are immutable and safe to read concurrently.
 */

#ifndef POWERMOVE_SERVICE_JOB_SERVICE_HPP
#define POWERMOVE_SERVICE_JOB_SERVICE_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "arch/machine.hpp"
#include "common/error.hpp"
#include "service/cache.hpp"
#include "service/disk_cache.hpp"
#include "service/job.hpp"
#include "service/observe.hpp"
#include "service/timeline.hpp"

namespace powermove::service {

/** Thrown through the future of a job refused by admission control. */
class RejectedError : public Error
{
  public:
    explicit RejectedError(const std::string &what) : Error(what) {}
};

/** Thrown through the future of a job whose deadline passed in queue. */
class ExpiredError : public Error
{
  public:
    explicit ExpiredError(const std::string &what) : Error(what) {}
};

/** Server-assigned job identifier; unique within one JobService. */
using JobId = std::uint64_t;

/** One async submission: the compile job plus its scheduling class. */
struct JobRequest
{
    CompileJob job;
    /** Larger runs earlier within the shard; may be negative. */
    int priority = 0;
    /**
     * Queue-wait bound in milliseconds from submission; 0 (the
     * default) means no deadline.
     */
    double deadline_ms = 0.0;
};

/** What submit() hands back. */
struct JobTicket
{
    JobId id = 0;
    /** Resolves to the result, or throws (Rejected/Expired/compile). */
    std::future<JobResult> result;
};

/** A point-in-time copy of one job's record; queryable forever. */
struct JobStatus
{
    JobId id = 0;
    std::uint64_t fingerprint = 0;
    int priority = 0;
    JobState state = JobState::Queued;
    /** Full transition history with timestamps. */
    Timeline timeline;
    /** Failure/rejection/expiry description; empty on success paths. */
    std::string error;
};

/** Service construction knobs. */
struct JobServiceOptions
{
    /** Worker-pool shards; 0 picks min(hardware threads, 4). */
    std::size_t num_shards = 0;
    /**
     * Worker threads per shard; 0 spreads one hardware thread per
     * worker across shards (at least 1 per shard).
     */
    std::size_t workers_per_shard = 0;
    /** Per-shard in-memory result cache entries; 0 disables. */
    std::size_t cache_capacity = 128;
    /**
     * Admission bound: maximum queued (admitted, not yet running) jobs
     * per shard; 0 means unbounded. Submissions beyond it are Rejected.
     */
    std::size_t max_queue = 1024;
    /** Persistent disk cache directory; empty disables the disk tier. */
    std::string cache_dir;
    /** Disk-cache byte budget. */
    std::uint64_t disk_cache_bytes = 256ull << 20;
    /**
     * Apply the deriveJobSeed() rule (the default). Disable to compile
     * every job with its verbatim CompilerOptions::seed, matching a
     * direct PowerMoveCompiler invocation.
     */
    bool derive_job_seeds = true;
    /**
     * Finished-job records retained for status() queries; the oldest
     * finished records are forgotten beyond this. 0 keeps every record
     * for the service's lifetime.
     */
    std::size_t max_finished_records = 1 << 20;
    /**
     * Observability bundle shared with the disk cache. Null (the
     * default) gives the service a private bundle with logging off:
     * its counters still count (stats() reads them), but nothing is
     * exported, logged or traced.
     */
    std::shared_ptr<obs::Observability> obs;
    /**
     * Jobs whose submit-to-terminal wall time is at least this many
     * milliseconds log one warn-level slow_job line; 0 disables.
     */
    double slow_job_ms = 0.0;
};

/**
 * Counters read back from the service's metrics registry; all
 * cumulative except queued. Counters are bumped before the promise
 * they account for is fulfilled, so a resolved future is always
 * counted; while jobs are in flight the fields are not one atomic
 * snapshot of each other.
 */
struct JobServiceStats
{
    std::size_t submitted = 0;
    /** Refused by admission control. */
    std::size_t rejected = 0;
    /** Deadline passed while queued. */
    std::size_t expired = 0;
    /** Attached to an identical in-flight job. */
    std::size_t coalesced = 0;
    /** Served from a shard's memory cache at submit. */
    std::size_t memory_hits = 0;
    /** Served from the persistent disk cache by a worker. */
    std::size_t disk_hits = 0;
    /** Compiled fresh (full miss), successfully. */
    std::size_t compiled = 0;
    /** Worker compilations that threw (once per run, not per waiter). */
    std::size_t failed = 0;
    /** Jobs currently admitted but not yet resolved, across shards. */
    std::size_t queued = 0;
    std::size_t num_shards = 0;
    std::size_t workers_per_shard = 0;
    /** Disk-tier counters; all zero without a cache_dir. */
    DiskCacheStats disk;
    /**
     * Per-pass profiles aggregated over every profiled job compiled on
     * a worker (cache hits re-run nothing and add nothing), in pipeline
     * order. Empty until a profiled job completes.
     */
    std::vector<PassProfile> pass_totals;
};

/** Async, sharded, admission-controlled, cache-fronted compiler. */
class JobService
{
  public:
    explicit JobService(JobServiceOptions options = {});

    /** Drains every admitted job (expiring overdue ones), then joins. */
    ~JobService();

    JobService(const JobService &) = delete;
    JobService &operator=(const JobService &) = delete;

    /**
     * Submits one job. Never blocks on compilation: the returned future
     * resolves later (or is already resolved for cache hits, rejections
     * and the degenerate already-expired deadline).
     */
    JobTicket submit(JobRequest request);

    /** Convenience overload building the request in place. */
    JobTicket submit(CompileJob job, int priority = 0,
                     double deadline_ms = 0.0);

    /**
     * The record of @p id, or nullopt for an unknown/forgotten job.
     * Finished jobs stay queryable (bounded by max_finished_records).
     */
    std::optional<JobStatus> status(JobId id) const;

    /** Blocks until no admitted job remains in any shard. */
    void waitIdle();

    /**
     * The counters, read from the metrics registry (see
     * JobServiceStats); writes nothing.
     */
    JobServiceStats stats() const;

    /** The options this service resolved at construction. */
    const JobServiceOptions &options() const { return options_; }

    /** The bundle in use: options().obs, or the private one. */
    obs::Observability &observability() const { return *obs_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Waiter
    {
        JobId id = 0;
        std::promise<JobResult> promise;
        /** Meaningful only when has_deadline. */
        Clock::time_point deadline;
        bool has_deadline = false;
        /** Attached to an existing entry (counted as coalesced). */
        bool coalesced = false;
    };

    struct PendingJob
    {
        CompileJob job;
        int priority = 0;
        std::uint64_t seq = 0;
        bool running = false;
        std::vector<Waiter> waiters;
    };

    /** Max-priority, then FIFO; stale entries are skipped on pop. */
    struct QueueEntry
    {
        int priority = 0;
        std::uint64_t seq = 0;
        std::uint64_t fingerprint = 0;

        bool
        operator<(const QueueEntry &other) const
        {
            if (priority != other.priority)
                return priority < other.priority;
            return seq > other.seq; // earlier submissions first
        }
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::condition_variable work_ready;
        std::condition_variable idle;
        bool stopping = false;
        std::priority_queue<QueueEntry> queue;
        std::unordered_map<std::uint64_t, PendingJob> pending;
        /** Admitted jobs not yet running (the admission-control gauge). */
        std::size_t queued_jobs = 0;
        CompileCache cache;
        std::unordered_map<std::uint64_t, std::weak_ptr<const Machine>>
            machines;
        std::vector<std::thread> workers;
        /** powermove_shard_queue_depth{shard=...}. */
        obs::Gauge *depth_gauge = nullptr;

        explicit Shard(std::size_t cache_capacity) : cache(cache_capacity) {}
    };

    Shard &shardFor(std::uint64_t fingerprint);

    /**
     * Publishes @p shard's queue depth (caller holds its lock) and
     * refreshes powermove_shard_imbalance from every shard's gauge.
     */
    void publishDepth(Shard &shard);
    void workerLoop(Shard &shard);

    /** Interned machine for @p config within @p shard (builds on miss). */
    std::shared_ptr<const Machine>
    internMachine(Shard &shard, const MachineConfig &config,
                  std::unique_lock<std::mutex> &lock);

    /** Creates the record for a new job in state Queued. */
    void createRecord(JobId id, std::uint64_t fingerprint, int priority);

    /**
     * Appends @p state (and optional error) to @p id's record. @p detail
     * refines the timeline event (e.g. "memory" vs "disk" for Cached).
     * Feeds the state counters and, on terminal states, the wait/run
     * latency histograms and the slow-job log.
     */
    void recordState(JobId id, JobState state, std::string error = {},
                     std::string detail = {});

    /** Resolves each of @p waiters as Expired (no lock held), then clears. */
    void expire(std::vector<Waiter> &waiters);

    /**
     * Stitches @p id's timeline into the trace collector (see
     * appendJobTrace); no-op without a caller's bundle. @p source
     * annotates the terminal marker with the serving tier.
     */
    void traceJob(JobId id, std::string_view source,
                  const std::vector<PassProfile> *passes = nullptr,
                  const JobTraceIo *io = nullptr);

    JobServiceOptions options_;
    /** options_.obs, or a private bundle with logging off. */
    std::shared_ptr<obs::Observability> obs_;
    ServiceMetricHandles metric_;
    std::shared_ptr<DiskCache> disk_;
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex records_mutex_;
    std::unordered_map<JobId, JobStatus> records_;
    /** Finished ids in finish order, for max_finished_records pruning. */
    std::deque<JobId> finished_order_;
    std::atomic<JobId> next_id_{1};
    std::atomic<std::uint64_t> next_seq_{1};
};

} // namespace powermove::service

#endif // POWERMOVE_SERVICE_JOB_SERVICE_HPP
