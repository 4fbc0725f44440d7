/**
 * @file
 * Tests for the async JobService: lifecycle timelines, priority
 * ordering, deadline expiry, admission control, sharding, the disk
 * tier, and determinism against the effectiveOptions() replay rule.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compiler/powermove.hpp"
#include "isa/validator.hpp"
#include "obs/observability.hpp"
#include "service/disk_cache.hpp"
#include "service/fingerprint.hpp"
#include "service/job_service.hpp"

namespace powermove::service {
namespace {

namespace fs = std::filesystem;

/** A fresh empty directory under the system temp dir, removed on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("powermove_job_service_" + tag + "_" +
                 std::to_string(static_cast<unsigned long>(::getpid()))))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    ~TempDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** A small distinct job: a 4-qubit chain with @p variant CZ blocks. */
CompileJob
smallJob(std::size_t variant = 1)
{
    Circuit circuit(4);
    for (std::size_t i = 0; i < variant; ++i) {
        circuit.append(CzGate{0, 1});
        circuit.append(CzGate{2, 3});
        circuit.barrier();
        circuit.append(CzGate{1, 2});
        circuit.barrier();
    }
    return CompileJob{std::move(circuit), MachineConfig::forQubits(4), {}};
}

/** JobServiceOptions with just the geometry and cache capacity set. */
JobServiceOptions
shardOptions(std::size_t shards, std::size_t workers,
             std::size_t cache_capacity)
{
    JobServiceOptions options;
    options.num_shards = shards;
    options.workers_per_shard = workers;
    options.cache_capacity = cache_capacity;
    return options;
}

TEST(TimelineTest, RecordsAndQueriesTransitions)
{
    Timeline timeline;
    EXPECT_TRUE(timeline.events().empty());
    EXPECT_FALSE(timeline.finished());

    using Clock = std::chrono::steady_clock;
    const Clock::time_point base = Clock::now();
    timeline.record(JobState::Queued, base);
    timeline.record(JobState::Admitted, base + std::chrono::milliseconds(2));
    timeline.record(JobState::Running, base + std::chrono::milliseconds(5));
    timeline.record(JobState::Done, base + std::chrono::milliseconds(9));

    ASSERT_EQ(timeline.events().size(), 4u);
    EXPECT_EQ(timeline.current(), JobState::Done);
    EXPECT_TRUE(timeline.finished());

    EXPECT_DOUBLE_EQ(
        timeline.between(JobState::Admitted, JobState::Running).micros(),
        3000.0);
    EXPECT_DOUBLE_EQ(timeline.total().micros(), 9000.0);

    EXPECT_EQ(jobStateName(JobState::Queued), "queued");
    EXPECT_EQ(jobStateName(JobState::Rejected), "rejected");
    EXPECT_FALSE(jobStateIsTerminal(JobState::Running));
    EXPECT_TRUE(jobStateIsTerminal(JobState::Expired));
}

TEST(JobServiceTest, SubmitReturnsIdAndTracksLifecycle)
{
    JobService svc(shardOptions(2, 1, 16));
    const CompileJob job = smallJob();
    JobTicket ticket = svc.submit(job);
    EXPECT_GT(ticket.id, 0u);

    const JobResult out = ticket.result.get();
    ASSERT_TRUE(out.result);
    EXPECT_EQ(out.source, ResultSource::Compiled);
    EXPECT_EQ(out.fingerprint, jobFingerprint(job));
    validateAgainstCircuit(out.result->schedule, job.circuit);

    const auto status = svc.status(ticket.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->id, ticket.id);
    EXPECT_EQ(status->fingerprint, jobFingerprint(job));
    EXPECT_EQ(status->state, JobState::Done);
    EXPECT_TRUE(status->error.empty());

    // The timeline walked Queued → Admitted → Running → Done, in order.
    const auto &events = status->timeline.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].state, JobState::Queued);
    EXPECT_EQ(events[1].state, JobState::Admitted);
    EXPECT_EQ(events[2].state, JobState::Running);
    EXPECT_EQ(events[3].state, JobState::Done);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].at.time_since_epoch().count(),
                  events[i - 1].at.time_since_epoch().count());

    EXPECT_FALSE(svc.status(ticket.id + 1000).has_value());
}

TEST(JobServiceTest, MemoryHitResolvesAtSubmitAsCached)
{
    JobService svc(shardOptions(1, 1, 16));
    const CompileJob job = smallJob();
    (void)svc.submit(job).result.get();

    JobTicket second = svc.submit(job);
    const JobResult out = second.result.get();
    EXPECT_EQ(out.source, ResultSource::Memory);
    EXPECT_TRUE(out.from_cache);

    const auto status = svc.status(second.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Cached);
    // Queued → Cached, with no Admitted/Running detour.
    ASSERT_EQ(status->timeline.events().size(), 2u);

    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.compiled, 1u);
    EXPECT_EQ(stats.memory_hits, 1u);
}

TEST(JobServiceTest, FailureIsRecordedWithItsMessage)
{
    JobService svc(shardOptions(1, 1, 16));
    CompileJob bad = smallJob();
    bad.options.num_aods = 0; // rejected by the compiler's constructor

    JobTicket ticket = svc.submit(bad);
    EXPECT_THROW(ticket.result.get(), ConfigError);

    const auto status = svc.status(ticket.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Failed);
    EXPECT_FALSE(status->error.empty());
    EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(JobServiceTest, AdmissionControlRejectsBeyondMaxQueue)
{
    // One shard, one worker, and a queue bound of 1. Block the worker
    // with a stream of distinct jobs, then overfill the queue.
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.cache_capacity = 0; // no memory short-circuit
    options.max_queue = 1;

    JobService svc(options);
    std::vector<JobTicket> tickets;
    std::size_t rejected = 0;
    // With a bound of 1 and steady submission pressure, at least the
    // tail of this burst must be rejected: the worker cannot drain 24
    // distinct jobs before the last submissions arrive.
    for (std::size_t v = 1; v <= 24; ++v)
        tickets.push_back(svc.submit(smallJob(v)));
    for (JobTicket &ticket : tickets) {
        try {
            (void)ticket.result.get();
        } catch (const RejectedError &) {
            ++rejected;
            const auto status = svc.status(ticket.id);
            ASSERT_TRUE(status.has_value());
            EXPECT_EQ(status->state, JobState::Rejected);
            EXPECT_NE(status->error.find("queue full"), std::string::npos);
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_EQ(svc.stats().rejected, rejected);
    // Rejection is immediate — the future is already resolved at
    // submit() — and never wedges the service.
    svc.waitIdle();
}

TEST(JobServiceTest, HigherPriorityJobsRunFirst)
{
    // One worker; jam it with a decoy so the real submissions queue up,
    // then check completion order follows priority, not arrival.
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.cache_capacity = 0;

    for (int attempt = 0; attempt < 8; ++attempt) {
        JobService svc(options);
        (void)svc.submit(smallJob(12)); // decoy occupies the worker
        JobTicket low = svc.submit(smallJob(1), /*priority=*/-5);
        JobTicket high = svc.submit(smallJob(2), /*priority=*/5);
        svc.waitIdle();

        const auto low_status = svc.status(low.id);
        const auto high_status = svc.status(high.id);
        ASSERT_TRUE(low_status && high_status);
        ASSERT_EQ(low_status->state, JobState::Done);
        ASSERT_EQ(high_status->state, JobState::Done);

        // The worker may have popped the low-priority job before the
        // high one was even submitted; retry until the race lands the
        // intended way (the decoy makes that overwhelmingly likely).
        const auto high_done = high_status->timeline.events().back().at;
        const auto low_done = low_status->timeline.events().back().at;
        if (high_done <= low_done)
            return; // observed: high finished no later than low
    }
    FAIL() << "high-priority job never finished before the low one";
}

TEST(JobServiceTest, DuplicateSubmissionInheritsTheHigherPriority)
{
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.cache_capacity = 0;

    for (int attempt = 0; attempt < 8; ++attempt) {
        JobService svc(options);
        (void)svc.submit(smallJob(12)); // occupy the worker
        JobTicket first = svc.submit(smallJob(3), /*priority=*/-1);
        JobTicket boost = svc.submit(smallJob(3), /*priority=*/9);

        const JobResult a = first.result.get();
        const JobResult b = boost.result.get();
        svc.waitIdle();
        // The decoy and the first job may both have finished before the
        // duplicate arrived, leaving nothing to attach to; retry until
        // the duplicate lands while the first job is still pending.
        if (svc.stats().coalesced == 0)
            continue;

        // Both resolve from the same compilation: one Compiled, one
        // Coalesced, sharing the result object.
        EXPECT_EQ(a.result.get(), b.result.get());
        EXPECT_EQ(a.source, ResultSource::Compiled);
        EXPECT_EQ(b.source, ResultSource::Coalesced);
        EXPECT_EQ(svc.stats().coalesced, 1u);
        return;
    }
    FAIL() << "the duplicate never found the first job pending";
}

TEST(JobServiceTest, WaiterCoalescedOntoADiskReadIsCoalesced)
{
    // One attribution rule for every tier: the submission that created
    // the entry is served by the disk (or the compile); every waiter
    // that attached to it is Coalesced, matching stats().coalesced.
    const TempDir dir("disk_coalesce");
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.cache_dir = dir.str();
    {
        JobService cold(options);
        (void)cold.submit(smallJob(3)).result.get();
    }

    for (int attempt = 0; attempt < 8; ++attempt) {
        JobService warm(options);
        (void)warm.submit(smallJob(12 + attempt)); // occupy the worker
        JobTicket first = warm.submit(smallJob(3));
        JobTicket second = warm.submit(smallJob(3));

        const JobResult a = first.result.get();
        const JobResult b = second.result.get();
        warm.waitIdle();
        const JobServiceStats stats = warm.stats();
        // The worker may have served the disk read before the duplicate
        // arrived (the duplicate is then a memory hit); retry.
        if (stats.coalesced == 0)
            continue;

        EXPECT_EQ(a.source, ResultSource::Disk);
        EXPECT_EQ(b.source, ResultSource::Coalesced);
        EXPECT_TRUE(b.from_cache);
        EXPECT_EQ(a.result.get(), b.result.get());
        EXPECT_EQ(stats.coalesced, 1u);
        EXPECT_EQ(stats.disk_hits, 1u);
        EXPECT_EQ(stats.memory_hits, 0u);
        // Every submission is counted in exactly one tier.
        EXPECT_EQ(stats.coalesced + stats.memory_hits + stats.disk_hits +
                      stats.compiled + stats.failed,
                  stats.submitted);
        return;
    }
    FAIL() << "the duplicate never found the disk read pending";
}

TEST(JobServiceTest, CoalescedWaiterStaysCoalescedWhenItsCreatorExpires)
{
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.cache_capacity = 0;

    for (int attempt = 0; attempt < 8; ++attempt) {
        JobService svc(options);
        (void)svc.submit(smallJob(12)); // occupy the worker
        // The creator expires the moment a worker looks; its duplicate
        // has no deadline and is compiled for.
        JobTicket creator =
            svc.submit(smallJob(4), /*priority=*/0, /*deadline_ms=*/1e-6);
        JobTicket duplicate = svc.submit(smallJob(4));

        EXPECT_THROW(creator.result.get(), ExpiredError);
        const JobResult out = duplicate.result.get();
        svc.waitIdle();
        // The creator may have expired before the duplicate arrived,
        // leaving nothing to attach to; retry.
        if (svc.stats().coalesced == 0)
            continue;

        EXPECT_EQ(out.source, ResultSource::Coalesced);
        ASSERT_TRUE(out.result);
        EXPECT_EQ(svc.stats().expired, 1u);
        return;
    }
    FAIL() << "the duplicate never found the creator queued";
}

TEST(JobServiceTest, ExpiredDeadlineFailsWhileQueuedJobs)
{
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.cache_capacity = 0;

    JobService svc(options);
    (void)svc.submit(smallJob(10)); // keep the worker busy
    // An already-impossible deadline: expired the moment a worker looks.
    JobTicket doomed =
        svc.submit(smallJob(2), /*priority=*/0, /*deadline_ms=*/1e-6);
    EXPECT_THROW(doomed.result.get(), ExpiredError);

    const auto status = svc.status(doomed.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Expired);
    EXPECT_EQ(svc.stats().expired, 1u);
    svc.waitIdle();
}

TEST(JobServiceTest, GenerousDeadlineDoesNotExpire)
{
    JobService svc(shardOptions(2, 1, 16));
    JobTicket ticket =
        svc.submit(smallJob(), /*priority=*/0, /*deadline_ms=*/60000.0);
    const JobResult out = ticket.result.get();
    ASSERT_TRUE(out.result);
    EXPECT_EQ(svc.stats().expired, 0u);
}

TEST(JobServiceTest, ShardsPartitionJobsByFingerprint)
{
    JobServiceOptions options;
    options.num_shards = 4;
    options.workers_per_shard = 1;
    JobService svc(options);
    EXPECT_EQ(svc.options().num_shards, 4u);

    std::vector<JobTicket> tickets;
    for (std::size_t v = 1; v <= 12; ++v)
        tickets.push_back(svc.submit(smallJob(v)));
    for (JobTicket &ticket : tickets)
        EXPECT_TRUE(ticket.result.get().result != nullptr);

    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 12u);
    EXPECT_EQ(stats.compiled, 12u);
    EXPECT_EQ(stats.queued, 0u);
}

TEST(JobServiceTest, DiskTierServesAcrossServiceInstances)
{
    const TempDir dir("disk_tier");
    JobServiceOptions options;
    options.num_shards = 2;
    options.workers_per_shard = 1;
    options.cache_dir = dir.str();

    std::string fresh_bytes;
    {
        JobService cold(options);
        fresh_bytes = serializeCompileResult(
            *cold.submit(smallJob()).result.get().result);
        EXPECT_EQ(cold.stats().disk.stores, 1u);
    }

    JobService warm(options);
    JobTicket ticket = warm.submit(smallJob());
    const JobResult out = ticket.result.get();
    EXPECT_EQ(out.source, ResultSource::Disk);
    EXPECT_TRUE(out.from_cache);
    EXPECT_EQ(serializeCompileResult(*out.result), fresh_bytes);

    const auto status = warm.status(ticket.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Cached);
    EXPECT_EQ(warm.stats().disk_hits, 1u);
    EXPECT_EQ(warm.stats().compiled, 0u);
}

TEST(JobServiceTest, ResultsMatchEffectiveOptionsReplay)
{
    // The determinism bar: whatever the shard/priority/cache path, the
    // service's schedule is byte-identical to a single-threaded direct
    // compile with effectiveOptions().
    JobServiceOptions options;
    options.num_shards = 3;
    options.workers_per_shard = 2;
    JobService svc(options);

    std::vector<CompileJob> jobs;
    for (std::size_t v = 1; v <= 6; ++v)
        jobs.push_back(smallJob(v));

    std::vector<JobTicket> tickets;
    for (std::size_t v = 0; v < jobs.size(); ++v)
        tickets.push_back(
            svc.submit(jobs[v], static_cast<int>(v % 3) - 1));

    for (std::size_t v = 0; v < jobs.size(); ++v) {
        const JobResult out = tickets[v].result.get();
        const Machine machine(jobs[v].machine);
        const PowerMoveCompiler direct(machine, effectiveOptions(jobs[v]));
        EXPECT_EQ(serializeResultWitness(*out.result),
                  serializeResultWitness(direct.compile(jobs[v].circuit)))
            << "job variant " << (v + 1);
    }
}

TEST(JobServiceTest, FinishedRecordPruningForgetsOldestFirst)
{
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.max_finished_records = 2;
    JobService svc(options);

    JobTicket a = svc.submit(smallJob(1));
    (void)a.result.get();
    JobTicket b = svc.submit(smallJob(2));
    (void)b.result.get();
    JobTicket c = svc.submit(smallJob(3));
    (void)c.result.get();
    svc.waitIdle();

    // Only the two most recently finished jobs remain queryable.
    EXPECT_FALSE(svc.status(a.id).has_value());
    EXPECT_TRUE(svc.status(b.id).has_value());
    EXPECT_TRUE(svc.status(c.id).has_value());
}

/** The value of counter @p name{@p labels} in a MetricsRegistry::toJson(). */
std::uint64_t
jsonCounter(const std::string &json, const std::string &name,
            const std::string &labels = "{}")
{
    const std::string key =
        "{\"name\":\"" + name + "\",\"labels\":" + labels + ",\"value\":";
    const std::size_t at = json.find(key);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no series " << name << labels;
        return 0;
    }
    return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

/** Every counter field of @p stats, for the monotonicity check. */
std::vector<std::size_t>
counterFields(const JobServiceStats &stats)
{
    return {stats.submitted,    stats.rejected,       stats.expired,
            stats.coalesced,    stats.memory_hits,    stats.disk_hits,
            stats.compiled,     stats.failed,         stats.disk.hits,
            stats.disk.misses,  stats.disk.stores,    stats.disk.corrupt,
            stats.disk.evictions};
}

/**
 * Counter property: a seeded random mix of duplicates, a 1-entry memory
 * cache, a disk tier, queue-bound rejections, already-passed deadlines
 * and failing compiles, run with a caller's bundle and without one.
 * The stats() counters are reads of the metrics registry, so they must
 * add up, match the exported series, and never step backwards under a
 * concurrent reader.
 */
class JobServiceCounterTest : public ::testing::TestWithParam<bool>
{};

TEST_P(JobServiceCounterTest, CountersAddUpOverARandomMix)
{
    const bool with_bundle = GetParam();
    const TempDir dir(with_bundle ? "counters_bundle" : "counters_private");
    std::shared_ptr<obs::Observability> bundle;
    if (with_bundle)
        bundle = std::make_shared<obs::Observability>(
            obs::ObservabilityOptions{obs::LogLevel::Off});
    JobServiceOptions options = shardOptions(2, 2, 1);
    options.max_queue = 1;
    options.cache_dir = dir.str();
    options.obs = bundle;

    testing::internal::CaptureStderr();
    JobServiceStats stats;
    std::string json;
    std::size_t trace_events = 0;
    std::size_t submitted = 0;
    {
        JobService svc(options);
        std::atomic<bool> done{false};
        std::thread reader([&] {
            std::vector<std::size_t> previous = counterFields(svc.stats());
            while (!done.load()) {
                const std::vector<std::size_t> now = counterFields(svc.stats());
                for (std::size_t f = 0; f < now.size(); ++f)
                    EXPECT_GE(now[f], previous[f]) << "field " << f;
                previous = now;
            }
        });

        // Bursts of 1..4 submissions, each drained before the next, so
        // the queue bound rejects inside a burst while repeats across
        // bursts reach the memory and disk tiers.
        Rng rng(with_bundle ? 7 : 11);
        while (submitted < 160) {
            std::vector<JobTicket> burst;
            for (std::size_t b = 1 + rng.nextBelow(4); b > 0; --b) {
                CompileJob job = smallJob(1 + rng.nextBelow(6));
                if (rng.nextBelow(8) == 0)
                    job.options.num_aods = 0; // fails in the compiler
                const double deadline_ms =
                    rng.nextBelow(6) == 0 ? 1e-6 : 0.0;
                const int priority = static_cast<int>(rng.nextBelow(3)) - 1;
                burst.push_back(
                    svc.submit(std::move(job), priority, deadline_ms));
                ++submitted;
            }
            for (JobTicket &ticket : burst) {
                try {
                    (void)ticket.result.get();
                } catch (const Error &) {
                    // Rejected, Expired, or the failing compile.
                }
            }
        }
        svc.waitIdle();
        done.store(true);
        reader.join();

        stats = svc.stats();
        json = svc.observability().metrics.toJson();
        trace_events = svc.observability().trace.size();
    }
    const std::string err = testing::internal::GetCapturedStderr();

    const auto state = [&](JobState s) {
        return jsonCounter(json, "powermove_job_states_total",
                           "{\"state\":\"" + std::string(jobStateName(s)) +
                               "\"}");
    };
    const auto tier = [&](TierIndex t) {
        return jsonCounter(json, "powermove_jobs_tier_total",
                           "{\"tier\":\"" + std::string(tierName(t)) + "\"}");
    };
    EXPECT_EQ(stats.submitted, submitted);
    EXPECT_EQ(state(JobState::Cached) + state(JobState::Done) +
                  state(JobState::Failed) + state(JobState::Rejected) +
                  state(JobState::Expired),
              stats.submitted);
    EXPECT_EQ(tier(TierIndex::Miss), stats.compiled + stats.failed);
    EXPECT_EQ(stats.queued, 0u);

    // Every stats() field is a read of its series.
    EXPECT_EQ(jsonCounter(json, "powermove_jobs_submitted_total"),
              stats.submitted);
    EXPECT_EQ(state(JobState::Rejected), stats.rejected);
    EXPECT_EQ(state(JobState::Expired), stats.expired);
    EXPECT_EQ(tier(TierIndex::Coalesced), stats.coalesced);
    EXPECT_EQ(tier(TierIndex::Memory), stats.memory_hits);
    EXPECT_EQ(tier(TierIndex::Disk), stats.disk_hits);
    EXPECT_EQ(jsonCounter(json, "powermove_compile_failures_total"),
              stats.failed);
    EXPECT_EQ(jsonCounter(json, "powermove_disk_cache_hits_total"),
              stats.disk.hits);
    EXPECT_EQ(jsonCounter(json, "powermove_disk_cache_misses_total"),
              stats.disk.misses);
    EXPECT_EQ(jsonCounter(json, "powermove_disk_cache_stores_total"),
              stats.disk.stores);
    EXPECT_EQ(jsonCounter(json, "powermove_disk_cache_corrupt_total"),
              stats.disk.corrupt);
    EXPECT_EQ(jsonCounter(json, "powermove_disk_cache_evictions_total"),
              stats.disk.evictions);
    EXPECT_EQ(stats.disk.hits, stats.disk_hits);
    EXPECT_EQ(stats.disk.stores, stats.compiled);

    if (with_bundle) {
        EXPECT_GT(trace_events, 0u);
    } else {
        // No caller's bundle: counters count, but nothing is logged or
        // traced.
        EXPECT_EQ(err, "");
        EXPECT_EQ(trace_events, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Bundle, JobServiceCounterTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "WithBundle" : "Private";
                         });

} // namespace
} // namespace powermove::service
