/**
 * @file
 * Tests for the instrumented service layer: metric-catalog coverage,
 * terminal-state counter consistency, cache-tier attribution, the
 * memory-vs-disk Cached distinction, slow-job logging, and per-job
 * trace spans.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/observability.hpp"
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
                ("powermove_obs_service_" + tag + "_" +
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

/** An observability bundle logging to @p out (or a discard file). */
std::shared_ptr<obs::Observability>
makeBundle(obs::LogLevel level = obs::LogLevel::Off, std::FILE *out = stderr)
{
    return std::make_shared<obs::Observability>(
        obs::ObservabilityOptions{level, out});
}

/** Terminal-state counter value for @p state. */
std::uint64_t
stateCount(obs::MetricsRegistry &registry, JobState state)
{
    return registry
        .counter("powermove_job_states_total",
                 {{"state", std::string(jobStateName(state))}})
        .value();
}

std::uint64_t
tierCount(obs::MetricsRegistry &registry, TierIndex tier)
{
    return registry
        .counter("powermove_jobs_tier_total",
                 {{"tier", std::string(tierName(tier))}})
        .value();
}

std::uint64_t
sumTerminalStates(obs::MetricsRegistry &registry)
{
    std::uint64_t sum = 0;
    for (const JobState state : {JobState::Cached, JobState::Done,
                                 JobState::Failed, JobState::Rejected,
                                 JobState::Expired})
        sum += stateCount(registry, state);
    return sum;
}

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST(ObsServiceTest, ExpositionCoversEveryStateTierAndPassAtZero)
{
    auto bundle = makeBundle();
    JobServiceOptions options;
    options.num_shards = 2;
    options.workers_per_shard = 1;
    options.obs = bundle;
    JobService svc(options);

    // No jobs submitted: every pre-registered series must still export.
    const std::string text = bundle->metrics.toPrometheusText();
    for (std::size_t s = 0; s < kNumJobStates; ++s) {
        const std::string state(jobStateName(static_cast<JobState>(s)));
        EXPECT_NE(text.find("powermove_job_states_total{state=\"" + state +
                            "\"} 0"),
                  std::string::npos)
            << state;
    }
    for (std::size_t t = 0; t < kNumTiers; ++t) {
        const std::string tier(tierName(static_cast<TierIndex>(t)));
        EXPECT_NE(text.find("powermove_jobs_tier_total{tier=\"" + tier +
                            "\"} 0"),
                  std::string::npos)
            << tier;
    }
    for (std::size_t p = 0; p < kNumPasses; ++p) {
        const std::string pass(passName(static_cast<PassId>(p)));
        EXPECT_NE(text.find("powermove_pass_wall_us_count{pass=\"" + pass +
                            "\"} 0"),
                  std::string::npos)
            << pass;
    }
    for (const char *priority : {"low", "normal", "high"}) {
        EXPECT_NE(text.find("powermove_job_wait_us_count{priority=\"" +
                            std::string(priority) + "\"} 0"),
                  std::string::npos)
            << priority;
    }
    EXPECT_NE(text.find("powermove_jobs_submitted_total 0"),
              std::string::npos);
    EXPECT_NE(text.find("powermove_shard_queue_depth{shard=\"0\"}"),
              std::string::npos);
    EXPECT_NE(text.find("powermove_shard_queue_depth{shard=\"1\"}"),
              std::string::npos);
    EXPECT_NE(text.find("powermove_shard_imbalance"), std::string::npos);
    EXPECT_NE(text.find("powermove_memory_cache_evictions_total 0"),
              std::string::npos);
}

TEST(ObsServiceTest, EveryTerminalOutcomeIncrementsExactlyOneStateCounter)
{
    auto bundle = makeBundle();
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.cache_capacity = 16;
    options.obs = bundle;
    JobService svc(options);

    // Done: a fresh compile.
    (void)svc.submit(smallJob(1)).result.get();
    // Cached (memory): the same job again.
    (void)svc.submit(smallJob(1)).result.get();
    // Failed: the compiler's constructor rejects num_aods = 0.
    CompileJob bad = smallJob(2);
    bad.options.num_aods = 0;
    EXPECT_THROW(svc.submit(bad).result.get(), ConfigError);
    // Expired: an already-impossible deadline behind a queued stream.
    (void)svc.submit(smallJob(3));
    JobTicket doomed =
        svc.submit(smallJob(4), /*priority=*/0, /*deadline_ms=*/1e-6);
    EXPECT_THROW(doomed.result.get(), ExpiredError);
    svc.waitIdle();

    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 5u);

    // Exactly one terminal counter per submission, no double counting.
    EXPECT_EQ(sumTerminalStates(bundle->metrics), stats.submitted);
    EXPECT_GE(stateCount(bundle->metrics, JobState::Done), 1u);
    EXPECT_EQ(stateCount(bundle->metrics, JobState::Cached), 1u);
    EXPECT_EQ(stateCount(bundle->metrics, JobState::Failed), 1u);
    EXPECT_EQ(stateCount(bundle->metrics, JobState::Expired), 1u);
    EXPECT_EQ(stateCount(bundle->metrics, JobState::Rejected), 0u);

    // The tier counters mirror the stats-side attribution.
    EXPECT_EQ(tierCount(bundle->metrics, TierIndex::Memory),
              stats.memory_hits);
    EXPECT_EQ(tierCount(bundle->metrics, TierIndex::Coalesced),
              stats.coalesced);
    EXPECT_EQ(tierCount(bundle->metrics, TierIndex::Disk), stats.disk_hits);
    EXPECT_EQ(stateCount(bundle->metrics, JobState::Queued),
              stats.submitted);
    EXPECT_EQ(bundle->metrics.counter("powermove_jobs_submitted_total")
                  .value(),
              stats.submitted);
}

TEST(ObsServiceTest, RejectionsCountTowardTerminalConsistency)
{
    auto bundle = makeBundle();
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.cache_capacity = 0;
    options.max_queue = 1;
    options.obs = bundle;
    JobService svc(options);

    std::vector<JobTicket> tickets;
    for (std::size_t v = 1; v <= 24; ++v)
        tickets.push_back(svc.submit(smallJob(v)));
    for (JobTicket &ticket : tickets) {
        try {
            (void)ticket.result.get();
        } catch (const RejectedError &) {
        }
    }
    svc.waitIdle();

    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 24u);
    EXPECT_GT(stats.rejected, 0u);
    EXPECT_EQ(stateCount(bundle->metrics, JobState::Rejected),
              stats.rejected);
    EXPECT_EQ(sumTerminalStates(bundle->metrics), stats.submitted);
}

TEST(ObsServiceTest, CachedTimelineDistinguishesMemoryFromDisk)
{
    TempDir dir("tiers");
    auto bundle = makeBundle();
    const CompileJob job = smallJob(5);

    {
        // Populate the disk tier, then die.
        JobServiceOptions options;
        options.num_shards = 1;
        options.workers_per_shard = 1;
        options.cache_dir = dir.str();
        JobService svc(options);
        (void)svc.submit(job).result.get();
    }

    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.cache_dir = dir.str();
    options.obs = bundle;
    JobService svc(options);

    // Cold memory, warm disk: a worker deserializes the stored entry.
    JobTicket from_disk = svc.submit(job);
    const JobResult disk_result = from_disk.result.get();
    EXPECT_EQ(disk_result.source, ResultSource::Disk);
    const auto disk_status = svc.status(from_disk.id);
    ASSERT_TRUE(disk_status.has_value());
    EXPECT_EQ(disk_status->state, JobState::Cached);
    const TimelineEvent *disk_event =
        disk_status->timeline.find(JobState::Cached);
    ASSERT_NE(disk_event, nullptr);
    EXPECT_EQ(disk_event->detail, "disk");

    // Now resident in the memory cache: served at submit.
    JobTicket from_memory = svc.submit(job);
    const JobResult memory_result = from_memory.result.get();
    EXPECT_EQ(memory_result.source, ResultSource::Memory);
    const auto memory_status = svc.status(from_memory.id);
    ASSERT_TRUE(memory_status.has_value());
    const TimelineEvent *memory_event =
        memory_status->timeline.find(JobState::Cached);
    ASSERT_NE(memory_event, nullptr);
    EXPECT_EQ(memory_event->detail, "memory");

    // Disk-cache metrics observed the hit.
    EXPECT_GE(bundle->metrics.counter("powermove_disk_cache_hits_total")
                  .value(),
              1u);
    EXPECT_GE(bundle->metrics
                  .counter("powermove_disk_cache_read_bytes_total")
                  .value(),
              1u);
    const std::string text = bundle->metrics.toPrometheusText();
    EXPECT_NE(text.find("powermove_disk_cache_entries"), std::string::npos);
    EXPECT_NE(text.find("powermove_disk_cache_resident_bytes"),
              std::string::npos);
}

TEST(ObsServiceTest, SlowJobThresholdEmitsWarnLine)
{
    std::FILE *capture = std::tmpfile();
    ASSERT_NE(capture, nullptr);
    auto bundle = makeBundle(obs::LogLevel::Warn, capture);

    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.obs = bundle;
    options.slow_job_ms = 1e-6; // every finished job is "slow"
    {
        JobService svc(options);
        (void)svc.submit(smallJob(1)).result.get();
        svc.waitIdle();
    }

    std::fflush(capture);
    std::rewind(capture);
    std::string text;
    char buffer[4096];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), capture)) > 0)
        text.append(buffer, n);
    std::fclose(capture);

    EXPECT_NE(text.find("event=slow_job"), std::string::npos);
    EXPECT_NE(text.find("level=warn"), std::string::npos);
}

TEST(ObsServiceTest, TraceCarriesOnePassSpanPerCompiledJob)
{
    auto bundle = makeBundle();
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.obs = bundle;
    JobService svc(options);

    (void)svc.submit(smallJob(1)).result.get();
    (void)svc.submit(smallJob(2)).result.get();
    svc.waitIdle();

    const std::string json = bundle->trace.toChromeTraceJson();
    // Two compiled jobs, each with exactly one span per pipeline pass.
    EXPECT_EQ(countOccurrences(json, "\"cat\":\"pass\""), 2 * kNumPasses);
    EXPECT_GE(countOccurrences(json, "\"name\":\"queued\""), 2u);
    EXPECT_GE(countOccurrences(json, "\"name\":\"running\""), 2u);
    EXPECT_GE(countOccurrences(json, "\"source\":\"compiled\""), 2u);
}

} // namespace
} // namespace powermove::service
