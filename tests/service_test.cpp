/**
 * @file
 * Tests for the compilation service's compile/cache core: tier
 * attribution, LRU eviction, machine interning, error propagation,
 * exactly-once compilation of duplicates, pass totals, and
 * determinism across worker counts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "compiler/powermove.hpp"
#include "isa/json.hpp"
#include "isa/validator.hpp"
#include "obs/observability.hpp"
#include "service/fingerprint.hpp"
#include "service/job_service.hpp"
#include "workloads/suite.hpp"

namespace powermove::service {
namespace {

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

/** Asserts two results carry bit-identical metrics (compile time aside). */
void
expectIdenticalMetrics(const CompileResult &a, const CompileResult &b)
{
    EXPECT_EQ(a.num_stages, b.num_stages);
    EXPECT_EQ(a.num_coll_moves, b.num_coll_moves);
    EXPECT_EQ(a.schedule.instructions().size(),
              b.schedule.instructions().size());
    EXPECT_EQ(a.schedule.numTransfers(), b.schedule.numTransfers());
    EXPECT_EQ(a.metrics.excitation_exposures, b.metrics.excitation_exposures);
    EXPECT_EQ(a.metrics.pulses, b.metrics.pulses);
    EXPECT_DOUBLE_EQ(a.metrics.fidelity(), b.metrics.fidelity());
    EXPECT_DOUBLE_EQ(a.metrics.exec_time.micros(), b.metrics.exec_time.micros());
    EXPECT_DOUBLE_EQ(a.metrics.total_idle.micros(), b.metrics.total_idle.micros());

    // Pass profiles: wall times are measurement noise, but invocation
    // counts and every counter must be deterministic.
    ASSERT_EQ(a.pass_profiles.size(), b.pass_profiles.size());
    for (std::size_t i = 0; i < a.pass_profiles.size(); ++i) {
        EXPECT_EQ(a.pass_profiles[i].pass, b.pass_profiles[i].pass);
        EXPECT_EQ(a.pass_profiles[i].invocations,
                  b.pass_profiles[i].invocations);
        ASSERT_EQ(a.pass_profiles[i].counters.size(),
                  b.pass_profiles[i].counters.size());
        for (std::size_t c = 0; c < a.pass_profiles[i].counters.size(); ++c) {
            EXPECT_EQ(a.pass_profiles[i].counters[c].name,
                      b.pass_profiles[i].counters[c].name);
            EXPECT_EQ(a.pass_profiles[i].counters[c].value,
                      b.pass_profiles[i].counters[c].value);
        }
    }
}

/** One shard of @p workers workers with a @p cache_capacity cache. */
JobServiceOptions
poolOptions(std::size_t workers, std::size_t cache_capacity)
{
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = workers;
    options.cache_capacity = cache_capacity;
    return options;
}

/** Submits @p job and waits for its result (rethrows its failure). */
JobResult
run(JobService &svc, const CompileJob &job)
{
    return svc.submit(job).result.get();
}

/** Submits every job, then waits for all of them, in order. */
std::vector<JobResult>
runAll(JobService &svc, const std::vector<CompileJob> &jobs)
{
    std::vector<JobTicket> tickets;
    for (const CompileJob &job : jobs)
        tickets.push_back(svc.submit(job));
    std::vector<JobResult> results;
    for (JobTicket &ticket : tickets)
        results.push_back(ticket.result.get());
    return results;
}

TEST(ServiceTest, SubmitMatchesDirectCompileWithEffectiveOptions)
{
    JobService svc(poolOptions(2, 16));
    const CompileJob job = smallJob();
    const JobResult out = run(svc, job);
    ASSERT_TRUE(out.result);
    EXPECT_FALSE(out.from_cache);
    EXPECT_EQ(out.fingerprint, jobFingerprint(job));
    validateAgainstCircuit(out.result->schedule, job.circuit);

    // The documented replay rule: effectiveOptions() reproduces the
    // service's compilation bit-identically outside the service.
    const Machine machine(job.machine);
    const PowerMoveCompiler direct(machine, effectiveOptions(job));
    expectIdenticalMetrics(*out.result, direct.compile(job.circuit));
}

TEST(ServiceTest, SecondSubmissionIsServedFromCache)
{
    JobService svc(poolOptions(2, 16));
    const CompileJob job = smallJob();

    const JobResult first = run(svc, job);
    EXPECT_FALSE(first.from_cache);

    const JobResult second = run(svc, job);
    EXPECT_TRUE(second.from_cache);
    EXPECT_EQ(second.source, ResultSource::Memory);
    EXPECT_EQ(second.result.get(), first.result.get()); // shared, not copied
    EXPECT_EQ(second.machine.get(), first.machine.get());

    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.compiled, 1u);
    EXPECT_EQ(stats.memory_hits, 1u);
}

TEST(ServiceTest, DifferentOptionsAreDifferentCacheEntries)
{
    JobService svc(poolOptions(2, 16));
    (void)run(svc, smallJob());

    CompileJob reseeded = smallJob();
    reseeded.options.seed += 1;
    const JobResult out = run(svc, reseeded);
    EXPECT_FALSE(out.from_cache);

    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.memory_hits, 0u);
    EXPECT_EQ(stats.compiled, 2u);
}

TEST(ServiceTest, LruEvictionDropsTheColdestEntry)
{
    auto bundle = std::make_shared<obs::Observability>(
        obs::ObservabilityOptions{obs::LogLevel::Off, stderr});
    JobServiceOptions options = poolOptions(1, 2); // room for two results
    options.obs = bundle;
    JobService svc(options);
    const obs::Counter &evictions =
        bundle->metrics.counter("powermove_memory_cache_evictions_total");

    (void)run(svc, smallJob(1));
    (void)run(svc, smallJob(2));
    (void)run(svc, smallJob(3)); // evicts job 1
    EXPECT_EQ(evictions.value(), 1u);

    // Job 1 was evicted: resubmission misses and recompiles (and in turn
    // evicts job 2, the new least-recently-used entry).
    EXPECT_EQ(run(svc, smallJob(1)).source, ResultSource::Compiled);
    EXPECT_EQ(evictions.value(), 2u);

    // Job 3 stayed resident; job 2 is gone.
    EXPECT_EQ(run(svc, smallJob(3)).source, ResultSource::Memory);
    EXPECT_EQ(run(svc, smallJob(2)).source, ResultSource::Compiled);
    EXPECT_EQ(svc.stats().compiled, 5u);
}

TEST(ServiceTest, ZeroCapacityDisablesCaching)
{
    JobService svc(poolOptions(2, 0));
    (void)run(svc, smallJob());
    const JobResult second = run(svc, smallJob());
    EXPECT_FALSE(second.from_cache);
    EXPECT_EQ(second.source, ResultSource::Compiled);
    EXPECT_EQ(svc.stats().compiled, 2u);
    EXPECT_EQ(svc.stats().memory_hits, 0u);
}

TEST(ServiceTest, ConfigErrorPropagatesThroughTheFuture)
{
    JobService svc(poolOptions(2, 16));

    // 9 qubits cannot fit a 2x2 compute zone in storage-free mode.
    Circuit circuit(9);
    circuit.append(CzGate{0, 1});
    CompileJob job{circuit, MachineConfig::forQubits(4), {}};
    job.options.use_storage = false;

    EXPECT_THROW(run(svc, job), ConfigError);
    EXPECT_EQ(svc.stats().failed, 1u);

    // Failures are never cached: resubmission fails afresh.
    EXPECT_THROW(run(svc, job), ConfigError);
    EXPECT_EQ(svc.stats().failed, 2u);
}

TEST(ServiceTest, CompilerConstructionErrorAlsoPropagates)
{
    JobService svc(poolOptions(2, 16));
    CompileJob job = smallJob();
    job.options.num_aods = 0; // rejected by PowerMoveCompiler's ctor
    EXPECT_THROW(run(svc, job), ConfigError);
}

TEST(ServiceTest, IdenticalSubmissionsCompileExactlyOnce)
{
    JobService svc(poolOptions(2, 16));
    const CompileJob job = smallJob();

    std::vector<JobTicket> tickets;
    for (int i = 0; i < 16; ++i)
        tickets.push_back(svc.submit(job));
    for (JobTicket &ticket : tickets)
        EXPECT_TRUE(ticket.result.get().result != nullptr);

    // Every duplicate either coalesced onto the in-flight job or hit the
    // cache; exactly one compilation ever ran.
    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 16u);
    EXPECT_EQ(stats.compiled, 1u);
    EXPECT_EQ(stats.coalesced + stats.memory_hits, 15u);
}

TEST(ServiceTest, OneFailedJobNeverHidesTheOthers)
{
    JobService svc(poolOptions(2, 16));

    Circuit too_big(9);
    too_big.append(CzGate{0, 1});
    CompileJob bad{too_big, MachineConfig::forQubits(4), {}};
    bad.options.use_storage = false;

    JobTicket first = svc.submit(smallJob(1));
    JobTicket failing = svc.submit(bad);
    JobTicket last = svc.submit(smallJob(2));
    EXPECT_TRUE(first.result.get().result != nullptr);
    try {
        (void)failing.result.get();
        ADD_FAILURE() << "the oversized job compiled";
    } catch (const ConfigError &error) {
        EXPECT_NE(std::string(error.what()).find("too small"),
                  std::string::npos);
    }
    EXPECT_TRUE(last.result.get().result != nullptr);
}

TEST(ServiceTest, MachinesAreInternedAcrossJobs)
{
    JobService svc(poolOptions(2, 16));
    const JobResult a = run(svc, smallJob(1));
    const JobResult b = run(svc, smallJob(2));
    EXPECT_EQ(a.machine.get(), b.machine.get());
}

TEST(ServiceTest, MachinesExpireOnceNothingReferencesThem)
{
    JobService svc(poolOptions(1, 1)); // cache holds exactly one result

    // Job on config X; its JobResult (the only client ref) is dropped
    // immediately, leaving the cache entry as the machine's sole owner.
    std::weak_ptr<const Machine> machine_x = run(svc, smallJob(1)).machine;
    EXPECT_FALSE(machine_x.expired());

    // A cached hit must still carry the same live machine. Scoped so
    // this JobResult's machine reference dies before the eviction below.
    {
        const JobResult hit = run(svc, smallJob(1));
        ASSERT_TRUE(hit.from_cache);
        ASSERT_TRUE(hit.machine);
        EXPECT_EQ(hit.machine, machine_x.lock());
        EXPECT_EQ(hit.machine->config().compute_cols, 2);
    }

    // Config Y evicts X's entry; with no cache entry and no client
    // holding X's machine, the weak intern expires...
    Circuit nine(9);
    nine.append(CzGate{0, 8});
    (void)run(svc, CompileJob{nine, MachineConfig::forQubits(9), {}});
    EXPECT_TRUE(machine_x.expired());

    // ...and compiling for X again builds a fresh machine.
    const JobResult again = run(svc, smallJob(2)); // config X once more
    ASSERT_TRUE(again.machine);
    EXPECT_EQ(again.machine->config().compute_cols, 2);
    EXPECT_TRUE(machine_x.expired());
}

TEST(ServiceTest, CachedResultOutlivesEvictionAndService)
{
    JobResult kept;
    {
        JobService svc(poolOptions(1, 1));
        kept = run(svc, smallJob(1));
        (void)run(svc, smallJob(2)); // evicts job 1's entry
    }
    // The schedule's machine reference must survive both the eviction
    // and the service's destruction because the JobResult co-owns it.
    ASSERT_TRUE(kept.result);
    validateAgainstCircuit(kept.result->schedule, smallJob(1).circuit);
    EXPECT_EQ(&kept.result->schedule.machine(), kept.machine.get());
}

TEST(ServiceTest, WaitIdleDrainsTheQueue)
{
    JobService svc(poolOptions(4, 64));
    std::vector<JobTicket> tickets;
    for (std::size_t v = 1; v <= 12; ++v)
        tickets.push_back(svc.submit(smallJob(v)));
    svc.waitIdle();
    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.compiled + stats.failed, 12u);
    EXPECT_EQ(stats.queued, 0u);
    for (JobTicket &ticket : tickets)
        EXPECT_TRUE(ticket.result.get().result != nullptr);
}

/**
 * Acceptance: the full 23-entry Table 2 suite compiled through 8 workers
 * is bit-identical to a serial (1-worker) run of the same service.
 */
TEST(ServiceTest, FullSuiteSerialVsEightWorkersBitIdentical)
{
    std::vector<CompileJob> jobs;
    for (const BenchmarkSpec &spec : table2Suite())
        jobs.push_back(CompileJob{spec.build(), spec.machine_config, {}});
    ASSERT_EQ(jobs.size(), 23u);

    JobService serial(poolOptions(1, 64));
    JobService parallel(poolOptions(8, 64));
    const std::vector<JobResult> serial_out = runAll(serial, jobs);
    const std::vector<JobResult> parallel_out = runAll(parallel, jobs);

    ASSERT_EQ(serial_out.size(), parallel_out.size());
    for (std::size_t i = 0; i < serial_out.size(); ++i)
        expectIdenticalMetrics(*serial_out[i].result,
                               *parallel_out[i].result);
    EXPECT_EQ(parallel.stats().compiled, 23u);
}

/**
 * Profiling is schedule-neutral through the service too: the derived
 * seed comes from the profile-normalized fingerprint, so toggling
 * profile_passes changes the cache entry (different payload) but never
 * the emitted schedule.
 */
TEST(ServiceTest, ProfileTogglingNeverChangesTheSchedule)
{
    JobService svc(poolOptions(2, 16));

    const CompileJob profiled = smallJob();
    CompileJob unprofiled = smallJob();
    unprofiled.options.profile_passes = false;

    const JobResult on = run(svc, profiled);
    const JobResult off = run(svc, unprofiled);

    // Distinct cache entries (no conflated payloads)...
    EXPECT_NE(on.fingerprint, off.fingerprint);
    EXPECT_FALSE(off.from_cache);
    EXPECT_FALSE(on.result->pass_profiles.empty());
    EXPECT_TRUE(off.result->pass_profiles.empty());

    // ...but bit-identical schedules and effective seeds.
    EXPECT_EQ(scheduleToJson(on.result->schedule),
              scheduleToJson(off.result->schedule));
    EXPECT_DOUBLE_EQ(on.result->metrics.fidelity(),
                     off.result->metrics.fidelity());
    EXPECT_EQ(effectiveOptions(profiled).seed,
              effectiveOptions(unprofiled).seed);
}

/**
 * Pass totals aggregate over profiled worker-compiled jobs, not cache
 * hits or unprofiled compiles.
 */
TEST(ServiceTest, PassTotalsAggregateAcrossJobs)
{
    JobService svc(poolOptions(2, 16));
    EXPECT_TRUE(svc.stats().pass_totals.empty());

    CompileJob unprofiled = smallJob(3);
    unprofiled.options.profile_passes = false;
    (void)run(svc, unprofiled); // no profile: totals stay empty
    EXPECT_TRUE(svc.stats().pass_totals.empty());

    (void)run(svc, smallJob(1));
    const auto after_one = svc.stats().pass_totals;
    ASSERT_FALSE(after_one.empty());
    EXPECT_EQ(after_one.front().pass, PassId::Placement);
    EXPECT_EQ(after_one.front().invocations, 1u);

    (void)run(svc, smallJob(1)); // cache hit: totals unchanged
    ASSERT_EQ(svc.stats().pass_totals.size(), after_one.size());
    EXPECT_EQ(svc.stats().pass_totals.front().invocations, 1u);

    (void)run(svc, smallJob(2)); // fresh compile: placement again
    EXPECT_EQ(svc.stats().pass_totals.front().invocations, 2u);
}

/** Stress: the whole suite submitted concurrently from many threads. */
TEST(ServiceTest, ConcurrentSuiteStress)
{
    std::vector<CompileJob> jobs;
    for (const BenchmarkSpec &spec : table2Suite())
        jobs.push_back(CompileJob{spec.build(), spec.machine_config, {}});

    JobService svc(poolOptions(8, 64));
    constexpr std::size_t kSubmitters = 4;
    std::vector<std::vector<JobTicket>> tickets(kSubmitters);
    {
        std::vector<std::thread> submitters;
        for (std::size_t t = 0; t < kSubmitters; ++t) {
            submitters.emplace_back([&, t] {
                for (const CompileJob &job : jobs)
                    tickets[t].push_back(svc.submit(job));
            });
        }
        for (std::thread &submitter : submitters)
            submitter.join();
    }

    for (auto &lane : tickets) {
        for (std::size_t i = 0; i < lane.size(); ++i) {
            const JobResult out = lane[i].result.get();
            ASSERT_TRUE(out.result);
            validateAgainstCircuit(out.result->schedule, jobs[i].circuit);
        }
    }

    // Each distinct job compiled exactly once no matter how submissions
    // interleaved with completions.
    const JobServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, kSubmitters * jobs.size());
    EXPECT_EQ(stats.compiled, jobs.size());
    EXPECT_EQ(stats.coalesced + stats.memory_hits,
              (kSubmitters - 1) * jobs.size());
    EXPECT_EQ(stats.failed, 0u);
}

} // namespace
} // namespace powermove::service
