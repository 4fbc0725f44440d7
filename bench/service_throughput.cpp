/**
 * @file
 * Service throughput harness: worker scaling, a JobService soak, and
 * warm-vs-cold persistent disk-cache rows.
 *
 * Three sections:
 *
 *  1. Worker scaling — the Table 2 suite through a one-shard JobService
 *     at 1/2/4/8 workers: cold batch wall time, aggregate throughput,
 *     speedup over serial, and a warm second pass that must be served
 *     entirely from the memory cache. A cross-pool determinism check
 *     asserts every pool size reproduces the serial run's fidelity bit
 *     for bit.
 *  2. JobService soak — tens of thousands of async submissions (mostly
 *     duplicates of the distinct suite, with randomized priorities and
 *     occasional generous deadlines) through the sharded JobService;
 *     reports sustained submissions/s and the tier breakdown
 *     (compiled / coalesced / memory / disk). Nothing may be rejected,
 *     expire, or fail.
 *  3. Disk restart — a cold JobService populates a cache directory,
 *     dies, and a fresh instance re-serves the whole suite from disk.
 *     The warm pass must beat the cold pass by the required factor
 *     (10x normally, 2x under --smoke where timings are tiny and
 *     noisy); every warm result must come from the Disk tier.
 *
 * Flags:
 *   --smoke          CI mode: one entry per family, ~2k-job soak,
 *                    single repeat
 *   --jobs N         soak submissions (default 10000, max 100000)
 *   --cache-dir DIR  disk-cache directory for section 3 (default: a
 *                    fresh temp dir, removed on exit)
 *   --json PATH      machine-readable summary (uploaded as
 *                    BENCH_service.json by the bench-regression job)
 *   [N]              positional: cold-pass repeats for section 1
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "report/table.hpp"
#include "service/job_service.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace powermove;
using service::JobService;

double
wallMillis(const std::chrono::steady_clock::time_point &start,
           const std::chrono::steady_clock::time_point &stop)
{
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

std::string
formatDouble(double value, int precision)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
    return buffer;
}

/** The distinct benchmark jobs: the full suite, one per family in smoke. */
std::vector<service::CompileJob>
makeJobs(bool smoke)
{
    std::vector<service::CompileJob> jobs;
    std::map<std::string, int> seen;
    for (const BenchmarkSpec &spec : table2Suite()) {
        if (smoke && seen[spec.family]++ > 0)
            continue;
        jobs.push_back({spec.build(), spec.machine_config, {}});
    }
    return jobs;
}

/**
 * The disk-restart job set. Under --smoke it is the suite itself; the
 * full run uses larger family instances, where per-job compile time
 * dwarfs the per-file open/read/deserialize overhead that dominates at
 * small sizes and the warm/cold ratio reflects the steady-state gap.
 */
std::vector<service::CompileJob>
makeDiskJobs(bool smoke, const std::vector<service::CompileJob> &suite)
{
    if (smoke)
        return suite;
    std::vector<service::CompileJob> jobs;
    for (const char *family : {"QAOA-regular3", "QFT", "VQE", "BV"}) {
        for (const std::size_t n : {100u, 144u}) {
            const BenchmarkSpec spec = makeFamilyInstance(family, n);
            jobs.push_back({spec.build(), spec.machine_config, {}});
        }
    }
    return jobs;
}

struct ScalingRow
{
    std::size_t workers = 0;
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    double jobs_per_s = 0.0;
    double speedup = 0.0;
};

struct SoakSummary
{
    std::size_t submissions = 0;
    double wall_ms = 0.0;
    double jobs_per_s = 0.0;
    service::JobServiceStats stats;
};

struct DiskSummary
{
    std::size_t jobs = 0;
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    double speedup = 0.0;
    double required = 0.0;
};

/**
 * Submits every job, then waits for each in order; a failed job prints
 * its error and leaves its slot empty (no result).
 */
std::vector<service::JobResult>
runBatch(JobService &svc, const std::vector<service::CompileJob> &jobs)
{
    std::vector<service::JobTicket> tickets;
    tickets.reserve(jobs.size());
    for (const service::CompileJob &job : jobs)
        tickets.push_back(svc.submit(job));
    std::vector<service::JobResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        try {
            results[i] = tickets[i].result.get();
        } catch (const std::exception &error) {
            std::fprintf(stderr, "job %zu failed: %s\n", i, error.what());
        }
    }
    return results;
}

/** Section 1: one-shard JobService worker scaling + determinism gate. */
int
runScaling(const std::vector<service::CompileJob> &jobs, int repeats,
           std::vector<ScalingRow> &rows)
{
    std::printf("=== Worker scaling: %zu-job batch ===\n", jobs.size());
    std::printf("(hardware threads: %u — speedup saturates there)\n\n",
                std::thread::hardware_concurrency());

    std::vector<double> serial_fidelity;
    double serial_ms = 0.0;

    TextTable table({"Workers", "Cold batch (ms)", "Jobs/s", "Speedup",
                     "Warm batch (ms)", "Warm hits"});
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        double best_cold_ms = 1e300;
        std::vector<double> fidelity;
        double warm_ms = 0.0;
        std::size_t warm_hits = 0;

        for (int repeat = 0; repeat < repeats; ++repeat) {
            service::JobServiceOptions pool;
            pool.num_shards = 1;
            pool.workers_per_shard = workers;
            pool.cache_capacity = 2 * jobs.size();
            JobService svc(pool);

            const auto cold_start = std::chrono::steady_clock::now();
            const auto cold = runBatch(svc, jobs);
            const auto cold_stop = std::chrono::steady_clock::now();
            best_cold_ms =
                std::min(best_cold_ms, wallMillis(cold_start, cold_stop));

            const auto warm_start = std::chrono::steady_clock::now();
            const auto warm = runBatch(svc, jobs);
            const auto warm_stop = std::chrono::steady_clock::now();
            warm_ms = wallMillis(warm_start, warm_stop);

            fidelity.clear();
            warm_hits = 0;
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                if (!cold[i].result || !warm[i].result)
                    return 1;
                fidelity.push_back(cold[i].result->metrics.fidelity());
                if (warm[i].source == service::ResultSource::Memory)
                    ++warm_hits;
            }
            if (warm_hits != jobs.size()) {
                std::fprintf(stderr,
                             "warm pass: only %zu/%zu served from memory "
                             "(x%zu)\n",
                             warm_hits, jobs.size(), workers);
                return 1;
            }
        }

        if (workers == 1) {
            serial_fidelity = fidelity;
            serial_ms = best_cold_ms;
        } else {
            // Bit-identical across pool sizes, per the derived-seed rule.
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                if (fidelity[i] != serial_fidelity[i]) {
                    std::fprintf(stderr,
                                 "determinism violation on job %zu: "
                                 "%.17g (x%zu) vs %.17g (serial)\n",
                                 i, fidelity[i], workers,
                                 serial_fidelity[i]);
                    return 1;
                }
            }
        }

        const double jobs_per_s = 1e3 * jobs.size() / best_cold_ms;
        rows.push_back({workers, best_cold_ms, warm_ms, jobs_per_s,
                        serial_ms / best_cold_ms});
        table.addRow({std::to_string(workers),
                      formatDouble(best_cold_ms, 2),
                      formatDouble(jobs_per_s, 1),
                      formatDouble(serial_ms / best_cold_ms, 2),
                      formatDouble(warm_ms, 2), std::to_string(warm_hits)});
    }

    std::printf("%s\n", table.toString().c_str());
    std::printf("determinism: all pool sizes bit-identical to serial\n\n");
    return 0;
}

/**
 * Section 2: async soak. @p submissions tickets over the distinct job
 * set, randomized priorities and a slice of generous deadlines; every
 * ticket must resolve successfully.
 */
int
runSoak(const std::vector<service::CompileJob> &jobs,
        std::size_t submissions, SoakSummary &summary)
{
    std::printf("=== JobService soak: %zu submissions over %zu distinct "
                "jobs ===\n",
                submissions, jobs.size());

    service::JobServiceOptions options;
    options.max_queue = submissions; // soak dispatch, not admission
    JobService svc(options);

    Rng rng(0x736f616bULL); // "soak"
    std::vector<service::JobTicket> tickets;
    tickets.reserve(submissions);

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < submissions; ++i) {
        const service::CompileJob &job = jobs[i % jobs.size()];
        const int priority = static_cast<int>(rng.nextBelow(11)) - 5;
        const double deadline_ms = rng.nextBool(0.1) ? 60000.0 : 0.0;
        tickets.push_back(svc.submit(job, priority, deadline_ms));
    }
    for (service::JobTicket &ticket : tickets) {
        try {
            if (!ticket.result.get().result) {
                std::fprintf(stderr, "soak: empty result\n");
                return 1;
            }
        } catch (const std::exception &error) {
            std::fprintf(stderr, "soak: job %llu failed: %s\n",
                         static_cast<unsigned long long>(ticket.id),
                         error.what());
            return 1;
        }
    }
    const auto stop = std::chrono::steady_clock::now();
    svc.waitIdle();

    summary.submissions = submissions;
    summary.wall_ms = wallMillis(start, stop);
    summary.jobs_per_s = 1e3 * submissions / summary.wall_ms;
    summary.stats = svc.stats();

    const service::JobServiceStats &stats = summary.stats;
    std::printf("%zu shards x %zu workers: %.2f ms, %.0f jobs/s\n",
                stats.num_shards, stats.workers_per_shard, summary.wall_ms,
                summary.jobs_per_s);
    std::printf("tiers: %zu compiled, %zu coalesced, %zu memory, %zu "
                "disk\n\n",
                stats.compiled, stats.coalesced, stats.memory_hits,
                stats.disk_hits);

    if (stats.rejected + stats.expired + stats.failed > 0) {
        std::fprintf(stderr,
                     "soak: %zu rejected, %zu expired, %zu failed — "
                     "expected none\n",
                     stats.rejected, stats.expired, stats.failed);
        return 1;
    }
    return 0;
}

/**
 * Section 3: disk restart. A cold service populates @p cache_dir and is
 * destroyed; a fresh instance must re-serve every job from the Disk
 * tier at least @p required times faster than the cold pass.
 */
int
runDiskRestart(const std::vector<service::CompileJob> &jobs,
               const std::string &cache_dir, double required, int repeats,
               DiskSummary &summary)
{
    std::printf("=== Disk restart: %zu jobs through '%s' ===\n",
                jobs.size(), cache_dir.c_str());

    service::JobServiceOptions options;
    options.cache_dir = cache_dir;

    // Min-of-N on both sides, each repeat through a fresh service (and,
    // for the cold side, a fresh directory): single shots are noisy at
    // millisecond scales and the ratio below is a hard gate.
    double cold_ms = 1e300;
    for (int repeat = 0; repeat < repeats; ++repeat) {
        std::filesystem::remove_all(cache_dir);
        JobService cold(options);
        std::vector<service::JobTicket> tickets;
        const auto start = std::chrono::steady_clock::now();
        for (const service::CompileJob &job : jobs)
            tickets.push_back(cold.submit(job));
        for (service::JobTicket &ticket : tickets)
            (void)ticket.result.get();
        cold_ms = std::min(
            cold_ms, wallMillis(start, std::chrono::steady_clock::now()));
        cold.waitIdle();
    } // destroyed: only the cache directory survives

    double warm_ms = 1e300;
    std::size_t disk_served = 0;
    for (int repeat = 0; repeat < repeats; ++repeat) {
        JobService warm(options);
        std::vector<service::JobTicket> tickets;
        disk_served = 0;
        const auto start = std::chrono::steady_clock::now();
        for (const service::CompileJob &job : jobs)
            tickets.push_back(warm.submit(job));
        for (service::JobTicket &ticket : tickets) {
            if (ticket.result.get().source == service::ResultSource::Disk)
                ++disk_served;
        }
        warm_ms = std::min(
            warm_ms, wallMillis(start, std::chrono::steady_clock::now()));
        warm.waitIdle();
    }

    summary.jobs = jobs.size();
    summary.cold_ms = cold_ms;
    summary.warm_ms = warm_ms;
    summary.speedup = cold_ms / warm_ms;
    summary.required = required;

    std::printf("cold (compile + store): %.2f ms\n", cold_ms);
    std::printf("warm (restart, disk):   %.2f ms  (%.1fx, need >= %.0fx)\n",
                warm_ms, summary.speedup, required);
    std::printf("disk-served: %zu/%zu\n\n", disk_served, jobs.size());

    if (disk_served != jobs.size()) {
        std::fprintf(stderr,
                     "disk restart: only %zu/%zu served from disk\n",
                     disk_served, jobs.size());
        return 1;
    }
    if (summary.speedup < required) {
        std::fprintf(stderr,
                     "disk restart: warm pass only %.1fx faster than "
                     "cold (required %.0fx)\n",
                     summary.speedup, required);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path;
    std::string cache_dir;
    std::size_t soak_jobs = 0; // 0 = default for the mode
    // Repeat the cold scaling pass and keep the best time, like
    // bench/harness.hpp does per compilation: at millisecond scales
    // single shots are noisy.
    int repeats = 3;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "service_throughput: --json needs a value\n");
                return 2;
            }
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(
                    stderr,
                    "service_throughput: --cache-dir needs a value\n");
                return 2;
            }
            cache_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "service_throughput: --jobs needs a value\n");
                return 2;
            }
            soak_jobs = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else {
            repeats = std::max(1, std::atoi(argv[i]));
        }
    }
    if (smoke)
        repeats = 1;
    if (soak_jobs == 0)
        soak_jobs = smoke ? 2000 : 10000;
    soak_jobs = std::min<std::size_t>(soak_jobs, 100000);

    const std::vector<service::CompileJob> jobs = makeJobs(smoke);

    // A private temp cache dir unless the caller supplied one; a fresh
    // directory either way, so the cold pass is genuinely cold.
    namespace fs = std::filesystem;
    const bool own_cache_dir = cache_dir.empty();
    if (own_cache_dir) {
        cache_dir = (fs::temp_directory_path() /
                     ("powermove_bench_cache_" +
                      std::to_string(
                          static_cast<unsigned long>(::getpid()))))
                        .string();
    }
    fs::remove_all(cache_dir);

    std::vector<ScalingRow> scaling;
    SoakSummary soak;
    DiskSummary disk;

    int rc = runScaling(jobs, repeats, scaling);
    if (rc == 0)
        rc = runSoak(jobs, soak_jobs, soak);
    if (rc == 0)
        rc = runDiskRestart(makeDiskJobs(smoke, jobs), cache_dir,
                            smoke ? 2.0 : 10.0, std::max(repeats, 3), disk);

    if (own_cache_dir)
        fs::remove_all(cache_dir);

    if (rc == 0 && !json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "service_throughput: cannot write '%s'\n",
                         json_path.c_str());
            return 2;
        }
        out << "{\n  \"schema\": 1,\n  \"smoke\": "
            << (smoke ? "true" : "false") << ",\n  \"scaling\": [\n";
        for (std::size_t i = 0; i < scaling.size(); ++i) {
            const ScalingRow &row = scaling[i];
            out << "    {\"workers\": " << row.workers
                << ", \"cold_ms\": " << formatDouble(row.cold_ms, 3)
                << ", \"warm_ms\": " << formatDouble(row.warm_ms, 3)
                << ", \"jobs_per_s\": " << formatDouble(row.jobs_per_s, 1)
                << ", \"speedup\": " << formatDouble(row.speedup, 3) << "}"
                << (i + 1 < scaling.size() ? ",\n" : "\n");
        }
        out << "  ],\n  \"soak\": {\"submissions\": " << soak.submissions
            << ", \"wall_ms\": " << formatDouble(soak.wall_ms, 3)
            << ", \"jobs_per_s\": " << formatDouble(soak.jobs_per_s, 1)
            << ", \"compiled\": " << soak.stats.compiled
            << ", \"coalesced\": " << soak.stats.coalesced
            << ", \"memory_hits\": " << soak.stats.memory_hits
            << ", \"disk_hits\": " << soak.stats.disk_hits << "},\n";
        out << "  \"disk\": {\"jobs\": " << disk.jobs
            << ", \"cold_ms\": " << formatDouble(disk.cold_ms, 3)
            << ", \"warm_ms\": " << formatDouble(disk.warm_ms, 3)
            << ", \"speedup\": " << formatDouble(disk.speedup, 2)
            << ", \"required\": " << formatDouble(disk.required, 1)
            << "}\n}\n";
        std::printf("summary written: %s\n", json_path.c_str());
    }
    return rc;
}
