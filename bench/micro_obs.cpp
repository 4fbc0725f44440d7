/**
 * @file
 * Observability overhead gate.
 *
 * The observability layer promises to be near-free without a bundle
 * (the service then counts into a private registry: relaxed atomics,
 * no logs, no spans) and bounded with one (spans, exports and pass
 * profiling on top). This harness measures both promises on the same job set,
 * three ways:
 *
 *   bare  a direct PowerMoveCompiler loop — no service, no
 *         instrumentation — the floor the service layers sit on
 *   off   a one-shard, one-worker JobService with obs == nullptr (the
 *         shipped default: counters into a private registry)
 *   on    the same JobService with a full Observability bundle and
 *         pass profiling enabled
 *
 * The services are built once, outside the timing, with the memory
 * cache disabled (cache_capacity = 0) and no disk tier, so every timed
 * batch compiles every job fresh; the jobs are distinct QAOA instances
 * so submissions can never coalesce, and batches complete before the
 * next begins so nothing coalesces across repetitions either. All
 * three configurations therefore compile every circuit every time,
 * and with seed derivation disabled they compile the *same* schedules.
 *
 * Each measurement round times all three configurations back to back
 * and the gates compare the median of the per-round paired ratios:
 * pairing cancels the frequency scaling / noisy-neighbor drift that
 * min-of-N across three separate measurement windows cannot (a quiet
 * window for one configuration otherwise reads as overhead in the
 * others). A round reads the process's CPU time, not wall time: the
 * service compiles on its worker thread, which process CPU time
 * counts, while the time other tenants hold the cores is not counted,
 * so a busy host cannot read as service overhead. 41 rounds: a timed
 * batch is about 10 ms, so a single round's ratio still swings by
 * several percent, and only a median over many pairs resolves the 2%
 * bound. Gates:
 *
 *   off / bare < 1.02   the whole service layer — queue, fingerprint,
 *                       job records, cache bookkeeping, AND the
 *                       registry counters — stays within 2% of raw
 *                       compilation
 *   on  / off  < 1.25   full instrumentation (metrics + spans + pass
 *                       profiling) stays within a generous 25%
 *
 * The enabled run is also checked for effect, not just cost: the
 * registry must have counted every submission and folded per-pass wall
 * time, so the gate can never pass by silently measuring a bundle that
 * was never wired through.
 *
 * Flags:
 *   --smoke       smaller circuits, CI mode
 *   --json PATH   machine-readable summary (uploaded as BENCH_obs.json
 *                 by the bench-regression job)
 *
 * Exits nonzero when a gate fails. Standalone main (no Google
 * Benchmark dependency).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "compiler/powermove.hpp"
#include "harness.hpp"
#include "obs/observability.hpp"
#include "report/table.hpp"
#include "service/job_service.hpp"
#include "workloads/qaoa.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace powermove;

/**
 * Distinct deep QAOA-regular3 instances. Distinct widths defeat
 * coalescing and memory hits within a repetition; many QAOA rounds
 * deepen each circuit so per-job compile time (milliseconds) dwarfs
 * the fixed per-submission service cost (futex handoffs, fingerprint
 * — tens of microseconds) the 2% gate bounds. At shallow depth that
 * fixed cost would dominate and the gate would measure the service,
 * not the instrumentation.
 */
std::vector<BenchmarkSpec>
makeSpecs(bool smoke)
{
    const std::vector<std::size_t> widths =
        smoke ? std::vector<std::size_t>{60, 90, 120}
              : std::vector<std::size_t>{90, 120, 150};
    const std::size_t rounds = 10;
    std::vector<BenchmarkSpec> specs;
    for (const std::size_t n : widths) {
        BenchmarkSpec spec = makeFamilyInstance("QAOA-regular3", n);
        spec.build = [n, rounds] {
            return makeQaoaRegular(n, 3, rounds, n);
        };
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** Pre-built circuits so construction cost stays outside the timing. */
std::vector<Circuit>
buildCircuits(const std::vector<BenchmarkSpec> &specs)
{
    std::vector<Circuit> circuits;
    circuits.reserve(specs.size());
    for (const BenchmarkSpec &spec : specs)
        circuits.push_back(spec.build());
    return circuits;
}

/** One bare pass: build each machine, compile each circuit directly. */
void
runBare(const std::vector<BenchmarkSpec> &specs,
        const std::vector<Circuit> &circuits, bool profile)
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Machine machine(specs[i].machine_config);
        CompilerOptions options;
        options.profile_passes = profile;
        const PowerMoveCompiler compiler(machine, options);
        const CompileResult result = compiler.compile(circuits[i]);
        if (result.schedule.instructions().empty())
            std::fprintf(stderr, "micro_obs: empty schedule (bare)\n");
    }
}

/** The timed job set; @p profile toggles per-pass wall profiling. */
std::vector<service::CompileJob>
makeJobs(const std::vector<BenchmarkSpec> &specs,
         const std::vector<Circuit> &circuits, bool profile)
{
    std::vector<service::CompileJob> jobs;
    jobs.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        CompilerOptions options;
        options.profile_passes = profile;
        jobs.push_back({circuits[i], specs[i].machine_config, options});
    }
    return jobs;
}

/**
 * A single-worker service with every cache tier off, so each timed
 * batch compiles every job fresh and repetitions do identical work.
 */
std::unique_ptr<service::JobService>
makeService(std::shared_ptr<obs::Observability> obs)
{
    service::JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = 1;
    options.cache_capacity = 0;
    // Compile with the verbatim seed, like the bare loop does: the
    // default per-job seed derivation would produce a *different*
    // schedule than the bare compile, and the ratio would then compare
    // two different workloads instead of the same work through two
    // paths.
    options.derive_job_seeds = false;
    options.obs = std::move(obs);
    return std::make_unique<service::JobService>(options);
}

/**
 * One service pass: the whole batch through @p svc. Takes the jobs by
 * value so callers copy them *outside* the timed region — duplicating
 * the input circuits is the caller's cost in deployment too, not part
 * of the service overhead under test.
 */
void
runBatch(service::JobService &svc, std::vector<service::CompileJob> jobs)
{
    std::vector<service::JobTicket> tickets;
    tickets.reserve(jobs.size());
    for (service::CompileJob &job : jobs)
        tickets.push_back(svc.submit(std::move(job)));
    for (service::JobTicket &ticket : tickets) {
        try {
            (void)ticket.result.get();
        } catch (const std::exception &error) {
            std::fprintf(stderr, "micro_obs: job failed: %s\n",
                         error.what());
        }
    }
}

/** Median of the per-round ratios nom[i] / den[i]. */
double
medianPairedRatio(const std::vector<double> &nom,
                  const std::vector<double> &den)
{
    std::vector<double> ratios;
    ratios.reserve(nom.size());
    for (std::size_t i = 0; i < nom.size() && i < den.size(); ++i)
        if (den[i] > 0.0)
            ratios.push_back(nom[i] / den[i]);
    std::sort(ratios.begin(), ratios.end());
    return obs::percentileOfSorted(ratios, 0.50);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Flags flags =
        bench::parseFlags(argc, argv, "micro_obs", false);

    const std::vector<BenchmarkSpec> specs = makeSpecs(flags.smoke);
    const std::vector<Circuit> circuits = buildCircuits(specs);
    const int repeats = 41;

    // The enabled run keeps one bundle for the whole measurement —
    // long-lived registries are the deployment shape, and
    // re-registering the same series each repetition would time
    // registration, not recording.
    auto bundle = std::make_shared<obs::Observability>(
        obs::ObservabilityOptions{obs::LogLevel::Error, stderr});
    const auto svc_off = makeService(nullptr);
    const auto svc_on = makeService(bundle);
    const std::vector<service::CompileJob> plain_jobs =
        makeJobs(specs, circuits, false);
    const std::vector<service::CompileJob> profiled_jobs =
        makeJobs(specs, circuits, true);

    // Warm-up: fault in code, allocator arenas, and worker threads
    // once, untimed.
    runBare(specs, circuits, false);
    runBatch(*svc_off, plain_jobs);
    runBatch(*svc_on, profiled_jobs);

    // Interleaved rounds: each round times all three configurations
    // back to back, so frequency scaling, thermal drift, and noisy
    // neighbors hit every configuration equally instead of biasing
    // whichever one was measured in the slow window. min-of-N across
    // rounds then compares like with like.
    std::vector<double> bare_us, off_us, on_us;
    bare_us.reserve(static_cast<std::size_t>(repeats));
    off_us.reserve(static_cast<std::size_t>(repeats));
    on_us.reserve(static_cast<std::size_t>(repeats));
    for (int i = 0; i < repeats; ++i) {
        bare_us.push_back(bench::onceProcessCpuMicros(
            [&] { runBare(specs, circuits, false); }));
        std::vector<service::CompileJob> off_batch = plain_jobs;
        off_us.push_back(bench::onceProcessCpuMicros(
            [&] { runBatch(*svc_off, std::move(off_batch)); }));
        std::vector<service::CompileJob> on_batch = profiled_jobs;
        on_us.push_back(bench::onceProcessCpuMicros(
            [&] { runBatch(*svc_on, std::move(on_batch)); }));
    }
    const bench::WallStats bare =
        bench::wallStatsFromSamples(std::move(bare_us));
    const bench::WallStats off =
        bench::wallStatsFromSamples(std::move(off_us));
    const bench::WallStats on = bench::wallStatsFromSamples(std::move(on_us));

    // Effect check: the instrumented runs must have actually recorded.
    const std::string exposition = bundle->metrics.toPrometheusText();
    const bool counted =
        exposition.find("powermove_jobs_submitted_total") !=
            std::string::npos &&
        exposition.find("powermove_pass_wall_us") != std::string::npos;

    const double off_ratio =
        medianPairedRatio(off.samples_us, bare.samples_us);
    const double on_ratio = medianPairedRatio(on.samples_us, off.samples_us);
    const double kOffBound = 1.02;
    const double kOnBound = 1.25;

    TextTable table({"config", "cpu min ms", "cpu p50 ms", "cpu p95 ms",
                     "vs", "med ratio", "bound"});
    const auto row = [&](const char *name, const bench::WallStats &stats,
                         const char *vs, double ratio, double bound) {
        table.addRow({name, bench::fmt(stats.min_us / 1000.0, "%.2f"),
                      bench::fmt(stats.p50_us / 1000.0, "%.2f"),
                      bench::fmt(stats.p95_us / 1000.0, "%.2f"), vs,
                      ratio > 0.0 ? bench::fmt(ratio, "%.3f") : "-",
                      bound > 0.0 ? bench::fmt(bound, "< %.2f") : "-"});
    };
    row("bare compile loop", bare, "-", 0.0, 0.0);
    row("service, obs off", off, "bare", off_ratio, kOffBound);
    row("service, obs on", on, "off", on_ratio, kOnBound);
    std::printf("%zu jobs x %d repeats%s\n%s\n", specs.size(), repeats,
                flags.smoke ? " (smoke)" : "", table.toString().c_str());

    if (!flags.json_path.empty()) {
        std::ofstream out(flags.json_path);
        if (!out) {
            std::fprintf(stderr, "micro_obs: cannot write '%s'\n",
                         flags.json_path.c_str());
            return 2;
        }
        out << "{\n  \"schema\": 1,\n  \"smoke\": "
            << (flags.smoke ? "true" : "false") << ",\n  \"jobs\": "
            << specs.size() << ",\n  \"repeats\": " << repeats
            << ",\n  \"bare_min_us\": " << bench::fmt(bare.min_us, "%.1f")
            << ",\n  \"off_min_us\": " << bench::fmt(off.min_us, "%.1f")
            << ",\n  \"on_min_us\": " << bench::fmt(on.min_us, "%.1f")
            << ",\n  \"off_p95_us\": " << bench::fmt(off.p95_us, "%.1f")
            << ",\n  \"on_p95_us\": " << bench::fmt(on.p95_us, "%.1f")
            << ",\n  \"off_over_bare\": " << bench::fmt(off_ratio, "%.4f")
            << ",\n  \"on_over_off\": " << bench::fmt(on_ratio, "%.4f")
            << ",\n  \"off_bound\": " << bench::fmt(kOffBound, "%.2f")
            << ",\n  \"on_bound\": " << bench::fmt(kOnBound, "%.2f")
            << ",\n  \"recorded\": " << (counted ? "true" : "false")
            << "\n}\n";
        std::printf("summary written: %s\n", flags.json_path.c_str());
    }

    int failures = 0;
    if (off_ratio >= kOffBound) {
        std::fprintf(stderr,
                     "micro_obs: disabled-path gate failed: service with "
                     "obs off is %.4fx bare (bound %.2f)\n",
                     off_ratio, kOffBound);
        ++failures;
    }
    if (on_ratio >= kOnBound) {
        std::fprintf(stderr,
                     "micro_obs: enabled-path gate failed: obs on is "
                     "%.4fx obs off (bound %.2f)\n",
                     on_ratio, kOnBound);
        ++failures;
    }
    if (!counted) {
        std::fprintf(stderr, "micro_obs: instrumented run recorded no "
                             "submissions or pass timings\n");
        ++failures;
    }
    return failures == 0 ? 0 : 1;
}
