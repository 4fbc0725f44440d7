/**
 * @file
 * perfbench: the whole-request benchmark of the PowerMove library.
 *
 * Every request takes the CLI's path: qasm::loadQasm on the QASM text,
 * a compile (PowerMoveCompiler::compile directly, or JobService::submit
 * and its future), validateAgainstCircuit against the parsed circuit,
 * and scheduleToJson. Workloads:
 *
 *   table2       closed loop, one client, the 23 Table 2 circuits
 *                round-robin, default CompilerOptions;
 *   scale        closed loop, one client, five large rows round-robin,
 *                default CompilerOptions;
 *   service-mix  closed loop, one client, through one JobService:
 *                Zipf repeats over a pool of mid-size jobs with mixed
 *                strategies and a memory cache smaller than the pool.
 *
 * Usage:
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--trace-out FILE]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 records spans and
 * prints the per-layer metrics and one row per input. The last line of
 * stdout is a JSON object {"correct", "attempted", "failed", "metrics"}.
 * Any invalid schedule, exception, rejection, expiry or output that
 * differs between two requests of one input makes the run fail: the
 * JSON says "correct": false and the exit code is 1.
 */

#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/powermove.hpp"
#include "fidelity/evaluator.hpp"
#include "inputs.hpp"
#include "isa/json.hpp"
#include "isa/validator.hpp"
#include "qasm/converter.hpp"
#include "service/fingerprint.hpp"
#include "service/job_service.hpp"
#include "spans.hpp"

namespace pm = powermove;
namespace svc = powermove::service;
using namespace perfbench;

namespace {

// ------------------------------------------------------------ settings

/**
 * Set-up runs at least kMinSetups times and until kSetupSeconds have
 * passed; setup_s is the first quartile of the set-up times. Bursts of
 * load from other tenants of a shared host last seconds, so set-ups
 * spread over more than a second, and a low quartile of them, keep one
 * burst from deciding the figure.
 */
constexpr int kMinSetups = 5;
constexpr double kSetupSeconds = 1.5;

/** service-mix shape: pool, skew, cache and workers. */
constexpr std::size_t kPoolSize = 800;
constexpr double kZipfS = 1.1;
constexpr std::size_t kCacheEntries = 256;
constexpr std::size_t kWorkers = 2;
/** Warm-up: windows of this many requests until the hit ratio settles. */
constexpr std::size_t kWarmWindow = 400;
constexpr std::size_t kWarmMaxWindows = 8;
constexpr double kWarmTolerance = 0.05;

/**
 * The timed phase is cut into this many equal windows. Throughput is the
 * third quartile of the windows' throughputs and each latency percentile
 * the first quartile of the windows' percentiles: load from other
 * tenants of a shared host only ever adds time, in bursts of a few
 * seconds, so the faster windows are the steadier measure of the
 * program's own cost (the quartile rather than the best window keeps
 * one lucky window from deciding).
 */
constexpr std::size_t kWindows = 10;

/** Latency samples reserved up front (far more than any run takes). */
constexpr std::size_t kReservedSamples = std::size_t{1} << 22;

/** Traced runs time evaluateSchedule on this many compiles per input. */
constexpr std::size_t kEvaluationsPerInput = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "table2|scale|service-mix [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--trace-out")
                args.trace_out = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workload != "table2" && args.workload != "scale" &&
        args.workload != "service-mix")
        usage("unknown workload '" + args.workload + "'");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

// ---------------------------------------------------------- statistics

/** Whether to set up once more, after @p done set-ups begun at @p first. */
bool
moreSetups(int done, Clock::time_point first)
{
    return done < kMinSetups ||
           millis(Clock::now() - first) < kSetupSeconds * 1e3;
}

/** Linear-interpolation quantile; 0 for an empty sample. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

std::uint64_t
fnv1a(std::string_view bytes)
{
    svc::Fnv1a h;
    h.addBytes(bytes.data(), bytes.size());
    return h.digest();
}

struct Timing
{
    double throughput_rps = 0.0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
};

/**
 * Throughput and latency percentiles per window of the timed phase,
 * summarized over kWindows equal windows of the measured elapsed time
 * as described there. A sample belongs to the window in which it
 * completed.
 */
Timing
windowed(const std::vector<double> &latency_ms,
         const std::vector<double> &done_s, double elapsed_s)
{
    const double width = elapsed_s / static_cast<double>(kWindows);
    std::vector<std::vector<double>> windows(kWindows);
    for (std::size_t i = 0; i < latency_ms.size(); ++i) {
        const auto w = std::min(kWindows - 1,
                                static_cast<std::size_t>(done_s[i] / width));
        windows[w].push_back(latency_ms[i]);
    }
    std::vector<double> rps, p50, p90;
    for (const std::vector<double> &window : windows) {
        rps.push_back(static_cast<double>(window.size()) / width);
        p50.push_back(median(window));
        p90.push_back(quantile(window, 0.90));
    }
    return {quantile(rps, 0.75), quantile(p50, 0.25), quantile(p90, 0.25)};
}

// ------------------------------------------------------- output checks

/** What one distinct input produced the first time it was served. */
struct Quality
{
    bool seen = false;
    /** Served during set-up: counted in the quality metrics and digest. */
    bool counted = false;
    double neglog10_fidelity = 0.0;
    double exec_us = 0.0;
    std::size_t json_bytes = 0;
    std::uint64_t json_fnv = 0;
    /** Cheap identity of the JSON, compared on every later response. */
    std::size_t json_hash = 0;
    std::size_t stages = 0, coll_moves = 0, transfers = 0, instructions = 0;
    std::uint64_t moves_planned = 0, qubits_parked = 0, qubits_evicted = 0;
};

/** -log10 of the Eq. 1 fidelity, summed per factor (the product underflows). */
double
negLog10Fidelity(const pm::FidelityBreakdown &m)
{
    return -(std::log10(m.two_q_factor) + std::log10(m.excitation_factor) +
             std::log10(m.transfer_factor) + std::log10(m.decoherence_factor));
}

/** evaluateSchedule timed on its own, outside any request. */
struct Evaluation
{
    double ms = 0.0;
    /** Whether it reproduced the compile's T_exe. */
    bool agrees = true;
};

Evaluation
evaluateAgain(const pm::CompileResult &result)
{
    const auto t0 = Clock::now();
    const pm::FidelityBreakdown again = pm::evaluateSchedule(result.schedule);
    return {millis(Clock::now() - t0),
            again.exec_time.micros() == result.metrics.exec_time.micros()};
}

/** Per-layer samples: all requests, and split by row (input or class). */
class Layers
{
  public:
    void
    add(const std::string &row, const std::string &name, double value)
    {
        all_[name].push_back(value);
        rows_[row][name].push_back(value);
    }

    const std::vector<double> &
    values(const std::string &name) const
    {
        static const std::vector<double> kEmpty;
        const auto it = all_.find(name);
        return it == all_.end() ? kEmpty : it->second;
    }

    const std::map<std::string, std::map<std::string, std::vector<double>>> &
    rows() const
    {
        return rows_;
    }

  private:
    std::map<std::string, std::vector<double>> all_;
    std::map<std::string, std::map<std::string, std::vector<double>>> rows_;
};

/** Shared bookkeeping of one workload run. */
class Recorder
{
  public:
    Recorder(std::vector<Input> inputs, bool trace)
        : inputs(std::move(inputs)), spans(trace),
          quality(this->inputs.size()), evaluations(this->inputs.size(), 0)
    {
        // Reserved address space stays out of the resident set until it
        // is written, so peak_rss_mb grows smoothly with the sample count
        // instead of jumping where a growing vector would double.
        latency_ms.reserve(kReservedSamples);
        done_s.reserve(kReservedSamples);
    }

    bool traced() const { return spans.enabled(); }

    void
    fail(const std::string &input, const std::string &why)
    {
        ++failed;
        if (failed <= 5)
            std::fprintf(stderr, "perfbench: %s: %s\n", input.c_str(),
                         why.c_str());
    }

    /**
     * Checks a response's JSON against the first response of the same
     * input and records the input's quality on first sight. Returns false
     * (and counts a failure) when the output changed.
     */
    bool
    checkOutput(std::size_t index, const pm::CompileResult &result,
                const std::string &json)
    {
        Quality &q = quality[index];
        const std::size_t hash = std::hash<std::string_view>{}(json);
        if (q.seen) {
            if (hash == q.json_hash && json.size() == q.json_bytes)
                return true;
            fail(inputs[index].name, "ISA JSON differs between two requests");
            return false;
        }
        q.seen = true;
        q.neglog10_fidelity = negLog10Fidelity(result.metrics);
        q.exec_us = result.metrics.exec_time.micros();
        q.json_bytes = json.size();
        q.json_fnv = fnv1a(json);
        q.json_hash = hash;
        q.stages = result.num_stages;
        q.coll_moves = result.num_coll_moves;
        q.transfers = result.schedule.numTransfers();
        q.instructions = result.schedule.instructions().size();
        for (const pm::PassProfile &p : result.pass_profiles)
            for (const pm::PassCounter &c : p.counters) {
                if (c.name == "moves_planned")
                    q.moves_planned += c.value;
                else if (c.name == "qubits_parked")
                    q.qubits_parked += c.value;
                else if (c.name == "qubits_evicted")
                    q.qubits_evicted += c.value;
            }
        return true;
    }

    /**
     * Fixes the inputs the quality metrics and the digest cover: those
     * served during set-up, which are the same for every run of a seed.
     */
    void
    closeQualitySet()
    {
        for (Quality &q : quality)
            q.counted = q.seen;
    }

    /** Traced runs: whether to re-evaluate this fresh compile of @p index. */
    bool
    claimEvaluation(std::size_t index)
    {
        if (!traced() || evaluations[index] >= kEvaluationsPerInput)
            return false;
        ++evaluations[index];
        return true;
    }

    /**
     * Traced runs: per-pass wall times of a fresh compile, the inferred
     * evaluation time (compile wall time minus compile_time) when the
     * compile was timed, and a separately timed evaluation if any.
     */
    void
    recordCompile(std::size_t index, const std::string &row,
                  const pm::CompileResult &result,
                  std::optional<double> compile_wall_ms,
                  std::optional<Evaluation> evaluation)
    {
        if (!traced())
            return;
        layers.add(row, "compile.passes_ms", result.compile_time.micros() / 1e3);
        for (const pm::PassProfile &p : result.pass_profiles) {
            std::string name = "pass." + std::string(pm::passName(p.pass)) + "_ms";
            std::replace(name.begin(), name.end(), '-', '_');
            layers.add(row, name, p.wall_time.micros() / 1e3);
        }
        if (compile_wall_ms)
            layers.add(row, "fidelity.inferred_ms",
                       *compile_wall_ms - result.compile_time.micros() / 1e3);
        if (evaluation) {
            layers.add(row, "fidelity.evaluate_ms", evaluation->ms);
            if (!evaluation->agrees)
                fail(inputs[index].name, "evaluateSchedule disagrees with compile");
        }
    }

    std::vector<Input> inputs;
    SpanLog spans;
    std::vector<Quality> quality;
    Layers layers;
    /** Traced runs: row of each timed request (index = request id - 1). */
    std::vector<std::uint32_t> request_rows;
    std::vector<std::string> row_names;

    /** The id of row @p name, added on first use. */
    std::uint32_t
    rowId(const std::string &name)
    {
        const auto it = std::find(row_names.begin(), row_names.end(), name);
        if (it != row_names.end())
            return static_cast<std::uint32_t>(it - row_names.begin());
        row_names.push_back(name);
        return static_cast<std::uint32_t>(row_names.size() - 1);
    }
    std::vector<double> latency_ms;
    /** Completion time of each latency sample, s after the timed start. */
    std::vector<double> done_s;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double qasm_bytes = 0.0, json_bytes = 0.0;
    std::vector<std::size_t> evaluations;
};

// ------------------------------------------------------------- results

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Peak resident set of this process image, from VmHWM. (getrusage's
 * ru_maxrss would also count the parent's image before exec.)
 */
double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), status) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(status);
    return kib / 1024.0;
}

/** The quality metrics over the inputs served during set-up. */
void
addQuality(const Recorder &rec, std::vector<Metric> &out)
{
    double fid = 0.0, log_exec = 0.0, kb = 0.0;
    std::size_t n = 0;
    for (const Quality &q : rec.quality) {
        if (!q.counted)
            continue;
        ++n;
        fid += q.neglog10_fidelity;
        log_exec += std::log(q.exec_us);
        kb += static_cast<double>(q.json_bytes) / 1e3;
    }
    const double d = n == 0 ? 1.0 : static_cast<double>(n);
    out.push_back({"fidelity_neglog10_mean", fid / d, "-log10"});
    out.push_back({"exec_time_us_geomean", std::exp(log_exec / d), "us"});
    out.push_back({"isa_json_kb_mean", kb / d, "KB"});
}

/** Digest of the ISA JSON of the inputs served during set-up, in input order. */
std::uint64_t
outputDigest(const Recorder &rec, std::size_t &served)
{
    svc::Fnv1a h;
    served = 0;
    for (std::size_t i = 0; i < rec.quality.size(); ++i) {
        const Quality &q = rec.quality[i];
        if (!q.counted)
            continue;
        ++served;
        h.add(static_cast<std::uint64_t>(i));
        h.add(q.json_fnv);
    }
    return h.digest();
}

/** Turns the span log and asides into the per-layer metric list. */
void
addLayers(Recorder &rec, std::vector<Metric> &out)
{
    Layers &layers = rec.layers;
    const std::vector<double> self = rec.spans.selfTimes();
    // The benchmark's own output check is neither request time (latency
    // leaves it out too) nor layer time.
    std::vector<double> check_ms(rec.request_rows.size() + 1, 0.0);
    for (const Span &span : rec.spans.spans())
        if (std::string_view(span.name) == "perfbench.check")
            check_ms[span.request] += millis(span.end - span.start);
    double request_ms = 0.0, uncovered_ms = 0.0;
    for (const Span &span : rec.spans.spans()) {
        const std::string &row = rec.row_names[rec.request_rows[span.request - 1]];
        const double dur = millis(span.end - span.start);
        if (span.parent == 0) {
            if (std::string_view(span.name) != "request")
                continue;
            layers.add(row, "client.request_ms", dur - check_ms[span.request]);
            layers.add(row, "client.unattributed_ms", self[span.id]);
            request_ms += dur - check_ms[span.request];
            uncovered_ms += self[span.id];
        } else if (std::string_view(span.name) != "perfbench.check") {
            layers.add(row, span.name, dur);
        }
    }
    const auto p50 = [&](const char *name) { return median(layers.values(name)); };
    const auto p95 = [&](const char *name) {
        return quantile(layers.values(name), 0.95);
    };
    const auto sum = [&](const char *name) {
        double total = 0.0;
        for (const double v : layers.values(name))
            total += v;
        return total;
    };
    const auto rate = [](double bytes, double ms) {
        return ms > 0.0 ? bytes / 1e6 / (ms / 1e3) : 0.0;
    };

    out.push_back({"qasm.load_ms", p50("qasm.load"), "ms"});
    out.push_back({"qasm.load_ms_p95", p95("qasm.load"), "ms"});
    out.push_back({"qasm.mb_per_s", rate(rec.qasm_bytes, sum("qasm.load")), "MB/s"});
    out.push_back({"compile.wall_ms", p50("compile"), "ms"});
    out.push_back({"compile.wall_ms_p95", p95("compile"), "ms"});
    out.push_back({"compile.passes_ms", p50("compile.passes_ms"), "ms"});
    out.push_back({"compile.passes_ms_p95", p95("compile.passes_ms"), "ms"});
    for (const char *pass : {"placement", "stage_partition", "stage_order",
                             "routing", "coll_move_order", "aod_batch"}) {
        const std::string name = std::string("pass.") + pass + "_ms";
        out.push_back({name, median(layers.values(name)), "ms"});
    }
    out.push_back({"fidelity.evaluate_ms", p50("fidelity.evaluate_ms"), "ms"});
    out.push_back({"fidelity.evaluate_ms_p95", p95("fidelity.evaluate_ms"), "ms"});
    out.push_back({"fidelity.inferred_ms", p50("fidelity.inferred_ms"), "ms"});
    out.push_back({"isa.validate_ms", p50("isa.validate"), "ms"});
    out.push_back({"isa.validate_ms_p95", p95("isa.validate"), "ms"});
    out.push_back({"isa.json_ms", p50("isa.json"), "ms"});
    out.push_back({"isa.json_ms_p95", p95("isa.json"), "ms"});
    out.push_back({"isa.json_mb_per_s", rate(rec.json_bytes, sum("isa.json")), "MB/s"});
    out.push_back({"service.submit_us", p50("service.submit") * 1e3, "us"});
    out.push_back({"service.wait_ms", p50("service.wait"), "ms"});
    out.push_back({"service.wait_ms_p95", p95("service.wait"), "ms"});
    out.push_back({"service.queue_wait_ms", p50("service.queue_wait"), "ms"});
    out.push_back({"service.queue_wait_ms_p95", p95("service.queue_wait"), "ms"});
    out.push_back({"service.run_ms", p50("service.run"), "ms"});
    out.push_back({"service.run_ms_p95", p95("service.run"), "ms"});

    std::size_t stages = 0, moves = 0, transfers = 0, instructions = 0,
                bytes = 0;
    std::uint64_t planned = 0, parked = 0, evicted = 0;
    for (const Quality &q : rec.quality) {
        if (!q.counted)
            continue;
        stages += q.stages;
        moves += q.coll_moves;
        transfers += q.transfers;
        instructions += q.instructions;
        bytes += q.json_bytes;
        planned += q.moves_planned;
        parked += q.qubits_parked;
        evicted += q.qubits_evicted;
    }
    const auto count = [](auto v) { return static_cast<double>(v); };
    out.push_back({"schedule.stages", count(stages), "count"});
    out.push_back({"schedule.coll_moves", count(moves), "count"});
    out.push_back({"schedule.transfers", count(transfers), "count"});
    out.push_back({"schedule.instructions", count(instructions), "count"});
    out.push_back({"isa.json_bytes", count(bytes), "bytes"});
    out.push_back({"routing.moves_planned", count(planned), "count"});
    out.push_back({"routing.qubits_parked", count(parked), "count"});
    out.push_back({"routing.qubits_evicted", count(evicted), "count"});

    out.push_back({"client.request_ms", p50("client.request_ms"), "ms"});
    out.push_back({"client.unattributed_ms", p50("client.unattributed_ms"), "ms"});
    out.push_back({"client.coverage_pct",
                   request_ms > 0.0 ? 100.0 * (1.0 - uncovered_ms / request_ms)
                                    : 0.0,
                   "%"});
}

/** JobService counters between two snapshots, as per-layer metrics. */
std::vector<Metric>
serviceLayer(const svc::JobServiceStats &before, const svc::JobServiceStats &after)
{
    const auto delta = [](std::size_t x, std::size_t y) {
        return static_cast<double>(x - y);
    };
    const double submitted = delta(after.submitted, before.submitted);
    const double hits = delta(after.memory_hits, before.memory_hits);
    return {
        {"service.hit_ratio", submitted > 0 ? hits / submitted : 0.0, "ratio"},
        {"service.memory_hits", hits, "count"},
        {"service.compiled", delta(after.compiled, before.compiled), "count"},
    };
}

// -------------------------------------------------------- closed loops

/** One compiler per distinct input; machines outlive their compilers. */
struct DirectTarget
{
    std::vector<std::unique_ptr<pm::Machine>> machines;
    std::vector<std::unique_ptr<pm::PowerMoveCompiler>> compilers;
};

DirectTarget
buildTargets(const std::vector<Input> &inputs)
{
    DirectTarget target;
    for (const Input &input : inputs) {
        target.machines.push_back(std::make_unique<pm::Machine>(input.machine));
        target.compilers.push_back(std::make_unique<pm::PowerMoveCompiler>(
            *target.machines.back(), input.options));
    }
    return target;
}

/**
 * One request on the direct path. Returns its latency in ms, excluding
 * the benchmark's own output check; nullopt on failure. @p request is
 * the span request id (0 outside the timed phase).
 */
std::optional<double>
directRequest(Recorder &rec, const DirectTarget &target, std::size_t index,
              std::uint64_t request)
{
    const Input &input = rec.inputs[index];
    const std::uint32_t root = request != 0 ? rec.spans.open(request) : 0;
    const auto begin = Clock::now();
    Clock::time_point check_begin, check_end;
    try {
        pm::qasm::ConvertResult loaded = pm::qasm::loadQasm(input.qasm, input.name);
        const auto loaded_at = Clock::now();
        const pm::CompileResult result =
            target.compilers[index]->compile(loaded.circuit);
        const auto compiled_at = Clock::now();
        pm::validateAgainstCircuit(result.schedule, loaded.circuit);
        const auto validated_at = Clock::now();
        const std::string json = pm::scheduleToJson(result.schedule);
        check_begin = Clock::now();
        const bool same = rec.checkOutput(index, result, json);
        if (root != 0) {
            rec.spans.add(request, root, "qasm.load", begin, loaded_at);
            rec.spans.add(request, root, "compile", loaded_at, compiled_at);
            rec.spans.add(request, root, "isa.validate", compiled_at, validated_at);
            rec.spans.add(request, root, "isa.json", validated_at, check_begin);
            rec.qasm_bytes += static_cast<double>(input.qasm.size());
            rec.json_bytes += static_cast<double>(json.size());
            std::optional<Evaluation> evaluation;
            if (rec.claimEvaluation(index))
                evaluation = evaluateAgain(result);
            rec.recordCompile(index, input.name, result,
                              millis(compiled_at - loaded_at), evaluation);
        }
        check_end = Clock::now();
        if (!same)
            return std::nullopt;
    } catch (const std::exception &e) {
        rec.spans.close(root, 0, "request.failed", begin, Clock::now());
        rec.fail(input.name, e.what());
        return std::nullopt;
    }
    const auto end = Clock::now();
    if (root != 0) {
        rec.spans.add(request, root, "perfbench.check", check_begin, check_end);
        rec.spans.close(root, 0, "request", begin, end);
    }
    return millis(end - begin - (check_end - check_begin));
}

struct ClosedRun
{
    std::unique_ptr<Recorder> rec;
    std::vector<double> setup_s;
    double elapsed_s = 0.0;
};

ClosedRun
runClosed(const Args &args,
          const std::function<std::vector<Input>(std::uint64_t)> &generate)
{
    ClosedRun run;
    DirectTarget target;
    const auto first = Clock::now();
    for (int s = 0; moreSetups(s, first); ++s) {
        // Each set-up starts afresh; the last one is kept.
        target = {};
        const auto t0 = Clock::now();
        std::vector<Input> inputs = generate(args.seed);
        for (Input &input : inputs)
            input.options.profile_passes = args.trace;
        auto rec = std::make_unique<Recorder>(std::move(inputs), args.trace);
        target = buildTargets(rec->inputs);
        for (std::size_t i = 0; i < rec->inputs.size(); ++i)
            directRequest(*rec, target, i, 0);
        run.setup_s.push_back(millis(Clock::now() - t0) / 1e3);
        run.rec = std::move(rec);
    }

    Recorder &rec = *run.rec;
    rec.closeQualitySet();
    const auto start = Clock::now();
    const auto budget = std::chrono::duration<double>(args.seconds);
    do {
        for (std::size_t i = 0; i < rec.inputs.size(); ++i) {
            ++rec.attempted;
            std::uint64_t request = 0;
            if (rec.traced()) {
                rec.request_rows.push_back(rec.rowId(rec.inputs[i].name));
                request = rec.request_rows.size();
            }
            const auto latency = directRequest(rec, target, i, request);
            if (latency) {
                rec.latency_ms.push_back(*latency);
                rec.done_s.push_back(millis(Clock::now() - start) / 1e3);
            }
        }
    } while (Clock::now() - start < budget);
    run.elapsed_s = millis(Clock::now() - start) / 1e3;
    return run;
}

// --------------------------------------------------------- service mix

/** Seeded Zipf(s) sampler over a pool; pool entry i has rank i + 1. */
class ZipfStream
{
  public:
    ZipfStream(std::size_t size, std::uint64_t seed) : rng_(seed)
    {
        double total = 0.0;
        for (std::size_t r = 1; r <= size; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r), kZipfS);
            cdf_.push_back(total);
        }
        for (double &c : cdf_)
            c /= total;
    }

    std::size_t
    next()
    {
        const double u = rng_.nextDouble();
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                     cdf_.size() - 1);
    }

  private:
    pm::Rng rng_;
    std::vector<double> cdf_;
};

std::unique_ptr<svc::JobService>
makeService()
{
    svc::JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = kWorkers;
    options.cache_capacity = kCacheEntries;
    options.max_queue = 4096;
    // Keep few finished-job records (a traced run reads each one right
    // after its job ends), so memory does not grow with the request count.
    options.max_finished_records = 1024;
    return std::make_unique<svc::JobService>(options);
}

const char *
sourceName(svc::ResultSource source)
{
    switch (source) {
    case svc::ResultSource::Compiled:
        return "compiled";
    case svc::ResultSource::Coalesced:
        return "coalesced";
    case svc::ResultSource::Memory:
        return "memory";
    case svc::ResultSource::Disk:
        return "disk";
    }
    return "?";
}

/**
 * One closed-loop request through the service: load, submit, wait for
 * the future, validate, serialize. A timed request (@p request != 0)
 * records its latency, without the benchmark's own output check and
 * trace bookkeeping, and, in a traced run, its spans.
 */
void
serviceRequest(Recorder &rec, svc::JobService &service, std::size_t index,
               std::uint64_t request, Clock::time_point timed_start)
{
    const Input &input = rec.inputs[index];
    const bool timed = request != 0;
    const bool traced = timed && rec.traced();
    const auto started = Clock::now();
    Clock::time_point loaded, submitted, got, validated, serialized;
    svc::JobTicket ticket;
    std::optional<svc::JobResult> out;
    std::string json;
    try {
        pm::qasm::ConvertResult load = pm::qasm::loadQasm(input.qasm, input.name);
        loaded = Clock::now();
        svc::JobRequest job;
        job.job = svc::CompileJob{load.circuit, input.machine, input.options};
        ticket = service.submit(std::move(job));
        submitted = Clock::now();
        out = ticket.result.get();
        got = Clock::now();
        pm::validateAgainstCircuit(out->result->schedule, load.circuit);
        validated = Clock::now();
        json = pm::scheduleToJson(out->result->schedule);
        serialized = Clock::now();
    } catch (const std::exception &e) {
        rec.attempted += timed ? 1 : 0;
        rec.fail(input.name, e.what());
        return;
    }

    const bool same = rec.checkOutput(index, *out->result, json);
    const bool compiled = out->source == svc::ResultSource::Compiled;
    std::uint32_t root = 0;
    if (traced) {
        const std::optional<svc::JobStatus> status = service.status(ticket.id);
        std::optional<Evaluation> evaluation;
        if (compiled && rec.claimEvaluation(index))
            evaluation = evaluateAgain(*out->result);
        const std::string row = input.strategy + "/" + sourceName(out->source);
        rec.request_rows[request - 1] = rec.rowId(row);
        root = rec.spans.open(request);
        rec.spans.add(request, root, "qasm.load", started, loaded);
        rec.spans.add(request, root, "service.submit", loaded, submitted);
        const std::uint32_t wait =
            rec.spans.add(request, root, "service.wait", submitted, got);
        if (status) {
            const auto *admitted = status->timeline.find(svc::JobState::Admitted);
            const auto *running = status->timeline.find(svc::JobState::Running);
            const auto *done = status->timeline.find(svc::JobState::Done);
            if (admitted != nullptr && running != nullptr)
                rec.spans.add(request, wait, "service.queue_wait", admitted->at,
                              running->at);
            if (running != nullptr && done != nullptr)
                rec.spans.add(request, wait, "service.run", running->at, done->at);
        }
        rec.spans.add(request, root, "isa.validate", got, validated);
        rec.spans.add(request, root, "isa.json", validated, serialized);
        rec.qasm_bytes += static_cast<double>(input.qasm.size());
        rec.json_bytes += static_cast<double>(json.size());
        if (compiled)
            rec.recordCompile(index, row, *out->result, std::nullopt, evaluation);
    }
    const auto check_end = Clock::now();
    // Releasing the response is part of the request.
    out.reset();
    json = std::string();
    const auto end = Clock::now();
    if (!timed)
        return;

    ++rec.attempted;
    if (root != 0) {
        rec.spans.add(request, root, "perfbench.check", serialized, check_end);
        rec.spans.close(root, 0, "request", started, end);
    }
    if (same) {
        rec.latency_ms.push_back(millis(end - started - (check_end - serialized)));
        rec.done_s.push_back(millis(end - timed_start) / 1e3);
    }
}

/** Warm-up until the window hit ratio stops changing. */
std::size_t
warmUp(Recorder &rec, svc::JobService &service, ZipfStream &stream)
{
    double previous = -1.0;
    std::size_t requests = 0;
    for (std::size_t w = 0; w < kWarmMaxWindows; ++w) {
        const std::size_t hits_before = service.stats().memory_hits;
        for (std::size_t k = 0; k < kWarmWindow; ++k, ++requests)
            serviceRequest(rec, service, stream.next(), 0, {});
        const double ratio =
            static_cast<double>(service.stats().memory_hits - hits_before) /
            static_cast<double>(kWarmWindow);
        if (previous >= 0.0 && std::abs(ratio - previous) < kWarmTolerance)
            break;
        previous = ratio;
    }
    return requests;
}

struct ServiceRun
{
    std::unique_ptr<Recorder> rec;
    std::vector<double> setup_s;
    double elapsed_s = 0.0;
    svc::JobServiceStats before, after;
    std::size_t warm_requests = 0;
};

ServiceRun
runServiceMix(const Args &args)
{
    ServiceRun run;
    std::unique_ptr<svc::JobService> service;
    const auto first = Clock::now();
    for (int s = 0; moreSetups(s, first); ++s) {
        service.reset();
        const auto t0 = Clock::now();
        std::vector<Input> pool = serviceMixPool(args.seed, kPoolSize);
        for (Input &input : pool)
            input.options.profile_passes = args.trace;
        auto rec = std::make_unique<Recorder>(std::move(pool), args.trace);
        service = makeService();
        // Every pool input is served once, so the quality metrics cover
        // the whole pool; the warm-up then settles the cache.
        for (std::size_t i = 0; i < kPoolSize; ++i)
            serviceRequest(*rec, *service, i, 0, {});
        ZipfStream warm(kPoolSize, args.seed * 2 + 1);
        run.warm_requests = warmUp(*rec, *service, warm);
        run.setup_s.push_back(millis(Clock::now() - t0) / 1e3);
        run.rec = std::move(rec);
    }

    Recorder &rec = *run.rec;
    rec.closeQualitySet();
    ZipfStream stream(kPoolSize, args.seed * 2 + 2);
    run.before = service->stats();
    const auto start = Clock::now();
    const auto budget = std::chrono::duration<double>(args.seconds);
    std::uint64_t request = 0;
    while (Clock::now() - start < budget) {
        if (rec.traced())
            rec.request_rows.push_back(0);
        serviceRequest(rec, *service, stream.next(), ++request, start);
    }
    run.elapsed_s = millis(Clock::now() - start) / 1e3;
    run.after = service->stats();
    return run;
}

// ------------------------------------------------------------ printing

void
printMetric(const Metric &m)
{
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/** The per-row table of a traced run. */
void
printRows(const Layers &layers)
{
    static const std::vector<std::pair<const char *, const char *>> kColumns{
        {"request", "client.request_ms"}, {"load", "qasm.load"},
        {"compile", "compile"},           {"wait", "service.wait"},
        {"passes", "compile.passes_ms"},  {"evaluate", "fidelity.evaluate_ms"},
        {"validate", "isa.validate"},     {"json", "isa.json"},
        {"unattr", "client.unattributed_ms"}};
    std::printf("per-row layer times, ms, median/p95 per request "
                "(passes/evaluate: fresh compiles only)\n");
    std::printf("  %-34s %7s", "row", "n");
    for (const auto &[title, name] : kColumns)
        std::printf(" %15s", title);
    std::printf("\n");
    for (const auto &[row, values] : layers.rows()) {
        const auto it = values.find("client.request_ms");
        std::printf("  %-34s %7zu", row.c_str(),
                    it == values.end() ? std::size_t{0} : it->second.size());
        for (const auto &[title, name] : kColumns) {
            const auto col = values.find(name);
            if (col == values.end()) {
                std::printf(" %15s", "-");
                continue;
            }
            char cell[32];
            std::snprintf(cell, sizeof(cell), "%.3f/%.3f", median(col->second),
                          quantile(col->second, 0.95));
            std::printf(" %15s", cell);
        }
        std::printf("\n");
    }
}

void
printJsonLine(bool correct, std::size_t attempted, std::size_t failed,
              const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // Re-run once with address-space randomization off: a fixed layout
    // cuts the run-to-run spread of microsecond-scale timings severalfold.
    // If either call fails, the run goes on with a randomized layout.
    const int persona = personality(0xffffffff);
    if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
        personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) != -1)
        execv("/proc/self/exe", argv);

    const Args args = parseArgs(argc, argv);

    std::unique_ptr<Recorder> rec;
    std::vector<double> setup_s;
    double elapsed_s = 0.0;
    // Service counters over the timed phase; all zero on the closed loops.
    svc::JobServiceStats before, after;
    std::string note;
    try {
        if (args.workload == "service-mix") {
            ServiceRun run = runServiceMix(args);
            rec = std::move(run.rec);
            setup_s = run.setup_s;
            elapsed_s = run.elapsed_s;
            before = run.before;
            after = run.after;
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "warm-up %zu requests; hit ratio %.4f",
                          run.warm_requests, serviceLayer(before, after)[0].value);
            note = buf;
        } else {
            ClosedRun run = runClosed(args, args.workload == "table2"
                                                ? table2Inputs
                                                : scaleInputs);
            rec = std::move(run.rec);
            setup_s = run.setup_s;
            elapsed_s = run.elapsed_s;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    const double samples = static_cast<double>(rec->latency_ms.size());
    const Timing timing = windowed(rec->latency_ms, rec->done_s, elapsed_s);
    std::vector<Metric> e2e{
        {"setup_s", quantile(setup_s, 0.25), "s"},
        {"throughput_rps", timing.throughput_rps, "1/s"},
        {"latency_p50_ms", timing.p50_ms, "ms"},
        {"latency_p90_ms", timing.p90_ms, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    addQuality(*rec, e2e);

    bool correct = rec->failed == 0 && rec->latency_ms.size() >= 200;
    if (rec->latency_ms.size() < 200)
        std::fprintf(stderr, "perfbench: only %zu latency samples (< 200)\n",
                     rec->latency_ms.size());
    for (const Metric &m : e2e)
        if (!std::isfinite(m.value) || m.value <= 0.0) {
            std::fprintf(stderr, "perfbench: metric %s is %g\n", m.name.c_str(),
                         m.value);
            correct = false;
        }

    std::size_t served = 0;
    const std::uint64_t digest = outputDigest(*rec, served);
    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0);
    std::printf("  %zu distinct inputs, %zu served in set-up; %zu attempted, %zu failed "
                "(failed_frac %.6g); %zu latency samples over %.3f s\n",
                rec->inputs.size(), served, rec->attempted, rec->failed,
                rec->attempted ? static_cast<double>(rec->failed) /
                                     static_cast<double>(rec->attempted)
                               : 0.0,
                rec->latency_ms.size(), elapsed_s);
    if (!note.empty())
        std::printf("  %s\n", note.c_str());
    std::printf("digest %s seed %llu: isa-json fnv1a %016llx over %zu inputs\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(digest), served);

    std::vector<Metric> printed;
    if (!args.trace) {
        std::printf("end-to-end metrics:\n");
        for (const Metric &m : e2e)
            printMetric(m);
        printed = e2e;
    } else {
        std::vector<Metric> per_layer;
        addLayers(*rec, per_layer);
        for (const Metric &m : serviceLayer(before, after))
            per_layer.push_back(m);
        per_layer.push_back({"client.latency_samples", samples, "count"});
        for (const Metric &m : e2e)
            if (m.name == "throughput_rps" || m.name == "latency_p50_ms" ||
                m.name == "latency_p90_ms")
                per_layer.push_back({"trace." + m.name, m.value, m.unit});
        printRows(rec->layers);
        std::printf("per-layer metrics:\n");
        for (const Metric &m : per_layer)
            printMetric(m);
        printed = per_layer;
        if (!args.trace_out.empty() &&
            !rec->spans.write(args.trace_out, rec->spans.spans().empty()
                                                  ? Clock::now()
                                                  : rec->spans.spans()[0].start)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.trace_out.c_str());
            correct = false;
        }
    }
    printJsonLine(correct, rec->attempted, rec->failed, printed);
    std::fflush(stdout);
    return correct ? 0 : 1;
}
