/**
 * @file
 * The `powermove` command-line front-end.
 *
 * Reads one or more OpenQASM 2.0 files, compiles them concurrently
 * through the JobService (one shard, --jobs workers), writes one ISA
 * JSON document
 * per input (`<stem>.isa.json`), and prints a fidelity/summary report
 * per circuit. Duplicate inputs (or re-runs against a warm service) are
 * deduplicated by the content-addressed cache.
 *
 * Usage:
 *   powermove [options] <file.qasm>...
 *
 * Value-taking options accept both `--flag value` and `--flag=value`.
 *
 * Options:
 *   --jobs N       worker threads (default: one per hardware thread)
 *   --cache-dir DIR  persistent on-disk compile cache: results survive
 *                  restarts and are shared across processes pointed at
 *                  the same directory
 *   --priority P   job priority for every input (higher runs earlier;
 *                  may be negative)
 *   --deadline-ms D  per-job queue-wait bound in milliseconds; jobs
 *                  still queued past it expire
 *   --max-queue N  admission bound: queued jobs beyond it are rejected
 *                  (default 1024, 0 = unbounded)
 *   --num-aods N   independent AOD arrays per compilation (default 1)
 *   --no-storage   storage-free configuration (all qubits in compute)
 *   --seed S       base RNG seed (per-job streams are derived from it)
 *   --alpha A      stage-ordering weight alpha in (0, 1] (default 0.5)
 *   --placement P  initial-layout strategy (src/placement/)
 *   --placement-refine-iters N  routing-aware local-search budget in
 *                  sweeps (default 32; 0 = greedy layout only)
 *   --routing R    stage-transition routing (src/route/, src/reuse/)
 *   --residency P  reuse residency (cache replacement) policy
 *                  (--routing reuse only; src/reuse/policy.*)
 *   --reuse-lookahead N  reuse hold window in stages (default 4)
 *   --routing-window N  windowed-routing candidate orderings per stage
 *                  transition (default 8; --routing windowed only)
 *   --list-strategies  print every strategy dimension with its value
 *                  names and exit; --help and the "unknown value"
 *                  errors list the same names, all taken from
 *                  strategyCatalog()
 *   --profile      print the per-pass time/counter breakdown per input
 *   --fuse         fuse commutable CZ blocks before compiling
 *   --out-dir DIR  directory for ISA JSON (default: next to each input)
 *   --no-json      skip ISA JSON emission
 *   --stats        print service counters (and, with --profile, the
 *                  service-wide per-pass totals) before exiting
 *
 * Observability (any of these turns instrumentation on; without them
 * the service runs with observability disabled — one branch per site):
 *   --metrics-out PATH   write the metric registry as Prometheus text
 *                  exposition on exit
 *   --metrics-json PATH  write the same registry as JSON on exit
 *   --trace-out PATH  write per-job spans as Chrome trace-event JSON
 *                  (loadable in Perfetto / chrome://tracing)
 *   --log-level L  structured logfmt logging to stderr at trace, debug,
 *                  info, warn, error, or off (default info when any
 *                  observability flag is set)
 *   --slow-job-ms D  log a warn-level slow_job line for any job whose
 *                  submit-to-terminal time is >= D ms
 *   --stats-every-ms N  log one info-level stats line every N ms (and a
 *                  final one on shutdown)
 *   --stats-json PATH  write the tiered service counters as JSON on
 *                  exit (works with and without the flags above)
 *   --help         this text
 *
 * Exit status: 0 if every input compiled, 1 otherwise.
 */

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "circuit/fuse.hpp"
#include "common/error.hpp"
#include "compiler/strategies.hpp"
#include "isa/json.hpp"
#include "isa/validator.hpp"
#include "obs/observability.hpp"
#include "qasm/converter.hpp"
#include "report/summary.hpp"
#include "service/job_service.hpp"

namespace {

using namespace powermove;

struct CliOptions
{
    std::vector<std::string> inputs;
    std::size_t jobs = 0; // 0 = hardware concurrency
    CompilerOptions compiler;
    bool fuse = false;
    bool emit_json = true;
    bool print_stats = false;
    bool print_profile = false;
    std::string out_dir;
    /** Persistent disk-cache directory; empty disables the disk tier. */
    std::string cache_dir;
    /** Priority applied to every submission. */
    int priority = 0;
    /** Queue-wait deadline per job in ms; 0 = none. */
    double deadline_ms = 0.0;
    /** Admission bound; 0 = unbounded. */
    std::size_t max_queue = 1024;
    /** Prometheus text exposition destination; empty = no export. */
    std::string metrics_out;
    /** JSON metrics destination; empty = no export. */
    std::string metrics_json;
    /** Chrome trace-event JSON destination; empty = no export. */
    std::string trace_out;
    /** Tiered service counters JSON destination; empty = no export. */
    std::string stats_json;
    /** Structured-log threshold; meaningful when log_level_set. */
    obs::LogLevel log_level = obs::LogLevel::Info;
    bool log_level_set = false;
    /** slow_job warn threshold in ms; 0 disables. */
    double slow_job_ms = 0.0;
    /** Periodic stats-line interval in ms; 0 disables. */
    std::size_t stats_every_ms = 0;
};

/**
 * The catalog's value names for the strategy selected by @p flag, as
 * "a, b, or c" ("a or b" for two), default first; with @p mark_default
 * the default carries " (default)". --help and the "unknown value"
 * errors both spell strategy values only through here.
 */
std::string
catalogValues(std::string_view flag, bool mark_default)
{
    std::string out;
    for (const StrategyCatalogEntry &entry : strategyCatalog()) {
        if (entry.flag != flag)
            continue;
        const std::size_t count = entry.values.size();
        for (std::size_t i = 0; i < count; ++i) {
            if (i > 0)
                out += count > 2 ? ", " : " ";
            if (i > 0 && i + 1 == count)
                out += "or ";
            out += entry.values[i];
            if (i == 0 && mark_default)
                out += " (default)";
        }
    }
    return out;
}

void
printUsage(std::FILE *stream)
{
    std::fprintf(
        stream,
        "usage: powermove [options] <file.qasm>...\n"
        "\n"
        "Compiles OpenQASM 2.0 circuits for a zoned neutral-atom machine\n"
        "through a thread-pooled, cache-fronted job service, emitting\n"
        "<stem>.isa.json plus a fidelity summary per input.\n"
        "\n"
        "Value-taking options accept --flag VALUE and --flag=VALUE.\n"
        "\n"
        "options:\n"
        "  --jobs N       worker threads (default: hardware concurrency)\n"
        "  --cache-dir DIR\n"
        "                 persistent on-disk compile cache shared across\n"
        "                 runs and processes\n"
        "  --priority P   per-input job priority, higher runs earlier\n"
        "                 (may be negative)\n"
        "  --deadline-ms D\n"
        "                 queue-wait bound per job in milliseconds\n"
        "                 (0 = none)\n"
        "  --max-queue N  admission bound, 0 = unbounded (default 1024)\n"
        "  --num-aods N   independent AOD arrays (default 1)\n"
        "  --no-storage   storage-free configuration\n"
        "  --seed S       base RNG seed (default 0xC0FFEE)\n"
        "  --alpha A      stage-ordering weight in (0, 1] (default 0.5)\n"
        "  --placement P  initial layout, one of:\n"
        "                 %s\n"
        "  --placement-refine-iters N\n"
        "                 routing-aware local-search sweeps (default 32,\n"
        "                 0 = greedy only)\n"
        "  --routing R    stage-transition routing, one of:\n"
        "                 %s\n"
        "  --residency P  reuse residency policy (--routing reuse only),\n"
        "                 one of: %s\n"
        "  --reuse-lookahead N\n"
        "                 reuse hold window in stages (default 4)\n"
        "  --routing-window N\n"
        "                 windowed-routing orderings per transition\n"
        "                 (default 8; --routing windowed only)\n"
        "  --list-strategies\n"
        "                 print every strategy dimension with its value\n"
        "                 names and exit\n"
        "  --profile      print the per-pass time/counter breakdown\n"
        "  --fuse         fuse commutable CZ blocks before compiling\n"
        "  --out-dir DIR  directory for ISA JSON output\n"
        "  --no-json      skip ISA JSON emission\n"
        "  --stats        print service counters before exiting\n"
        "  --metrics-out PATH\n"
        "                 write metrics as Prometheus text exposition\n"
        "  --metrics-json PATH\n"
        "                 write metrics as JSON\n"
        "  --trace-out PATH\n"
        "                 write per-job spans as Chrome trace-event JSON\n"
        "  --log-level L  logfmt logging to stderr: trace, debug, info,\n"
        "                 warn, error, or off\n"
        "  --slow-job-ms D\n"
        "                 warn-log jobs slower than D ms end to end\n"
        "  --stats-every-ms N\n"
        "                 log a stats line every N ms\n"
        "  --stats-json PATH\n"
        "                 write tiered service counters as JSON\n"
        "  --help         show this text\n"
        "\n"
        "For the best Eq. 1 fidelity at a higher compile time, use\n"
        "--placement routing-aware --routing windowed (never worse than\n"
        "the defaults on the Table 2 and scale inputs; see\n"
        "docs/strategies.md).\n",
        catalogValues("--placement", true).c_str(),
        catalogValues("--routing", true).c_str(),
        catalogValues("--residency", true).c_str());
}

/**
 * Prints the strategy catalog: every pass dimension with its value
 * names (defaults first) and the flag that selects it, so nobody has
 * to guess flag spellings from the docs.
 */
void
printStrategies()
{
    std::printf("strategy dimensions (default value listed first):\n");
    for (const StrategyCatalogEntry &entry : strategyCatalog()) {
        std::string values;
        for (std::size_t i = 0; i < entry.values.size(); ++i) {
            if (i > 0)
                values += " | ";
            values += entry.values[i];
            if (i == 0)
                values += " (default)";
        }
        const std::string dimension(entry.dimension);
        const std::string flag =
            entry.flag.empty() ? "(library-only)" : std::string(entry.flag);
        std::printf("  %-16s %-18s %s\n", dimension.c_str(), flag.c_str(),
                    values.c_str());
    }
}

/**
 * Expands argv into a flat token list, splitting `--flag=value` into
 * `--flag` and `value` so both spellings parse identically. Only flags
 * that actually take a value are split — `--profile=1` stays intact
 * and fails as an unknown option instead of leaking `1` into the
 * input-file list (and file names containing '=' are never flags).
 */
std::vector<std::string>
expandArgs(int argc, char **argv)
{
    // Must list every value-taking branch of parseArgs() below, or the
    // `--flag=value` spelling of a new flag fails as an unknown option
    // while `--flag value` works.
    static constexpr const char *kValueFlags[] = {
        "--jobs",      "--num-aods",        "--seed",
        "--alpha",     "--placement",       "--routing",
        "--residency", "--reuse-lookahead", "--routing-window",
        "--out-dir",   "--placement-refine-iters",
        "--cache-dir", "--priority",        "--deadline-ms",
        "--max-queue", "--metrics-out",     "--metrics-json",
        "--trace-out", "--log-level",       "--slow-job-ms",
        "--stats-every-ms", "--stats-json",
    };
    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(argc));
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        bool split = false;
        if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-' &&
            eq != std::string::npos) {
            const std::string flag = arg.substr(0, eq);
            for (const char *value_flag : kValueFlags)
                split = split || flag == value_flag;
        }
        if (split) {
            args.push_back(arg.substr(0, eq));
            args.push_back(arg.substr(eq + 1));
        } else {
            args.push_back(arg);
        }
    }
    return args;
}

/** Parses argv; returns false (after usage) on malformed input. */
bool
parseArgs(int argc, char **argv, CliOptions &cli)
{
    const std::vector<std::string> args = expandArgs(argc, argv);
    const std::size_t count = args.size();

    const auto take_value = [&](const char *flag, std::size_t &i,
                                std::string &out) -> bool {
        if (i + 1 >= count) {
            std::fprintf(stderr, "powermove: %s requires a value\n", flag);
            return false;
        }
        out = args[++i];
        return true;
    };

    // Unsigned flag value in [0, max]. strtoull saturates out-of-range
    // input with ERANGE, and the 32-bit option fields would truncate
    // anything above UINT32_MAX, so both are rejected, never wrapped.
    const auto numeric = [&](const char *flag, std::size_t &i,
                             std::uint64_t &out,
                             std::uint64_t max = UINT64_MAX) -> bool {
        std::string text;
        if (!take_value(flag, i, text))
            return false;
        char *end = nullptr;
        errno = 0;
        // strtoull silently wraps negatives to huge values; reject signs.
        out = (text[0] == '-' || text[0] == '+')
                  ? 0
                  : std::strtoull(text.c_str(), &end, 0);
        if (end == text.c_str() || end == nullptr || *end != '\0' ||
            errno == ERANGE || out > max) {
            std::fprintf(stderr, "powermove: bad value for %s: '%s'\n", flag,
                         text.c_str());
            return false;
        }
        return true;
    };

    // A strategy value, parsed by @p parse; an unknown name lists the
    // catalog's values for @p flag.
    const auto strategy = [&](const char *flag, const char *what,
                              std::size_t &i, auto parse,
                              auto &out) -> bool {
        std::string text;
        if (!take_value(flag, i, text))
            return false;
        if (parse(text, out))
            return true;
        std::fprintf(stderr, "powermove: unknown %s '%s' (expected %s)\n",
                     what, text.c_str(), catalogValues(flag, false).c_str());
        return false;
    };

    for (std::size_t i = 0; i < count; ++i) {
        const std::string &arg = args[i];
        std::uint64_t value = 0;
        std::string text;
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            std::exit(0);
        } else if (arg == "--list-strategies") {
            printStrategies();
            std::exit(0);
        } else if (arg == "--jobs") {
            if (!numeric("--jobs", i, value))
                return false;
            cli.jobs = static_cast<std::size_t>(value);
        } else if (arg == "--cache-dir") {
            if (!take_value("--cache-dir", i, text))
                return false;
            cli.cache_dir = text;
        } else if (arg == "--max-queue") {
            if (!numeric("--max-queue", i, value))
                return false;
            cli.max_queue = static_cast<std::size_t>(value);
        } else if (arg == "--priority") {
            if (!take_value("--priority", i, text))
                return false;
            char *end = nullptr;
            const long priority = std::strtol(text.c_str(), &end, 0);
            if (end == text.c_str() || *end != '\0') {
                std::fprintf(stderr,
                             "powermove: bad value for --priority: '%s'\n",
                             text.c_str());
                return false;
            }
            cli.priority = static_cast<int>(priority);
        } else if (arg == "--deadline-ms") {
            if (!take_value("--deadline-ms", i, text))
                return false;
            char *end = nullptr;
            const double deadline = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' || deadline < 0.0) {
                std::fprintf(stderr,
                             "powermove: --deadline-ms must be >= 0, got "
                             "'%s'\n",
                             text.c_str());
                return false;
            }
            cli.deadline_ms = deadline;
        } else if (arg == "--num-aods") {
            if (!numeric("--num-aods", i, value))
                return false;
            cli.compiler.num_aods = static_cast<std::size_t>(value);
        } else if (arg == "--seed") {
            if (!numeric("--seed", i, value))
                return false;
            cli.compiler.seed = value;
        } else if (arg == "--reuse-lookahead") {
            if (!numeric("--reuse-lookahead", i, value, UINT32_MAX))
                return false;
            if (value == 0) {
                std::fprintf(stderr,
                             "powermove: --reuse-lookahead must be >= 1\n");
                return false;
            }
            cli.compiler.reuse_lookahead =
                static_cast<std::uint32_t>(value);
        } else if (arg == "--routing-window") {
            if (!numeric("--routing-window", i, value, UINT32_MAX))
                return false;
            if (value == 0) {
                std::fprintf(stderr,
                             "powermove: --routing-window must be >= 1\n");
                return false;
            }
            cli.compiler.routing_window = static_cast<std::uint32_t>(value);
        } else if (arg == "--alpha") {
            if (!take_value("--alpha", i, text))
                return false;
            char *end = nullptr;
            const double alpha = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' || !(alpha > 0.0) ||
                alpha > 1.0) {
                std::fprintf(stderr,
                             "powermove: --alpha must be in (0, 1], got "
                             "'%s'\n",
                             text.c_str());
                return false;
            }
            cli.compiler.stage_order_alpha = alpha;
        } else if (arg == "--placement") {
            if (!strategy("--placement", "placement", i,
                          parsePlacementStrategy, cli.compiler.placement))
                return false;
        } else if (arg == "--placement-refine-iters") {
            if (!numeric("--placement-refine-iters", i, value, UINT32_MAX))
                return false;
            cli.compiler.placement_refine_iters =
                static_cast<std::uint32_t>(value);
        } else if (arg == "--routing") {
            if (!strategy("--routing", "routing", i, parseRoutingStrategy,
                          cli.compiler.routing))
                return false;
        } else if (arg == "--residency") {
            if (!strategy("--residency", "residency policy", i,
                          parseResidencyPolicy, cli.compiler.residency))
                return false;
        } else if (arg == "--metrics-out") {
            if (!take_value("--metrics-out", i, text))
                return false;
            cli.metrics_out = text;
        } else if (arg == "--metrics-json") {
            if (!take_value("--metrics-json", i, text))
                return false;
            cli.metrics_json = text;
        } else if (arg == "--trace-out") {
            if (!take_value("--trace-out", i, text))
                return false;
            cli.trace_out = text;
        } else if (arg == "--stats-json") {
            if (!take_value("--stats-json", i, text))
                return false;
            cli.stats_json = text;
        } else if (arg == "--log-level") {
            if (!take_value("--log-level", i, text))
                return false;
            if (!obs::parseLogLevel(text, cli.log_level)) {
                std::fprintf(stderr,
                             "powermove: unknown log level '%s' (expected "
                             "trace, debug, info, warn, error, or off)\n",
                             text.c_str());
                return false;
            }
            cli.log_level_set = true;
        } else if (arg == "--slow-job-ms") {
            if (!take_value("--slow-job-ms", i, text))
                return false;
            char *end = nullptr;
            const double slow = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' || slow < 0.0) {
                std::fprintf(stderr,
                             "powermove: --slow-job-ms must be >= 0, got "
                             "'%s'\n",
                             text.c_str());
                return false;
            }
            cli.slow_job_ms = slow;
        } else if (arg == "--stats-every-ms") {
            if (!numeric("--stats-every-ms", i, value))
                return false;
            cli.stats_every_ms = static_cast<std::size_t>(value);
        } else if (arg == "--profile") {
            cli.print_profile = true;
        } else if (arg == "--no-storage") {
            cli.compiler.use_storage = false;
        } else if (arg == "--fuse") {
            cli.fuse = true;
        } else if (arg == "--no-json") {
            cli.emit_json = false;
        } else if (arg == "--stats") {
            cli.print_stats = true;
        } else if (arg == "--out-dir") {
            if (!take_value("--out-dir", i, text))
                return false;
            cli.out_dir = text;
        } else if (arg.size() > 1 && arg[0] == '-') {
            std::fprintf(stderr, "powermove: unknown option '%s'\n",
                         arg.c_str());
            printUsage(stderr);
            return false;
        } else {
            cli.inputs.push_back(arg);
        }
    }
    if (cli.inputs.empty()) {
        std::fprintf(stderr, "powermove: no input files\n");
        printUsage(stderr);
        return false;
    }
    return true;
}

/** `<out-dir or input dir>/<stem>.isa.json` for @p input. */
std::filesystem::path
jsonPathFor(const std::string &input, const std::string &out_dir)
{
    const std::filesystem::path source(input);
    std::filesystem::path dir =
        out_dir.empty() ? source.parent_path() : std::filesystem::path(out_dir);
    return dir / (source.stem().string() + ".isa.json");
}

/** Writes @p content to @p path; reports and returns false on failure. */
bool
writeTextFile(const std::string &path, const std::string &content)
{
    std::ofstream file(path);
    if (!file) {
        std::fprintf(stderr, "powermove: cannot write '%s'\n", path.c_str());
        return false;
    }
    file << content;
    file.flush();
    if (file.fail()) {
        std::fprintf(stderr, "powermove: write to '%s' failed\n",
                     path.c_str());
        return false;
    }
    return true;
}

/** Appends `  "key": value,\n` (no trailing comma when @p last). */
void
appendJsonCount(std::string &out, std::string_view indent,
                std::string_view key, std::uint64_t value, bool last = false)
{
    out += indent;
    out += '"';
    out += key;
    out += "\": ";
    out += std::to_string(value);
    out += last ? "\n" : ",\n";
}

/** JobServiceStats as a JSON document (--stats-json). */
std::string
statsToJson(const service::JobServiceStats &stats)
{
    std::string out = "{\n  \"service\": \"job\",\n";
    appendJsonCount(out, "  ", "num_shards", stats.num_shards);
    appendJsonCount(out, "  ", "workers_per_shard", stats.workers_per_shard);
    appendJsonCount(out, "  ", "submitted", stats.submitted);
    appendJsonCount(out, "  ", "coalesced", stats.coalesced);
    appendJsonCount(out, "  ", "memory_hits", stats.memory_hits);
    appendJsonCount(out, "  ", "disk_hits", stats.disk_hits);
    appendJsonCount(out, "  ", "compiled", stats.compiled);
    appendJsonCount(out, "  ", "failed", stats.failed);
    appendJsonCount(out, "  ", "rejected", stats.rejected);
    appendJsonCount(out, "  ", "expired", stats.expired);
    appendJsonCount(out, "  ", "queued", stats.queued);
    out += "  \"disk\": {\n";
    appendJsonCount(out, "    ", "hits", stats.disk.hits);
    appendJsonCount(out, "    ", "misses", stats.disk.misses);
    appendJsonCount(out, "    ", "stores", stats.disk.stores);
    appendJsonCount(out, "    ", "corrupt", stats.disk.corrupt);
    appendJsonCount(out, "    ", "evictions", stats.disk.evictions);
    appendJsonCount(out, "    ", "entries", stats.disk.entries);
    appendJsonCount(out, "    ", "bytes", stats.disk.bytes, true);
    out += "  }\n}\n";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    if (!parseArgs(argc, argv, cli))
        return 1;

    if (!cli.out_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cli.out_dir, ec);
        if (ec) {
            std::fprintf(stderr, "powermove: cannot create '%s': %s\n",
                         cli.out_dir.c_str(), ec.message().c_str());
            return 1;
        }
    }

    // Any observability flag builds the shared bundle; without one the
    // service runs with instrumentation fully disabled.
    const bool want_obs = !cli.metrics_out.empty() ||
                          !cli.metrics_json.empty() ||
                          !cli.trace_out.empty() || cli.log_level_set ||
                          cli.slow_job_ms > 0.0 || cli.stats_every_ms > 0;
    std::shared_ptr<obs::Observability> bundle;
    if (want_obs) {
        obs::ObservabilityOptions obs_options;
        if (cli.log_level_set)
            obs_options.log_level = cli.log_level;
        bundle = std::make_shared<obs::Observability>(obs_options);
    }
    // One shard, so --jobs N means exactly N workers (0 = one per
    // hardware thread).
    service::JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = cli.jobs;
    options.cache_capacity = 256;
    options.max_queue = cli.max_queue;
    options.cache_dir = cli.cache_dir;
    options.obs = bundle;
    options.slow_job_ms = cli.slow_job_ms;
    service::JobService svc(options);

    // One stats line every --stats-every-ms, plus a final one at
    // shutdown (the reporter fires once on destruction if it never
    // fired); destroyed before the exports snapshot the registry.
    std::unique_ptr<obs::PeriodicReporter> reporter;
    if (cli.stats_every_ms > 0)
        reporter = std::make_unique<obs::PeriodicReporter>(
            std::chrono::milliseconds(cli.stats_every_ms), [&] {
                const service::JobServiceStats s = svc.stats();
                bundle->log.info("stats", {{"submitted", s.submitted},
                                           {"queued", s.queued},
                                           {"coalesced", s.coalesced},
                                           {"memory_hits", s.memory_hits},
                                           {"disk_hits", s.disk_hits},
                                           {"compiled", s.compiled},
                                           {"failed", s.failed},
                                           {"rejected", s.rejected},
                                           {"expired", s.expired}});
            });

    // Load every input and submit it immediately, so the pool compiles
    // early files while later ones are still being parsed.
    struct InFlight
    {
        std::string input;
        Circuit circuit;
        std::future<service::JobResult> future;
        std::string load_error;
    };
    std::vector<InFlight> flights;
    flights.reserve(cli.inputs.size());

    for (const std::string &input : cli.inputs) {
        InFlight flight;
        flight.input = input;
        try {
            qasm::ConvertResult loaded = qasm::loadQasmFile(input);
            Circuit circuit = std::move(loaded.circuit);
            circuit.setName(std::filesystem::path(input).stem().string());
            if (cli.fuse)
                circuit = fuseCommutableBlocks(circuit);
            const MachineConfig config =
                MachineConfig::forQubits(circuit.numQubits());
            flight.circuit = circuit;
            service::JobRequest request;
            request.job =
                service::CompileJob{std::move(circuit), config, cli.compiler};
            request.priority = cli.priority;
            request.deadline_ms = cli.deadline_ms;
            flight.future = svc.submit(std::move(request)).result;
        } catch (const std::exception &e) {
            flight.load_error = e.what();
        }
        flights.push_back(std::move(flight));
    }

    int failures = 0;
    for (InFlight &flight : flights) {
        if (!flight.load_error.empty()) {
            std::fprintf(stderr, "powermove: %s: %s\n", flight.input.c_str(),
                         flight.load_error.c_str());
            ++failures;
            continue;
        }
        try {
            const service::JobResult out = flight.future.get();
            const CompileResult &result = *out.result;
            validateAgainstCircuit(result.schedule, flight.circuit);

            std::printf("%s: %zu qubits, %zu CZ gates, %zu 1Q gates%s\n",
                        flight.input.c_str(), flight.circuit.numQubits(),
                        flight.circuit.numCzGates(),
                        flight.circuit.numOneQGates(),
                        out.from_cache ? " [cached]" : "");
            std::printf("  schedule: %zu stages, %zu coll-moves, %zu "
                        "transfers\n",
                        result.num_stages, result.num_coll_moves,
                        result.schedule.numTransfers());
            std::printf("  metrics: %s\n", result.metrics.toString().c_str());
            std::printf("  compile time: %.1f us\n",
                        result.compile_time.micros());
            if (cli.print_profile)
                std::printf("%s", formatPassProfiles(result.pass_profiles)
                                      .c_str());

            if (cli.emit_json) {
                const auto json_path = jsonPathFor(flight.input, cli.out_dir);
                std::ofstream json_file(json_path);
                if (!json_file) {
                    std::fprintf(stderr, "powermove: cannot write '%s'\n",
                                 json_path.string().c_str());
                    ++failures;
                    continue;
                }
                json_file << scheduleToJson(result.schedule) << '\n';
                std::printf("  isa json: %s\n", json_path.string().c_str());
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "powermove: %s: %s\n", flight.input.c_str(),
                         e.what());
            ++failures;
        }
    }

    if (cli.print_stats) {
        const service::JobServiceStats stats = svc.stats();
        std::printf("job service: %zu shards x %zu workers; %zu submitted; "
                    "tiers: %zu coalesced / %zu memory / %zu disk / "
                    "%zu compiled; %zu failed, %zu rejected, %zu expired\n",
                    stats.num_shards, stats.workers_per_shard,
                    stats.submitted, stats.coalesced, stats.memory_hits,
                    stats.disk_hits, stats.compiled, stats.failed,
                    stats.rejected, stats.expired);
        if (!cli.cache_dir.empty())
            std::printf("disk cache: %zu hit / %zu miss / %zu stored / "
                        "%zu corrupt / %zu evicted (%zu entries, %llu "
                        "bytes)\n",
                        stats.disk.hits, stats.disk.misses, stats.disk.stores,
                        stats.disk.corrupt, stats.disk.evictions,
                        stats.disk.entries,
                        static_cast<unsigned long long>(stats.disk.bytes));
        if (cli.print_profile)
            std::printf("service pass totals:\n%s",
                        formatPassProfiles(stats.pass_totals).c_str());
    }

    // Machine-readable exports, after the final stats line so the
    // registry snapshot includes everything the run observed.
    reporter.reset();
    if (bundle != nullptr) {
        if (!cli.metrics_out.empty() &&
            !writeTextFile(cli.metrics_out,
                           bundle->metrics.toPrometheusText()))
            ++failures;
        if (!cli.metrics_json.empty() &&
            !writeTextFile(cli.metrics_json, bundle->metrics.toJson()))
            ++failures;
        if (!cli.trace_out.empty() &&
            !writeTextFile(cli.trace_out, bundle->trace.toChromeTraceJson()))
            ++failures;
    }
    if (!cli.stats_json.empty()) {
        if (!writeTextFile(cli.stats_json, statsToJson(svc.stats())))
            ++failures;
    }
    return failures == 0 ? 0 : 1;
}
