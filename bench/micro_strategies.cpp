/**
 * @file
 * Strategy comparison scored by Eq. 1, and the planned-moves baseline
 * gate.
 *
 * Compiles every Table 2 benchmark, plus depth-2 VQE ansatze (two CZ
 * blocks, so chain-end qubits idle in the compute zone between
 * entanglement layers: the canonical multi-block workload), under each
 * named CompilerOptions setting of kSettings: the default, routing-aware
 * placement (Stade et al.), atom reuse under every residency policy
 * (Lin et al.), their combination, and windowed routing. Each
 * (entry, setting) pair compiles with pass profiling on (profiling never
 * changes a schedule), keeping the fastest of kRepeats compiles whole,
 * and its schedule is validated against the source circuit. A row
 * reports planned moves, total move distance, the routing counters, the
 * Eq. 1 difference against the default as d(-log10 F) (the per-factor
 * log sum, finite where F underflows; negative means the setting keeps
 * more fidelity), and the min-of-N compile time.
 *
 * The summary gives each setting's better/worse/equal count on Eq. 1
 * against the default and its mean d(log10 F) (the negated row delta,
 * so positive means better). Gates (exit 1):
 *
 *  - every schedule validates;
 *  - with --baseline, planned moves of the four baselined settings stay
 *    within --tolerance percent (default 5) of bench/baselines.json,
 *    keyed "name|routing|placement";
 *  - `parked_no_reuse + window_misses == lookahead_misses` (the miss
 *    split is exact) and `residency_holds_started ==
 *    residency_holds_ended` (every residency span settles by program
 *    end), on every compile;
 *  - cross-block reuse: on the QSIM-rand-0.3 and QFT families `lti`
 *    measures more reuse hits than `lookahead`, and on BV it plans no
 *    more moves.
 *
 * Flags: --smoke (one entry per family; the ctest and CI mode),
 * --json PATH, --baseline PATH, --tolerance PCT, --write-baseline PATH
 * (writes the baseline map of the current tree, over the full entry
 * list). Flag errors exit 2. Planned moves are deterministic for a
 * fixed (circuit, machine, options) triple, so the baseline gate is
 * exact; only compile_us is noisy.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/powermove.hpp"
#include "harness.hpp"
#include "isa/validator.hpp"
#include "report/table.hpp"
#include "workloads/suite.hpp"
#include "workloads/vqe.hpp"

namespace {

using namespace powermove;
using bench::fmt;

constexpr int kRepeats = 3;

struct Entry
{
    std::string name;
    std::string family;
    MachineConfig machine_config;
    Circuit circuit;
};

std::vector<Entry>
makeEntries(bool smoke)
{
    std::vector<Entry> entries;
    std::map<std::string, int> seen;
    for (const BenchmarkSpec &spec : table2Suite()) {
        if (smoke && seen[spec.family]++ > 0)
            continue;
        entries.push_back(
            {spec.name, spec.family, spec.machine_config, spec.build()});
    }
    for (const std::size_t n : smoke ? std::vector<std::size_t>{30}
                                     : std::vector<std::size_t>{30, 50}) {
        entries.push_back({"VQE-depth2-" + std::to_string(n), "VQE-depth2",
                           MachineConfig::forQubits(n),
                           makeVqe(n, 2, VqeEntanglement::Linear, 0xF00D + n)});
    }
    return entries;
}

struct Setting
{
    const char *name;
    RoutingStrategy routing;
    PlacementStrategy placement;
    ResidencyPolicy residency;
    /** Gated against bench/baselines.json as name|routing|placement. */
    bool baselined;
};

/** kSettings[0] is the default every other setting is scored against. */
constexpr Setting kSettings[] = {
    {"default", RoutingStrategy::Continuous, PlacementStrategy::RowMajor,
     ResidencyPolicy::Lookahead, true},
    {"routing-aware", RoutingStrategy::Continuous,
     PlacementStrategy::RoutingAware, ResidencyPolicy::Lookahead, true},
    {"reuse", RoutingStrategy::Reuse, PlacementStrategy::RowMajor,
     ResidencyPolicy::Lookahead, true},
    {"routing-aware+reuse", RoutingStrategy::Reuse,
     PlacementStrategy::RoutingAware, ResidencyPolicy::Lookahead, true},
    {"reuse+lti", RoutingStrategy::Reuse, PlacementStrategy::RowMajor,
     ResidencyPolicy::Lti, false},
    {"reuse+fidelity", RoutingStrategy::Reuse, PlacementStrategy::RowMajor,
     ResidencyPolicy::Fidelity, false},
    {"windowed", RoutingStrategy::Windowed, PlacementStrategy::RowMajor,
     ResidencyPolicy::Lookahead, false},
    {"routing-aware+windowed", RoutingStrategy::Windowed,
     PlacementStrategy::RoutingAware, ResidencyPolicy::Lookahead, false},
};
constexpr std::size_t kNumSettings = std::size(kSettings);

constexpr std::size_t
settingIndex(std::string_view name)
{
    for (std::size_t s = 0; s < kNumSettings; ++s) {
        if (name == kSettings[s].name)
            return s;
    }
    return kNumSettings;
}

struct Run
{
    std::size_t moves = 0;
    double distance_um = 0.0;
    double neg_log10_fidelity = 0.0;
    double compile_us = 0.0;
    /** The routing pass's counters, in first-touch order. */
    std::vector<PassCounter> routing;

    std::uint64_t
    counter(std::string_view name) const
    {
        for (const PassCounter &c : routing) {
            if (c.name == name)
                return c.value;
        }
        return 0;
    }
};

/** Sum of per-qubit move distances over every emitted move batch. */
double
totalMoveDistanceMicrons(const Machine &machine,
                         const MachineSchedule &schedule)
{
    double total = 0.0;
    for (const Instruction &instruction : schedule.instructions()) {
        const auto *op = std::get_if<MoveBatchOp>(&instruction);
        if (op == nullptr)
            continue;
        for (const CollMove &group : op->batch.groups) {
            for (const QubitMove &move : group.moves)
                total += machine.distanceBetween(move.from, move.to).microns();
        }
    }
    return total;
}

Run
compileOne(const Machine &machine, const Circuit &circuit,
           const Setting &setting)
{
    CompilerOptions options;
    options.routing = setting.routing;
    options.placement = setting.placement;
    options.residency = setting.residency;
    const PowerMoveCompiler compiler(machine, options);
    const CompileResult result = bench::compileBestOf(
        [&] { return compiler.compile(circuit); }, kRepeats);
    validateAgainstCircuit(result.schedule, circuit);

    Run run;
    run.moves = result.schedule.numQubitMoves();
    run.distance_um = totalMoveDistanceMicrons(machine, result.schedule);
    run.neg_log10_fidelity = result.metrics.negLog10(machine.params());
    run.compile_us = result.compile_time.micros();
    for (const PassProfile &profile : result.pass_profiles) {
        if (profile.pass == PassId::Routing)
            run.routing = profile.counters;
    }
    return run;
}

/** One gate violation: prints and counts; the run goes on for the report. */
int
gate(bool ok, const std::string &name, const char *what)
{
    if (ok)
        return 0;
    std::fprintf(stderr, "%s: GATE FAILED: %s\n", name.c_str(), what);
    return 1;
}

/** "name|routing|placement": the baseline key of a baselined setting. */
std::string
baselineKey(const std::string &name, const Setting &setting)
{
    return name + "|" + std::string(routingStrategyName(setting.routing)) +
           "|" + std::string(placementStrategyName(setting.placement));
}

/**
 * Parses a flat {"key": integer, ...} JSON map as written by
 * --write-baseline. Anything that is not a quoted key followed by an
 * integer is skipped, so the parser tolerates whitespace and braces but
 * is NOT a general JSON reader.
 */
bool
loadBaseline(const std::string &path, std::map<std::string, long long> &out)
{
    std::ifstream file(path);
    if (!file)
        return false;
    std::stringstream buffer;
    buffer << file.rdbuf();
    const std::string text = buffer.str();

    std::size_t i = 0;
    while (i < text.size()) {
        if (text[i] != '"') {
            ++i;
            continue;
        }
        const std::size_t key_end = text.find('"', i + 1);
        if (key_end == std::string::npos)
            break;
        const std::string key = text.substr(i + 1, key_end - i - 1);
        i = key_end + 1;
        while (i < text.size() &&
               (std::isspace(static_cast<unsigned char>(text[i])) ||
                text[i] == ':'))
            ++i;
        char *end = nullptr;
        const long long value = std::strtoll(text.c_str() + i, &end, 10);
        if (end != text.c_str() + i) {
            out[key] = value;
            i = static_cast<std::size_t>(end - text.c_str());
        }
    }
    return true;
}

struct Row
{
    const Entry *entry;
    std::vector<Run> runs; // one per kSettings entry
};

/**
 * Planned moves of the baselined settings against @p path; returns the
 * number of regressions beyond @p tolerance_pct, or -1 when the
 * baseline is unreadable or matches no measured entry.
 */
int
checkBaseline(const std::vector<Row> &rows, const std::string &path,
              double tolerance_pct)
{
    std::map<std::string, long long> baseline;
    if (!loadBaseline(path, baseline)) {
        std::fprintf(stderr, "micro_strategies: cannot read baseline '%s'\n",
                     path.c_str());
        return -1;
    }
    std::size_t checked = 0;
    std::size_t unmatched = 0;
    int regressions = 0;
    for (const Row &row : rows) {
        for (std::size_t s = 0; s < kNumSettings; ++s) {
            if (!kSettings[s].baselined)
                continue;
            const std::string key = baselineKey(row.entry->name, kSettings[s]);
            const std::size_t moves = row.runs[s].moves;
            const auto it = baseline.find(key);
            if (it == baseline.end()) {
                // A measured entry with no baseline is *not* gated; say
                // so loudly, or it ships ungated until someone
                // regenerates baselines.json.
                std::fprintf(stderr,
                             "micro_strategies: no baseline for '%s' — "
                             "entry not gated (regenerate with "
                             "--write-baseline)\n",
                             key.c_str());
                ++unmatched;
                continue;
            }
            ++checked;
            const double base = static_cast<double>(it->second);
            const double limit = base * (1.0 + tolerance_pct / 100.0);
            if (static_cast<double>(moves) > limit) {
                std::fprintf(stderr,
                             "REGRESSION %s: %zu planned moves vs baseline "
                             "%lld (+%.1f%% > %.1f%% tolerance)\n",
                             key.c_str(), moves, it->second,
                             100.0 * (static_cast<double>(moves) - base) / base,
                             tolerance_pct);
                ++regressions;
            }
        }
    }
    if (checked == 0) {
        std::fprintf(stderr,
                     "micro_strategies: baseline '%s' matched no measured "
                     "entry — stale baseline?\n",
                     path.c_str());
        return -1;
    }
    std::printf("\nbaseline gate: %zu entries checked against %s "
                "(%zu measured without a baseline), "
                "%d regression(s) beyond %.1f%%\n",
                checked, path.c_str(), unmatched, regressions, tolerance_pct);
    return regressions;
}

/**
 * The baseline map, keys routing-major, then entry, then placement (the
 * order of bench/baselines.json).
 */
bool
writeBaseline(const std::vector<Row> &rows, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "{");
    const char *separator = "\n";
    std::size_t written = 0;
    for (const RoutingStrategy routing :
         {RoutingStrategy::Continuous, RoutingStrategy::Reuse}) {
        for (const Row &row : rows) {
            for (std::size_t s = 0; s < kNumSettings; ++s) {
                if (!kSettings[s].baselined || kSettings[s].routing != routing)
                    continue;
                std::fprintf(out, "%s  \"%s\": %zu", separator,
                             baselineKey(row.entry->name, kSettings[s]).c_str(),
                             row.runs[s].moves);
                separator = ",\n";
                ++written;
            }
        }
    }
    std::fprintf(out, "\n}\n");
    std::printf("\nbaseline written: %s (%zu entries)\n", path.c_str(),
                written);
    return std::fclose(out) == 0;
}

bool
writeJson(const std::vector<Row> &rows, bool smoke, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "{\n  \"schema\": 1,\n  \"smoke\": %s,\n  \"rows\": [",
                 smoke ? "true" : "false");
    const char *separator = "\n";
    for (const Row &row : rows) {
        const double base = row.runs[0].neg_log10_fidelity;
        for (std::size_t s = 0; s < kNumSettings; ++s) {
            const Run &run = row.runs[s];
            std::fprintf(out,
                         "%s    {\"name\": \"%s\", \"family\": \"%s\", "
                         "\"setting\": \"%s\", \"moves\": %zu, "
                         "\"distance_um\": %.1f, \"neg_log10_fidelity\": "
                         "%.6f, \"d_neg_log10_fidelity\": %.6f, "
                         "\"compile_us\": %.1f, \"routing\": {",
                         separator, row.entry->name.c_str(),
                         row.entry->family.c_str(), kSettings[s].name,
                         run.moves, run.distance_um, run.neg_log10_fidelity,
                         run.neg_log10_fidelity - base, run.compile_us);
            for (std::size_t c = 0; c < run.routing.size(); ++c)
                std::fprintf(out, "%s\"%s\": %llu", c > 0 ? ", " : "",
                             run.routing[c].name.c_str(),
                             static_cast<unsigned long long>(
                                 run.routing[c].value));
            std::fprintf(out, "}}");
            separator = ",\n";
        }
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::printf("\nsummary written: %s\n", path.c_str());
    return std::fclose(out) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Flags flags =
        bench::parseFlags(argc, argv, "micro_strategies", true);

    std::printf("=== Strategy settings scored by Eq. 1 against the "
                "default%s ===\n\n",
                flags.smoke ? " (smoke subset)" : "");

    const std::vector<Entry> entries = makeEntries(flags.smoke);
    std::vector<Row> rows;
    int failures = 0;
    TextTable table({"Benchmark", "Setting", "Moves", "Dist(um)", "Parked",
                     "Held", "Hits", "Misses", "d(-log10 F)", "us"});
    for (const Entry &entry : entries) {
        const Machine machine(entry.machine_config);
        Row row{&entry, {}};
        try {
            for (const Setting &setting : kSettings)
                row.runs.push_back(
                    compileOne(machine, entry.circuit, setting));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s/%s: FAILED: %s\n", entry.name.c_str(),
                         kSettings[row.runs.size()].name, e.what());
            ++failures;
            continue;
        }
        for (std::size_t s = 0; s < kNumSettings; ++s) {
            const Run &run = row.runs[s];
            const std::string name = entry.name + "/" + kSettings[s].name;
            table.addRow({entry.name, kSettings[s].name,
                          std::to_string(run.moves),
                          fmt(run.distance_um, "%.0f"),
                          std::to_string(run.counter("qubits_parked")),
                          std::to_string(run.counter("qubits_held")),
                          std::to_string(run.counter("lookahead_hits")),
                          std::to_string(run.counter("lookahead_misses")),
                          fmt(run.neg_log10_fidelity -
                                  row.runs[0].neg_log10_fidelity,
                              "%+.4f"),
                          fmt(run.compile_us, "%.0f")});
            failures += gate(run.counter("parked_no_reuse") +
                                     run.counter("window_misses") ==
                                 run.counter("lookahead_misses"),
                             name, "miss split must sum to lookahead_misses");
            failures += gate(run.counter("residency_holds_started") ==
                                 run.counter("residency_holds_ended"),
                             name,
                             "residency spans must settle by program end "
                             "(holds_started == holds_ended)");
        }
        rows.push_back(std::move(row));
    }
    std::printf("%s\n", table.toString().c_str());

    // Eq. 1 against the default: better / worse / equal, and the mean
    // as d(log10 F), positive = better, the sign of the ROADMAP tables.
    TextTable summary({"Setting", "better", "worse", "equal",
                       "mean d(log10 F)", "moves", "dist(um)"});
    for (std::size_t s = 1; s < kNumSettings; ++s) {
        int better = 0, worse = 0, equal = 0;
        double delta_sum = 0.0, distance = 0.0;
        std::size_t moves = 0;
        for (const Row &row : rows) {
            const double delta = row.runs[s].neg_log10_fidelity -
                                 row.runs[0].neg_log10_fidelity;
            if (delta < 0.0)
                ++better;
            else if (delta > 0.0)
                ++worse;
            else
                ++equal;
            delta_sum += delta;
            moves += row.runs[s].moves;
            distance += row.runs[s].distance_um;
        }
        summary.addRow({kSettings[s].name, std::to_string(better),
                        std::to_string(worse), std::to_string(equal),
                        fmt(rows.empty() ? 0.0 : -delta_sum / rows.size(),
                            "%+.4f"),
                        std::to_string(moves), fmt(distance, "%.0f")});
    }
    std::printf("--- Eq. 1 against the default over %zu entries ---\n%s\n",
                rows.size(), summary.toString().c_str());

    // Cross-block reuse gates: persistent residency (lti) must buy reuse
    // hits the per-block window cannot see on the block-per-gate
    // families, and must never plan more moves than the window policy on
    // BV (one final block; hits are impossible for everyone, but
    // unbounded residency skips parks the window policy pays for).
    constexpr std::size_t kLookahead = settingIndex("reuse");
    constexpr std::size_t kLti = settingIndex("reuse+lti");
    static_assert(kLookahead < kNumSettings && kLti < kNumSettings);
    struct ReuseTotals
    {
        std::uint64_t lookahead_hits = 0, lti_hits = 0;
        std::uint64_t lookahead_moves = 0, lti_moves = 0;
    };
    std::map<std::string, ReuseTotals> family;
    for (const Row &row : rows) {
        ReuseTotals &totals = family[row.entry->family];
        totals.lookahead_hits += row.runs[kLookahead].counter("lookahead_hits");
        totals.lti_hits += row.runs[kLti].counter("lookahead_hits");
        totals.lookahead_moves += row.runs[kLookahead].moves;
        totals.lti_moves += row.runs[kLti].moves;
    }
    for (const auto &[name, t] : family) {
        std::printf("%-14s reuse hits lookahead=%llu lti=%llu, planned "
                    "moves lookahead=%llu lti=%llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(t.lookahead_hits),
                    static_cast<unsigned long long>(t.lti_hits),
                    static_cast<unsigned long long>(t.lookahead_moves),
                    static_cast<unsigned long long>(t.lti_moves));
        if (name == "QSIM-rand-0.3" || name == "QFT")
            failures += gate(t.lti_hits > t.lookahead_hits, name,
                             "lti must measure more reuse hits than "
                             "lookahead (cross-block residency)");
        if (name == "BV")
            failures += gate(t.lti_moves <= t.lookahead_moves, name,
                             "lti must not plan more moves than lookahead "
                             "on BV (held data qubits skip their parks)");
    }

    if (!flags.write_baseline_path.empty() &&
        !writeBaseline(rows, flags.write_baseline_path)) {
        std::fprintf(stderr, "micro_strategies: cannot write '%s'\n",
                     flags.write_baseline_path.c_str());
        return 2;
    }
    if (!flags.json_path.empty() &&
        !writeJson(rows, flags.smoke, flags.json_path)) {
        std::fprintf(stderr, "micro_strategies: cannot write '%s'\n",
                     flags.json_path.c_str());
        return 2;
    }
    const int regressions =
        flags.baseline_path.empty()
            ? 0
            : checkBaseline(rows, flags.baseline_path, flags.tolerance_pct);

    if (failures > 0) {
        std::fprintf(stderr, "%d gate/validation failure(s)\n", failures);
        return 1;
    }
    if (regressions < 0)
        return 2;
    return regressions > 0 ? 1 : 0;
}
