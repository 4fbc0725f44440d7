/**
 * @file
 * Placement-strategy comparison and the CI benchmark-regression gate.
 *
 * Compiles every Table 2 benchmark — plus depth-2 VQE ansatze, the
 * canonical multi-block workload (see micro_reuse.cpp) — under every
 * PlacementStrategy crossed with both RoutingStrategy values, validates
 * every schedule, and prints per-entry planned moves and total move
 * distance. The summary reports how often routing-aware placement
 * (src/placement/) beats the row-major default on move distance, the
 * claim the Stade et al. extension makes.
 *
 * Flags:
 *   --smoke                 one small entry per family (CI mode)
 *   --json PATH             machine-readable summary (BENCH_ci.json)
 *   --baseline PATH         gate planned moves against a baseline map;
 *                           exits 1 on any regression beyond tolerance
 *   --tolerance PCT         regression tolerance in percent (default 5)
 *   --write-baseline PATH   emit the baseline map for the current tree
 *
 * Planned moves are deterministic for a fixed (circuit, machine,
 * options) triple — the compiler's RNG is seeded, never wall-clock —
 * so the baseline gate is exact; only the timing columns are noisy
 * (min-of-N on steady_clock, bench/harness.hpp).
 *
 * Standalone main (no Google Benchmark dependency); exits nonzero if
 * any schedule fails hardware validation or the baseline gate trips.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/powermove.hpp"
#include "harness.hpp"
#include "isa/validator.hpp"
#include "report/table.hpp"
#include "workloads/suite.hpp"
#include "workloads/vqe.hpp"

namespace {

using namespace powermove;

struct Entry
{
    std::string name;
    std::string family;
    bool table2 = true;
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
            {spec.name, spec.family, true, spec.machine_config, spec.build()});
    }
    // Depth-2 VQE: the multi-block workload where placement and reuse
    // routing interact (Table 2's VQE rows are single-block chains).
    for (const std::size_t n : smoke ? std::vector<std::size_t>{30}
                                     : std::vector<std::size_t>{30, 50}) {
        entries.push_back({"VQE-depth2-" + std::to_string(n), "VQE-depth2",
                           false, MachineConfig::forQubits(n),
                           makeVqe(n, 2, VqeEntanglement::Linear, 0xF00D + n)});
    }
    return entries;
}

constexpr PlacementStrategy kPlacements[] = {
    PlacementStrategy::RowMajor,
    PlacementStrategy::RoutingAware,
};

constexpr RoutingStrategy kRoutings[] = {
    RoutingStrategy::Continuous,
    RoutingStrategy::Reuse,
};

struct Run
{
    std::size_t moves = 0;
    double distance_um = 0.0;
    double compile_us = 0.0;
};

/** Sum of per-qubit move distances over every emitted move batch. */
double
totalMoveDistanceMicrons(const Machine &machine, const MachineSchedule &schedule)
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
           RoutingStrategy routing, PlacementStrategy placement)
{
    CompilerOptions options = bench::timingOptions(true, 1);
    options.routing = routing;
    options.placement = placement;
    const PowerMoveCompiler compiler(machine, options);
    const CompileResult result = compiler.compile(circuit);
    validateAgainstCircuit(result.schedule, circuit);

    Run run;
    run.moves = result.schedule.numQubitMoves();
    run.distance_um = totalMoveDistanceMicrons(machine, result.schedule);
    // Timing is informational only (the gate is on planned moves):
    // min-of-N wall clock over whole repeat compiles, on the monotonic
    // clock, so the JSON trend stays readable on shared runners.
    run.compile_us =
        bench::minOfNWallMicros([&] { compiler.compile(circuit); });
    return run;
}

using bench::fmt;

/** "name|routing|placement" — the baseline and JSON entry key. */
std::string
entryKey(const std::string &name, RoutingStrategy routing,
         PlacementStrategy placement)
{
    return name + "|" + std::string(routingStrategyName(routing)) + "|" +
           std::string(placementStrategyName(placement));
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

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path;
    std::string baseline_path;
    std::string write_baseline_path;
    double tolerance_pct = 5.0;
    for (int i = 1; i < argc; ++i) {
        const auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "micro_placement: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json") == 0)
            json_path = value("--json");
        else if (std::strcmp(argv[i], "--baseline") == 0)
            baseline_path = value("--baseline");
        else if (std::strcmp(argv[i], "--write-baseline") == 0)
            write_baseline_path = value("--write-baseline");
        else if (std::strcmp(argv[i], "--tolerance") == 0)
            tolerance_pct = std::atof(value("--tolerance"));
        else {
            std::fprintf(stderr, "micro_placement: unknown flag '%s'\n",
                         argv[i]);
            return 2;
        }
    }

    std::printf("=== Placement strategies x routing strategies%s ===\n\n",
                smoke ? " (smoke subset)" : "");

    struct Record
    {
        std::string key;
        std::size_t moves;
        double distance_um;
        double compile_us;
    };
    std::vector<Record> records;
    int failures = 0;

    // Per-routing tallies of the routing-aware vs row-major claim,
    // Table 2 entries only (the acceptance bar the README quotes).
    std::map<RoutingStrategy, std::pair<int, int>> dist_wins; // wins, total
    std::map<RoutingStrategy, std::pair<int, int>> move_wins;

    const std::vector<Entry> entries = makeEntries(smoke);
    for (const RoutingStrategy routing : kRoutings) {
        TextTable table({"Benchmark", "RM moves", "RA moves", "RM dist(um)",
                         "RA dist(um)", "RA vs RM dist%"});
        for (const Entry &entry : entries) {
            const Machine machine(entry.machine_config);
            std::map<PlacementStrategy, Run> runs;
            try {
                for (const PlacementStrategy placement : kPlacements) {
                    runs[placement] =
                        compileOne(machine, entry.circuit, routing, placement);
                    const Run &run = runs[placement];
                    records.push_back({entryKey(entry.name, routing,
                                                placement),
                                       run.moves, run.distance_um,
                                       run.compile_us});
                }
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s/%s: FAILED: %s\n",
                             entry.name.c_str(),
                             std::string(routingStrategyName(routing)).c_str(),
                             e.what());
                ++failures;
                continue;
            }
            const Run &rm = runs[PlacementStrategy::RowMajor];
            const Run &ra = runs[PlacementStrategy::RoutingAware];
            const double dist_delta =
                rm.distance_um == 0.0
                    ? 0.0
                    : 100.0 * (ra.distance_um - rm.distance_um) /
                          rm.distance_um;
            table.addRow({entry.name, std::to_string(rm.moves),
                          std::to_string(ra.moves),
                          fmt(rm.distance_um, "%.0f"),
                          fmt(ra.distance_um, "%.0f"),
                          fmt(dist_delta, "%+.1f")});
            if (entry.table2) {
                auto &[dw, dt] = dist_wins[routing];
                dw += ra.distance_um < rm.distance_um ? 1 : 0;
                ++dt;
                auto &[mw, mt] = move_wins[routing];
                mw += ra.moves < rm.moves ? 1 : 0;
                ++mt;
            }
        }
        std::printf("--- routing=%s ---\n%s\n",
                    std::string(routingStrategyName(routing)).c_str(),
                    table.toString().c_str());
    }

    std::printf("--- routing-aware vs row-major (Table 2 entries) ---\n");
    for (const RoutingStrategy routing : kRoutings) {
        const auto [dw, dt] = dist_wins[routing];
        const auto [mw, mt] = move_wins[routing];
        std::printf("%-12s move distance reduced on %d/%d, planned moves "
                    "reduced on %d/%d\n",
                    std::string(routingStrategyName(routing)).c_str(), dw, dt,
                    mw, mt);
    }

    if (!write_baseline_path.empty()) {
        std::ofstream out(write_baseline_path);
        if (!out) {
            std::fprintf(stderr, "micro_placement: cannot write '%s'\n",
                         write_baseline_path.c_str());
            return 2;
        }
        out << "{\n";
        for (std::size_t i = 0; i < records.size(); ++i) {
            out << "  \"" << records[i].key << "\": " << records[i].moves
                << (i + 1 < records.size() ? ",\n" : "\n");
        }
        out << "}\n";
        std::printf("\nbaseline written: %s (%zu entries)\n",
                    write_baseline_path.c_str(), records.size());
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "micro_placement: cannot write '%s'\n",
                         json_path.c_str());
            return 2;
        }
        out << "{\n  \"schema\": 1,\n  \"smoke\": " << (smoke ? "true" : "false")
            << ",\n  \"entries\": [\n";
        for (std::size_t i = 0; i < records.size(); ++i) {
            const Record &r = records[i];
            out << "    {\"key\": \"" << r.key << "\", \"moves\": " << r.moves
                << ", \"distance_um\": " << fmt(r.distance_um, "%.1f")
                << ", \"compile_us\": " << fmt(r.compile_us, "%.1f") << "}"
                << (i + 1 < records.size() ? ",\n" : "\n");
        }
        out << "  ]\n}\n";
        std::printf("\nsummary written: %s\n", json_path.c_str());
    }

    int regressions = 0;
    if (!baseline_path.empty()) {
        std::map<std::string, long long> baseline;
        if (!loadBaseline(baseline_path, baseline)) {
            std::fprintf(stderr, "micro_placement: cannot read baseline '%s'\n",
                         baseline_path.c_str());
            return 2;
        }
        std::size_t checked = 0;
        std::size_t unmatched = 0;
        for (const Record &r : records) {
            const auto it = baseline.find(r.key);
            if (it == baseline.end()) {
                // A measured entry with no baseline is *not* gated — say
                // so loudly, or a new benchmark/strategy ships ungated
                // until someone regenerates baselines.json.
                std::fprintf(stderr,
                             "micro_placement: no baseline for '%s' — "
                             "entry not gated (regenerate with "
                             "--write-baseline)\n",
                             r.key.c_str());
                ++unmatched;
                continue;
            }
            ++checked;
            const double limit =
                static_cast<double>(it->second) * (1.0 + tolerance_pct / 100.0);
            if (static_cast<double>(r.moves) > limit) {
                std::fprintf(stderr,
                             "REGRESSION %s: %zu planned moves vs baseline "
                             "%lld (+%.1f%% > %.1f%% tolerance)\n",
                             r.key.c_str(), r.moves, it->second,
                             100.0 * (static_cast<double>(r.moves) -
                                      static_cast<double>(it->second)) /
                                 static_cast<double>(it->second),
                             tolerance_pct);
                ++regressions;
            }
        }
        if (checked == 0) {
            std::fprintf(stderr,
                         "micro_placement: baseline '%s' matched no measured "
                         "entry — stale baseline?\n",
                         baseline_path.c_str());
            return 2;
        }
        std::printf("\nbaseline gate: %zu entries checked against %s "
                    "(%zu measured without a baseline), "
                    "%d regression(s) beyond %.1f%%\n",
                    checked, baseline_path.c_str(), unmatched, regressions,
                    tolerance_pct);
    }

    if (failures > 0) {
        std::fprintf(stderr, "%d configuration(s) failed validation\n",
                     failures);
        return 1;
    }
    return regressions > 0 ? 1 : 0;
}
