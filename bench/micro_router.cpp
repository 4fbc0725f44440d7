/**
 * @file
 * Routing-strategy comparison, the continuous router's differential
 * against its oracle, and the speedup gate over that oracle.
 *
 * For every Table 2 benchmark, all CZ gates are merged into one
 * commutable block, replicated at depth multipliers {1, 4, 16}, and
 * partitioned/ordered into the stage sequence the pipeline would hand
 * the routing pass. The harness times the routing pass — router
 * construction plus every stage transition — for three routers:
 *
 *   reference    ReferenceContinuousRouter, the per-transition-rebuild
 *                formulation of paper Sec. 5 (the test oracle in
 *                tests/oracles/; not in the library)
 *   continuous   ContinuousRouter, the library's incremental router
 *                behind --routing=continuous and its alias `fast`
 *   windowed     WindowedRouter at the default window of 8, running
 *                every candidate through ContinuousRouter
 *
 * The incremental router's win is eliminating the reference's
 * per-transition O(qubits + sites) scratch rebuild, so its speedup
 * depends on the stage-width : machine-size ratio. Table 2's entries
 * (n <= 36) are mover-dominated and show 1-3x; the asymptotic case is
 * a narrow stage on a big machine, where the rebuild is nearly all of
 * the reference's work. Dedicated scale rows (BV and VQE family
 * instances at 256-1024 qubits, depth 16) pin that regime, and the
 * regression gate — median speedup over the reference across the scale
 * rows >= 5x — runs on them in CI so the library router can never
 * silently decay into a second copy of the reference.
 *
 * The harness also runs an untimed differential — reference vs
 * continuous over every stage sequence of every row, in both zone
 * configurations, comparing plans move-for-move and final layouts —
 * and reports the movement-quality delta the windowed search buys on
 * the Table 2 rows (total move distance and move count vs continuous).
 *
 * Flags:
 *   --smoke       one small entry per family + the scale rows
 *                 (CI mode; keeps depth 16 and the speedup gate)
 *   --json PATH   machine-readable summary (uploaded next to
 *                 BENCH_ci.json by the bench-regression job)
 *
 * Exits 1 when the differential check fails anywhere or when the
 * median scale-row speedup falls below the 5x floor; exits 2 on flag
 * errors.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "oracles/reference_router.hpp"
#include "report/table.hpp"
#include "route/router.hpp"
#include "route/windowed_router.hpp"
#include "schedule/stage_order.hpp"
#include "schedule/stage_partition.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace powermove;
using bench::fmt;

constexpr std::uint64_t kSeed = 11;
constexpr std::uint32_t kWindow = 8;
constexpr double kMinMedianSpeedup = 5.0;

struct Entry
{
    std::string name;
    std::size_t num_qubits = 0;
    MachineConfig machine_config;
    CzBlock block; // every CZ gate of the circuit, in program order
    /** Depth multipliers this row runs at. */
    std::vector<std::size_t> depths;
    /** Speedup-gate row (deepest depth only, no windowed timing). */
    bool scale_row = false;
};

Entry
entryFromSpec(const BenchmarkSpec &spec, std::vector<std::size_t> depths,
              bool scale_row)
{
    Entry entry;
    entry.name = spec.name;
    entry.num_qubits = spec.num_qubits;
    entry.machine_config = spec.machine_config;
    entry.depths = std::move(depths);
    entry.scale_row = scale_row;
    const Circuit circuit = spec.build();
    for (const CzBlock *block : circuit.blocks()) {
        entry.block.gates.insert(entry.block.gates.end(),
                                 block->gates.begin(), block->gates.end());
    }
    return entry;
}

std::vector<Entry>
makeEntries(bool smoke)
{
    const std::vector<std::size_t> depths =
        smoke ? std::vector<std::size_t>{1, 16}
              : std::vector<std::size_t>{1, 4, 16};
    std::vector<Entry> entries;
    std::map<std::string, int> seen;
    for (const BenchmarkSpec &spec : table2Suite()) {
        if (smoke && seen[spec.family]++ > 0)
            continue;
        entries.push_back(entryFromSpec(spec, depths, false));
    }
    // The speedup-gate rows: narrow stages (BV's star touches two
    // qubits per stage; VQE's layers are shallow) on machines big
    // enough that the reference's per-transition rebuild dominates.
    for (const auto &[family, n] :
         std::initializer_list<std::pair<const char *, std::size_t>>{
             {"BV", 256}, {"BV", 1024}, {"VQE", 1024}}) {
        entries.push_back(entryFromSpec(makeFamilyInstance(family, n),
                                        {depths.back()}, true));
    }
    return entries;
}

/** @p block's gate list replicated @p depth times, as one block. */
CzBlock
atDepth(const CzBlock &block, std::size_t depth)
{
    CzBlock deep;
    deep.gates.reserve(block.gates.size() * depth);
    for (std::size_t d = 0; d < depth; ++d) {
        deep.gates.insert(deep.gates.end(), block.gates.begin(),
                          block.gates.end());
    }
    return deep;
}

/**
 * The stage sequence the pipeline would hand the routing pass, from
 * the library's (linear) partition.
 */
std::vector<Stage>
stagesFor(const CzBlock &block, std::size_t num_qubits)
{
    return orderStages(partitionIntoStagesLinear(block, num_qubits),
                       StageOrderOptions{});
}

/** Move count and total travel of one full routing pass (untimed). */
struct RouteOutcome
{
    std::size_t moves = 0;
    double distance_um = 0.0;
};

template <typename MakeRouter>
RouteOutcome
routeOutcome(const Machine &machine, std::size_t num_qubits,
             const std::vector<Stage> &stages, MakeRouter &&make_router)
{
    Layout layout(machine, num_qubits);
    placeRowMajor(layout, ZoneKind::Storage);
    auto router = make_router();
    RouteOutcome outcome;
    for (const Stage &stage : stages) {
        const TransitionPlan plan = router->planStageTransition(layout, stage);
        outcome.moves += plan.moves.size();
        for (const auto &move : plan.moves) {
            outcome.distance_um +=
                machine.distanceBetween(move.from, move.to).microns();
        }
    }
    return outcome;
}

/**
 * Wall time of the routing pass alone: construct the router, route
 * every stage. Outcome accumulation lives in routeOutcome so neither
 * strategy's timing carries the harness's own distance arithmetic.
 */
template <typename MakeRouter>
double
routeMicros(const Machine &machine, std::size_t num_qubits,
            const std::vector<Stage> &stages, MakeRouter &&make_router)
{
    return bench::minOfNWallMicros([&] {
        Layout layout(machine, num_qubits);
        placeRowMajor(layout, ZoneKind::Storage);
        auto router = make_router();
        for (const Stage &stage : stages) {
            const TransitionPlan plan =
                router->planStageTransition(layout, stage);
            (void)plan;
        }
    });
}

/**
 * Untimed differential: reference vs continuous over @p stages, plan
 * by plan, in one zone configuration. Returns false on any divergence.
 */
bool
differentialHolds(const Machine &machine, const std::vector<Stage> &stages,
                  std::size_t num_qubits, bool use_storage, const char *key)
{
    const RouterOptions options{use_storage, kSeed};
    ReferenceContinuousRouter reference(machine, options);
    ContinuousRouter router(machine, options);
    Layout ref_layout(machine, num_qubits);
    Layout layout(machine, num_qubits);
    placeRowMajor(ref_layout,
                  use_storage ? ZoneKind::Storage : ZoneKind::Compute);
    layout.assignFrom(ref_layout);

    for (std::size_t s = 0; s < stages.size(); ++s) {
        const auto ref_plan =
            reference.planStageTransition(ref_layout, stages[s]);
        const auto plan = router.planStageTransition(layout, stages[s]);
        if (ref_plan.moves != plan.moves || ref_plan.labels != plan.labels ||
            ref_plan.num_parked != plan.num_parked ||
            ref_plan.num_evicted != plan.num_evicted) {
            std::fprintf(stderr,
                         "%s (%s storage): continuous DIVERGED from the "
                         "reference at stage %zu/%zu\n",
                         key, use_storage ? "with" : "without", s,
                         stages.size());
            return false;
        }
    }
    for (QubitId q = 0; q < num_qubits; ++q) {
        if (ref_layout.siteOf(q) != layout.siteOf(q)) {
            std::fprintf(stderr,
                         "%s (%s storage): final layouts differ at qubit %u\n",
                         key, use_storage ? "with" : "without",
                         static_cast<unsigned>(q));
            return false;
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
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "micro_router: --json needs a value\n");
                return 2;
            }
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "micro_router: unknown flag '%s'\n",
                         argv[i]);
            return 2;
        }
    }

    std::printf("=== Routing strategies: Table 2 x depth + scale rows%s "
                "===\n\n",
                smoke ? " (smoke subset)" : "");

    struct Record
    {
        std::string key;
        std::size_t stages;
        double route_us;
        std::size_t moves;
        double distance_um;
    };
    std::vector<Record> records;
    std::size_t differential_failures = 0;
    std::vector<double> gate_speedups;

    TextTable table({"Benchmark", "depth", "stages", "ref(us)", "cont(us)",
                     "speedup", "win8(us)", "dist save", "moves save"});
    const std::vector<Entry> entries = makeEntries(smoke);
    for (const Entry &entry : entries) {
        const Machine machine(entry.machine_config);
        for (const std::size_t depth : entry.depths) {
            const CzBlock block = atDepth(entry.block, depth);
            const std::vector<Stage> stages =
                stagesFor(block, entry.num_qubits);
            const std::string key_base =
                entry.name + "|x" + std::to_string(depth);

            // Differential first (both zone configurations): a timing
            // table for a router that diverges from the reference would
            // be comparing two different algorithms.
            for (const bool use_storage : {true, false}) {
                if (!differentialHolds(machine, stages, entry.num_qubits,
                                       use_storage, key_base.c_str()))
                    ++differential_failures;
            }

            const auto make_reference = [&] {
                return std::make_unique<ReferenceContinuousRouter>(
                    machine, RouterOptions{true, kSeed});
            };
            const auto make_continuous = [&] {
                return std::make_unique<ContinuousRouter>(
                    machine, RouterOptions{true, kSeed});
            };

            const double reference_us = routeMicros(
                machine, entry.num_qubits, stages, make_reference);
            const double continuous_us = routeMicros(
                machine, entry.num_qubits, stages, make_continuous);
            const RouteOutcome reference_out = routeOutcome(
                machine, entry.num_qubits, stages, make_reference);
            const RouteOutcome continuous_out = routeOutcome(
                machine, entry.num_qubits, stages, make_continuous);

            const double speedup =
                continuous_us > 0.0 ? reference_us / continuous_us : 0.0;
            if (entry.scale_row)
                gate_speedups.push_back(speedup);

            records.push_back({key_base + "|reference", stages.size(),
                               reference_us, reference_out.moves,
                               reference_out.distance_um});
            records.push_back({key_base + "|continuous", stages.size(),
                               continuous_us, continuous_out.moves,
                               continuous_out.distance_um});

            // Movement quality: how much travel the windowed search
            // saves over the continuous router. Quality is the windowed
            // path's story on realistic Table 2 sizes; scale rows skip
            // it (window x thousands of stages adds minutes for a
            // column the gate never reads).
            std::string win_cell = "-", dist_cell = "-", moves_cell = "-";
            if (!entry.scale_row) {
                struct WindowedHolder
                {
                    Rng rng;
                    WindowedRouter router;
                    WindowedHolder(const Machine &machine)
                        : rng(kSeed),
                          router(machine, RouterOptions{true, kSeed},
                                 kWindow, rng)
                    {}
                    TransitionPlan
                    planStageTransition(Layout &layout, const Stage &stage)
                    {
                        return router.planStageTransition(layout, stage);
                    }
                };
                const auto make_windowed = [&] {
                    return std::make_unique<WindowedHolder>(machine);
                };
                const double windowed_us = routeMicros(
                    machine, entry.num_qubits, stages, make_windowed);
                const RouteOutcome windowed_out = routeOutcome(
                    machine, entry.num_qubits, stages, make_windowed);
                const double dist_save =
                    continuous_out.distance_um > 0.0
                        ? 100.0 *
                              (continuous_out.distance_um -
                               windowed_out.distance_um) /
                              continuous_out.distance_um
                        : 0.0;
                const double moves_save =
                    continuous_out.moves > 0
                        ? 100.0 *
                              (static_cast<double>(continuous_out.moves) -
                               static_cast<double>(windowed_out.moves)) /
                              static_cast<double>(continuous_out.moves)
                        : 0.0;
                win_cell = fmt(windowed_us, "%.1f");
                dist_cell = fmt(dist_save, "%.1f%%");
                moves_cell = fmt(moves_save, "%.1f%%");
                records.push_back({key_base + "|windowed", stages.size(),
                                   windowed_us, windowed_out.moves,
                                   windowed_out.distance_um});
            }

            table.addRow({entry.name, "x" + std::to_string(depth),
                          std::to_string(stages.size()),
                          fmt(reference_us, "%.1f"),
                          fmt(continuous_us, "%.1f"),
                          fmt(speedup, "%.1fx"), win_cell, dist_cell,
                          moves_cell});
        }
    }
    std::printf("%s\n", table.toString().c_str());

    std::sort(gate_speedups.begin(), gate_speedups.end());
    const double min_speedup =
        gate_speedups.empty() ? 0.0 : gate_speedups.front();
    const double median_speedup =
        gate_speedups.empty() ? 0.0
                              : gate_speedups[gate_speedups.size() / 2];
    const double max_speedup =
        gate_speedups.empty() ? 0.0 : gate_speedups.back();
    std::printf("continuous vs reference on the scale rows: min %.1fx, "
                "median %.1fx, max %.1fx (floor: median >= %.1fx)\n",
                min_speedup, median_speedup, max_speedup, kMinMedianSpeedup);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "micro_router: cannot write '%s'\n",
                         json_path.c_str());
            return 2;
        }
        out << "{\n  \"schema\": 2,\n  \"smoke\": "
            << (smoke ? "true" : "false")
            << ",\n  \"median_scale_speedup\": "
            << fmt(median_speedup, "%.2f")
            << ",\n  \"min_scale_speedup\": " << fmt(min_speedup, "%.2f")
            << ",\n  \"entries\": [\n";
        for (std::size_t i = 0; i < records.size(); ++i) {
            const Record &r = records[i];
            out << "    {\"key\": \"" << r.key
                << "\", \"stages\": " << r.stages
                << ", \"route_us\": " << fmt(r.route_us, "%.1f")
                << ", \"moves\": " << r.moves
                << ", \"distance_um\": " << fmt(r.distance_um, "%.1f") << "}"
                << (i + 1 < records.size() ? ",\n" : "\n");
        }
        out << "  ]\n}\n";
        std::printf("\nsummary written: %s\n", json_path.c_str());
    }

    if (differential_failures > 0) {
        std::fprintf(stderr, "%zu differential check(s) failed\n",
                     differential_failures);
        return 1;
    }
    if (median_speedup < kMinMedianSpeedup) {
        std::fprintf(stderr,
                     "continuous-router regression: median scale-row "
                     "speedup over the reference %.2fx is below the %.1fx "
                     "floor\n",
                     median_speedup, kMinMedianSpeedup);
        return 1;
    }
    return 0;
}
