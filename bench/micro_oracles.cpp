/**
 * @file
 * The library's stage partition and continuous router against their
 * differential oracles in tests/oracles/, with timings.
 *
 * For every Table 2 benchmark, all CZ gates are merged into one
 * commutable block and replicated at several depth multipliers; three
 * scale rows (BV-256, BV-1024 and VQE-1024 at the deepest depth) add
 * narrow stages on big machines. Each block runs two differentials:
 *
 *   partition  the library's graph-free linear scan against the
 *              paper's materialized-graph coloring (the oracle): same
 *              stages, gate for gate. Both are timed, and depth-1 rows
 *              also time Enola's iterated-MIS extraction (the paper's
 *              Sec. 7.2 comparison). Table 2 rows only: the coloring's
 *              per-qubit clique expansion (O(k^2) edges for a qubit in
 *              k gates) is out of reach on the scale rows.
 *   routing    ContinuousRouter against ReferenceContinuousRouter, the
 *              per-transition-rebuild formulation of paper Sec. 5, over
 *              the linear partition's ordered stages, in both zone
 *              configurations: same plans move for move, same final
 *              layout. Both routing passes (router construction plus
 *              every stage transition) are timed.
 *
 * The incremental router's win is skipping the reference's
 * per-transition O(qubits + sites) scratch rebuild, so its speedup
 * depends on the stage-width : machine-size ratio: Table 2's entries
 * (n <= 36) show 1-3x, the scale rows show the asymptotic case. The
 * median scale-row speedup must stay >= 5x, so the library router can
 * never silently decay into a second copy of the reference.
 *
 * Flags: --smoke (one entry per family, depths 1, 8 and 16, plus the
 * scale rows; the CI mode) and --json PATH. Exits 1 when a
 * differential fails or the median scale-row speedup falls below the
 * floor, 2 on flag errors. Stage assignments and plans are
 * deterministic, so the differentials are exact; only the timings
 * (min-of-N on steady_clock) are noisy.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "enola/mis.hpp"
#include "harness.hpp"
#include "oracles/reference_partition.hpp"
#include "oracles/reference_router.hpp"
#include "report/table.hpp"
#include "route/router.hpp"
#include "schedule/stage_order.hpp"
#include "schedule/stage_partition.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace powermove;
using bench::fmt;

constexpr std::uint64_t kSeed = 11;
constexpr double kMinMedianSpeedup = 5.0;

struct Entry
{
    std::string name;
    std::size_t num_qubits = 0;
    MachineConfig machine_config;
    CzBlock block; // every CZ gate of the circuit, in program order
    std::vector<std::size_t> depths;
    /** Speedup-gate row: deepest depth only, no partition differential. */
    bool scale_row = false;
};

Entry
entryFromSpec(const BenchmarkSpec &spec, std::vector<std::size_t> depths,
              bool scale_row)
{
    Entry entry{spec.name, spec.num_qubits, spec.machine_config, {},
                std::move(depths), scale_row};
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
        smoke ? std::vector<std::size_t>{1, 8, 16}
              : std::vector<std::size_t>{1, 4, 8, 16};
    std::vector<Entry> entries;
    std::map<std::string, int> seen;
    for (const BenchmarkSpec &spec : table2Suite()) {
        if (smoke && seen[spec.family]++ > 0)
            continue;
        entries.push_back(entryFromSpec(spec, depths, false));
    }
    // Narrow stages (BV's star touches two qubits per stage; VQE's
    // layers are shallow) on machines big enough that the reference's
    // per-transition rebuild dominates.
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

bool
sameStages(const std::vector<Stage> &a, const std::vector<Stage> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t s = 0; s < a.size(); ++s) {
        if (a[s].gates != b[s].gates)
            return false;
    }
    return true;
}

/**
 * Wall time of one routing pass: construct the router, route every
 * stage from the all-in-storage row-major layout.
 */
template <typename Router>
double
routeMicros(const Machine &machine, std::size_t num_qubits,
            const std::vector<Stage> &stages)
{
    return bench::minOfNWallMicros([&] {
        Layout layout(machine, num_qubits);
        placeRowMajor(layout, ZoneKind::Storage);
        Router router(machine, RouterOptions{true, kSeed});
        for (const Stage &stage : stages) {
            const TransitionPlan plan =
                router.planStageTransition(layout, stage);
            (void)plan;
        }
    });
}

/**
 * Reference vs continuous over @p stages, plan by plan, in one zone
 * configuration. Returns false on any divergence.
 */
bool
routersAgree(const Machine &machine, const std::vector<Stage> &stages,
             std::size_t num_qubits, bool use_storage, const std::string &key)
{
    const RouterOptions options{use_storage, kSeed};
    ReferenceContinuousRouter reference(machine, options);
    ContinuousRouter router(machine, options);
    Layout ref_layout(machine, num_qubits);
    Layout layout(machine, num_qubits);
    placeRowMajor(ref_layout,
                  use_storage ? ZoneKind::Storage : ZoneKind::Compute);
    layout.assignFrom(ref_layout);
    const char *config = use_storage ? "with" : "without";

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
                         key.c_str(), config, s, stages.size());
            return false;
        }
    }
    for (QubitId q = 0; q < num_qubits; ++q) {
        if (ref_layout.siteOf(q) != layout.siteOf(q)) {
            std::fprintf(stderr,
                         "%s (%s storage): final layouts differ at qubit %u\n",
                         key.c_str(), config, static_cast<unsigned>(q));
            return false;
        }
    }
    return true;
}

/** One (entry, depth) block; partition columns are -1 when not run. */
struct Record
{
    std::string key;
    std::size_t gates = 0;
    std::size_t stages = 0;
    double coloring_us = -1.0;
    double linear_us = -1.0;
    double mis_us = -1.0;
    double reference_us = 0.0;
    double continuous_us = 0.0;
};

/** "-" for a column that was not run. */
std::string
cell(double micros, const char *spec = "%.1f")
{
    return micros < 0.0 ? "-" : fmt(micros, spec);
}

struct Spread
{
    double min = 0.0, median = 0.0, max = 0.0;
};

Spread
spreadOf(std::vector<double> values)
{
    if (values.empty())
        return {};
    std::sort(values.begin(), values.end());
    return {values.front(), values[values.size() / 2], values.back()};
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Flags flags =
        bench::parseFlags(argc, argv, "micro_oracles", false);

    std::printf("=== Library vs tests/oracles/: Table 2 x depth + scale "
                "rows%s ===\n\n",
                flags.smoke ? " (smoke subset)" : "");

    std::vector<Record> records;
    std::size_t partition_checked = 0, partition_failures = 0;
    std::size_t router_checked = 0, router_failures = 0;
    std::vector<double> scale_speedups;

    TextTable table({"Benchmark", "depth", "gates", "stages", "coloring(us)",
                     "linear(us)", "mis(us)", "ref(us)", "cont(us)",
                     "speedup"});
    for (const Entry &entry : makeEntries(flags.smoke)) {
        const Machine machine(entry.machine_config);
        for (const std::size_t depth : entry.depths) {
            const CzBlock block = atDepth(entry.block, depth);
            Record r;
            r.key = entry.name + "|x" + std::to_string(depth);
            r.gates = block.gates.size();

            std::vector<Stage> stages =
                partitionIntoStagesLinear(block, entry.num_qubits);
            if (!entry.scale_row) {
                ++partition_checked;
                const std::vector<Stage> coloring =
                    partitionIntoStages(block, entry.num_qubits);
                if (!sameStages(coloring, stages)) {
                    std::fprintf(stderr,
                                 "%s: linear DIVERGED from coloring (%zu vs "
                                 "%zu stages)\n",
                                 r.key.c_str(), stages.size(),
                                 coloring.size());
                    ++partition_failures;
                }
                r.coloring_us = bench::minOfNWallMicros([&] {
                    (void)partitionIntoStages(block, entry.num_qubits);
                });
                r.linear_us = bench::minOfNWallMicros([&] {
                    (void)partitionIntoStagesLinear(block, entry.num_qubits);
                });
                // Iterated MIS is quadratic in stages; shallow rows only.
                if (depth == 1)
                    r.mis_us = bench::minOfNWallMicros([&] {
                        (void)partitionStagesByMis(block, entry.num_qubits);
                    });
            }
            r.stages = stages.size();

            // The stage sequence the pipeline hands the routing pass.
            stages = orderStages(std::move(stages), StageOrderOptions{});
            for (const bool use_storage : {true, false}) {
                ++router_checked;
                if (!routersAgree(machine, stages, entry.num_qubits,
                                  use_storage, r.key))
                    ++router_failures;
            }
            r.reference_us = routeMicros<ReferenceContinuousRouter>(
                machine, entry.num_qubits, stages);
            r.continuous_us = routeMicros<ContinuousRouter>(
                machine, entry.num_qubits, stages);
            const double speedup = r.continuous_us > 0.0
                                       ? r.reference_us / r.continuous_us
                                       : 0.0;
            if (entry.scale_row)
                scale_speedups.push_back(speedup);

            table.addRow({entry.name, std::to_string(depth),
                          std::to_string(r.gates), std::to_string(r.stages),
                          cell(r.coloring_us), cell(r.linear_us),
                          cell(r.mis_us), fmt(r.reference_us, "%.1f"),
                          fmt(r.continuous_us, "%.1f"),
                          fmt(speedup, "%.1fx")});
            records.push_back(std::move(r));
        }
    }
    std::printf("%s\n", table.toString().c_str());

    const Spread speedup = spreadOf(scale_speedups);
    std::printf("linear bit-identical to coloring on %zu/%zu blocks\n",
                partition_checked - partition_failures, partition_checked);
    std::printf("continuous identical to the reference on %zu/%zu "
                "(block, zone configuration) pairs\n",
                router_checked - router_failures, router_checked);
    std::printf("continuous vs reference on the scale rows: min %.1fx, "
                "median %.1fx, max %.1fx (floor: median >= %.1fx)\n",
                speedup.min, speedup.median, speedup.max, kMinMedianSpeedup);

    if (!flags.json_path.empty()) {
        std::FILE *out = std::fopen(flags.json_path.c_str(), "w");
        if (out == nullptr) {
            std::fprintf(stderr, "micro_oracles: cannot write '%s'\n",
                         flags.json_path.c_str());
            return 2;
        }
        std::fprintf(out,
                     "{\n  \"schema\": 1,\n  \"smoke\": %s,\n"
                     "  \"median_scale_speedup\": %.2f,\n"
                     "  \"min_scale_speedup\": %.2f,\n  \"entries\": [",
                     flags.smoke ? "true" : "false", speedup.median,
                     speedup.min);
        for (std::size_t i = 0; i < records.size(); ++i) {
            const Record &r = records[i];
            std::fprintf(out,
                         "%s\n    {\"key\": \"%s\", \"gates\": %zu, "
                         "\"stages\": %zu, \"coloring_us\": %.1f, "
                         "\"linear_us\": %.1f, \"mis_us\": %.1f, "
                         "\"reference_us\": %.1f, \"continuous_us\": %.1f}",
                         i > 0 ? "," : "", r.key.c_str(), r.gates, r.stages,
                         r.coloring_us, r.linear_us, r.mis_us,
                         r.reference_us, r.continuous_us);
        }
        std::fprintf(out, "\n  ]\n}\n");
        std::fclose(out);
        std::printf("\nsummary written: %s\n", flags.json_path.c_str());
    }

    if (partition_failures + router_failures > 0) {
        std::fprintf(stderr, "%zu differential check(s) failed\n",
                     partition_failures + router_failures);
        return 1;
    }
    if (speedup.median < kMinMedianSpeedup) {
        std::fprintf(stderr,
                     "continuous-router regression: median scale-row "
                     "speedup over the reference %.2fx is below the %.1fx "
                     "floor\n",
                     speedup.median, kMinMedianSpeedup);
        return 1;
    }
    return 0;
}
