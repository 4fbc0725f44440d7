/**
 * @file
 * Stage-partition differential and timing harness.
 *
 * For every Table 2 benchmark, all of its CZ gates are merged into one
 * commutable block and replicated at several depth multipliers (deep
 * blocks are where the graph coloring's per-qubit clique expansion —
 * O(k^2) edges for a qubit used in k gates — dominates compile time).
 * Each block is partitioned two ways:
 *
 *   coloring   the paper's materialized-graph coloring, the test oracle
 *              in tests/oracles/ (not in the library)
 *   linear     the library's graph-free qubit scan, the only partition
 *              the pipeline runs
 *
 * The harness times the partition alone, checks `linear` is
 * bit-identical to `coloring` (same greedy order, same colors), and
 * reports the linear-vs-coloring speedup. Depth-1 rows also time Enola's iterated-MIS
 * extraction — the paper's Sec. 7.2 compile-time comparison the
 * pre-rewrite Google-Benchmark harness carried (deeper rows skip it;
 * iterated MIS is quadratic in stages and would dominate the run).
 *
 * Flags:
 *   --smoke       one small entry per family, shallow depths (CI mode)
 *   --json PATH   machine-readable summary (uploaded next to
 *                 BENCH_ci.json by the bench-regression job)
 *
 * Stage assignments are deterministic, so the differential checks are
 * exact; only the timing columns are noisy (min-of-N on steady_clock,
 * bench/harness.hpp). Standalone main (no Google Benchmark dependency);
 * exits nonzero when any differential check fails.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "enola/mis.hpp"
#include "harness.hpp"
#include "oracles/reference_partition.hpp"
#include "report/table.hpp"
#include "schedule/stage_partition.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace powermove;

struct Entry
{
    std::string name;
    std::size_t num_qubits = 0;
    CzBlock block; // every CZ gate of the circuit, in program order
};

std::vector<Entry>
makeEntries(bool smoke)
{
    std::vector<Entry> entries;
    std::map<std::string, int> seen;
    for (const BenchmarkSpec &spec : table2Suite()) {
        if (smoke && seen[spec.family]++ > 0)
            continue;
        Entry entry;
        entry.name = spec.name;
        entry.num_qubits = spec.num_qubits;
        const Circuit circuit = spec.build();
        for (const CzBlock *block : circuit.blocks()) {
            entry.block.gates.insert(entry.block.gates.end(),
                                     block->gates.begin(),
                                     block->gates.end());
        }
        entries.push_back(std::move(entry));
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

enum Partitioner
{
    kColoring,
    kLinear,
    kNumPartitioners
};

struct PartitionerInfo
{
    const char *name;
    std::vector<Stage> (*partition)(const CzBlock &, std::size_t);
};

constexpr PartitionerInfo kPartitioners[kNumPartitioners] = {
    {"coloring", &partitionIntoStages},
    {"linear", &partitionIntoStagesLinear},
};

std::size_t
maxStageWidth(const std::vector<Stage> &stages)
{
    std::size_t widest = 0;
    for (const Stage &stage : stages)
        widest = std::max(widest, stage.gates.size());
    return widest;
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

using bench::fmt;

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
                std::fprintf(stderr, "micro_partition: --json needs a value\n");
                return 2;
            }
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "micro_partition: unknown flag '%s'\n",
                         argv[i]);
            return 2;
        }
    }

    // Smoke keeps the heavy star/chain entries (BV, QFT) shallow enough
    // for a CI job; the full sweep pushes depth 16 where the conflict
    // graph's clique expansion visibly dominates.
    const std::vector<std::size_t> depths =
        smoke ? std::vector<std::size_t>{1, 8}
              : std::vector<std::size_t>{1, 4, 16};

    std::printf("=== Stage partition (linear vs coloring oracle) across "
                "Table 2 x depth%s "
                "===\n\n",
                smoke ? " (smoke subset)" : "");

    struct Record
    {
        std::string key;
        std::size_t gates;
        double partition_us;
        std::size_t stages;
        std::size_t max_width;
    };
    std::vector<Record> records;
    std::size_t linear_mismatches = 0;
    std::size_t checked = 0;

    const std::size_t deepest = depths.back();
    std::vector<double> deepest_speedups;

    TextTable table({"Benchmark", "depth", "gates", "coloring(us)",
                     "linear(us)", "speedup", "mis(us)", "stages",
                     "maxw"});
    const std::vector<Entry> entries = makeEntries(smoke);
    for (const Entry &entry : entries) {
        for (const std::size_t depth : depths) {
            const CzBlock block = atDepth(entry.block, depth);
            const std::string key_base =
                entry.name + "|x" + std::to_string(depth);

            std::vector<Stage> stages[kNumPartitioners];
            double micros[kNumPartitioners];
            for (int p = 0; p < kNumPartitioners; ++p) {
                const PartitionerInfo &info = kPartitioners[p];
                stages[p] = info.partition(block, entry.num_qubits);
                micros[p] = bench::minOfNWallMicros([&] {
                    auto result = info.partition(block, entry.num_qubits);
                    (void)result;
                });
                records.push_back({key_base + "|" + info.name,
                                   block.gates.size(), micros[p],
                                   stages[p].size(),
                                   maxStageWidth(stages[p])});
            }

            // Enola baseline, shallow rows only (Sec. 7.2 comparison).
            std::string mis_cell = "-";
            if (depth == 1) {
                const double mis_us = bench::minOfNWallMicros([&] {
                    auto result =
                        partitionStagesByMis(block, entry.num_qubits);
                    (void)result;
                });
                mis_cell = fmt(mis_us, "%.1f");
                records.push_back({key_base + "|mis", block.gates.size(),
                                   mis_us, 0, 0});
            }

            const auto &coloring = stages[kColoring];
            const auto &linear = stages[kLinear];

            ++checked;
            if (!sameStages(coloring, linear)) {
                std::fprintf(stderr,
                             "%s: linear DIVERGED from coloring (%zu vs %zu "
                             "stages)\n",
                             key_base.c_str(), linear.size(), coloring.size());
                ++linear_mismatches;
            }

            const double speedup = micros[kLinear] > 0.0
                                       ? micros[kColoring] / micros[kLinear]
                                       : 0.0;
            if (depth == deepest)
                deepest_speedups.push_back(speedup);

            table.addRow(
                {entry.name, "x" + std::to_string(depth),
                 std::to_string(block.gates.size()),
                 fmt(micros[kColoring], "%.1f"), fmt(micros[kLinear], "%.1f"),
                 fmt(speedup, "%.1fx"), mis_cell,
                 std::to_string(coloring.size()),
                 std::to_string(maxStageWidth(coloring))});
        }
    }
    std::printf("%s\n", table.toString().c_str());

    std::sort(deepest_speedups.begin(), deepest_speedups.end());
    const double min_speedup =
        deepest_speedups.empty() ? 0.0 : deepest_speedups.front();
    const double median_speedup =
        deepest_speedups.empty()
            ? 0.0
            : deepest_speedups[deepest_speedups.size() / 2];
    std::printf("linear vs coloring at depth x%zu: min %.1fx, median %.1fx, "
                "max %.1fx\n",
                deepest, min_speedup, median_speedup,
                deepest_speedups.empty() ? 0.0 : deepest_speedups.back());
    std::printf("linear bit-identical to coloring on %zu/%zu blocks\n",
                checked - linear_mismatches, checked);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "micro_partition: cannot write '%s'\n",
                         json_path.c_str());
            return 2;
        }
        out << "{\n  \"schema\": 1,\n  \"smoke\": " << (smoke ? "true" : "false")
            << ",\n  \"entries\": [\n";
        for (std::size_t i = 0; i < records.size(); ++i) {
            const Record &r = records[i];
            out << "    {\"key\": \"" << r.key << "\", \"gates\": " << r.gates
                << ", \"partition_us\": " << fmt(r.partition_us, "%.1f")
                << ", \"stages\": " << r.stages
                << ", \"max_width\": " << r.max_width << "}"
                << (i + 1 < records.size() ? ",\n" : "\n");
        }
        out << "  ]\n}\n";
        std::printf("\nsummary written: %s\n", json_path.c_str());
    }

    if (linear_mismatches > 0) {
        std::fprintf(stderr, "%zu differential check(s) failed\n",
                     linear_mismatches);
        return 1;
    }
    return 0;
}
