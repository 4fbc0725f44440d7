/**
 * @file
 * Component ablation for PowerMove's design choices (DESIGN.md):
 *
 *  - Stage Scheduler (Sec. 4.2): zone-aware stage order on/off, plus an
 *    alpha sweep of the asymmetric transition cost;
 *  - Coll-Move Scheduler (Sec. 6.1): storage-dwell ordering on/off;
 *  - Enola upgrades: MIS movement batching and annealed placement, to
 *    separate how much of the gap is the revert scheme itself.
 */

#include <cstdio>
#include <vector>

#include "common/strings.hpp"
#include "compiler/powermove.hpp"
#include "enola/enola.hpp"
#include "report/table.hpp"
#include "workloads/suite.hpp"

int
main()
{
    using namespace powermove;

    const std::vector<std::string> benchmarks = {
        "QAOA-regular3-50", "QSIM-rand-0.3-20", "BV-50", "QFT-18",
    };

    std::printf("=== Component ablation ===\n\n");

    TextTable table({"Benchmark", "Variant", "Fidelity", "Texe (us)"});
    for (const auto &name : benchmarks) {
        const auto spec = findBenchmark(name);
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();

        const auto run = [&](const char *variant, CompilerOptions options) {
            const auto result =
                PowerMoveCompiler(machine, options).compile(circuit);
            table.addRow({name, variant,
                          formatFidelity(result.metrics.fidelity()),
                          formatGeneral(result.metrics.exec_time.micros(),
                                        6)});
        };

        run("full", {});
        CompilerOptions no_stage_order;
        no_stage_order.stage_order = StageOrderStrategy::AsPartitioned;
        run("no stage scheduler", no_stage_order);
        CompilerOptions no_cm_order;
        no_cm_order.coll_move_order = CollMoveOrderStrategy::AsGrouped;
        run("no coll-move order", no_cm_order);
        for (const double alpha : {0.1, 1.0}) {
            CompilerOptions options;
            options.stage_order_alpha = alpha;
            run(alpha < 0.5 ? "alpha = 0.1" : "alpha = 1.0", options);
        }

        const auto run_enola = [&](const char *variant,
                                   EnolaOptions options) {
            const auto result =
                EnolaCompiler(machine, options).compile(circuit);
            table.addRow({name, variant,
                          formatFidelity(result.metrics.fidelity()),
                          formatGeneral(result.metrics.exec_time.micros(),
                                        6)});
        };
        run_enola("enola (paper baseline)", {});
        EnolaOptions upgraded;
        upgraded.movement = EnolaMovement::Mis;
        run_enola("enola + MIS batching", upgraded);
        upgraded.anneal_placement = true;
        run_enola("enola + MIS + annealing", upgraded);
        EnolaOptions with_storage;
        with_storage.use_storage = true;
        run_enola("enola + storage (Fig 3e/f)", with_storage);
        CompilerOptions four_aods;
        four_aods.num_aods = 4;
        run("full, 4 AODs (in-order)", four_aods);
    }
    std::printf("%s", table.toString().c_str());
    return 0;
}
