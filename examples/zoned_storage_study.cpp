/**
 * @file
 * A deep dive into the zoned architecture: drives the Continuous Router
 * stage by stage on a QSim workload and tracks how many qubits each
 * stage keeps in storage, how many inter-zone moves the transition
 * needs, and what that buys in fidelity. Demonstrates the lower-level
 * library API (stage partition + router) below the one-call compiler.
 */

#include <cstdio>

#include "arch/layout.hpp"
#include "compiler/powermove.hpp"
#include "report/layout_vis.hpp"
#include "route/router.hpp"
#include "schedule/stage_order.hpp"
#include "schedule/stage_partition.hpp"
#include "workloads/qsim.hpp"

int
main()
{
    using namespace powermove;

    const std::size_t num_qubits = 16;
    const Circuit circuit = makeQsim(num_qubits, 0.3, 4, 99);
    const Machine machine(MachineConfig::forQubits(num_qubits));

    std::printf("QSim workload: %zu qubits, %zu CZ gates in %zu sequential "
                "blocks\n\n",
                num_qubits, circuit.numCzGates(), circuit.numBlocks());

    // Drive the router manually, stage by stage.
    Layout layout(machine, num_qubits);
    placeRowMajor(layout, ZoneKind::Storage);
    ContinuousRouter router(machine, {true, 7});

    std::printf("initial layout (everything parked in storage):\n%s\n",
                renderLayout(layout).c_str());

    std::printf("%-6s %-6s %-9s %-9s %-8s %-8s\n", "stage", "gates",
                "inStorage", "inCompute", "parked", "moves");
    std::size_t stage_index = 0;
    for (const auto *block : circuit.blocks()) {
        auto stages =
            orderStages(partitionIntoStagesLinear(*block, num_qubits),
                        StageOrderOptions{});
        for (const auto &stage : stages) {
            const auto plan = router.planStageTransition(layout, stage);
            std::printf("%-6zu %-6zu %-9zu %-9zu %-8zu %-8zu\n", stage_index,
                        stage.gates.size(),
                        layout.countInZone(ZoneKind::Storage),
                        layout.countInZone(ZoneKind::Compute),
                        plan.num_parked, plan.moves.size());
            if (stage_index == 0) {
                std::printf("\nlayout at the first pulse ('@' = interacting "
                            "pair):\n%s\n",
                            renderLayout(layout).c_str());
            }
            ++stage_index;
        }
    }

    // And the headline effect, via the one-call API.
    const auto with =
        PowerMoveCompiler(machine, {true, 1}).compile(circuit);
    const auto without =
        PowerMoveCompiler(machine, {false, 1}).compile(circuit);
    std::printf("\nwith storage:    fidelity %.4f (excitation factor %.4f, "
                "%zu exposures)\n",
                with.metrics.fidelity(), with.metrics.excitation_factor,
                with.metrics.excitation_exposures);
    std::printf("without storage: fidelity %.4f (excitation factor %.4f, "
                "%zu exposures)\n",
                without.metrics.fidelity(),
                without.metrics.excitation_factor,
                without.metrics.excitation_exposures);
    return 0;
}
