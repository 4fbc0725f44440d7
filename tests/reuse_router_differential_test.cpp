/** @file Differential lock for atom reuse: the residency step of
 * ContinuousRouter == the reference router's (tests/oracles/).
 *
 * The reference router plans each transition against occupancy rebuilt
 * from the layout, with cursor-based storage slots and a ring search
 * for compute sites: the former reuse-aware router. The library router
 * runs the same residency step on its incremental state. Both are
 * driven side by side from identical inputs and equally seeded RNG
 * streams, under every residency policy with lookahead windows 1 and
 * 4, and must agree plan for plan, layout for layout, and on the
 * residency lifetime stats.
 *
 * One path may differ: the storage slot of a denied hold (a hold left
 * without a compute site parks after all). The reference's column
 * cursors may have passed a slot freed by a departing storage qubit in
 * the same transition and return a deeper one; the library returns the
 * Sec. 5.2 (|dx|, y, x) minimum. The comparison accepts exactly that
 * difference and resyncs the reference layout, and a hand-built denied
 * hold pins the minimum.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "oracles/reference_router.hpp"
#include "route/router.hpp"
#include "schedule/stage_order.hpp"
#include "schedule/stage_partition.hpp"
#include "workloads/suite.hpp"

namespace powermove {
namespace {

constexpr ResidencyPolicy kPolicies[] = {
    ResidencyPolicy::Lookahead, ResidencyPolicy::Lti,
    ResidencyPolicy::Fidelity};
constexpr std::size_t kWindows[] = {1, 4};

/** (|dx| from @p origin_x, y, x) of a storage site, for slot order. */
std::tuple<int, int, int>
slotOrder(const Machine &machine, std::int32_t origin_x, SiteId slot)
{
    const SiteCoord c = machine.coordOf(slot);
    return {std::abs(c.x - origin_x), c.y, c.x};
}

/**
 * Drives both routers through @p blocks from a storage-resident
 * row-major layout and compares every plan, the layouts after every
 * transition, and the final residency stats. Adds the denied holds to
 * @p denied_holds when given.
 */
void
expectSameRouting(const Machine &machine, std::size_t num_qubits,
                  const std::vector<std::vector<Stage>> &blocks,
                  const RouterOptions &options, const std::string &where,
                  std::size_t *denied_holds = nullptr)
{
    Rng reference_stream(options.seed);
    Rng core_stream(options.seed);
    ReferenceContinuousRouter reference(machine, options, reference_stream);
    ContinuousRouter core(machine, options, core_stream);
    Layout reference_layout(machine, num_qubits);
    Layout core_layout(machine, num_qubits);
    placeRowMajor(reference_layout, ZoneKind::Storage);
    core_layout.assignFrom(reference_layout);

    int step = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const bool final_block = b + 1 == blocks.size();
        reference.beginBlock(blocks[b], num_qubits, final_block);
        core.beginBlock(blocks[b], num_qubits, final_block);
        for (const Stage &stage : blocks[b]) {
            const std::string at = where + " step " + std::to_string(step++);
            // Holds may fill a tiny compute zone: both routers must then
            // refuse the same transition.
            TransitionPlan ref;
            TransitionPlan got;
            std::string ref_error;
            std::string got_error;
            try {
                ref = reference.planStageTransition(reference_layout, stage);
            } catch (const Error &e) {
                ref_error = e.what();
            }
            try {
                got = core.planStageTransition(core_layout, stage);
            } catch (const Error &e) {
                got_error = e.what();
            }
            ASSERT_EQ(ref_error, got_error) << at;
            if (!got_error.empty())
                return;
            EXPECT_EQ(ref.labels, got.labels) << at;
            EXPECT_EQ(ref.num_parked, got.num_parked) << at;
            EXPECT_EQ(ref.num_held, got.num_held) << at;
            EXPECT_EQ(ref.num_reuse_relocated, got.num_reuse_relocated)
                << at;
            EXPECT_EQ(ref.num_hold_denied, got.num_hold_denied) << at;
            EXPECT_EQ(ref.num_reuse_hits, got.num_reuse_hits) << at;
            EXPECT_EQ(ref.num_lookahead_misses, got.num_lookahead_misses)
                << at;
            EXPECT_EQ(ref.num_parked_no_reuse, got.num_parked_no_reuse)
                << at;
            EXPECT_EQ(ref.num_window_misses, got.num_window_misses) << at;
            ASSERT_EQ(ref.moves.size(), got.moves.size()) << at;
            if (denied_holds != nullptr)
                *denied_holds += got.num_hold_denied;

            // Denied holds emit the plan's last moves.
            const std::size_t first_denied =
                got.moves.size() - got.num_hold_denied;
            bool resync = false;
            for (std::size_t i = 0; i < got.moves.size(); ++i) {
                const QubitMove &r = ref.moves[i];
                const QubitMove &g = got.moves[i];
                if (i < first_denied || r.to == g.to) {
                    ASSERT_EQ(r, g) << at << ", move " << i;
                    continue;
                }
                ASSERT_EQ(r.qubit, g.qubit) << at;
                ASSERT_EQ(r.from, g.from) << at;
                const std::int32_t origin_x = machine.coordOf(g.from).x;
                EXPECT_LT(slotOrder(machine, origin_x, g.to),
                          slotOrder(machine, origin_x, r.to))
                    << at << ": a denied hold's slot may only be shallower";
                resync = true;
            }
            if (resync)
                reference_layout.assignFrom(core_layout);
            for (QubitId q = 0; q < num_qubits; ++q) {
                ASSERT_EQ(reference_layout.siteOf(q), core_layout.siteOf(q))
                    << at << ": layouts diverged at qubit " << q;
            }
        }
    }
    reference.endProgram();
    core.endProgram();
    EXPECT_EQ(reference.residency().stats(), core.residency().stats())
        << where;
    EXPECT_EQ(core.residency().stats().holds_started,
              core.residency().stats().holds_ended)
        << where;
}

RouterOptions
reuseOptions(ResidencyPolicy policy, std::size_t window, std::uint64_t seed)
{
    return RouterOptions{true, seed, policy, window};
}

TEST(ReuseRouterDifferentialTest, Table2StageSequencesMatch)
{
    for (const BenchmarkSpec &spec : table2Suite()) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        const std::size_t n = circuit.numQubits();
        std::vector<std::vector<Stage>> blocks;
        for (const CzBlock *block : circuit.blocks()) {
            blocks.push_back(orderStages(partitionIntoStagesLinear(*block, n),
                                         StageOrderOptions{}));
        }
        for (const ResidencyPolicy policy : kPolicies) {
            for (const std::size_t window : kWindows) {
                expectSameRouting(
                    machine, n, blocks, reuseOptions(policy, window, 0xC0FFEE),
                    spec.name + "/" + std::string(residencyPolicyName(policy)) +
                        "/w" + std::to_string(window));
            }
        }
    }
}

/** Random qubit-disjoint stage of 1..max_pairs gate pairs. */
Stage
randomStage(Rng &rng, std::size_t num_qubits, std::size_t max_pairs)
{
    std::vector<QubitId> qubits(num_qubits);
    for (QubitId q = 0; q < num_qubits; ++q)
        qubits[q] = q;
    rng.shuffle(qubits);
    const std::size_t pairs =
        1 + rng.nextBelow(std::min(max_pairs, num_qubits / 2));
    Stage stage;
    for (std::size_t p = 0; p < pairs; ++p)
        stage.gates.push_back(
            CzGate{qubits[2 * p], qubits[2 * p + 1]}.canonical());
    return stage;
}

/**
 * Seeded random multi-block programs, on the default zone shape and on
 * a 2x2 compute zone where holds outnumber free sites, so relocations
 * and denied holds are frequent.
 */
TEST(ReuseRouterDifferentialTest, RandomMultiBlockProgramsMatch)
{
    std::size_t denied_holds = 0;
    for (const bool cramped : {false, true}) {
        for (const std::size_t n : {9u, 16u, 24u}) {
            MachineConfig config = MachineConfig::forQubits(n);
            if (cramped) {
                config.compute_cols = 2;
                config.compute_rows = 2;
            }
            const Machine machine(config);
            for (std::uint64_t seed = 1; seed <= 8; ++seed) {
                Rng program_rng(seed * 7919 + n);
                std::vector<std::vector<Stage>> blocks(
                    1 + program_rng.nextBelow(4));
                for (auto &stages : blocks) {
                    const std::size_t num_stages =
                        1 + program_rng.nextBelow(6);
                    for (std::size_t s = 0; s < num_stages; ++s) {
                        stages.push_back(
                            randomStage(program_rng, n, cramped ? 2 : n));
                    }
                }
                for (const ResidencyPolicy policy : kPolicies) {
                    for (const std::size_t window : kWindows) {
                        expectSameRouting(
                            machine, n, blocks,
                            reuseOptions(policy, window, seed),
                            "n=" + std::to_string(n) +
                                (cramped ? " cramped" : "") +
                                " seed=" + std::to_string(seed) + " " +
                                std::string(residencyPolicyName(policy)) +
                                "/w" + std::to_string(window),
                            &denied_holds);
                    }
                }
            }
        }
    }
    EXPECT_GT(denied_holds, 0u) << "the cramped programs must deny holds";
}

/**
 * A denied hold built by hand, on a compute zone of one column and
 * three rows (sites a, b, c from the top) over one storage column of
 * four rows. Qubits 0 and 1 share a and are held (they interact in the
 * next stage); qubit 2 shares b with qubit 4 and is released; qubit 3
 * sits at c; qubits 5 and 6 fill storage rows 0 and 1. Stage 0 pairs
 * 3 with 5 and 4 with 6, so both storage qubits move up and free rows
 * 0 and 1 — after qubit 2 has parked at row 2, past the cursor. Every
 * compute site then ends with two atoms, so qubit 0's hold is denied
 * and it parks at the (|dx|, y, x) minimum, storage row 0. The
 * reference's cursor has moved past row 0 and returns row 3.
 */
TEST(ReuseRouterDifferentialTest, DeniedHoldParksAtTheSlotMinimum)
{
    MachineConfig config;
    config.compute_cols = 1;
    config.compute_rows = 3;
    config.storage_cols = 1;
    config.storage_rows = 4;
    const Machine machine(config);
    const std::int32_t top = machine.storageTopRow();
    const SiteId site_a = machine.siteAt(SiteCoord{0, 0});
    const SiteId site_b = machine.siteAt(SiteCoord{0, 1});
    const SiteId site_c = machine.siteAt(SiteCoord{0, 2});
    const auto storage_row = [&](std::int32_t r) {
        return machine.siteAt(SiteCoord{0, top + r});
    };

    Layout layout(machine, 7);
    layout.place(0, site_a);
    layout.place(1, site_a);
    layout.place(2, site_b);
    layout.place(4, site_b);
    layout.place(3, site_c);
    layout.place(5, storage_row(0));
    layout.place(6, storage_row(1));
    Layout reference_layout(machine, 7);
    reference_layout.assignFrom(layout);

    const std::vector<Stage> block = {Stage{{CzGate{3, 5}, CzGate{4, 6}}},
                                      Stage{{CzGate{0, 1}}}};
    const RouterOptions options =
        reuseOptions(ResidencyPolicy::Lookahead, 1, 1);
    ContinuousRouter core(machine, options);
    ReferenceContinuousRouter reference(machine, options);
    core.beginBlock(block, 7);
    reference.beginBlock(block, 7);

    const TransitionPlan plan = core.planStageTransition(layout, block[0]);
    EXPECT_EQ(plan.num_hold_denied, 1u);
    EXPECT_EQ(plan.num_held, 1u);
    ASSERT_FALSE(plan.moves.empty());
    EXPECT_EQ(plan.moves.back(), (QubitMove{0, site_a, storage_row(0)}));
    EXPECT_EQ(layout.siteOf(1), site_a) << "the other hold keeps its site";
    EXPECT_EQ(layout.siteOf(2), storage_row(2));
    EXPECT_EQ(layout.siteOf(5), site_c);
    EXPECT_EQ(layout.siteOf(6), site_b);
    EXPECT_TRUE(core.residency().isResident(1));
    EXPECT_FALSE(core.residency().isResident(0));

    const TransitionPlan ref =
        reference.planStageTransition(reference_layout, block[0]);
    ASSERT_EQ(ref.num_hold_denied, 1u);
    EXPECT_EQ(ref.moves.back(), (QubitMove{0, site_a, storage_row(3)}))
        << "the reference's cursor returns the deeper slot";
}

} // namespace
} // namespace powermove
