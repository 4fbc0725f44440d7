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
 * Every policy holds at most the compute sites a stage leaves free, so
 * every hold finds a compute site; both routers assert this, and the
 * random programs on a cramped compute zone, where relocations are
 * frequent, would surface a violation as an InternalError.
 */

#include <gtest/gtest.h>

#include <string>
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

/**
 * Drives both routers through @p blocks from a storage-resident
 * row-major layout and compares every plan, the layouts after every
 * transition, and the final residency stats. Adds the relocated holds
 * to @p relocated when given. Only a ConfigError is an agreed refusal;
 * a broken invariant (InternalError) fails the test.
 */
void
expectSameRouting(const Machine &machine, std::size_t num_qubits,
                  const std::vector<std::vector<Stage>> &blocks,
                  const RouterOptions &options, const std::string &where,
                  std::size_t *relocated = nullptr)
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
            // A stage with more gates than compute sites fails: both
            // routers must then refuse the same transition.
            TransitionPlan ref;
            TransitionPlan got;
            std::string ref_error;
            std::string got_error;
            try {
                ref = reference.planStageTransition(reference_layout, stage);
            } catch (const ConfigError &e) {
                ref_error = e.what();
            }
            try {
                got = core.planStageTransition(core_layout, stage);
            } catch (const ConfigError &e) {
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
            EXPECT_EQ(ref.num_reuse_hits, got.num_reuse_hits) << at;
            EXPECT_EQ(ref.num_lookahead_misses, got.num_lookahead_misses)
                << at;
            EXPECT_EQ(ref.num_parked_no_reuse, got.num_parked_no_reuse)
                << at;
            EXPECT_EQ(ref.num_window_misses, got.num_window_misses) << at;
            ASSERT_EQ(ref.moves, got.moves) << at;
            if (relocated != nullptr)
                *relocated += got.num_reuse_relocated;
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
 * a 2x2 compute zone where the idle atoms outnumber free sites, so
 * evictions and relocations are frequent.
 */
TEST(ReuseRouterDifferentialTest, RandomMultiBlockProgramsMatch)
{
    std::size_t relocated = 0;
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
                            &relocated);
                    }
                }
            }
        }
    }
    EXPECT_GT(relocated, 0u) << "the cramped programs must relocate";
}

/**
 * Two holds on one site above capacity, built by hand, on a compute
 * zone of one column and three rows (sites a, b, c from the top) over
 * one storage column of four rows. Qubits 0 and 1 share a and interact
 * in the next stage; qubit 2 shares b with qubit 4; qubit 3 sits at c;
 * qubits 5 and 6 fill storage rows 0 and 1. Stage 0 pairs 3 with 5 and
 * 4 with 6, which claims two of the three compute sites, so only one of
 * 0 and 1 may stay: the lookahead window wants both, and the tie on
 * next use releases the lower id up front. The other hold keeps its
 * site and both routers plan the same moves.
 */
TEST(ReuseRouterDifferentialTest, HoldsAboveCapacityReleaseUpFront)
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
    EXPECT_EQ(plan.num_held, 1u);
    EXPECT_EQ(plan.num_parked, 2u) << "qubits 0 and 2";
    EXPECT_EQ(layout.siteOf(1), site_a) << "the kept hold keeps its site";
    EXPECT_EQ(layout.siteOf(5), site_c);
    EXPECT_EQ(layout.siteOf(6), site_b);
    EXPECT_TRUE(core.residency().isResident(1));
    EXPECT_FALSE(core.residency().isResident(0));

    const TransitionPlan ref =
        reference.planStageTransition(reference_layout, block[0]);
    EXPECT_EQ(ref.moves, plan.moves);
    for (QubitId q = 0; q < 7; ++q)
        EXPECT_EQ(reference_layout.siteOf(q), layout.siteOf(q)) << q;
}

} // namespace
} // namespace powermove
