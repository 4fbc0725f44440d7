/** @file Property test for the continuous router's incremental structures.
 *
 * The continuous router keeps planned occupancy, free-site bitmasks, a
 * qubit-to-site mirror, and a compute-resident list alive across
 * transitions instead of rebuilding them. This test churns the router
 * through long random park/retrieve/move sequences and, after every
 * single transition, asks auditAgainstLayout() to rebuild each
 * structure from scratch and compare — so any drift (a stale bit, a
 * missed resident swap, an occupancy leak) is caught at the transition
 * that introduced it, not stages later when it corrupts a plan. The
 * churn runs with and without a residency policy, so the same
 * structures are also checked while held atoms stay resident.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "route/router.hpp"
#include "schedule/stage.hpp"

namespace powermove {
namespace {

/**
 * A stage built to churn: gate pairs are drawn from a shuffled pool so
 * successive stages retrieve previously parked qubits, park previously
 * interacting ones, and re-pair compute residents in new combinations.
 */
Stage
churnStage(Rng &rng, std::size_t num_qubits)
{
    std::vector<QubitId> qubits(num_qubits);
    for (QubitId q = 0; q < num_qubits; ++q)
        qubits[q] = q;
    rng.shuffle(qubits);
    // Anywhere from one pair (mass parking) to saturation (mass
    // retrieval); both extremes stress different structures.
    const std::size_t pairs = 1 + rng.nextBelow(num_qubits / 2);
    Stage stage;
    for (std::size_t p = 0; p < pairs; ++p)
        stage.gates.push_back(
            CzGate{qubits[2 * p], qubits[2 * p + 1]}.canonical());
    return stage;
}

/** The router's residency step: none, or a policy. */
using Residency = std::optional<ResidencyPolicy>;

const auto kResidencies = ::testing::Values(
    Residency{}, Residency{ResidencyPolicy::Lookahead},
    Residency{ResidencyPolicy::Lti});

/**
 * Routes @p steps churn stages, announced in blocks of five (the
 * residency policy's lookahead needs them; without a policy
 * beginBlock() is a no-op), auditing after every transition.
 */
void
churnAndAudit(ContinuousRouter &router, Layout &layout, Rng &stage_rng,
              std::size_t num_qubits, int steps)
{
    std::string why;
    for (int step = 0; step < steps; step += 5) {
        std::vector<Stage> block;
        for (int s = step; s < std::min(step + 5, steps); ++s)
            block.push_back(churnStage(stage_rng, num_qubits));
        router.beginBlock(block, num_qubits, step + 5 >= steps);
        for (std::size_t s = 0; s < block.size(); ++s) {
            router.planStageTransition(layout, block[s]);
            ASSERT_TRUE(router.auditAgainstLayout(layout, &why))
                << "step " << step + static_cast<int>(s) << ": " << why;
        }
    }
    router.endProgram();
    EXPECT_EQ(router.residency().numResidents(), 0u);
}

class FastRouterStateTest
    : public ::testing::TestWithParam<
          std::tuple<bool, std::uint64_t, Residency>>
{};

TEST_P(FastRouterStateTest, IncrementalStateMatchesRebuildAfterEveryChurn)
{
    const auto [use_storage, seed, residency] = GetParam();
    const std::size_t n = 30;
    const Machine machine(MachineConfig::forQubits(n));
    ContinuousRouter router(machine,
                            RouterOptions{use_storage, seed, residency, 2});

    Layout layout(machine, n);
    placeRowMajor(layout,
                  use_storage ? ZoneKind::Storage : ZoneKind::Compute);

    Rng stage_rng(seed ^ 0x636875726eULL); // "churn"
    churnAndAudit(router, layout, stage_rng, n, 60);
}

INSTANTIATE_TEST_SUITE_P(
    Churn, FastRouterStateTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(11, 22, 33, 44),
                       ::testing::Values(Residency{})));

// Residency requires the storage zone.
INSTANTIATE_TEST_SUITE_P(
    ChurnWithHolds, FastRouterStateTest,
    ::testing::Combine(::testing::Values(true),
                       ::testing::Values(11, 22, 33, 44),
                       ::testing::Values(
                           Residency{ResidencyPolicy::Lookahead},
                           Residency{ResidencyPolicy::Lti})));

class FastRouterStatePressureTest
    : public ::testing::TestWithParam<Residency>
{};

/** Tiny machine: parking pressure keeps every structure near full. */
TEST_P(FastRouterStatePressureTest, SmallMachineStaysConsistent)
{
    const std::size_t n = 8;
    const Machine machine(MachineConfig::forQubits(n));
    ContinuousRouter router(machine, RouterOptions{true, 5, GetParam(), 2});
    Layout layout(machine, n);
    placeRowMajor(layout, ZoneKind::Storage);

    Rng stage_rng(123);
    churnAndAudit(router, layout, stage_rng, n, 80);
}

INSTANTIATE_TEST_SUITE_P(Policies, FastRouterStatePressureTest,
                         kResidencies);

/**
 * Planned occupancy starts as a mirror of the layout: the first
 * transition initializes it from the layout, and no state exists
 * before it.
 */
TEST(FastRouterStateOccupancyTest, FirstTransitionMirrorsTheLayout)
{
    const Machine machine(MachineConfig::forQubits(4));
    Layout layout(machine, 4);
    placeRowMajor(layout, ZoneKind::Storage);
    ContinuousRouter router(machine);

    std::string why;
    EXPECT_FALSE(router.auditAgainstLayout(layout, &why));
    router.planStageTransition(layout, Stage{{CzGate{0, 1}}});
    EXPECT_TRUE(router.auditAgainstLayout(layout, &why)) << why;
}

/**
 * Held atoms never depart, so their sites stay planned-occupied: after
 * a transition that holds two atoms and relocates one of them off its
 * partner's site, planned occupancy still equals the layout, one atom
 * per held site.
 */
TEST(FastRouterStateOccupancyTest, HoldsStayPlannedWhereTheySit)
{
    const Machine machine(MachineConfig::forQubits(4));
    Layout layout(machine, 4);
    placeRowMajor(layout, ZoneKind::Storage);
    ContinuousRouter router(
        machine, RouterOptions{true, 1, ResidencyPolicy::Lookahead, 4});
    const std::vector<Stage> block = {Stage{{CzGate{0, 1}}},
                                      Stage{{CzGate{2, 3}}},
                                      Stage{{CzGate{0, 1}}}};
    router.beginBlock(block, 4);

    std::string why;
    router.planStageTransition(layout, block[0]);
    const TransitionPlan plan = router.planStageTransition(layout, block[1]);
    EXPECT_EQ(plan.num_held, 2u);
    EXPECT_EQ(plan.num_reuse_relocated, 1u);
    ASSERT_TRUE(router.auditAgainstLayout(layout, &why)) << why;
    EXPECT_EQ(layout.occupancy(layout.siteOf(0)), 1u);
    EXPECT_EQ(layout.occupancy(layout.siteOf(1)), 1u);

    router.planStageTransition(layout, block[2]);
    EXPECT_TRUE(router.auditAgainstLayout(layout, &why)) << why;
}

/**
 * reset() is the documented escape hatch for external layout mutation:
 * after moving a qubit behind the router's back and resetting, the
 * next transition must rebuild and the audits must hold again.
 */
TEST(FastRouterStateResetTest, AuditHoldsAfterResetFromExternalChange)
{
    const std::size_t n = 16;
    const Machine machine(MachineConfig::forQubits(n));
    ContinuousRouter router(machine, RouterOptions{true, 9});
    Layout layout(machine, n);
    placeRowMajor(layout, ZoneKind::Storage);

    Rng stage_rng(77);
    std::string why;
    for (int step = 0; step < 10; ++step) {
        router.planStageTransition(layout, churnStage(stage_rng, n));
        ASSERT_TRUE(router.auditAgainstLayout(layout, &why)) << why;
    }

    // External mutation: stash one idle qubit somewhere else. Pick a
    // storage-resident qubit and a free storage site so the move is
    // legal at the Layout level.
    QubitId moved = n;
    for (QubitId q = 0; q < n; ++q) {
        if (machine.zoneOf(layout.siteOf(q)) == ZoneKind::Storage) {
            moved = q;
            break;
        }
    }
    ASSERT_LT(moved, n);
    SiteId free_site = kInvalidSite;
    for (const SiteId site : machine.storageSites()) {
        if (layout.occupancy(site) == 0) {
            free_site = site;
            break;
        }
    }
    ASSERT_NE(free_site, kInvalidSite);
    layout.moveTo(moved, free_site);

    router.reset();
    for (int step = 0; step < 10; ++step) {
        router.planStageTransition(layout, churnStage(stage_rng, n));
        ASSERT_TRUE(router.auditAgainstLayout(layout, &why))
            << "post-reset: " << why;
    }
}

} // namespace
} // namespace powermove
