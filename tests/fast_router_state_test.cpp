/** @file Property test for the continuous router's incremental structures.
 *
 * The continuous router keeps planned occupancy, free-site bitmasks, a
 * qubit-to-site mirror, and a compute-resident list alive across
 * transitions instead of rebuilding them. This test churns the router
 * through long random park/retrieve/move sequences and, after every
 * single transition, asks auditAgainstLayout() to rebuild each
 * structure from scratch and compare — so any drift (a stale bit, a
 * missed resident swap, an occupancy leak) is caught at the transition
 * that introduced it, not stages later when it corrupts a plan.
 */

#include <gtest/gtest.h>

#include <string>
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

class FastRouterStateTest
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>>
{};

TEST_P(FastRouterStateTest, IncrementalStateMatchesRebuildAfterEveryChurn)
{
    const auto [use_storage, seed] = GetParam();
    const std::size_t n = 30;
    const Machine machine(MachineConfig::forQubits(n));
    ContinuousRouter router(machine, RouterOptions{use_storage, seed});

    Layout layout(machine, n);
    placeRowMajor(layout,
                  use_storage ? ZoneKind::Storage : ZoneKind::Compute);

    Rng stage_rng(seed ^ 0x636875726eULL); // "churn"
    std::string why;
    for (int step = 0; step < 60; ++step) {
        const Stage stage = churnStage(stage_rng, n);
        router.planStageTransition(layout, stage);
        ASSERT_TRUE(router.auditAgainstLayout(layout, &why))
            << "step " << step << ": " << why;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Churn, FastRouterStateTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(11, 22, 33, 44)));

/** Tiny machine: parking pressure keeps every structure near full. */
TEST(FastRouterStatePressureTest, SmallMachineStaysConsistent)
{
    const std::size_t n = 8;
    const Machine machine(MachineConfig::forQubits(n));
    ContinuousRouter router(machine, RouterOptions{true, 5});
    Layout layout(machine, n);
    placeRowMajor(layout, ZoneKind::Storage);

    Rng stage_rng(123);
    std::string why;
    for (int step = 0; step < 80; ++step) {
        const Stage stage = churnStage(stage_rng, n);
        router.planStageTransition(layout, stage);
        ASSERT_TRUE(router.auditAgainstLayout(layout, &why))
            << "step " << step << ": " << why;
    }
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
