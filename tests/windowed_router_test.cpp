/** @file Tests for the windowed high-quality router.
 *
 * The windowed router evaluates a bounded window of candidate gate
 * orderings per transition and commits the cheapest plan. It trades
 * planning time for movement quality, so the tests pin three things:
 * the committed plan still satisfies every router post-condition, the
 * search is deterministic (same seed + window => same plan, regardless
 * of how earlier transitions went elsewhere), and the accounting
 * (num_candidates / num_window_wins) reflects the search that ran.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "compiler/powermove.hpp"
#include "isa/json.hpp"
#include "isa/validator.hpp"
#include "route/router.hpp"
#include "route/windowed_router.hpp"
#include "service/fingerprint.hpp"
#include "workloads/suite.hpp"

namespace powermove {
namespace {

Stage
randomStage(Rng &rng, std::size_t num_qubits)
{
    std::vector<QubitId> qubits(num_qubits);
    for (QubitId q = 0; q < num_qubits; ++q)
        qubits[q] = q;
    rng.shuffle(qubits);
    const std::size_t pairs = 1 + rng.nextBelow(num_qubits / 2);
    Stage stage;
    for (std::size_t p = 0; p < pairs; ++p)
        stage.gates.push_back(
            CzGate{qubits[2 * p], qubits[2 * p + 1]}.canonical());
    return stage;
}

/** Same post-condition check the continuous-router tests use. */
void
checkStageLayout(const Machine &machine, const Layout &layout,
                 const Stage &stage, bool use_storage)
{
    std::vector<bool> interacting(layout.numQubits(), false);
    for (const auto &gate : stage.gates) {
        EXPECT_EQ(layout.siteOf(gate.a), layout.siteOf(gate.b));
        EXPECT_EQ(layout.zoneOf(gate.a), ZoneKind::Compute);
        interacting[gate.a] = true;
        interacting[gate.b] = true;
    }
    std::map<SiteId, std::vector<QubitId>> by_site;
    for (QubitId q = 0; q < layout.numQubits(); ++q)
        by_site[layout.siteOf(q)].push_back(q);
    for (const auto &[site, occupants] : by_site) {
        ASSERT_LE(occupants.size(), 2u);
        if (occupants.size() == 2) {
            EXPECT_TRUE(interacting[occupants[0]]);
            EXPECT_TRUE(interacting[occupants[1]]);
            EXPECT_EQ(machine.zoneOf(site), ZoneKind::Compute);
        }
    }
    if (use_storage) {
        for (QubitId q = 0; q < layout.numQubits(); ++q) {
            if (!interacting[q]) {
                EXPECT_EQ(layout.zoneOf(q), ZoneKind::Storage);
            }
        }
    }
}

double
totalMoveDistance(const Machine &machine, const TransitionPlan &plan)
{
    double total = 0.0;
    for (const auto &move : plan.moves)
        total += machine.distanceBetween(move.from, move.to).microns();
    return total;
}

class WindowedRouterTest
    : public ::testing::TestWithParam<std::tuple<bool, std::uint32_t>>
{};

TEST_P(WindowedRouterTest, RandomSequencesSatisfyPostConditions)
{
    const auto [use_storage, window] = GetParam();
    const std::size_t n = 20;
    const Machine machine(MachineConfig::forQubits(n));
    Rng rng(42);
    WindowedRouter router(machine, RouterOptions{use_storage, 42}, window,
                          rng);

    Layout layout(machine, n);
    placeRowMajor(layout,
                  use_storage ? ZoneKind::Storage : ZoneKind::Compute);

    Rng stage_rng(7);
    for (int step = 0; step < 25; ++step) {
        const Stage stage = randomStage(stage_rng, n);
        const auto plan = router.planStageTransition(layout, stage);
        checkStageLayout(machine, layout, stage, use_storage);
        EXPECT_EQ(plan.num_candidates, window) << "step " << step;
        // Candidate 0 never counts as a win, so at most window-1 of the
        // shuffled orderings can each beat the running incumbent.
        EXPECT_LT(plan.num_window_wins, window) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, WindowedRouterTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1u, 2u, 8u)));

TEST(WindowedRouterDeterminismTest, SameSeedAndWindowReplayIdentically)
{
    const std::size_t n = 18;
    const Machine machine(MachineConfig::forQubits(n));

    for (const std::uint32_t window : {1u, 6u}) {
        Rng rng_a(9), rng_b(9);
        WindowedRouter a(machine, RouterOptions{true, 9}, window, rng_a);
        WindowedRouter b(machine, RouterOptions{true, 9}, window, rng_b);
        Layout layout_a(machine, n), layout_b(machine, n);
        placeRowMajor(layout_a, ZoneKind::Storage);
        layout_b.assignFrom(layout_a);

        Rng stage_rng(31);
        for (int step = 0; step < 15; ++step) {
            const Stage stage = randomStage(stage_rng, n);
            const auto plan_a = a.planStageTransition(layout_a, stage);
            const auto plan_b = b.planStageTransition(layout_b, stage);
            EXPECT_EQ(plan_a.moves, plan_b.moves) << "step " << step;
            EXPECT_EQ(plan_a.labels, plan_b.labels) << "step " << step;
            EXPECT_EQ(plan_a.num_window_wins, plan_b.num_window_wins);
        }
    }
}

/**
 * A window of 1 evaluates exactly the original gate order, so the
 * committed plan must cost no more than what a wider window finds —
 * and a wider window may only ever improve (or tie) the chosen cost,
 * never regress it, because the original order is always candidate 0.
 */
TEST(WindowedRouterQualityTest, WiderWindowNeverCostsMoreAtEachStep)
{
    const std::size_t n = 22;
    const Machine machine(MachineConfig::forQubits(n));
    Rng rng_narrow(4), rng_wide(4);
    WindowedRouter narrow(machine, RouterOptions{true, 4}, 1, rng_narrow);
    WindowedRouter wide(machine, RouterOptions{true, 4}, 8, rng_wide);
    Layout layout_narrow(machine, n), layout_wide(machine, n);
    placeRowMajor(layout_narrow, ZoneKind::Storage);
    layout_wide.assignFrom(layout_narrow);

    // Both routers draw one derivation value per transition from
    // equally seeded streams, so at every step the wide window's
    // candidate 0 is exactly the narrow router's plan; the layouts can
    // drift apart once a shuffle wins, so the narrow side re-syncs to
    // keep each step an apples-to-apples comparison.
    Rng stage_rng(13);
    for (int step = 0; step < 20; ++step) {
        const Stage stage = randomStage(stage_rng, n);
        const auto plan_narrow =
            narrow.planStageTransition(layout_narrow, stage);
        const auto plan_wide = wide.planStageTransition(layout_wide, stage);
        EXPECT_LE(totalMoveDistance(machine, plan_wide),
                  totalMoveDistance(machine, plan_narrow) + 1e-9)
            << "step " << step;
        layout_narrow.assignFrom(layout_wide);
    }
}

TEST(WindowedRouterPipelineTest, CompilesTable2EntryAndValidates)
{
    const BenchmarkSpec spec = table2Suite().front();
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();

    CompilerOptions options;
    options.routing = RoutingStrategy::Windowed;
    options.routing_window = 4;
    const auto result = PowerMoveCompiler(machine, options).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
    EXPECT_GT(result.num_stages, 0u);
}

/**
 * Pins the windowed schedules themselves, not just their properties:
 * every Table 2 circuit compiled with --routing=windowed (default
 * window), with and without the storage zone, hashed as the FNV-1a
 * digest of the concatenated ISA JSON. Any change to the windowed
 * search, the router it drives, or the RNG draws either makes moves
 * this digest — so a refactor that claims "same schedules" must leave
 * it untouched.
 */
TEST(WindowedRouterPinTest, Table2SchedulesMatchRecordedDigest)
{
    service::Fnv1a hash;
    for (const bool use_storage : {true, false}) {
        for (const BenchmarkSpec &spec : table2Suite()) {
            const Machine machine(spec.machine_config);
            CompilerOptions options;
            options.routing = RoutingStrategy::Windowed;
            options.use_storage = use_storage;
            const auto result =
                PowerMoveCompiler(machine, options).compile(spec.build());
            const std::string json = scheduleToJson(result.schedule);
            hash.addBytes(json.data(), json.size());
        }
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, hash.digest());
    EXPECT_STREQ(hex, "0fe20a2e5da27aa4");
}

TEST(WindowedRouterGuardTest, WindowOfZeroIsRejected)
{
    const Machine machine(MachineConfig::forQubits(4));
    Rng rng(1);
    EXPECT_THROW(WindowedRouter(machine, RouterOptions{}, 0, rng),
                 InternalError);
}

} // namespace
} // namespace powermove
