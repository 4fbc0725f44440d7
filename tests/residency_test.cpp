/** @file Tests for the pluggable residency policies (src/reuse/policy.*).
 *
 * Three layers: policy-level unit tests pinning each implementation's
 * eviction ranking against hand-built next-use indexes; router-level
 * tests of cross-block persistence and the residency lifetime
 * invariants (randomized across every policy); and pipeline-level tests
 * of the `--residency` axis — accounting invariants over the Table 2
 * families under all three policies, plus the cross-block reuse wins the
 * per-block window policy cannot see on QSIM/QFT.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compiler/powermove.hpp"
#include "isa/json.hpp"
#include "isa/validator.hpp"
#include "reuse/policy.hpp"
#include "route/router.hpp"
#include "workloads/suite.hpp"

namespace powermove {
namespace {

Stage
stageOf(std::initializer_list<CzGate> gates)
{
    Stage stage;
    stage.gates = gates;
    return stage;
}

/** Runs one partition() call and returns {holds, releases}. */
std::pair<std::vector<QubitId>, std::vector<QubitId>>
partitionOnce(ResidencyPolicyImpl &policy, const ReuseAnalysis &analysis,
              std::vector<QubitId> candidates, std::size_t stage,
              std::size_t capacity)
{
    std::vector<QubitId> holds;
    std::vector<QubitId> releases;
    const ResidencyQuery query{candidates, stage, analysis, capacity};
    policy.partition(query, holds, releases);
    EXPECT_EQ(holds.size() + releases.size(), candidates.size());
    std::sort(holds.begin(), holds.end());
    std::sort(releases.begin(), releases.end());
    return {holds, releases};
}

std::uint64_t
routingCounter(const CompileResult &result, const std::string &name)
{
    for (const PassProfile &profile : result.pass_profiles) {
        if (profile.pass != PassId::Routing)
            continue;
        for (const PassCounter &counter : profile.counters)
            if (counter.name == name)
                return counter.value;
    }
    ADD_FAILURE() << "routing counter not found: " << name;
    return 0;
}

CompileResult
compileWith(const Machine &machine, const Circuit &circuit,
            ResidencyPolicy residency)
{
    CompilerOptions options;
    options.routing = RoutingStrategy::Reuse;
    options.residency = residency;
    return PowerMoveCompiler(machine, options).compile(circuit);
}

// ------------------------------------------------------------ name/catalog

TEST(ResidencyNameTest, NamesRoundTripAndCatalogCoversResidency)
{
    for (const auto policy :
         {ResidencyPolicy::Lookahead, ResidencyPolicy::Lti,
          ResidencyPolicy::Fidelity}) {
        ResidencyPolicy parsed{};
        EXPECT_TRUE(
            parseResidencyPolicy(residencyPolicyName(policy), parsed));
        EXPECT_EQ(parsed, policy);
    }
    // Unknown names, the retired `lru` among them, leave the output
    // untouched.
    for (const char *name : {"bogus", "lru"}) {
        ResidencyPolicy untouched = ResidencyPolicy::Lti;
        EXPECT_FALSE(parseResidencyPolicy(name, untouched)) << name;
        EXPECT_EQ(untouched, ResidencyPolicy::Lti);
    }

    bool saw_residency = false;
    for (const StrategyCatalogEntry &entry : strategyCatalog()) {
        if (entry.dimension != "residency")
            continue;
        saw_residency = true;
        EXPECT_EQ(entry.flag, "--residency");
        ASSERT_EQ(entry.values.size(), 3u);
        EXPECT_EQ(entry.values[0], "lookahead"); // default first
        EXPECT_EQ(entry.values[1], "lti");
        EXPECT_EQ(entry.values[2], "fidelity");
    }
    EXPECT_TRUE(saw_residency);
}

// ------------------------------------------------------------ policy units

const HardwareParams &
defaultParams()
{
    static const Machine machine(MachineConfig::forQubits(4));
    return machine.params();
}

TEST(ResidencyPolicyTest, LookaheadMatchesTheWindowDecision)
{
    ReuseAnalysis analysis;
    analysis.beginBlock({stageOf({{0, 1}}), stageOf({{2, 3}}),
                         stageOf({{2, 3}}), stageOf({{0, 1}})},
                        4);
    const auto policy = makeResidencyPolicy(ResidencyPolicy::Lookahead, 1,
                                            defaultParams());
    EXPECT_FALSE(policy->persistsAcrossBlocks());

    // Stage 1: qubits 0 and 1 idle, next use at stage 3 (distance 2).
    // A window of 1 parks them both...
    auto [holds, releases] =
        partitionOnce(*policy, analysis, {0, 1}, 1, 100);
    EXPECT_TRUE(holds.empty());
    EXPECT_EQ(releases, (std::vector<QubitId>{0, 1}));

    // ...and a window of 2 holds them both while they fit...
    const auto wide = makeResidencyPolicy(ResidencyPolicy::Lookahead, 2,
                                          defaultParams());
    std::tie(holds, releases) =
        partitionOnce(*wide, analysis, {0, 1}, 1, 2);
    EXPECT_EQ(holds, (std::vector<QubitId>{0, 1}));
    EXPECT_TRUE(releases.empty());

    // ...but never beyond capacity: the tie on next use releases the
    // lower id first, and a zone with no free site holds nothing.
    std::tie(holds, releases) =
        partitionOnce(*wide, analysis, {0, 1}, 1, 1);
    EXPECT_EQ(holds, (std::vector<QubitId>{1}));
    EXPECT_EQ(releases, (std::vector<QubitId>{0}));
    std::tie(holds, releases) =
        partitionOnce(*wide, analysis, {0, 1}, 1, 0);
    EXPECT_TRUE(holds.empty());
    EXPECT_EQ(releases, (std::vector<QubitId>{0, 1}));
}

TEST(ResidencyPolicyTest, LtiEvictsTheFarthestNextUse)
{
    // Next uses after stage 1: qubit 0 -> stage 3, qubit 1 -> stage 2,
    // qubit 2 -> never (farthest of all under Belady).
    ReuseAnalysis analysis;
    analysis.beginBlock({stageOf({{0, 1}}), stageOf({{4, 5}}),
                         stageOf({{1, 3}}), stageOf({{0, 3}})},
                        6);
    const auto policy =
        makeResidencyPolicy(ResidencyPolicy::Lti, 4, defaultParams());
    EXPECT_TRUE(policy->persistsAcrossBlocks());

    auto [holds, releases] =
        partitionOnce(*policy, analysis, {0, 1, 2}, 1, 2);
    EXPECT_EQ(holds, (std::vector<QubitId>{0, 1}));
    EXPECT_EQ(releases, (std::vector<QubitId>{2}));

    std::tie(holds, releases) =
        partitionOnce(*policy, analysis, {0, 1, 2}, 1, 1);
    EXPECT_EQ(holds, (std::vector<QubitId>{1})); // soonest next use
    EXPECT_EQ(releases, (std::vector<QubitId>{0, 2}));
}

TEST(ResidencyPolicyTest, FidelityHoldsOnlyWithinBreakEven)
{
    const double break_even = fidelityBreakEvenStages(defaultParams());
    // Table 1 defaults: the storage round trip outweighs one stage of
    // residency but not two — reuse pays only back-to-back.
    EXPECT_GT(break_even, 1.0);
    EXPECT_LT(break_even, 2.0);

    const auto policy = makeResidencyPolicy(ResidencyPolicy::Fidelity, 4,
                                            defaultParams());
    EXPECT_TRUE(policy->persistsAcrossBlocks());

    // Qubit 0's next use after stage 1 is stage 2 (distance 1, inside
    // break-even -> hold); qubit 1's is stage 3 (distance 2, outside ->
    // release); qubit 2 never interacts again in a non-final block, so
    // holding it is a cross-block bet priced at distance 3 -> release.
    ReuseAnalysis analysis;
    analysis.beginBlock({stageOf({{0, 1}}), stageOf({{4, 5}}),
                         stageOf({{0, 4}}), stageOf({{1, 4}})},
                        6);
    auto [holds, releases] =
        partitionOnce(*policy, analysis, {0, 1, 2}, 1, 100);
    EXPECT_EQ(holds, (std::vector<QubitId>{0}));
    EXPECT_EQ(releases, (std::vector<QubitId>{1, 2}));
}

// ------------------------------------------------------------ router level

TEST(ResidencyRouterTest, PersistentPoliciesCarryResidencyAcrossBlocks)
{
    const Machine machine(MachineConfig::forQubits(4));
    const std::vector<Stage> first_block{stageOf({{0, 1}}),
                                         stageOf({{2, 3}})};
    const std::vector<Stage> final_block{stageOf({{0, 1}})};

    // With a window of 1 the lookahead policy parks qubits 0 and 1 at
    // the second transition (no further use inside the block), and the
    // final block starts cold: no reuse hits anywhere.
    {
        ContinuousRouter router(machine,
                                RouterOptions{true, 0xC0FFEE,
                                              ResidencyPolicy::Lookahead, 1});
        Layout layout(machine, 4);
        placeRowMajor(layout, ZoneKind::Storage);
        router.beginBlock(first_block, 4);
        for (const Stage &stage : first_block)
            router.planStageTransition(layout, stage);
        EXPECT_EQ(router.residency().numResidents(), 0u);
        router.beginBlock(final_block, 4, /*final_block=*/true);
        const auto plan =
            router.planStageTransition(layout, final_block.front());
        EXPECT_EQ(plan.num_reuse_hits, 0u);
        router.endProgram();
    }

    // The Belady policy instead keeps them resident across the block
    // boundary, and the final block's gate consumes both residents.
    {
        ContinuousRouter router(
            machine, RouterOptions{true, 0xC0FFEE, ResidencyPolicy::Lti, 1});
        Layout layout(machine, 4);
        placeRowMajor(layout, ZoneKind::Storage);
        router.beginBlock(first_block, 4);
        for (const Stage &stage : first_block)
            router.planStageTransition(layout, stage);
        EXPECT_EQ(router.residency().numResidents(), 2u);
        EXPECT_TRUE(router.residency().isResident(0));
        EXPECT_TRUE(router.residency().isResident(1));
        router.beginBlock(final_block, 4, /*final_block=*/true);
        EXPECT_EQ(router.residency().numResidents(), 2u)
            << "survived the boundary";
        const auto plan =
            router.planStageTransition(layout, final_block.front());
        EXPECT_EQ(plan.num_reuse_hits, 2u);
        router.endProgram();
        EXPECT_EQ(router.residency().numResidents(), 0u);
        EXPECT_EQ(router.residency().stats().holds_started,
                  router.residency().stats().holds_ended);
    }
}

/** Random qubit-disjoint stage: 1..n/2 gate pairs drawn by shuffle. */
Stage
randomStage(Rng &rng, std::size_t num_qubits)
{
    std::vector<QubitId> order(num_qubits);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[rng.nextBelow(i + 1)]);
    const std::size_t pairs = 1 + rng.nextBelow(num_qubits / 2);
    Stage stage;
    for (std::size_t p = 0; p < pairs; ++p)
        stage.gates.push_back({order[2 * p], order[2 * p + 1]});
    return stage;
}

TEST(ResidencyRouterTest, LifetimeInvariantsHoldAcrossRandomPrograms)
{
    for (const auto policy :
         {ResidencyPolicy::Lookahead, ResidencyPolicy::Lti,
          ResidencyPolicy::Fidelity}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            for (const std::size_t n : {4u, 9u}) {
                Rng rng(seed * 1000 + n);
                const Machine machine(MachineConfig::forQubits(n));
                ContinuousRouter router(machine,
                                        RouterOptions{true, seed, policy, 2});
                Layout layout(machine, n);
                placeRowMajor(layout, ZoneKind::Storage);

                const std::size_t num_blocks = 2 + rng.nextBelow(3);
                for (std::size_t b = 0; b < num_blocks; ++b) {
                    std::vector<Stage> stages;
                    const std::size_t num_stages = 1 + rng.nextBelow(3);
                    for (std::size_t s = 0; s < num_stages; ++s)
                        stages.push_back(randomStage(rng, n));
                    router.beginBlock(stages, n, b + 1 == num_blocks);
                    for (const Stage &stage : stages) {
                        router.planStageTransition(layout, stage);
                        // Open spans == current residents, and every
                        // resident really sits in the compute zone.
                        const ResidencyStats &stats =
                            router.residency().stats();
                        ASSERT_EQ(stats.holds_started - stats.holds_ended,
                                  router.residency().numResidents());
                        for (QubitId q = 0; q < n; ++q) {
                            if (!router.residency().isResident(q))
                                continue;
                            EXPECT_EQ(layout.zoneOf(q), ZoneKind::Compute)
                                << "policy="
                                << residencyPolicyName(policy)
                                << " seed=" << seed << " qubit=" << q;
                        }
                    }
                }
                router.endProgram();
                const ResidencyStats &stats = router.residency().stats();
                EXPECT_EQ(stats.holds_started, stats.holds_ended)
                    << "policy=" << residencyPolicyName(policy)
                    << " seed=" << seed << " n=" << n;
                EXPECT_EQ(router.residency().numResidents(), 0u);
            }
        }
    }
}

// ---------------------------------------------------------- pipeline level

TEST(ResidencyPipelineTest, DefaultIsLookaheadAndEveryPolicyIsDeterministic)
{
    const Machine machine(MachineConfig::forQubits(10));
    const Circuit circuit = findBenchmark("QSIM-rand-0.3-10").build();

    CompilerOptions defaults;
    defaults.routing = RoutingStrategy::Reuse;
    EXPECT_EQ(defaults.residency, ResidencyPolicy::Lookahead);
    const auto implicit =
        PowerMoveCompiler(machine, defaults).compile(circuit);
    const auto explicit_lookahead =
        compileWith(machine, circuit, ResidencyPolicy::Lookahead);
    EXPECT_EQ(scheduleToJson(implicit.schedule),
              scheduleToJson(explicit_lookahead.schedule));

    for (const auto policy :
         {ResidencyPolicy::Lti, ResidencyPolicy::Fidelity}) {
        const auto a = compileWith(machine, circuit, policy);
        const auto b = compileWith(machine, circuit, policy);
        EXPECT_EQ(scheduleToJson(a.schedule), scheduleToJson(b.schedule))
            << residencyPolicyName(policy);
    }
}

/**
 * Random programs on a 2x2 compute zone, smaller than every circuit:
 * wherever the continuous router compiles, reuse compiles and validates
 * under every policy. The lookahead window used to hold past capacity
 * here and throw "compute zone has no free site" (seed 1 among them).
 */
TEST(ResidencyPipelineTest, CrampedComputeZoneCompilesWhereContinuousDoes)
{
    std::size_t compiled = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        const std::size_t n = 6 + rng.nextBelow(7);
        Circuit circuit(n);
        const std::size_t gates = 4 + rng.nextBelow(12);
        for (std::size_t g = 0; g < gates; ++g) {
            const QubitId a = static_cast<QubitId>(rng.nextBelow(n));
            QubitId b = static_cast<QubitId>(rng.nextBelow(n - 1));
            if (b >= a)
                ++b;
            circuit.append(CzGate{a, b});
        }
        MachineConfig config = MachineConfig::forQubits(n);
        config.compute_cols = 2;
        config.compute_rows = 2;
        const Machine machine(config);

        CompilerOptions options;
        options.seed = seed;
        try {
            (void)PowerMoveCompiler(machine, options).compile(circuit);
        } catch (const Error &) {
            continue; // a stage with more gates than compute sites
        }
        ++compiled;
        options.routing = RoutingStrategy::Reuse;
        for (const auto policy : {ResidencyPolicy::Lookahead,
                                  ResidencyPolicy::Lti,
                                  ResidencyPolicy::Fidelity}) {
            for (const std::uint32_t window : {1u, 4u}) {
                options.residency = policy;
                options.reuse_lookahead = window;
                const std::string where =
                    "seed " + std::to_string(seed) + " " +
                    std::string(residencyPolicyName(policy)) + "/w" +
                    std::to_string(window);
                try {
                    const CompileResult result =
                        PowerMoveCompiler(machine, options).compile(circuit);
                    validateAgainstCircuit(result.schedule, circuit);
                } catch (const Error &e) {
                    ADD_FAILURE() << where << ": " << e.what();
                }
            }
        }
    }
    EXPECT_GE(compiled, 20u);
}

TEST(ResidencyPipelineTest, AccountingInvariantsHoldForEveryPolicy)
{
    // One representative entry per family keeps this sweep cheap; the
    // full-suite version runs in bench/micro_strategies as a CI gate.
    const std::vector<BenchmarkSpec> suite = table2Suite();
    std::vector<std::string> picked;
    std::vector<const BenchmarkSpec *> specs;
    for (const BenchmarkSpec &spec : suite) {
        if (std::find(picked.begin(), picked.end(), spec.family) !=
            picked.end())
            continue;
        picked.push_back(spec.family);
        specs.push_back(&spec);
    }
    for (const BenchmarkSpec *spec : specs) {
        const Machine machine(spec->machine_config);
        const Circuit circuit = spec->build();
        for (const auto policy :
             {ResidencyPolicy::Lookahead, ResidencyPolicy::Lti,
              ResidencyPolicy::Fidelity}) {
            const auto result = compileWith(machine, circuit, policy);
            const std::string tag = spec->name + std::string("/") +
                                    std::string(residencyPolicyName(policy));
            EXPECT_NO_THROW(
                validateAgainstCircuit(result.schedule, circuit))
                << tag;
            EXPECT_GT(result.metrics.fidelity(), 0.0) << tag;
            // Satellite bugfixes, pinned per policy: the miss split is
            // exact, and no residency span leaks past program end.
            EXPECT_EQ(routingCounter(result, "parked_no_reuse") +
                          routingCounter(result, "window_misses"),
                      routingCounter(result, "lookahead_misses"))
                << tag;
            EXPECT_EQ(routingCounter(result, "residency_holds_started"),
                      routingCounter(result, "residency_holds_ended"))
                << tag;
        }
    }
}

TEST(ResidencyPipelineTest, LtiFindsCrossBlockReuseTheWindowCannot)
{
    // QSIM circuits interleave 1Q layers between CZ moments, so every
    // block is a single stage and the per-block window can never hold:
    // lookahead measures zero reuse hits. Persistent Belady residency
    // turns the block-boundary parks into hits and plans fewer moves.
    {
        const BenchmarkSpec &spec = findBenchmark("QSIM-rand-0.3-10");
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        const auto window =
            compileWith(machine, circuit, ResidencyPolicy::Lookahead);
        const auto belady =
            compileWith(machine, circuit, ResidencyPolicy::Lti);
        EXPECT_EQ(routingCounter(window, "lookahead_hits"), 0u);
        EXPECT_GT(routingCounter(belady, "lookahead_hits"), 0u);
        EXPECT_LT(belady.schedule.numQubitMoves(),
                  window.schedule.numQubitMoves());
    }
    // QFT: one block per target qubit, within-block reuse is thin but
    // cross-block reuse is massive (every prefix qubit returns in every
    // later block).
    {
        const BenchmarkSpec &spec = findBenchmark("QFT-18");
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        const auto window =
            compileWith(machine, circuit, ResidencyPolicy::Lookahead);
        const auto belady =
            compileWith(machine, circuit, ResidencyPolicy::Lti);
        EXPECT_GT(routingCounter(belady, "lookahead_hits"),
                  routingCounter(window, "lookahead_hits"));
        EXPECT_LT(belady.schedule.numQubitMoves(),
                  window.schedule.numQubitMoves());
    }
    // BV has a single (final) CZ block, so cross-block hits are
    // impossible for every policy; persistent residency must still
    // never plan more moves than the window policy.
    {
        const BenchmarkSpec &spec = findBenchmark("BV-14");
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        const auto window =
            compileWith(machine, circuit, ResidencyPolicy::Lookahead);
        const auto belady =
            compileWith(machine, circuit, ResidencyPolicy::Lti);
        EXPECT_EQ(routingCounter(belady, "lookahead_hits"), 0u);
        EXPECT_LE(belady.schedule.numQubitMoves(),
                  window.schedule.numQubitMoves());
    }
}

} // namespace
} // namespace powermove
