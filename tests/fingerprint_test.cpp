/** @file Tests for content-addressed job fingerprints. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "service/fingerprint.hpp"

namespace powermove::service {
namespace {

TEST(Fnv1aTest, MatchesReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(Fnv1a().digest(), 0xcbf29ce484222325ULL);

    Fnv1a a;
    a.addBytes("a", 1);
    EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cULL);

    Fnv1a foobar;
    foobar.addBytes("foobar", 6);
    EXPECT_EQ(foobar.digest(), 0x85944171f73967e8ULL);
}

TEST(Fnv1aTest, TypedFeedsAreCanonical)
{
    Fnv1a via_u64;
    via_u64.add(std::uint64_t{0x0102030405060708ULL});
    Fnv1a via_bytes;
    const unsigned char little_endian[8] = {8, 7, 6, 5, 4, 3, 2, 1};
    via_bytes.addBytes(little_endian, 8);
    EXPECT_EQ(via_u64.digest(), via_bytes.digest());
}

TEST(FingerprintTest, CircuitNameIsIgnored)
{
    Circuit a(4, "alpha");
    a.append(CzGate{0, 1});
    Circuit b(4, "beta");
    b.append(CzGate{0, 1});
    EXPECT_EQ(fingerprintCircuit(a), fingerprintCircuit(b));
}

TEST(FingerprintTest, CircuitContentIsAddressed)
{
    Circuit base(4);
    base.append(CzGate{0, 1});
    base.append(CzGate{2, 3});

    Circuit reordered(4);
    reordered.append(CzGate{2, 3});
    reordered.append(CzGate{0, 1});
    EXPECT_NE(fingerprintCircuit(base), fingerprintCircuit(reordered));

    Circuit extended = base;
    extended.append(CzGate{1, 2});
    EXPECT_NE(fingerprintCircuit(base), fingerprintCircuit(extended));

    Circuit wider(5);
    wider.append(CzGate{0, 1});
    wider.append(CzGate{2, 3});
    EXPECT_NE(fingerprintCircuit(base), fingerprintCircuit(wider));
}

TEST(FingerprintTest, BarrierSplitsBlocksAndTheFingerprint)
{
    Circuit joined(4);
    joined.append(CzGate{0, 1});
    joined.append(CzGate{2, 3});

    Circuit split(4);
    split.append(CzGate{0, 1});
    split.barrier();
    split.append(CzGate{2, 3});
    EXPECT_NE(fingerprintCircuit(joined), fingerprintCircuit(split));
}

TEST(FingerprintTest, AngleOnlyCountsWhenTheKindHasOne)
{
    Circuit h_zero(2);
    h_zero.append(OneQGate{OneQKind::H, 0, 0.0});
    Circuit h_stale(2);
    h_stale.append(OneQGate{OneQKind::H, 0, 1.25}); // stale payload
    EXPECT_EQ(fingerprintCircuit(h_zero), fingerprintCircuit(h_stale));

    Circuit rz_a(2);
    rz_a.append(OneQGate{OneQKind::Rz, 0, 0.5});
    Circuit rz_b(2);
    rz_b.append(OneQGate{OneQKind::Rz, 0, 0.75});
    EXPECT_NE(fingerprintCircuit(rz_a), fingerprintCircuit(rz_b));
}

TEST(FingerprintTest, MachineConfigFieldsAreAddressed)
{
    const MachineConfig base = MachineConfig::forQubits(16);
    EXPECT_EQ(fingerprintMachineConfig(base), fingerprintMachineConfig(base));

    MachineConfig gap = base;
    gap.gap_rows += 1;
    EXPECT_NE(fingerprintMachineConfig(base), fingerprintMachineConfig(gap));

    MachineConfig params = base;
    params.params.f_cz = 0.99;
    EXPECT_NE(fingerprintMachineConfig(base),
              fingerprintMachineConfig(params));
}

TEST(FingerprintTest, OptionFieldsAreAddressed)
{
    const CompilerOptions base;
    EXPECT_EQ(fingerprintOptions(base), fingerprintOptions(base));

    CompilerOptions storage = base;
    storage.use_storage = false;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(storage));

    CompilerOptions aods = base;
    aods.num_aods = 2;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(aods));

    CompilerOptions seed = base;
    seed.seed += 1;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(seed));

    CompilerOptions alpha = base;
    alpha.stage_order_alpha = 0.25;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(alpha));

    CompilerOptions routing_aware = base;
    routing_aware.placement = PlacementStrategy::RoutingAware;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(routing_aware));

    CompilerOptions refine = base;
    refine.placement_refine_iters += 1;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(refine));

    CompilerOptions stage_order = base;
    stage_order.stage_order = StageOrderStrategy::AsPartitioned;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(stage_order));

    CompilerOptions cm_order = base;
    cm_order.coll_move_order = CollMoveOrderStrategy::AsGrouped;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(cm_order));

    CompilerOptions routing = base;
    routing.routing = RoutingStrategy::Reuse;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(routing));

    CompilerOptions lookahead = base;
    lookahead.reuse_lookahead += 1;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(lookahead));

    CompilerOptions lti = base;
    lti.residency = ResidencyPolicy::Lti;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(lti));

    CompilerOptions fidelity = base;
    fidelity.residency = ResidencyPolicy::Fidelity;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(fidelity));
    EXPECT_NE(fingerprintOptions(lti), fingerprintOptions(fidelity));

    CompilerOptions fast_routing = base;
    fast_routing.routing = RoutingStrategy::Fast;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(fast_routing));
    EXPECT_NE(fingerprintOptions(routing), fingerprintOptions(fast_routing));

    CompilerOptions windowed_routing = base;
    windowed_routing.routing = RoutingStrategy::Windowed;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(windowed_routing));
    EXPECT_NE(fingerprintOptions(fast_routing),
              fingerprintOptions(windowed_routing));

    CompilerOptions window = base;
    window.routing_window += 1;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(window));

    CompilerOptions profiling = base;
    profiling.profile_passes = false;
    EXPECT_NE(fingerprintOptions(base), fingerprintOptions(profiling));
}

/**
 * Completeness guard (with the sizeof static_assert in fingerprint.cpp):
 * the structured binding below names every CompilerOptions field, so
 * adding a field breaks this test at compile time until both this probe
 * and fingerprintOptions() are extended. The strategy enums above each
 * get a distinctness check; a field that compiles but is not hashed
 * would poison the service cache silently. The probe is the *only*
 * compile-time guard when a one-byte field lands in struct padding (as
 * residency did).
 */
TEST(FingerprintTest, OptionFieldCountProbe)
{
    const CompilerOptions options;
    const auto &[use_storage, num_aods, stage_order_alpha, seed, placement,
                 placement_refine_iters, stage_order, coll_move_order,
                 routing, reuse_lookahead, residency, routing_window,
                 profile_passes] = options;
    EXPECT_EQ(use_storage, options.use_storage);
    EXPECT_EQ(num_aods, options.num_aods);
    EXPECT_EQ(stage_order_alpha, options.stage_order_alpha);
    EXPECT_EQ(seed, options.seed);
    EXPECT_EQ(placement, options.placement);
    EXPECT_EQ(placement_refine_iters, options.placement_refine_iters);
    EXPECT_EQ(stage_order, options.stage_order);
    EXPECT_EQ(coll_move_order, options.coll_move_order);
    EXPECT_EQ(routing, options.routing);
    EXPECT_EQ(reuse_lookahead, options.reuse_lookahead);
    EXPECT_EQ(residency, options.residency);
    EXPECT_EQ(routing_window, options.routing_window);
    EXPECT_EQ(profile_passes, options.profile_passes);
}

TEST(FingerprintTest, JobFingerprintCombinesAllThreeParts)
{
    Circuit circuit(4);
    circuit.append(CzGate{0, 1});
    const MachineConfig config = MachineConfig::forQubits(4);
    const CompilerOptions options;

    const auto base = fingerprintJob(circuit, config, options);
    EXPECT_EQ(base, fingerprintJob(circuit, config, options));

    CompilerOptions other_options = options;
    other_options.num_aods = 3;
    EXPECT_NE(base, fingerprintJob(circuit, config, other_options));

    MachineConfig other_config = config;
    other_config.storage_rows += 1;
    EXPECT_NE(base, fingerprintJob(circuit, other_config, options));
}

/**
 * Schedule-neutral options must not reach the derived seed: profiling
 * never changes the emitted schedule, and `fast` is an alias of the
 * continuous router — so both
 * normalize away in seedFingerprintJob() while still addressing
 * distinct cache entries via fingerprintJob(). This is what makes
 * `--routing=fast` reproduce `--routing=continuous` byte for byte all
 * the way through the service (the CLI e2e job cmp's the ISA JSON).
 */
TEST(FingerprintTest, ScheduleNeutralOptionsShareTheSeedFingerprint)
{
    Circuit circuit(4);
    circuit.append(CzGate{0, 1});
    circuit.append(CzGate{2, 3});
    const MachineConfig config = MachineConfig::forQubits(4);
    const CompilerOptions continuous;

    CompilerOptions fast = continuous;
    fast.routing = RoutingStrategy::Fast;
    EXPECT_EQ(seedFingerprintJob(circuit, config, continuous),
              seedFingerprintJob(circuit, config, fast));
    EXPECT_NE(fingerprintJob(circuit, config, continuous),
              fingerprintJob(circuit, config, fast));

    CompilerOptions profiled = continuous;
    profiled.profile_passes = !profiled.profile_passes;
    EXPECT_EQ(seedFingerprintJob(circuit, config, continuous),
              seedFingerprintJob(circuit, config, profiled));

    // Strategies that genuinely change the schedule keep their own
    // randomized-decision streams.
    CompilerOptions reuse = continuous;
    reuse.routing = RoutingStrategy::Reuse;
    EXPECT_NE(seedFingerprintJob(circuit, config, continuous),
              seedFingerprintJob(circuit, config, reuse));
    CompilerOptions windowed = continuous;
    windowed.routing = RoutingStrategy::Windowed;
    EXPECT_NE(seedFingerprintJob(circuit, config, continuous),
              seedFingerprintJob(circuit, config, windowed));
    // The residency policy changes which qubits hold and therefore the
    // schedule, so it participates in seed derivation too.
    CompilerOptions lti_reuse = continuous;
    lti_reuse.routing = RoutingStrategy::Reuse;
    lti_reuse.residency = ResidencyPolicy::Lti;
    EXPECT_NE(seedFingerprintJob(circuit, config, reuse),
              seedFingerprintJob(circuit, config, lti_reuse));
}

/**
 * Golden digests: fingerprintOptions() and seedFingerprintJob() for one
 * option set per strategy value, pinned across versions. The disk cache
 * keys results by these digests and the service derives every job's
 * RNG stream from them, so a renumbered enumerator, a reordered or
 * dropped hash slot, or a new field hashed into the middle would
 * silently orphan every cache entry and change every derived seed. The
 * distinctness checks above cannot see any of that; this table can.
 */
TEST(FingerprintTest, GoldenDigestsArePinnedAcrossVersions)
{
    Circuit circuit(6, "golden");
    circuit.append(OneQGate{OneQKind::H, 0, 0.0});
    circuit.append(OneQGate{OneQKind::Rz, 3, 0.25});
    circuit.append(CzGate{0, 1});
    circuit.append(CzGate{2, 3});
    circuit.append(CzGate{1, 2});
    circuit.barrier();
    circuit.append(CzGate{4, 5});
    const MachineConfig config = MachineConfig::forQubits(6);

    const auto with = [](auto edit) {
        CompilerOptions options;
        edit(options);
        return options;
    };
    struct Golden
    {
        const char *name;
        CompilerOptions options;
        std::uint64_t options_digest;
        std::uint64_t seed_digest;
    };
    const Golden goldens[] = {
        {"default", CompilerOptions{}, 0x4d4926cd958773d1ULL,
         0x09c1660aeeccd921ULL},
        {"routing-aware, refine 0", with([](CompilerOptions &o) {
             o.placement = PlacementStrategy::RoutingAware;
             o.placement_refine_iters = 0;
         }),
         0x83771916f43d0258ULL, 0x2b17b63b44485550ULL},
        {"routing-aware, refine 32", with([](CompilerOptions &o) {
             o.placement = PlacementStrategy::RoutingAware;
             o.placement_refine_iters = 32;
         }),
         0x32529aac07d3dff8ULL, 0x9b6be222d443d941ULL},
        {"continuous", with([](CompilerOptions &o) {
             o.routing = RoutingStrategy::Continuous;
         }),
         0x4d4926cd958773d1ULL, 0x09c1660aeeccd921ULL},
        {"fast", with([](CompilerOptions &o) {
             o.routing = RoutingStrategy::Fast;
         }),
         0x355828ffc4a83d6bULL, 0x09c1660aeeccd921ULL},
        {"windowed", with([](CompilerOptions &o) {
             o.routing = RoutingStrategy::Windowed;
         }),
         0x4150a5e6ad17d538ULL, 0x3c1fb77ca8442f7dULL},
        {"reuse, lookahead", with([](CompilerOptions &o) {
             o.routing = RoutingStrategy::Reuse;
             o.residency = ResidencyPolicy::Lookahead;
         }),
         0x5941a3b47df70b9eULL, 0x647ca83a78d71738ULL},
        {"reuse, lti", with([](CompilerOptions &o) {
             o.routing = RoutingStrategy::Reuse;
             o.residency = ResidencyPolicy::Lti;
         }),
         0xbb931bc3a4469eb8ULL, 0x9e96e185b4922f5cULL},
        {"reuse, fidelity", with([](CompilerOptions &o) {
             o.routing = RoutingStrategy::Reuse;
             o.residency = ResidencyPolicy::Fidelity;
         }),
         0x6cbbd9cb376e6babULL, 0x41dcad1994ff8716ULL},
        {"as-partitioned", with([](CompilerOptions &o) {
             o.stage_order = StageOrderStrategy::AsPartitioned;
         }),
         0x59cb219d2e9a63feULL, 0x53d871a316ec8aa9ULL},
        {"as-grouped", with([](CompilerOptions &o) {
             o.coll_move_order = CollMoveOrderStrategy::AsGrouped;
         }),
         0x74fecbbd9499a05eULL, 0x688337829e197091ULL},
        {"2 AODs", with([](CompilerOptions &o) { o.num_aods = 2; }),
         0xa60fca142bbd1138ULL, 0xd4b0ae65016c8a50ULL},
        {"4 AODs", with([](CompilerOptions &o) { o.num_aods = 4; }),
         0x99b4b0a107651f32ULL, 0xd4d4f63f719f1a35ULL},
        {"no storage", with([](CompilerOptions &o) {
             o.use_storage = false;
         }),
         0xb86dfd12da5b7848ULL, 0xdc5a3c6ea5356a19ULL},
    };
    const auto hex = [](std::uint64_t value) {
        char text[19];
        std::snprintf(text, sizeof text, "0x%016llx",
                      static_cast<unsigned long long>(value));
        return std::string(text);
    };
    for (const Golden &golden : goldens) {
        EXPECT_EQ(hex(fingerprintOptions(golden.options)),
                  hex(golden.options_digest))
            << golden.name;
        EXPECT_EQ(hex(seedFingerprintJob(circuit, config, golden.options)),
                  hex(golden.seed_digest))
            << golden.name;
    }
}

TEST(FingerprintTest, DerivedSeedsAreDeterministicAndDecorrelated)
{
    const auto a = deriveJobSeed(42, 0x1111);
    EXPECT_EQ(a, deriveJobSeed(42, 0x1111));
    EXPECT_NE(a, deriveJobSeed(42, 0x2222));
    EXPECT_NE(a, deriveJobSeed(43, 0x1111));
    EXPECT_NE(a, 42u);
}

} // namespace
} // namespace powermove::service
