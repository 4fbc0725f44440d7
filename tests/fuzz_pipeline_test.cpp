/** @file Randomized end-to-end fuzzing of the whole compilation stack.
 *
 * Generates random circuits (random block sizes, random gate pairs,
 * random 1Q layers, occasional barriers and repeated gates), compiles
 * them under every configuration axis, and validates the emitted
 * machine program. Any router/grouping/scheduling bug that produces an
 * illegal or incomplete schedule fails the hardware validator here.
 *
 * The JobService sweep additionally randomizes the service axes —
 * priority, deadline, and a shared on-disk cache directory — and pins
 * the determinism contract: whatever path a job takes through the async
 * service, its schedule is byte-identical to a single-threaded
 * effectiveOptions() replay.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "compiler/powermove.hpp"
#include "common/rng.hpp"
#include "enola/enola.hpp"
#include "isa/validator.hpp"
#include "service/disk_cache.hpp"
#include "service/job_service.hpp"

namespace powermove {
namespace {

Circuit
randomCircuit(std::size_t num_qubits, std::size_t num_moments,
              std::uint64_t seed)
{
    Rng rng(seed);
    Circuit circuit(num_qubits, "fuzz-" + std::to_string(seed));
    for (std::size_t m = 0; m < num_moments; ++m) {
        const auto kind = rng.nextBelow(10);
        if (kind < 2) {
            // Sparse 1Q layer.
            const std::size_t count = 1 + rng.nextBelow(num_qubits);
            for (std::size_t g = 0; g < count; ++g) {
                circuit.append(OneQGate{
                    rng.nextBool(0.5) ? OneQKind::H : OneQKind::Rz,
                    static_cast<QubitId>(rng.nextBelow(num_qubits)),
                    rng.nextDouble()});
            }
        } else if (kind < 3) {
            circuit.barrier();
        } else {
            // Random CZ block; duplicates and overlapping gates allowed.
            const std::size_t count = 1 + rng.nextBelow(num_qubits);
            for (std::size_t g = 0; g < count; ++g) {
                const auto a =
                    static_cast<QubitId>(rng.nextBelow(num_qubits));
                const auto b =
                    static_cast<QubitId>(rng.nextBelow(num_qubits));
                if (a != b)
                    circuit.append(CzGate{a, b});
            }
        }
    }
    return circuit;
}

struct FuzzCase
{
    std::uint64_t seed;
    std::size_t num_qubits;
    bool use_storage;
    std::size_t num_aods;
    RoutingStrategy routing;
    std::uint32_t reuse_lookahead;
    PlacementStrategy placement;
    std::uint32_t routing_window = 8;
    ResidencyPolicy residency = ResidencyPolicy::Lookahead;
};

class PipelineFuzz : public ::testing::TestWithParam<FuzzCase>
{};

TEST_P(PipelineFuzz, PowerMoveSchedulesValidate)
{
    const auto param = GetParam();
    const Circuit circuit =
        randomCircuit(param.num_qubits, 12, param.seed);
    const Machine machine(MachineConfig::forQubits(param.num_qubits));
    CompilerOptions options;
    options.use_storage = param.use_storage;
    options.num_aods = param.num_aods;
    options.seed = param.seed * 17 + 3;
    options.routing = param.routing;
    options.reuse_lookahead = param.reuse_lookahead;
    options.placement = param.placement;
    options.routing_window = param.routing_window;
    options.residency = param.residency;
    // A tight budget still exercises greedy + refinement while keeping
    // the case count x placement sweep cheap.
    options.placement_refine_iters = 8;
    const PowerMoveCompiler compiler(machine, options);
    const auto result = compiler.compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit))
        << "seed=" << param.seed;
    EXPECT_GT(result.metrics.fidelity(), 0.0);
    if (param.use_storage && param.routing != RoutingStrategy::Reuse) {
        // Continuous semantics (shared by the `fast` alias and every
        // windowed candidate) keep every idle qubit out of the compute
        // zone during pulses; atom reuse deliberately trades excitation
        // exposures for saved storage round trips.
        EXPECT_EQ(result.metrics.excitation_exposures, 0u);
    }
}

TEST_P(PipelineFuzz, EnolaSchedulesValidate)
{
    const auto param = GetParam();
    if (param.num_aods > 1)
        GTEST_SKIP() << "baseline is evaluated with one AOD";
    if (param.routing != RoutingStrategy::Continuous)
        GTEST_SKIP() << "the baseline has no routing-strategy axis";
    const Circuit circuit =
        randomCircuit(param.num_qubits, 12, param.seed);
    const Machine machine(MachineConfig::forQubits(param.num_qubits));
    EnolaOptions options;
    options.movement = param.use_storage ? EnolaMovement::Mis
                                         : EnolaMovement::Sequential;
    const auto result = EnolaCompiler(machine, options).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit))
        << "seed=" << param.seed;
}

/** One disk-cache dir shared by every fuzz case that enables the tier. */
const std::string &
sharedFuzzCacheDir()
{
    static const std::string dir = [] {
        namespace fs = std::filesystem;
        const fs::path path =
            fs::temp_directory_path() /
            ("powermove_fuzz_cache_" +
             std::to_string(static_cast<unsigned long>(::getpid())));
        fs::remove_all(path);
        fs::create_directories(path);
        return path.string();
    }();
    return dir;
}

TEST_P(PipelineFuzz, JobServiceMatchesEffectiveOptionsReplay)
{
    const auto param = GetParam();
    const Circuit circuit =
        randomCircuit(param.num_qubits, 12, param.seed);
    CompilerOptions options;
    options.use_storage = param.use_storage;
    options.num_aods = param.num_aods;
    options.seed = param.seed * 17 + 3;
    options.routing = param.routing;
    options.reuse_lookahead = param.reuse_lookahead;
    options.placement = param.placement;
    options.routing_window = param.routing_window;
    options.residency = param.residency;
    options.placement_refine_iters = 8;
    const service::CompileJob job{
        circuit, MachineConfig::forQubits(param.num_qubits), options};

    // Randomize the service axes from the case seed: shard/worker
    // geometry, priority, deadline, and whether the shared disk cache
    // participates. Submitting the same job twice exercises a second
    // tier (coalesced or memory) in the same case.
    Rng rng(param.seed ^ 0x6a6f627376ULL); // "jobsv"
    service::JobServiceOptions service_options;
    service_options.num_shards = 1 + rng.nextBelow(3);
    service_options.workers_per_shard = 1 + rng.nextBelow(2);
    if (rng.nextBool(0.5))
        service_options.cache_dir = sharedFuzzCacheDir();
    const int priority = static_cast<int>(rng.nextBelow(11)) - 5;
    // Most jobs run without a deadline or with a generous one; a slice
    // gets a sub-microsecond deadline that may legitimately expire.
    const double deadline_ms = rng.nextBool(0.2)   ? 1e-6
                               : rng.nextBool(0.5) ? 60000.0
                                                   : 0.0;

    service::JobService svc(service_options);
    service::JobTicket first = svc.submit(job, priority, deadline_ms);
    service::JobTicket second = svc.submit(job, priority, deadline_ms);

    const Machine machine(job.machine);
    const PowerMoveCompiler direct(machine,
                                   service::effectiveOptions(job));
    const std::string replay_bytes =
        service::serializeResultWitness(direct.compile(circuit));

    for (service::JobTicket *ticket : {&first, &second}) {
        try {
            const service::JobResult out = ticket->result.get();
            ASSERT_TRUE(out.result);
            EXPECT_EQ(service::serializeResultWitness(*out.result), replay_bytes)
                << "seed=" << param.seed;
        } catch (const service::ExpiredError &) {
            // Only the instant deadline may expire, and the record must
            // say so.
            EXPECT_LE(deadline_ms, 1e-6) << "seed=" << param.seed;
            const auto status = svc.status(ticket->id);
            ASSERT_TRUE(status.has_value());
            EXPECT_EQ(status->state, service::JobState::Expired);
        }
    }
}

std::vector<FuzzCase>
makeCases()
{
    // The routing axis samples both strategies everywhere, plus window
    // extremes for reuse (1 = hold only for the very next stage; 16 =
    // effectively unbounded for 12-moment circuits); reuse with
    // use_storage = false exercises the continuous fallback. The
    // placement axis rotates through every strategy across the cases
    // (rather than multiplying the count out): each (n, storage, aods)
    // group appends an odd number of cases (7), so the 2-cycle flips
    // between groups and every routing config meets both placements,
    // every qubit count and both zone configurations somewhere.
    constexpr PlacementStrategy kPlacements[] = {
        PlacementStrategy::RowMajor,
        PlacementStrategy::RoutingAware,
    };
    // The residency axis rotates through every policy across the reuse
    // cases (3 per group, 3-cycle offset by the group index → each
    // policy meets every window size, qubit count, and zone
    // configuration somewhere in the sweep).
    constexpr ResidencyPolicy kResidencies[] = {
        ResidencyPolicy::Lookahead,
        ResidencyPolicy::Lti,
        ResidencyPolicy::Fidelity,
    };
    std::vector<FuzzCase> cases;
    std::uint64_t seed = 1;
    std::size_t group = 0;
    const auto next_placement = [&] {
        return kPlacements[cases.size() % std::size(kPlacements)];
    };
    for (const std::size_t n : {5u, 9u, 16u, 25u, 40u}) {
        for (const bool storage : {false, true}) {
            for (const std::size_t aods : {1u, 3u}) {
                cases.push_back(
                    {seed++, n, storage, aods, RoutingStrategy::Continuous,
                     4, next_placement()});
                for (const std::uint32_t window : {1u, 4u, 16u}) {
                    cases.push_back({seed++, n, storage, aods,
                                     RoutingStrategy::Reuse, window,
                                     next_placement(), 8,
                                     kResidencies[(cases.size() + group) %
                                                  std::size(kResidencies)]});
                }
                // The `fast` alias sees the same axis sweep as the
                // router it names.
                cases.push_back(
                    {seed++, n, storage, aods, RoutingStrategy::Fast, 4,
                     next_placement()});
                // Windowed search at the degenerate and a real width.
                for (const std::uint32_t window : {1u, 4u}) {
                    cases.push_back({seed++, n, storage, aods,
                                     RoutingStrategy::Windowed, 4,
                                     next_placement(), window});
                }
                ++group;
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, PipelineFuzz,
                         ::testing::ValuesIn(makeCases()));

} // namespace
} // namespace powermove
