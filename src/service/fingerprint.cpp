#include "service/fingerprint.hpp"

#include "common/rng.hpp"

namespace powermove::service {

namespace {

// Domain-separation tags so that e.g. a circuit fingerprint can never
// collide with a config fingerprint of the same byte content.
constexpr std::uint64_t kCircuitTag = 0x504d2d63697263ULL;  // "PM-circ"
constexpr std::uint64_t kConfigTag = 0x504d2d636f6e66ULL;   // "PM-conf"
constexpr std::uint64_t kOptionsTag = 0x504d2d6f707473ULL;  // "PM-opts"
constexpr std::uint64_t kJobTag = 0x504d2d6a6f62ULL;        // "PM-job"
constexpr std::uint64_t kOneQMomentTag = 1;
constexpr std::uint64_t kCzMomentTag = 2;

} // namespace

std::uint64_t
fingerprintCircuit(const Circuit &circuit)
{
    Fnv1a hash;
    hash.add(kCircuitTag);
    hash.add(static_cast<std::uint64_t>(circuit.numQubits()));
    hash.add(static_cast<std::uint64_t>(circuit.moments().size()));
    for (const Moment &moment : circuit.moments()) {
        if (const auto *one_q = std::get_if<OneQLayer>(&moment)) {
            hash.add(kOneQMomentTag);
            hash.add(static_cast<std::uint64_t>(one_q->gates.size()));
            for (const OneQGate &gate : one_q->gates) {
                hash.add(static_cast<std::uint64_t>(gate.kind));
                hash.add(static_cast<std::uint64_t>(gate.qubit));
                // Only angle-carrying kinds hash their angle so that the
                // unused 0.0 payload of e.g. an H gate cannot differ.
                if (oneQKindHasAngle(gate.kind))
                    hash.add(gate.angle);
            }
        } else {
            const auto &block = std::get<CzBlock>(moment);
            hash.add(kCzMomentTag);
            hash.add(static_cast<std::uint64_t>(block.gates.size()));
            for (const CzGate &gate : block.gates) {
                hash.add(static_cast<std::uint64_t>(gate.a));
                hash.add(static_cast<std::uint64_t>(gate.b));
            }
        }
    }
    return hash.digest();
}

std::uint64_t
fingerprintMachineConfig(const MachineConfig &config)
{
    Fnv1a hash;
    hash.add(kConfigTag);
    hash.add(static_cast<std::int64_t>(config.compute_cols));
    hash.add(static_cast<std::int64_t>(config.compute_rows));
    hash.add(static_cast<std::int64_t>(config.storage_cols));
    hash.add(static_cast<std::int64_t>(config.storage_rows));
    hash.add(static_cast<std::int64_t>(config.gap_rows));

    const HardwareParams &p = config.params;
    hash.add(p.f_one_q);
    hash.add(p.f_cz);
    hash.add(p.f_excitation);
    hash.add(p.f_transfer);
    hash.add(p.t_one_q.micros());
    hash.add(p.t_cz.micros());
    hash.add(p.t_transfer.micros());
    hash.add(p.t2.micros());
    hash.add(p.site_pitch.microns());
    hash.add(p.zone_gap.microns());
    hash.add(p.rydberg_radius.microns());
    hash.add(p.min_idle_separation.microns());
    hash.add(p.max_acceleration);
    hash.add(p.move_t_ref.micros());
    hash.add(p.move_d_ref.microns());
    return hash.digest();
}

// Completeness guard: every CompilerOptions field must be hashed below,
// or two different configurations could silently share a cache entry.
// A new field usually changes the struct's size on LP64 platforms,
// tripping this assertion until both the hash and the expected size are
// updated; when padding absorbs the addition instead (as it did for the
// one-byte residency enum), the structured-binding probe in
// fingerprint_test.cpp still catches the unhashed field by count.
static_assert(sizeof(void *) != 8 || sizeof(CompilerOptions) == 64,
              "CompilerOptions changed: extend fingerprintOptions() with the "
              "new field, then update this expected size");

std::uint64_t
fingerprintOptions(const CompilerOptions &options)
{
    Fnv1a hash;
    hash.add(kOptionsTag);
    hash.add(options.use_storage);
    hash.add(static_cast<std::uint64_t>(options.num_aods));
    hash.add(options.stage_order_alpha);
    hash.add(options.seed);
    hash.add(static_cast<std::uint64_t>(options.placement));
    hash.add(static_cast<std::uint64_t>(options.placement_refine_iters));
    // Retired fields hash the value they always held, so old keys stay valid.
    hash.add(std::uint64_t{1}); // stage_partition: Linear
    hash.add(static_cast<std::uint64_t>(options.stage_order));
    hash.add(static_cast<std::uint64_t>(options.coll_move_order));
    hash.add(std::uint64_t{0}); // aod_batch_policy: InOrder
    hash.add(static_cast<std::uint64_t>(options.routing));
    hash.add(static_cast<std::uint64_t>(options.reuse_lookahead));
    hash.add(static_cast<std::uint64_t>(options.residency));
    hash.add(static_cast<std::uint64_t>(options.routing_window));
    // profile_passes never changes the emitted schedule, but it changes
    // the CompileResult payload (pass_profiles present or empty), so it
    // is addressed too: a spurious miss beats handing a caller a cached
    // result whose profiles do not match their request. Seed derivation
    // must NOT see this field — see seedFingerprintJob().
    hash.add(options.profile_passes);
    return hash.digest();
}

std::uint64_t
fingerprintJob(const Circuit &circuit, const MachineConfig &config,
               const CompilerOptions &options)
{
    Fnv1a hash;
    hash.add(kJobTag);
    hash.add(fingerprintCircuit(circuit));
    hash.add(fingerprintMachineConfig(config));
    hash.add(fingerprintOptions(options));
    return hash.digest();
}

std::uint64_t
seedFingerprintJob(const Circuit &circuit, const MachineConfig &config,
                   const CompilerOptions &options)
{
    CompilerOptions canonical = options;
    canonical.profile_passes = CompilerOptions{}.profile_passes;
    // `fast` is an alias of the continuous router, so it must draw the
    // same seed.
    if (canonical.routing == RoutingStrategy::Fast)
        canonical.routing = RoutingStrategy::Continuous;
    return fingerprintJob(circuit, config, canonical);
}

std::uint64_t
diskCacheKey(std::uint64_t job_fingerprint, bool derive_job_seeds)
{
    if (derive_job_seeds)
        return job_fingerprint;
    Fnv1a hash;
    hash.add("verbatim-seed");
    hash.add(job_fingerprint);
    return hash.digest();
}

std::uint64_t
deriveJobSeed(std::uint64_t base_seed, std::uint64_t job_fingerprint)
{
    // hash_combine-style fold of the fingerprint into the base seed,
    // finished with a SplitMix64 round for avalanche.
    std::uint64_t state = base_seed;
    state ^= job_fingerprint + 0x9e3779b97f4a7c15ULL + (state << 6) +
             (state >> 2);
    return splitMix64(state);
}

} // namespace powermove::service
