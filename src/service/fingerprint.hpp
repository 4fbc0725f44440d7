/**
 * @file
 * Content-addressed fingerprints of compilation jobs.
 *
 * The compilation service deduplicates work by hashing everything that
 * determines a compilation's outcome: the circuit's gate list, the
 * machine shape (including every hardware parameter), and the compiler
 * options. Two jobs with equal fingerprints produce bit-identical
 * CompileResults, so a fingerprint can address a result cache.
 *
 * The hash is 64-bit FNV-1a over a canonical little-endian byte
 * encoding. Deliberately *excluded* from circuit fingerprints is the
 * circuit's display name: renaming a benchmark must still hit the
 * cache. Floating-point fields are hashed by bit pattern, so -0.0 and
 * 0.0 differ — acceptable for a cache (a spurious miss, never a wrong
 * hit).
 */

#ifndef POWERMOVE_SERVICE_FINGERPRINT_HPP
#define POWERMOVE_SERVICE_FINGERPRINT_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "arch/machine.hpp"
#include "circuit/circuit.hpp"
#include "compiler/options.hpp"

namespace powermove::service {

/** Incremental 64-bit FNV-1a hasher over canonical byte encodings. */
class Fnv1a
{
  public:
    /** FNV-1a 64-bit offset basis. */
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
    /** FNV-1a 64-bit prime. */
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    /** Feeds raw bytes. */
    void
    addBytes(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= bytes[i];
            hash_ *= kPrime;
        }
    }

    /** Feeds a 64-bit value as eight little-endian bytes. */
    void
    add(std::uint64_t value)
    {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(value >> (8 * i));
        addBytes(bytes, sizeof(bytes));
    }

    /** Feeds a signed value through its two's-complement bit pattern. */
    void add(std::int64_t value) { add(static_cast<std::uint64_t>(value)); }

    /** Feeds a double by IEEE-754 bit pattern. */
    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

    /** Feeds a boolean as one byte. */
    void
    add(bool value)
    {
        const unsigned char byte = value ? 1 : 0;
        addBytes(&byte, 1);
    }

    /** Feeds a length-prefixed string. */
    void
    add(std::string_view text)
    {
        add(static_cast<std::uint64_t>(text.size()));
        addBytes(text.data(), text.size());
    }

    /**
     * Forwards string literals to the string_view overload — without
     * this, overload resolution would silently prefer the built-in
     * const char* -> bool conversion and hash a single byte.
     */
    void add(const char *text) { add(std::string_view(text)); }

    /** Current digest. */
    std::uint64_t digest() const { return hash_; }

  private:
    std::uint64_t hash_ = kOffsetBasis;
};

/**
 * Fingerprint of a circuit's gate content: qubit count plus the full
 * alternating moment sequence. The display name is ignored.
 */
std::uint64_t fingerprintCircuit(const Circuit &circuit);

/** Fingerprint of a machine shape including all hardware parameters. */
std::uint64_t fingerprintMachineConfig(const MachineConfig &config);

/** Fingerprint of the full compiler option set (base seed included). */
std::uint64_t fingerprintOptions(const CompilerOptions &options);

/**
 * Fingerprint of one compilation job — the content address used by the
 * service's result cache and in-flight deduplication.
 */
std::uint64_t fingerprintJob(const Circuit &circuit,
                             const MachineConfig &config,
                             const CompilerOptions &options);

/**
 * The job fingerprint used for seed derivation: fingerprintJob() with
 * the schedule-neutral option fields normalized to canonical values.
 *
 * profile_passes participates in the cache address (a profiled and an
 * unprofiled run carry different result payloads) but must not reach
 * the derived seed: profiling never changes the schedule a compilation
 * emits, so a job profiled once for analysis and re-run unprofiled in
 * production has to draw the same randomized-decision stream.
 * RoutingStrategy::Fast is normalized to Continuous for the same
 * reason: `fast` is an alias of the continuous router, so
 * `--routing=fast` must draw the same stream and reproduce the
 * continuous schedule exactly — the CLI end-to-end job cmp's the
 * emitted ISA JSON of both.
 */
std::uint64_t seedFingerprintJob(const Circuit &circuit,
                                 const MachineConfig &config,
                                 const CompilerOptions &options);

/**
 * The on-disk cache address of a job. The persistent cache is shared
 * across processes, and two services may disagree on
 * JobServiceOptions::derive_job_seeds — the same job fingerprint then
 * names two *different* schedules (derived vs. verbatim seed). The
 * seeding rule therefore participates in the disk key, while the
 * in-memory key stays the plain fingerprint (one service applies one
 * rule consistently).
 */
std::uint64_t diskCacheKey(std::uint64_t job_fingerprint,
                           bool derive_job_seeds);

/**
 * Derives the RNG seed a service job actually compiles with.
 *
 * Rule (see CompilerOptions::seed): a job's randomized decisions must
 * depend only on (base seed, job content), never on which worker thread
 * runs it or in what order jobs are popped from the queue. The derived
 * seed mixes the user's base seed with the job fingerprint through
 * SplitMix64 so distinct jobs get decorrelated streams while identical
 * jobs — and therefore serial vs. 8-worker runs — reproduce bit-
 * identical results.
 */
std::uint64_t deriveJobSeed(std::uint64_t base_seed,
                            std::uint64_t job_fingerprint);

} // namespace powermove::service

#endif // POWERMOVE_SERVICE_FINGERPRINT_HPP
