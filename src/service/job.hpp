/**
 * @file
 * The unit of work the compilation service accepts and what it hands
 * back: CompileJob, JobResult and its serving tier, the job's content
 * address, and the options it really compiles with.
 *
 * Determinism: each job compiles with a seed derived from (base seed,
 * profile-normalized job fingerprint) — see deriveJobSeed() and
 * seedFingerprintJob() — so results are reproducible regardless of
 * worker count or queue interleaving, and toggling pass profiling never
 * changes a job's schedule. effectiveOptions() exposes the exact
 * options a job runs with, letting callers replay any service
 * compilation single-threadedly.
 */

#ifndef POWERMOVE_SERVICE_JOB_HPP
#define POWERMOVE_SERVICE_JOB_HPP

#include <cstdint>
#include <memory>

#include "arch/machine.hpp"
#include "circuit/circuit.hpp"
#include "compiler/options.hpp"
#include "compiler/result.hpp"

namespace powermove::service {

/** One unit of work: compile @p circuit for @p machine under @p options. */
struct CompileJob
{
    Circuit circuit;
    MachineConfig machine;
    CompilerOptions options;
};

/** Which tier produced a JobResult. */
enum class ResultSource : std::uint8_t
{
    /** A worker compiled it fresh (full cache miss). */
    Compiled,
    /** Attached to an identical in-flight job another submission owns. */
    Coalesced,
    /** Served from the in-memory LRU cache at submit time. */
    Memory,
    /** Deserialized from the persistent disk cache by a worker. */
    Disk,
};

/** What a submitted job's future resolves to. */
struct JobResult
{
    /** The interned target machine; keeps the schedule's referent alive. */
    std::shared_ptr<const Machine> machine;
    /** The (possibly shared) compilation outcome. */
    std::shared_ptr<const CompileResult> result;
    /** Content address of the job (cache key). */
    std::uint64_t fingerprint = 0;
    /** True if a cache (memory or disk) answered without compiling. */
    bool from_cache = false;
    /** Exact serving tier. */
    ResultSource source = ResultSource::Compiled;
};

/** Content address of @p job (the service's cache key). */
std::uint64_t jobFingerprint(const CompileJob &job);

/**
 * The options @p job actually compiles with under the service's
 * deterministic-seeding rule: the base seed is replaced by
 * deriveJobSeed(base, fingerprint). Compile with these directly to
 * replay any service job bit-identically outside the service.
 */
CompilerOptions effectiveOptions(const CompileJob &job);

} // namespace powermove::service

#endif // POWERMOVE_SERVICE_JOB_HPP
