#include "service/job.hpp"

#include "service/fingerprint.hpp"

namespace powermove::service {

std::uint64_t
jobFingerprint(const CompileJob &job)
{
    return fingerprintJob(job.circuit, job.machine, job.options);
}

CompilerOptions
effectiveOptions(const CompileJob &job)
{
    CompilerOptions options = job.options;
    options.seed = deriveJobSeed(
        options.seed,
        seedFingerprintJob(job.circuit, job.machine, job.options));
    return options;
}

} // namespace powermove::service
