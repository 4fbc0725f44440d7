/**
 * @file
 * Per-pass instrumentation of the compile pipeline.
 *
 * Every pipeline pass is timed and may publish named counters; the
 * resulting PassProfiles travel inside CompileResult so that callers —
 * the CLI's --profile flag, the compilation service's pass totals
 * (folded into its metrics registry), and perfbench's `pass.*` layers —
 * can attribute compile time to individual passes.
 *
 * Wall times are measurement noise by nature; everything else (the
 * invocation counts and every counter) is deterministic for a fixed
 * (circuit, machine, options) triple, which the tests rely on.
 */

#ifndef POWERMOVE_COMPILER_PROFILE_HPP
#define POWERMOVE_COMPILER_PROFILE_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace powermove {

/** The named passes of the compile pipeline, in execution order. */
enum class PassId : std::uint8_t
{
    Placement,
    StagePartition,
    StageOrder,
    Routing,
    CollMoveOrder,
    AodBatch,
};

/** Number of PassId values. */
inline constexpr std::size_t kNumPasses = 6;

/** Stable pass name, e.g. "routing". */
std::string_view passName(PassId pass);

/** One named, pass-specific measurement. */
struct PassCounter
{
    std::string name;
    std::uint64_t value = 0;
};

/** The profile of one pass accumulated over a compilation. */
struct PassProfile
{
    PassId pass = PassId::Placement;
    /** Total wall time spent inside the pass. */
    Duration wall_time = Duration::micros(0.0);
    /** Times the pass ran (per block or per stage for inner passes). */
    std::size_t invocations = 0;
    /** Pass-specific counters, in first-touch order. */
    std::vector<PassCounter> counters;
};

/**
 * Collects PassProfiles during one compilation. When disabled (see
 * CompilerOptions::profile_passes) every operation is a cheap no-op and
 * finish() returns an empty vector; the schedule a compilation produces
 * is bit-identical either way.
 */
class PassProfiler
{
  public:
    explicit PassProfiler(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** RAII scope accumulating wall time into one pass. */
    class [[nodiscard]] Timing
    {
      public:
        Timing(PassProfiler *profiler, PassId pass)
            : profiler_(profiler), pass_(pass)
        {
            if (profiler_ != nullptr)
                start_ = std::chrono::steady_clock::now();
        }

        ~Timing()
        {
            if (profiler_ != nullptr)
                profiler_->record(pass_, std::chrono::steady_clock::now() -
                                             start_);
        }

        Timing(const Timing &) = delete;
        Timing &operator=(const Timing &) = delete;

      private:
        PassProfiler *profiler_;
        PassId pass_;
        std::chrono::steady_clock::time_point start_;
    };

    /** Starts a timed invocation of @p pass. */
    Timing
    time(PassId pass)
    {
        return Timing(enabled_ ? this : nullptr, pass);
    }

    /** Adds @p delta to the pass counter named @p name. */
    void addCounter(PassId pass, std::string_view name, std::uint64_t delta);

    /** Profiles of every invoked pass, in pipeline order. */
    std::vector<PassProfile> finish() const;

  private:
    friend class Timing;

    void record(PassId pass, std::chrono::steady_clock::duration elapsed);

    struct Slot
    {
        double wall_micros = 0.0;
        std::size_t invocations = 0;
        std::vector<PassCounter> counters;
    };

    std::array<Slot, kNumPasses> slots_;
    bool enabled_;
};

} // namespace powermove

#endif // POWERMOVE_COMPILER_PROFILE_HPP
