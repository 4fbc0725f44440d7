/**
 * @file
 * Aggregate statistics over benchmark runs.
 *
 * The paper summarizes Table 3 with aggregate claims ("average fidelity
 * improvement of 313.86x", "execution time improved by 1.71x to 3.46x");
 * this module computes the same aggregates from measured results:
 * geometric means for ratio-like quantities and min/max ranges.
 */

#ifndef POWERMOVE_REPORT_SUMMARY_HPP
#define POWERMOVE_REPORT_SUMMARY_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "compiler/profile.hpp"

namespace powermove {

/** Accumulates ratios and reports range and central tendency. */
class RatioSummary
{
  public:
    /** Adds one observed ratio (must be positive). */
    void add(double ratio);

    std::size_t count() const { return ratios_.size(); }
    bool empty() const { return ratios_.empty(); }

    /** Smallest observed ratio. */
    double min() const;
    /** Largest observed ratio. */
    double max() const;
    /** Geometric mean — the right average for multiplicative factors. */
    double geometricMean() const;
    /** Arithmetic mean (what the paper's "average improvement" uses). */
    double arithmeticMean() const;

    /** "min-max (geomean X, mean Y) over N benchmarks". */
    std::string toString() const;

  private:
    std::vector<double> ratios_;
};

/**
 * Renders per-pass profiles as an aligned table: pass name, invocation
 * count, wall time, share of the summed pass time, and the pass's
 * counters. Used by `powermove --profile` and the service stats dump.
 * Returns "(no pass profiles)" when @p profiles is
 * empty (profiling disabled or a non-pipeline compiler).
 */
std::string formatPassProfiles(const std::vector<PassProfile> &profiles);

} // namespace powermove

#endif // POWERMOVE_REPORT_SUMMARY_HPP
