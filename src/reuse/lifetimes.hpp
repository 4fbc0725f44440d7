/**
 * @file
 * Compute-zone residency lifetimes.
 *
 * Under atom reuse a qubit "held" in the compute zone between two of
 * its interactions is resident from the stage the hold started until
 * it is released (parked to storage, consumed by its next gate, or the
 * block ends). ResidencyLifetimes tracks those spans across the stage
 * sequence; its counters feed the routing pass's reuse profile and the
 * subsystem's tests.
 */

#ifndef POWERMOVE_REUSE_LIFETIMES_HPP
#define POWERMOVE_REUSE_LIFETIMES_HPP

#include <cstdint>
#include <vector>

#include "circuit/gate.hpp"

namespace powermove {

/** Cumulative residency statistics over a router's lifetime. */
struct ResidencyStats
{
    /** Hold spans started (one per qubit per contiguous residency). */
    std::uint64_t holds_started = 0;
    /** Hold spans ended, including those cut short by the block end. */
    std::uint64_t holds_ended = 0;
    /** Total stages spent resident, summed over ended spans. */
    std::uint64_t resident_stages = 0;
    /** Largest number of simultaneously resident qubits observed. */
    std::size_t max_concurrent = 0;

    bool operator==(const ResidencyStats &) const = default;
};

/** Residency spans of the qubits held in the compute zone. */
class ResidencyLifetimes
{
  public:
    /**
     * Forgets every residency (new block). Surviving spans are closed
     * as if released at @p end_stage — one past the closing block's
     * last stage — so their full length is credited to the stats.
     */
    void reset(std::size_t num_qubits, std::size_t end_stage = 0);

    /** True if @p qubit is currently held resident in the compute zone. */
    bool isResident(QubitId qubit) const;

    /** Starts a residency span at @p stage. No-op if already resident. */
    void hold(QubitId qubit, std::size_t stage);

    /**
     * Ends a residency span at @p stage, crediting its length to the
     * stats. No-op if @p qubit is not resident.
     */
    void release(QubitId qubit, std::size_t stage);

    /** Number of currently resident qubits. */
    std::size_t numResidents() const { return num_residents_; }

    const ResidencyStats &stats() const { return stats_; }

  private:
    static constexpr std::size_t kNotResident = ~std::size_t{0};

    std::vector<std::size_t> resident_since_; // qubit -> hold start stage
    std::size_t num_residents_ = 0;
    ResidencyStats stats_;
};

} // namespace powermove

#endif // POWERMOVE_REUSE_LIFETIMES_HPP
