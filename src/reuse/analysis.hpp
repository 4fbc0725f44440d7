/**
 * @file
 * Lookahead over the ordered stage sequence of one CZ block.
 *
 * Reuse-aware routing (Lin et al., "Reuse-Aware Compilation for Zoned
 * Quantum Architectures Based on Neutral Atoms") hinges on one
 * question per idle qubit per stage: does it interact again soon
 * enough that keeping it parked *in the compute zone* beats the round
 * trip to storage? ReuseAnalysis answers it from a per-qubit index of
 * interaction stages, built in one O(total gates) scan when the block's
 * ordered stages are announced and queried by binary search.
 *
 * The analysis is per-block: blocks are separated by barriers or 1Q
 * layers, so no lookahead window reaches across one. Residency itself
 * may (the persistent policies in reuse/policy.hpp).
 */

#ifndef POWERMOVE_REUSE_ANALYSIS_HPP
#define POWERMOVE_REUSE_ANALYSIS_HPP

#include <cstdint>
#include <vector>

#include "circuit/gate.hpp"
#include "schedule/stage.hpp"

namespace powermove {

/** Sentinel: the qubit never interacts again within the block. */
inline constexpr std::size_t kNoNextUse = ~std::size_t{0};

/** Per-block next-interaction index over the ordered stages. */
class ReuseAnalysis
{
  public:
    ReuseAnalysis() = default;

    /**
     * Indexes the ordered @p stages of the upcoming block. When
     * @p final_block is true the program ends with this block, and the
     * end of the stage sequence acts as a virtual reuse event: a qubit
     * with no further interaction may still be held to skip the final
     * park move (nothing excites it after the last pulse).
     */
    void beginBlock(const std::vector<Stage> &stages, std::size_t num_qubits,
                    bool final_block = false);

    /** Number of stages announced for the current block. */
    std::size_t numStages() const { return num_stages_; }

    /** True when the current block is the program's last. */
    bool finalBlock() const { return final_block_; }

    /**
     * Index of the first stage strictly after @p stage in which
     * @p qubit interacts, or kNoNextUse.
     */
    std::size_t nextUseAfter(std::size_t stage, QubitId qubit) const;

    /**
     * nextUseAfter() with the final-block convention applied: in the
     * program's last block a qubit with no further interaction gets
     * the virtual reuse event one past the last stage (holding it
     * skips the final park move and nothing excites it afterwards).
     * Residency policies and the miss classification share this view.
     */
    std::size_t effectiveNextUse(std::size_t stage, QubitId qubit) const;

    /**
     * The hold decision: a qubit idle in @p stage stays resident when
     * its next interaction lies within @p window stages (window >= 1;
     * a window of 1 holds only qubits needed in the very next stage).
     * In the final block, program end counts as a reuse event at one
     * past the last stage.
     */
    bool shouldHold(std::size_t stage, QubitId qubit,
                    std::size_t window) const;

  private:
    std::vector<std::vector<std::uint32_t>> uses_; // qubit -> stage indices
    std::size_t num_stages_ = 0;
    bool final_block_ = false;
};

} // namespace powermove

#endif // POWERMOVE_REUSE_ANALYSIS_HPP
