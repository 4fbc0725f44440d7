/**
 * @file
 * Multi-AOD parallel batching (paper Sec. 6.2).
 *
 * With n independent AOD arrays, n consecutive Coll-Moves execute in
 * parallel even if their member moves conflict, because each array obeys
 * the order constraints separately. The ordered group sequence
 * {G'_1 ... G'_k} is chunked into ceil(k/n) batches of up to n groups;
 * batch r lasts 2*t_transfer + max of its member move times (parallel
 * pickups, simultaneous motion, parallel drops). The *number* of
 * transfers — and therefore the transfer-error term of Eq. (1) — is
 * unchanged; only wall time shrinks.
 */

#ifndef POWERMOVE_COLLSCHED_MULTI_AOD_HPP
#define POWERMOVE_COLLSCHED_MULTI_AOD_HPP

#include <vector>

#include "arch/machine.hpp"
#include "route/move.hpp"

namespace powermove {

/** Coll-Moves executing simultaneously on distinct AOD arrays. */
struct AodBatch
{
    std::vector<CollMove> groups;

    /** Total moved qubits across the batch. */
    std::size_t numMoves() const;

    /** Wall time: 2 * t_transfer (pickup + drop) + slowest member move. */
    Duration duration(const Machine &machine) const;
};

/**
 * Chunks the ordered Coll-Move sequence into parallel batches of at most
 * @p num_aods groups (paper Sec. 6.2), preserving the intra-stage
 * (storage-dwell) order exactly. @p num_aods must be positive.
 */
std::vector<AodBatch> batchForAods(std::vector<CollMove> ordered_groups,
                                   std::size_t num_aods);

} // namespace powermove

#endif // POWERMOVE_COLLSCHED_MULTI_AOD_HPP
