/**
 * @file
 * AOD movement-compatibility test (paper Sec. 5.3, Fig. 5).
 *
 * Within one AOD array, rows and columns move in tandem and may stretch
 * or contract but never cross or merge. Two 1Q moves therefore conflict
 * when the relative order of their x- or y-coordinates changes between
 * start and end: sign(x1s - x2s) != sign(x1e - x2e) (and likewise for
 * y). This strict form also rejects the end-coordinate merge shown in
 * the third panel of Fig. 5 and keeps co-started columns locked
 * together.
 */

#ifndef POWERMOVE_ROUTE_CONFLICT_HPP
#define POWERMOVE_ROUTE_CONFLICT_HPP

#include "arch/machine.hpp"
#include "route/move.hpp"

namespace powermove {

/** True if two 1Q moves cannot share one AOD array. */
bool movesConflict(const Machine &machine, const QubitMove &m1,
                   const QubitMove &m2);

/** True if @p candidate conflicts with any member of @p group. */
bool conflictsWithGroup(const Machine &machine, const CollMove &group,
                        const QubitMove &candidate);

/**
 * True if all members of @p group are pairwise compatible; O(k log k)
 * for k moves (two sorts instead of k^2 / 2 pair tests).
 */
bool isValidCollMove(const Machine &machine, const CollMove &group);

} // namespace powermove

#endif // POWERMOVE_ROUTE_CONFLICT_HPP
