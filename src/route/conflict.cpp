#include "route/conflict.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace powermove {

namespace {

int
sign(std::int32_t value)
{
    return (value > 0) - (value < 0);
}

/**
 * True if the start -> end map over @p spans preserves order exactly:
 * equal starts share one end, and ends strictly increase with starts.
 * That is the pairwise rule sign(s1 - s2) == sign(e1 - e2) in one sort.
 */
bool
preservesOrder(std::vector<std::pair<std::int32_t, std::int32_t>> &spans)
{
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
        const auto &[start, end] = spans[i];
        const auto &[prev_start, prev_end] = spans[i - 1];
        if (start == prev_start ? end != prev_end : end <= prev_end)
            return false;
    }
    return true;
}

} // namespace

bool
movesConflict(const Machine &machine, const QubitMove &m1, const QubitMove &m2)
{
    const SiteCoord s1 = machine.coordOf(m1.from);
    const SiteCoord e1 = machine.coordOf(m1.to);
    const SiteCoord s2 = machine.coordOf(m2.from);
    const SiteCoord e2 = machine.coordOf(m2.to);

    // Column order must be preserved exactly (no crossing, no merging,
    // no splitting of co-located columns) and likewise for rows.
    if (sign(s1.x - s2.x) != sign(e1.x - e2.x))
        return true;
    if (sign(s1.y - s2.y) != sign(e1.y - e2.y))
        return true;
    return false;
}

bool
conflictsWithGroup(const Machine &machine, const CollMove &group,
                   const QubitMove &candidate)
{
    for (const auto &member : group.moves) {
        if (movesConflict(machine, member, candidate))
            return true;
    }
    return false;
}

bool
isValidCollMove(const Machine &machine, const CollMove &group)
{
    if (group.moves.size() < 2)
        return true;
    std::vector<std::pair<std::int32_t, std::int32_t>> xs, ys;
    xs.reserve(group.moves.size());
    ys.reserve(group.moves.size());
    for (const auto &move : group.moves) {
        const SiteCoord start = machine.coordOf(move.from);
        const SiteCoord end = machine.coordOf(move.to);
        xs.emplace_back(start.x, end.x);
        ys.emplace_back(start.y, end.y);
    }
    return preservesOrder(xs) && preservesOrder(ys);
}

} // namespace powermove
