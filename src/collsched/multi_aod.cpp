#include "collsched/multi_aod.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace powermove {

std::size_t
AodBatch::numMoves() const
{
    std::size_t count = 0;
    for (const auto &group : groups)
        count += group.moves.size();
    return count;
}

Duration
AodBatch::duration(const Machine &machine) const
{
    if (numMoves() == 0)
        return Duration::micros(0.0);
    const auto &params = machine.params();
    Duration longest = Duration::micros(0.0);
    for (const auto &group : groups)
        longest = std::max(longest, params.moveDuration(group.maxDistance(machine)));
    return params.t_transfer * 2.0 + longest;
}

std::vector<AodBatch>
batchForAods(std::vector<CollMove> ordered_groups, std::size_t num_aods)
{
    if (num_aods == 0)
        fatal("at least one AOD array is required");
    std::vector<AodBatch> batches;
    AodBatch current;
    for (auto &group : ordered_groups) {
        if (current.groups.size() == num_aods) {
            batches.push_back(std::move(current));
            current = AodBatch{};
        }
        current.groups.push_back(std::move(group));
    }
    if (!current.groups.empty())
        batches.push_back(std::move(current));
    return batches;
}

} // namespace powermove
