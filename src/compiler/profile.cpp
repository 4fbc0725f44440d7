#include "compiler/profile.hpp"

#include <algorithm>

namespace powermove {

std::string_view
passName(PassId pass)
{
    switch (pass) {
    case PassId::Placement:
        return "placement";
    case PassId::StagePartition:
        return "stage-partition";
    case PassId::StageOrder:
        return "stage-order";
    case PassId::Routing:
        return "routing";
    case PassId::CollMoveOrder:
        return "coll-move-order";
    case PassId::AodBatch:
        return "aod-batch";
    }
    return "unknown";
}

void
PassProfiler::addCounter(PassId pass, std::string_view name,
                         std::uint64_t delta)
{
    if (!enabled_)
        return;
    auto &counters = slots_[static_cast<std::size_t>(pass)].counters;
    const auto it =
        std::find_if(counters.begin(), counters.end(),
                     [&](const PassCounter &c) { return c.name == name; });
    if (it != counters.end())
        it->value += delta;
    else
        counters.push_back({std::string(name), delta});
}

void
PassProfiler::record(PassId pass, std::chrono::steady_clock::duration elapsed)
{
    Slot &slot = slots_[static_cast<std::size_t>(pass)];
    slot.wall_micros +=
        std::chrono::duration<double, std::micro>(elapsed).count();
    ++slot.invocations;
}

std::vector<PassProfile>
PassProfiler::finish() const
{
    std::vector<PassProfile> profiles;
    if (!enabled_)
        return profiles;
    for (std::size_t i = 0; i < kNumPasses; ++i) {
        const Slot &slot = slots_[i];
        if (slot.invocations == 0)
            continue;
        PassProfile profile;
        profile.pass = static_cast<PassId>(i);
        profile.wall_time = Duration::micros(slot.wall_micros);
        profile.invocations = slot.invocations;
        profile.counters = slot.counters;
        profiles.push_back(std::move(profile));
    }
    return profiles;
}

} // namespace powermove
