#include "reuse/lifetimes.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace powermove {

void
ResidencyLifetimes::reset(std::size_t num_qubits, std::size_t end_stage)
{
    // Spans cut short by a block boundary still count as ended: the
    // qubit was resident from its hold stage through the block's last
    // stage (at least one stage even if end_stage is unknown).
    for (QubitId q = 0; q < resident_since_.size(); ++q) {
        if (resident_since_[q] != kNotResident) {
            ++stats_.holds_ended;
            stats_.resident_stages +=
                end_stage > resident_since_[q]
                    ? end_stage - resident_since_[q]
                    : 1;
        }
    }
    resident_since_.assign(num_qubits, kNotResident);
    num_residents_ = 0;
}

bool
ResidencyLifetimes::isResident(QubitId qubit) const
{
    return qubit < resident_since_.size() &&
           resident_since_[qubit] != kNotResident;
}

void
ResidencyLifetimes::hold(QubitId qubit, std::size_t stage)
{
    PM_ASSERT(qubit < resident_since_.size(),
              "reset() must size the qubit table first");
    if (resident_since_[qubit] != kNotResident)
        return;
    resident_since_[qubit] = stage;
    ++num_residents_;
    ++stats_.holds_started;
    stats_.max_concurrent = std::max(stats_.max_concurrent, num_residents_);
}

void
ResidencyLifetimes::release(QubitId qubit, std::size_t stage)
{
    if (!isResident(qubit))
        return;
    const std::size_t since = resident_since_[qubit];
    PM_ASSERT(stage >= since, "residency released before it started");
    resident_since_[qubit] = kNotResident;
    --num_residents_;
    ++stats_.holds_ended;
    stats_.resident_stages += stage - since;
}

} // namespace powermove
