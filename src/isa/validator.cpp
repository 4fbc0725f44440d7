#include "isa/validator.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "route/conflict.hpp"

namespace powermove {

namespace {

[[noreturn]] void
fail(const std::string &message)
{
    throw ValidationError("schedule validation failed: " + message);
}

/**
 * Replays a schedule with site occupancy kept move by move.
 *
 * Beside the per-site counts it keeps two counters: the number of sites
 * over capacity and the number of compute sites holding exactly two
 * qubits. A pulse reads them in O(1). A full O(sites) scan runs only once
 * a counter shows a violation, to name the lowest offending site.
 */
class Replay
{
  public:
    Replay(const Machine &machine, std::vector<SiteId> positions)
        : machine_(machine), positions_(std::move(positions)),
          count_(machine.numSites(), 0), stamp_(positions_.size(), 0)
    {
        for (QubitId q = 0; q < positions_.size(); ++q) {
            if (positions_[q] >= machine.numSites())
                fail("qubit " + std::to_string(q) + " is off the lattice");
            shift(positions_[q], +1);
        }
    }

    /** Enforces steady-state capacity: compute <= 2, storage <= 1. */
    void
    checkCapacity() const
    {
        if (over_capacity_ == 0)
            return;
        for (SiteId site = 0; site < count_.size(); ++site) {
            const std::size_t cap = capacityOf(site);
            if (count_[site] > cap) {
                std::ostringstream os;
                os << "site " << machine_.coordOf(site) << " holds "
                   << count_[site] << " qubits (capacity " << cap << ")";
                fail(os.str());
            }
        }
        panic("validator capacity counter disagrees with the site counts");
    }

    void
    checkPulse(const RydbergOp &pulse)
    {
        if (pulse.gates.empty())
            fail("empty Rydberg pulse");

        checkCapacity();

        // Gates act on pairwise disjoint qubits.
        touched_.clear();
        for (const auto &gate : pulse.gates) {
            if (std::max(gate.a, gate.b) >= positions_.size())
                fail("gate addresses an unknown qubit");
            touched_.push_back(gate.a);
            touched_.push_back(gate.b);
        }
        std::sort(touched_.begin(), touched_.end());
        if (std::adjacent_find(touched_.begin(), touched_.end()) !=
            touched_.end())
            fail("a Rydberg pulse touches a qubit twice");

        // Every gate pair is co-located at a compute site.
        for (const auto &gate : pulse.gates) {
            const SiteId sa = positions_[gate.a];
            const SiteId sb = positions_[gate.b];
            if (sa != sb) {
                std::ostringstream os;
                os << "gate (" << gate.a << "," << gate.b
                   << ") pair is not co-located at pulse time";
                fail(os.str());
            }
            if (machine_.zoneOf(sa) != ZoneKind::Compute)
                fail("gate pair parked outside the compute zone at pulse time");
        }

        // Every co-located compute pair must be one of this pulse's gates;
        // anything else is an unwanted blockade interaction. The gates are
        // disjoint, each fills its own compute site, and no site holds more
        // than two, so exactly gates.size() pair sites means no other pair.
        if (pair_sites_ != pulse.gates.size())
            failUnwantedPair(pulse);
    }

    void
    applyMoveBatch(const MoveBatchOp &op)
    {
        ++epoch_;
        for (const auto &group : op.batch.groups) {
            if (group.moves.empty())
                fail("empty Coll-Move inside a batch");
            for (const auto &move : group.moves) {
                if (std::max(move.from, move.to) >= machine_.numSites())
                    fail("move targets a non-existent site");
            }
            if (!isValidCollMove(machine_, group))
                fail("Coll-Move violates AOD row/column order constraints");
            for (const auto &move : group.moves) {
                if (move.qubit >= positions_.size())
                    fail("move addresses an unknown qubit");
                if (stamp_[move.qubit] == epoch_)
                    fail("qubit moved twice within one parallel batch");
                stamp_[move.qubit] = epoch_;
                if (positions_[move.qubit] != move.from) {
                    std::ostringstream os;
                    os << "move of qubit " << move.qubit << " departs from "
                       << machine_.coordOf(move.from)
                       << " but the qubit is at "
                       << machine_.coordOf(positions_[move.qubit]);
                    fail(os.str());
                }
            }
        }
        for (const auto &group : op.batch.groups) {
            for (const auto &move : group.moves) {
                shift(move.from, -1);
                shift(move.to, +1);
                positions_[move.qubit] = move.to;
            }
        }
    }

  private:
    std::size_t
    capacityOf(SiteId site) const
    {
        return machine_.zoneOf(site) == ZoneKind::Compute ? 2 : 1;
    }

    /** Moves one qubit into (+1) or out of (-1) @p site. */
    void
    shift(SiteId site, int delta)
    {
        const bool compute = machine_.zoneOf(site) == ZoneKind::Compute;
        const std::size_t before = count_[site];
        const std::size_t after = before + delta;
        count_[site] = after;
        over_capacity_ = over_capacity_ + (after > capacityOf(site)) -
                         (before > capacityOf(site));
        pair_sites_ = pair_sites_ + (compute && after == 2) -
                      (compute && before == 2);
    }

    /** Names the lowest compute site holding a pair that is not a gate. */
    [[noreturn]] void
    failUnwantedPair(const RydbergOp &pulse) const
    {
        // Occupants of every pair site, in qubit order.
        constexpr QubitId kNone = ~QubitId{0};
        std::vector<CzGate> pair_at(machine_.numComputeSites(),
                                    CzGate{kNone, kNone});
        for (QubitId q = 0; q < positions_.size(); ++q) {
            const SiteId site = positions_[q];
            if (site >= machine_.numComputeSites() || count_[site] != 2)
                continue;
            CzGate &pair = pair_at[site];
            (pair.a == kNone ? pair.a : pair.b) = q;
        }
        std::vector<CzGate> sorted_gates;
        sorted_gates.reserve(pulse.gates.size());
        for (const auto &gate : pulse.gates)
            sorted_gates.push_back(gate.canonical());
        std::sort(sorted_gates.begin(), sorted_gates.end());
        for (SiteId site = 0; site < machine_.numComputeSites(); ++site) {
            if (count_[site] != 2)
                continue;
            const CzGate found = pair_at[site];
            if (!std::binary_search(sorted_gates.begin(), sorted_gates.end(),
                                    found)) {
                std::ostringstream os;
                os << "qubits " << found.a << " and " << found.b
                   << " are co-located during a pulse without a scheduled "
                      "gate";
                fail(os.str());
            }
        }
        panic("validator pair counter disagrees with the site counts");
    }

    const Machine &machine_;
    std::vector<SiteId> positions_;
    std::vector<std::size_t> count_;
    std::size_t over_capacity_ = 0;
    std::size_t pair_sites_ = 0;
    // Per-qubit batch stamps: stamp_[q] == epoch_ iff q already moved in
    // the current batch.
    std::vector<std::size_t> stamp_;
    std::size_t epoch_ = 0;
    std::vector<QubitId> touched_;
};

} // namespace

void
validateSchedule(const MachineSchedule &schedule)
{
    if (schedule.initialSites().empty())
        fail("schedule has no qubits");

    Replay replay(schedule.machine(), schedule.initialSites());
    replay.checkCapacity();

    for (const auto &instruction : schedule.instructions()) {
        if (const auto *pulse = std::get_if<RydbergOp>(&instruction)) {
            replay.checkPulse(*pulse);
        } else if (const auto *batch = std::get_if<MoveBatchOp>(&instruction)) {
            replay.applyMoveBatch(*batch);
        }
        // 1Q layers have no placement effect.
    }

    replay.checkCapacity();
}

void
validateAgainstCircuit(const MachineSchedule &schedule, const Circuit &circuit)
{
    validateSchedule(schedule);

    if (schedule.numQubits() != circuit.numQubits())
        fail("schedule and circuit disagree on qubit count");
    if (schedule.numOneQGates() != circuit.numOneQGates())
        fail("schedule drops or invents single-qubit gates");
    if (schedule.numCzGates() != circuit.numCzGates())
        fail("schedule drops or invents CZ gates");

    // Pulses run blocks in non-decreasing order, so each block's pulses
    // form one contiguous run; compare each run's gate multiset with its
    // block's.
    const auto &instructions = schedule.instructions();
    std::size_t runs = 0;
    const RydbergOp *previous = nullptr;
    for (const auto &instruction : instructions) {
        const auto *pulse = std::get_if<RydbergOp>(&instruction);
        if (pulse == nullptr)
            continue;
        if (previous != nullptr && pulse->block_index < previous->block_index)
            fail("Rydberg pulses execute blocks out of order");
        if (previous == nullptr || pulse->block_index != previous->block_index)
            ++runs;
        previous = pulse;
    }

    const auto blocks = circuit.blocks();
    if (runs != blocks.size())
        fail("schedule executes a different number of CZ blocks");
    std::vector<CzGate> actual;
    std::vector<CzGate> expected;
    auto next = instructions.begin();
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        // The run of block b, if any, is the next one: runs ascend and
        // every earlier run matched one of blocks 0..b-1.
        actual.clear();
        for (; next != instructions.end(); ++next) {
            const auto *pulse = std::get_if<RydbergOp>(&*next);
            if (pulse == nullptr)
                continue;
            if (pulse->block_index != b)
                break;
            for (const auto &gate : pulse->gates)
                actual.push_back(gate.canonical());
        }
        if (actual.empty())
            fail("block " + std::to_string(b) + " never executed");
        expected.clear();
        for (const auto &gate : blocks[b]->gates)
            expected.push_back(gate.canonical());
        std::sort(expected.begin(), expected.end());
        std::sort(actual.begin(), actual.end());
        if (actual != expected)
            fail("block " + std::to_string(b) +
                 " executes a different gate multiset than the circuit");
    }
}

} // namespace powermove
