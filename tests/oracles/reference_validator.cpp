#include "oracles/reference_validator.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "route/conflict.hpp"

namespace powermove {

bool
referenceIsValidCollMove(const Machine &machine, const CollMove &group)
{
    for (std::size_t i = 0; i < group.moves.size(); ++i) {
        for (std::size_t j = i + 1; j < group.moves.size(); ++j) {
            if (movesConflict(machine, group.moves[i], group.moves[j]))
                return false;
        }
    }
    return true;
}

namespace {

[[noreturn]] void
fail(const std::string &message)
{
    throw ValidationError("schedule validation failed: " + message);
}

/** Occupancy census of a position assignment. */
class Census
{
  public:
    Census(const Machine &machine, const std::vector<SiteId> &positions)
        : machine_(machine), count_(machine.numSites(), 0),
          occupants_(machine.numSites())
    {
        for (QubitId q = 0; q < positions.size(); ++q) {
            const SiteId site = positions[q];
            if (site >= machine.numSites())
                fail("qubit " + std::to_string(q) + " is off the lattice");
            ++count_[site];
            occupants_[site].push_back(q);
        }
    }

    /** Enforces steady-state capacity: compute <= 2, storage <= 1. */
    void
    checkCapacity() const
    {
        for (SiteId site = 0; site < count_.size(); ++site) {
            const std::size_t cap =
                machine_.zoneOf(site) == ZoneKind::Compute ? 2 : 1;
            if (count_[site] > cap) {
                std::ostringstream os;
                os << "site " << machine_.coordOf(site) << " holds "
                   << count_[site] << " qubits (capacity " << cap << ")";
                fail(os.str());
            }
        }
    }

    const std::vector<QubitId> &occupantsOf(SiteId site) const
    {
        return occupants_[site];
    }

    std::size_t occupancy(SiteId site) const { return count_[site]; }

  private:
    const Machine &machine_;
    std::vector<std::size_t> count_;
    std::vector<std::vector<QubitId>> occupants_;
};

void
checkPulse(const Machine &machine, const std::vector<SiteId> &positions,
           const RydbergOp &pulse)
{
    if (pulse.gates.empty())
        fail("empty Rydberg pulse");

    const Census census(machine, positions);
    census.checkCapacity();

    // Gates act on pairwise disjoint qubits.
    std::vector<QubitId> touched;
    for (const auto &gate : pulse.gates) {
        if (std::max(gate.a, gate.b) >= positions.size())
            fail("gate addresses an unknown qubit");
        touched.push_back(gate.a);
        touched.push_back(gate.b);
    }
    std::sort(touched.begin(), touched.end());
    if (std::adjacent_find(touched.begin(), touched.end()) != touched.end())
        fail("a Rydberg pulse touches a qubit twice");

    // Every gate pair is co-located at a compute site.
    for (const auto &gate : pulse.gates) {
        const SiteId sa = positions[gate.a];
        const SiteId sb = positions[gate.b];
        if (sa != sb) {
            std::ostringstream os;
            os << "gate (" << gate.a << "," << gate.b
               << ") pair is not co-located at pulse time";
            fail(os.str());
        }
        if (machine.zoneOf(sa) != ZoneKind::Compute)
            fail("gate pair parked outside the compute zone at pulse time");
    }

    // Every co-located compute pair must be one of this pulse's gates;
    // anything else is an unwanted blockade interaction.
    std::vector<CzGate> sorted_gates;
    sorted_gates.reserve(pulse.gates.size());
    for (const auto &gate : pulse.gates)
        sorted_gates.push_back(gate.canonical());
    std::sort(sorted_gates.begin(), sorted_gates.end());
    for (SiteId site = 0; site < machine.numComputeSites(); ++site) {
        if (census.occupancy(site) != 2)
            continue;
        const auto &pair = census.occupantsOf(site);
        const CzGate found = CzGate{pair[0], pair[1]}.canonical();
        if (!std::binary_search(sorted_gates.begin(), sorted_gates.end(),
                                found)) {
            std::ostringstream os;
            os << "qubits " << found.a << " and " << found.b
               << " are co-located during a pulse without a scheduled gate";
            fail(os.str());
        }
    }
}

void
applyMoveBatch(const Machine &machine, std::vector<SiteId> &positions,
               const MoveBatchOp &op)
{
    std::vector<bool> moved(positions.size(), false);
    for (const auto &group : op.batch.groups) {
        if (group.moves.empty())
            fail("empty Coll-Move inside a batch");
        for (const auto &move : group.moves) {
            if (std::max(move.from, move.to) >= machine.numSites())
                fail("move targets a non-existent site");
        }
        if (!referenceIsValidCollMove(machine, group))
            fail("Coll-Move violates AOD row/column order constraints");
        for (const auto &move : group.moves) {
            if (move.qubit >= positions.size())
                fail("move addresses an unknown qubit");
            if (moved[move.qubit])
                fail("qubit moved twice within one parallel batch");
            moved[move.qubit] = true;
            if (positions[move.qubit] != move.from) {
                std::ostringstream os;
                os << "move of qubit " << move.qubit << " departs from "
                   << machine.coordOf(move.from) << " but the qubit is at "
                   << machine.coordOf(positions[move.qubit]);
                fail(os.str());
            }
        }
    }
    for (const auto &group : op.batch.groups) {
        for (const auto &move : group.moves)
            positions[move.qubit] = move.to;
    }
}

} // namespace

void
referenceValidateSchedule(const MachineSchedule &schedule)
{
    const Machine &machine = schedule.machine();
    std::vector<SiteId> positions = schedule.initialSites();
    if (positions.empty())
        fail("schedule has no qubits");

    Census(machine, positions).checkCapacity();

    for (const auto &instruction : schedule.instructions()) {
        if (const auto *pulse = std::get_if<RydbergOp>(&instruction)) {
            checkPulse(machine, positions, *pulse);
        } else if (const auto *batch = std::get_if<MoveBatchOp>(&instruction)) {
            applyMoveBatch(machine, positions, *batch);
        }
        // 1Q layers have no placement effect.
    }

    Census(machine, positions).checkCapacity();
}

void
referenceValidateAgainstCircuit(const MachineSchedule &schedule,
                                const Circuit &circuit)
{
    referenceValidateSchedule(schedule);

    if (schedule.numQubits() != circuit.numQubits())
        fail("schedule and circuit disagree on qubit count");
    if (schedule.numOneQGates() != circuit.numOneQGates())
        fail("schedule drops or invents single-qubit gates");
    if (schedule.numCzGates() != circuit.numCzGates())
        fail("schedule drops or invents CZ gates");

    // Group pulse gates by source block and compare multisets.
    std::map<std::size_t, std::vector<CzGate>> by_block;
    std::size_t last_block = 0;
    bool first = true;
    for (const auto &instruction : schedule.instructions()) {
        const auto *pulse = std::get_if<RydbergOp>(&instruction);
        if (pulse == nullptr)
            continue;
        if (!first && pulse->block_index < last_block)
            fail("Rydberg pulses execute blocks out of order");
        first = false;
        last_block = pulse->block_index;
        auto &bucket = by_block[pulse->block_index];
        for (const auto &gate : pulse->gates)
            bucket.push_back(gate.canonical());
    }

    const auto blocks = circuit.blocks();
    if (by_block.size() != blocks.size())
        fail("schedule executes a different number of CZ blocks");
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const auto it = by_block.find(b);
        if (it == by_block.end())
            fail("block " + std::to_string(b) + " never executed");
        std::vector<CzGate> expected;
        expected.reserve(blocks[b]->gates.size());
        for (const auto &gate : blocks[b]->gates)
            expected.push_back(gate.canonical());
        std::sort(expected.begin(), expected.end());
        auto actual = it->second;
        std::sort(actual.begin(), actual.end());
        if (actual != expected)
            fail("block " + std::to_string(b) +
                 " executes a different gate multiset than the circuit");
    }
}

} // namespace powermove
