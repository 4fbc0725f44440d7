/**
 * @file
 * Machine-schedule validation.
 *
 * The validator replays a compiled program against the machine model and
 * enforces every hardware rule the compilers must respect:
 *
 *  - each Coll-Move is AOD-compatible (no row/column order changes);
 *  - every relocation starts from the qubit's actual current site;
 *  - a qubit moves at most once per parallel batch;
 *  - at every Rydberg pulse: gates act on disjoint qubits, every gate
 *    pair shares one compute-zone site, every co-located pair *is* a
 *    gate of that pulse (no unwanted blockade), compute sites hold at
 *    most two qubits and storage sites at most one.
 *
 * Site capacity is enforced at pulse boundaries and at program end;
 * transient co-residence while atoms ride an AOD mid-transition is
 * allowed (atoms in mobile traps hover independently of SLM occupancy).
 *
 * Occupancy is kept incrementally, so each instruction costs O(moves +
 * gates), not O(sites); a full scan runs only to name a violation.
 *
 * validateAgainstCircuit() additionally proves completeness: the pulses
 * execute exactly the source circuit's CZ gates, block by block and in
 * block order, and the 1Q gate count matches.
 */

#ifndef POWERMOVE_ISA_VALIDATOR_HPP
#define POWERMOVE_ISA_VALIDATOR_HPP

#include "circuit/circuit.hpp"
#include "isa/machine_schedule.hpp"

namespace powermove {

/** Replays @p schedule; throws ValidationError on any hardware violation. */
void validateSchedule(const MachineSchedule &schedule);

/**
 * Validates hardware legality and completeness against the source
 * circuit; throws ValidationError on any mismatch.
 */
void validateAgainstCircuit(const MachineSchedule &schedule,
                            const Circuit &circuit);

} // namespace powermove

#endif // POWERMOVE_ISA_VALIDATOR_HPP
