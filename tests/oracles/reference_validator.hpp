/**
 * @file
 * Differential oracle: the schedule validator in its straightforward
 * form.
 *
 * referenceValidateSchedule replays a program and, at every Rydberg
 * pulse and at both ends, takes a full occupancy census of the machine
 * (one count and one occupant list per site) to check capacity and
 * look for unwanted co-located pairs; each Coll-Move is checked pair by
 * pair. That is O(sites) per pulse and O(k^2) per k-move group. The
 * library's validator (isa/validator.hpp) keeps occupancy incrementally
 * and must accept and reject exactly the same schedules with the same
 * ValidationError message; the replay differential test drives the two
 * side by side over compiled and mutated schedules.
 */

#ifndef POWERMOVE_TESTS_ORACLES_REFERENCE_VALIDATOR_HPP
#define POWERMOVE_TESTS_ORACLES_REFERENCE_VALIDATOR_HPP

#include "arch/machine.hpp"
#include "circuit/circuit.hpp"
#include "isa/machine_schedule.hpp"
#include "route/move.hpp"

namespace powermove {

/** Pairwise AOD compatibility: no two members of @p group conflict. */
bool referenceIsValidCollMove(const Machine &machine, const CollMove &group);

/** Replays @p schedule; throws ValidationError on any hardware violation. */
void referenceValidateSchedule(const MachineSchedule &schedule);

/**
 * Hardware legality plus completeness against @p circuit; throws
 * ValidationError on any mismatch.
 */
void referenceValidateAgainstCircuit(const MachineSchedule &schedule,
                                     const Circuit &circuit);

} // namespace powermove

#endif // POWERMOVE_TESTS_ORACLES_REFERENCE_VALIDATOR_HPP
