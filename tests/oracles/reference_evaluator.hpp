/**
 * @file
 * Differential oracle: the Eq. (1) schedule evaluator in its
 * straightforward form.
 *
 * referenceEvaluateSchedule charges idle time by scanning every qubit
 * on every movement batch and every Rydberg pulse (O(qubits) per
 * instruction). The library's evaluator (fidelity/evaluator.hpp) only
 * visits the qubits outside the storage zone and the movers, and must
 * produce the same FidelityBreakdown bit for bit; the replay
 * differential test compares the two over compiled schedules.
 */

#ifndef POWERMOVE_TESTS_ORACLES_REFERENCE_EVALUATOR_HPP
#define POWERMOVE_TESTS_ORACLES_REFERENCE_EVALUATOR_HPP

#include "fidelity/breakdown.hpp"
#include "isa/machine_schedule.hpp"

namespace powermove {

/** Replays @p schedule and computes its fidelity/time breakdown. */
FidelityBreakdown referenceEvaluateSchedule(const MachineSchedule &schedule);

} // namespace powermove

#endif // POWERMOVE_TESTS_ORACLES_REFERENCE_EVALUATOR_HPP
