/**
 * @file
 * JSON serialization of compiled programs.
 *
 * Emits a self-contained, dependency-free JSON document describing the
 * machine shape, the initial placement, and the full instruction stream
 * — the interchange format for external visualizers and for diffing
 * schedules across compiler versions. The writer appends into one
 * string reserved from a size estimate of the schedule and formats
 * numbers with std::to_chars; pitch_um reads as a stream's default %g.
 */

#ifndef POWERMOVE_ISA_JSON_HPP
#define POWERMOVE_ISA_JSON_HPP

#include <string>

#include "isa/machine_schedule.hpp"

namespace powermove {

/**
 * Serializes @p schedule as a JSON object:
 *
 * {
 *   "machine": {"compute": [cols, rows], "storage": [cols, rows],
 *               "gap_rows": g, "pitch_um": p},
 *   "qubits": n,
 *   "initial_sites": [[x, y], ...],
 *   "instructions": [
 *     {"op": "1q", "gates": g, "depth": d},
 *     {"op": "move", "groups": [[{"q": id, "from": [x,y],
 *                                 "to": [x,y]}, ...], ...]},
 *     {"op": "rydberg", "block": b, "gates": [[a, b], ...]}
 *   ]
 * }
 */
std::string scheduleToJson(const MachineSchedule &schedule);

} // namespace powermove

#endif // POWERMOVE_ISA_JSON_HPP
