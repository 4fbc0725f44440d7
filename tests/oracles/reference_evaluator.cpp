#include "oracles/reference_evaluator.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace powermove {

namespace {

/** Integer power of a fidelity factor, numerically stable in log space. */
double
fidelityPower(double base, std::size_t exponent)
{
    if (exponent == 0)
        return 1.0;
    return std::exp(static_cast<double>(exponent) * std::log(base));
}

} // namespace

FidelityBreakdown
referenceEvaluateSchedule(const MachineSchedule &schedule)
{
    const Machine &machine = schedule.machine();
    const HardwareParams &params = machine.params();
    const std::size_t num_qubits = schedule.numQubits();

    std::vector<SiteId> positions = schedule.initialSites();
    std::vector<double> idle_us(num_qubits, 0.0);

    FidelityBreakdown result;

    const auto in_storage = [&](QubitId q) {
        return machine.zoneOf(positions[q]) == ZoneKind::Storage;
    };

    for (const auto &instruction : schedule.instructions()) {
        if (const auto *layer = std::get_if<OneQLayerOp>(&instruction)) {
            const Duration t = params.t_one_q * static_cast<double>(layer->depth);
            result.exec_time += t;
            result.one_q_gates += layer->gate_count;
            // Raman layers address every qubit in parallel; no idle time.
        } else if (const auto *op = std::get_if<MoveBatchOp>(&instruction)) {
            const Duration t = op->batch.duration(machine);
            result.exec_time += t;
            result.transfers += 2 * op->batch.numMoves();

            std::vector<bool> stored_before(num_qubits);
            for (QubitId q = 0; q < num_qubits; ++q)
                stored_before[q] = in_storage(q);
            for (const auto &group : op->batch.groups) {
                for (const auto &move : group.moves) {
                    PM_ASSERT(positions[move.qubit] == move.from,
                              "evaluator replay diverged from schedule");
                    positions[move.qubit] = move.to;
                }
            }
            for (QubitId q = 0; q < num_qubits; ++q) {
                if (!(stored_before[q] && in_storage(q)))
                    idle_us[q] += t.micros();
            }
        } else {
            const auto &pulse = std::get<RydbergOp>(instruction);
            result.exec_time += params.t_cz;
            ++result.pulses;
            result.cz_gates += pulse.gates.size();

            std::vector<bool> active(num_qubits, false);
            for (const auto &gate : pulse.gates) {
                active[gate.a] = true;
                active[gate.b] = true;
            }
            for (QubitId q = 0; q < num_qubits; ++q) {
                if (active[q])
                    continue;
                if (in_storage(q))
                    continue;
                // Idle in the compute zone: excited and re-lowered by the
                // global pulse (paper: f_exc = 99.75% per exposure).
                ++result.excitation_exposures;
                idle_us[q] += params.t_cz.micros();
            }
        }
    }

    result.one_q_factor = fidelityPower(params.f_one_q, result.one_q_gates);
    result.two_q_factor = fidelityPower(params.f_cz, result.cz_gates);
    result.excitation_factor =
        fidelityPower(params.f_excitation, result.excitation_exposures);
    result.transfer_factor =
        fidelityPower(params.f_transfer, result.transfers);

    double decoherence = 1.0;
    double total_idle_us = 0.0;
    for (QubitId q = 0; q < num_qubits; ++q) {
        total_idle_us += idle_us[q];
        const double survival = 1.0 - idle_us[q] / params.t2.micros();
        decoherence *= std::max(0.0, survival);
    }
    result.decoherence_factor = decoherence;
    result.total_idle = Duration::micros(total_idle_us);
    return result;
}

} // namespace powermove
