#include "workloads/qft.hpp"

#include <cmath>
#include <numbers>

namespace powermove {

Circuit
makeQft(std::size_t num_qubits)
{
    Circuit circuit(num_qubits, "QFT-" + std::to_string(num_qubits));
    const auto n = static_cast<QubitId>(num_qubits);

    for (QubitId k = 0; k < n; ++k) {
        circuit.append(OneQGate{OneQKind::H, k, 0.0});
        // All CP(j, k) for j > k are diagonal and mutually commutable:
        // one CZ block sharing qubit k (hence one gate per stage).
        for (QubitId j = k + 1; j < n; ++j)
            circuit.append(CzGate{j, k});
        // Deferred Rz corrections of the CP decompositions.
        for (QubitId j = k + 1; j < n; ++j) {
            // pi / 2^(j-k+1), exact; a 64-bit shift would overflow
            // beyond 63 qubits.
            const double angle =
                std::ldexp(std::numbers::pi, -static_cast<int>(j - k + 1));
            circuit.append(OneQGate{OneQKind::Rz, j, angle});
            circuit.append(OneQGate{OneQKind::Rz, k, angle});
        }
    }
    return circuit;
}

} // namespace powermove
