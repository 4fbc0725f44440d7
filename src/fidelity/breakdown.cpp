#include "fidelity/breakdown.hpp"

#include <cmath>
#include <sstream>

#include "arch/params.hpp"
#include "common/strings.hpp"

namespace powermove {

double
FidelityBreakdown::fidelity(bool include_one_q) const
{
    double product = two_q_factor * excitation_factor * transfer_factor *
                     decoherence_factor;
    if (include_one_q)
        product *= one_q_factor;
    return product;
}

double
FidelityBreakdown::negLog10(const HardwareParams &params) const
{
    const auto power = [](double base, std::size_t exponent) {
        return static_cast<double>(exponent) * std::log10(base);
    };
    return -(power(params.f_cz, cz_gates) +
             power(params.f_excitation, excitation_exposures) +
             power(params.f_transfer, transfers) +
             std::log10(decoherence_factor));
}

std::string
FidelityBreakdown::toString() const
{
    std::ostringstream os;
    os << "fidelity=" << formatFidelity(fidelity())
       << " (2q=" << formatFidelity(two_q_factor)
       << " exc=" << formatFidelity(excitation_factor)
       << " trans=" << formatFidelity(transfer_factor)
       << " deco=" << formatFidelity(decoherence_factor) << ")"
       << " T_exe=" << formatGeneral(exec_time.micros(), 6) << "us"
       << " pulses=" << pulses << " transfers=" << transfers;
    return os.str();
}

} // namespace powermove
