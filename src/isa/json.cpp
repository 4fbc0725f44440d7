#include "isa/json.hpp"

#include <charconv>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace powermove {

namespace {

/** Appends JSON text to one string, formatting numbers with to_chars. */
struct JsonOut
{
    std::string out;

    JsonOut &
    operator<<(std::string_view text)
    {
        out.append(text);
        return *this;
    }

    // Doubles print as a stream's default %g. An integral value below 1e6
    // prints as that integer, as %g does, without touching to_chars'
    // precision tables (about 128 KB of resident memory).
    template <typename Number>
        requires std::is_arithmetic_v<Number>
    JsonOut &
    operator<<(Number value)
    {
        char buffer[32];
        char *end = buffer + sizeof buffer;
        if constexpr (std::is_integral_v<Number>)
            end = std::to_chars(buffer, end, value).ptr;
        else if (value >= 1 && value < 1e6 && value == std::int64_t(value))
            return *this << std::int64_t(value);
        else
            end = std::to_chars(buffer, end, value, std::chars_format::general,
                                6).ptr;
        out.append(buffer, end);
        return *this;
    }

    JsonOut &
    operator<<(SiteCoord coord)
    {
        return *this << "[" << coord.x << "," << coord.y << "]";
    }
};

/** A size estimate of the document, from typical element widths. */
std::size_t
estimateSize(const MachineSchedule &schedule)
{
    std::size_t bytes = 256 + 10 * schedule.initialSites().size();
    for (const auto &instruction : schedule.instructions()) {
        const auto *op = std::get_if<MoveBatchOp>(&instruction);
        const auto *pulse = std::get_if<RydbergOp>(&instruction);
        bytes += 40 + (op ? 42 * op->batch.numMoves() : 0) +
                 (pulse ? 10 * pulse->gates.size() : 0);
    }
    return bytes;
}

} // namespace

std::string
scheduleToJson(const MachineSchedule &schedule)
{
    const Machine &machine = schedule.machine();
    const auto &config = machine.config();
    JsonOut os;
    os.out.reserve(estimateSize(schedule));

    os << "{\n";
    os << "  \"machine\": {\"compute\": [" << config.compute_cols << ","
       << config.compute_rows << "], \"storage\": [" << config.storage_cols
       << "," << config.storage_rows << "], \"gap_rows\": "
       << config.gap_rows << ", \"pitch_um\": "
       << config.params.site_pitch.microns() << "},\n";
    os << "  \"qubits\": " << schedule.numQubits() << ",\n";

    os << "  \"initial_sites\": [";
    for (std::size_t q = 0; q < schedule.initialSites().size(); ++q)
        os << (q > 0 ? "," : "") << machine.coordOf(schedule.initialSites()[q]);
    os << "],\n";

    os << "  \"instructions\": [\n";
    bool first = true;
    for (const auto &instruction : schedule.instructions()) {
        os << (first ? "    " : ",\n    ");
        first = false;
        if (const auto *layer = std::get_if<OneQLayerOp>(&instruction)) {
            os << "{\"op\": \"1q\", \"gates\": " << layer->gate_count
               << ", \"depth\": " << layer->depth << "}";
        } else if (const auto *op = std::get_if<MoveBatchOp>(&instruction)) {
            os << "{\"op\": \"move\", \"groups\": [";
            for (std::size_t g = 0; g < op->batch.groups.size(); ++g) {
                os << (g > 0 ? ",[" : "[");
                const auto &moves = op->batch.groups[g].moves;
                for (std::size_t m = 0; m < moves.size(); ++m) {
                    os << (m > 0 ? ",{\"q\": " : "{\"q\": ") << moves[m].qubit
                       << ", \"from\": " << machine.coordOf(moves[m].from)
                       << ", \"to\": " << machine.coordOf(moves[m].to) << "}";
                }
                os << "]";
            }
            os << "]}";
        } else {
            const auto &pulse = std::get<RydbergOp>(instruction);
            os << "{\"op\": \"rydberg\", \"block\": " << pulse.block_index
               << ", \"gates\": [";
            for (std::size_t g = 0; g < pulse.gates.size(); ++g) {
                os << (g > 0 ? ",[" : "[") << pulse.gates[g].a << ","
                   << pulse.gates[g].b << "]";
            }
            os << "]}";
        }
    }
    os << "\n  ]\n}\n";
    return std::move(os.out);
}

} // namespace powermove
