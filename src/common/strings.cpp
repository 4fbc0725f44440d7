#include "common/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace powermove {

std::string
formatGeneral(double value, int digits)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
    return buffer;
}

std::string
formatFidelity(double value)
{
    char buffer[64];
    if (value != 0.0 && std::fabs(value) < 0.01) {
        std::snprintf(buffer, sizeof(buffer), "%.2e", value);
    } else {
        std::snprintf(buffer, sizeof(buffer), "%.2f", value);
    }
    return buffer;
}

std::string
formatRatio(double value)
{
    char buffer[64];
    if (value >= 100.0)
        std::snprintf(buffer, sizeof(buffer), "%.1fx", value);
    else
        std::snprintf(buffer, sizeof(buffer), "%.2fx", value);
    return buffer;
}

std::string
join(const std::vector<std::string> &pieces, std::string_view sep)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        if (i > 0)
            os << sep;
        os << pieces[i];
    }
    return os.str();
}

std::string_view
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

std::vector<std::string>
split(std::string_view text, char sep)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            fields.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return fields;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

std::string
escapeJson(std::string_view value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace powermove
