/**
 * @file
 * Small string formatting helpers shared by the report writers and tests.
 */

#ifndef POWERMOVE_COMMON_STRINGS_HPP
#define POWERMOVE_COMMON_STRINGS_HPP

#include <string>
#include <string_view>
#include <vector>

namespace powermove {

/** Formats a double with @p digits significant digits (general format). */
std::string formatGeneral(double value, int digits = 4);

/**
 * Formats a probability-like value the way the paper prints fidelities:
 * fixed point with two decimals when >= 0.01, scientific otherwise.
 */
std::string formatFidelity(double value);

/** Formats a ratio like "3.46x". */
std::string formatRatio(double value);

/** Joins string pieces with a separator. */
std::string join(const std::vector<std::string> &pieces, std::string_view sep);

/** Removes leading and trailing ASCII whitespace. */
std::string_view trim(std::string_view text);

/** Splits on a separator character, keeping empty fields. */
std::vector<std::string> split(std::string_view text, char sep);

/** True if @p text starts with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/**
 * Escapes @p value for the inside of a JSON string literal: quote,
 * backslash, `\n`, `\t` and `\r` by name, any other control byte as
 * `\u00XX`.
 */
std::string escapeJson(std::string_view value);

} // namespace powermove

#endif // POWERMOVE_COMMON_STRINGS_HPP
