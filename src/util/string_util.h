#ifndef EMDBG_UTIL_STRING_UTIL_H_
#define EMDBG_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace emdbg {

/// ASCII-only helpers. Entity-matching corpora in this repo are synthetic
/// ASCII, so we avoid locale machinery on purpose.

/// Lower-cases ASCII letters; other bytes pass through.
std::string ToLowerAscii(std::string_view s);

/// Removes leading/trailing ASCII whitespace.
std::string_view TrimAscii(std::string_view s);

/// Splits the leading space-separated token off `rest` (trimmed).
std::string_view TakeToken(std::string_view& rest);

/// Splits on `delim`; keeps empty fields ("a,,b" → {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits on runs of ASCII whitespace; drops empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive (ASCII) equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Parses a double, requiring the whole string to be consumed.
bool ParseDouble(std::string_view s, double* out);

/// Parses a signed 64-bit integer, requiring the whole string to be consumed.
bool ParseInt64(std::string_view s, int64_t* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace emdbg

#endif  // EMDBG_UTIL_STRING_UTIL_H_
