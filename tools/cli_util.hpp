/// \file cli_util.hpp
/// \brief One shared checked numeric parser for every CLI tool.
///
/// Before this header, every tool parsed flag values with std::atoi /
/// std::strtoull and no error checking: `--threads foo` silently became 0
/// (= auto), and `--spes 99999` silently truncated through a uint16_t
/// cast to 34463.  Each parser here demands a full-string match (base 10,
/// or 0x-prefixed hex for the flags that document it), range-checks the
/// value, and on any violation prints one clean line and exits 2 — the
/// same exit code the tools' usage() paths already use.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace dta::cli {

[[noreturn]] inline void bad_value(const char* argv0, const char* flag,
                                   const char* text, const std::string& why) {
    std::fprintf(stderr, "%s: invalid value '%s' for %s: %s\n", argv0,
                 text == nullptr ? "" : text, flag, why.c_str());
    std::exit(2);
}

/// A second input path where a tool takes one: one line, exit 2.
[[noreturn]] inline void extra_argument(const char* argv0,
                                        const std::string& arg,
                                        const std::string& path) {
    std::fprintf(stderr, "%s: unexpected argument '%s' (input is '%s')\n",
                 argv0, arg.c_str(), path.c_str());
    std::exit(2);
}

/// Checked unsigned parse: the whole of \p text must be one base-10 (or
/// 0x-prefixed hex) integer in [lo, hi], else exit 2 with one line.
inline std::uint64_t parse_u64(const char* argv0, const char* flag,
                               const char* text, std::uint64_t lo = 0,
                               std::uint64_t hi =
                                   std::numeric_limits<std::uint64_t>::max()) {
    if (text == nullptr || *text == '\0') {
        bad_value(argv0, flag, text, "empty value");
    }
    // strtoull quietly accepts leading whitespace and wraps negatives
    // through unsigned arithmetic; both are rejects here.
    if (!std::isdigit(static_cast<unsigned char>(*text))) {
        bad_value(argv0, flag, text, "not an unsigned integer");
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0') {
        bad_value(argv0, flag, text, "not an unsigned integer");
    }
    if (errno == ERANGE || v < lo || v > hi) {
        bad_value(argv0, flag, text,
                  "out of range [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "]");
    }
    return v;
}

/// parse_u64 narrowed into T with T's own upper bound as the default cap —
/// the fix for the silent uint16_t truncation of `--spes 99999`.
template <typename T>
[[nodiscard]] T parse_uint(const char* argv0, const char* flag,
                           const char* text, std::uint64_t lo = 0,
                           std::uint64_t hi = std::numeric_limits<T>::max()) {
    return static_cast<T>(parse_u64(argv0, flag, text, lo, hi));
}

/// Checked double parse: full-string match, finite, within [lo, hi].
inline double parse_double(const char* argv0, const char* flag,
                           const char* text, double lo, double hi) {
    if (text == nullptr || *text == '\0') {
        bad_value(argv0, flag, text, "empty value");
    }
    if (std::isspace(static_cast<unsigned char>(*text)) != 0) {
        bad_value(argv0, flag, text, "not a number");
    }
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !(v >= -std::numeric_limits<double>::max() &&
          v <= std::numeric_limits<double>::max())) {
        bad_value(argv0, flag, text, "not a number");
    }
    if (v < lo || v > hi) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "out of range [%g, %g]", lo, hi);
        bad_value(argv0, flag, text, buf);
    }
    return v;
}

}  // namespace dta::cli
