/// \file bench_file.hpp
/// \brief The `dta-bench-v1` benchmark-report format: what tools/dta_bench
///        writes, tools/dta_benchdiff compares, and CI archives per PR.
///
/// One file is one bench session: an environment block (git sha, compiler,
/// build type, host threads — enough provenance to refuse apples-to-oranges
/// comparisons) plus one case per (workload, config) with the simulated
/// cycle count and every repeat's host wall-clock seconds.  Robust
/// statistics (min / median / MAD) are stored for human readers but always
/// recomputed from the samples on parse, so a hand-edited summary can never
/// disagree with its own data.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dta::stats {

/// Environment provenance captured at bench time.
struct BenchEnv {
    std::string git_sha;     ///< "unknown" when not in a git checkout
    std::string compiler;    ///< e.g. "g++ 13.2.0" (__VERSION__)
    std::string build_type;  ///< CMAKE_BUILD_TYPE baked in at compile time
    std::uint32_t host_threads = 0;  ///< hardware_concurrency at bench time
};

/// One benchmarked (workload, config) point.
struct BenchCase {
    std::string name;            ///< e.g. "fig5/mmul/orig"
    std::uint64_t cycles = 0;    ///< simulated cycles (identical per repeat)
    std::vector<double> host_seconds;  ///< one wall-clock sample per repeat

    /// Host-side scheduler counters from one run of the case (all zero
    /// for files written before they existed).
    /// Trend data only — like RunResult::wheel these describe the
    /// simulator, not the machine, so the dta_benchdiff regression gate
    /// never reads them.
    std::uint64_t wheel_pops = 0;
    std::uint64_t wheel_inserts = 0;
    std::uint64_t wheel_dense_cycles = 0;

    [[nodiscard]] double min_s() const;
    [[nodiscard]] double median_s() const;
    /// Median absolute deviation of the samples around their median — the
    /// robust spread estimate the diff thresholds are scaled by.
    [[nodiscard]] double mad_s() const;
};

/// One bench session (one BENCH_<label>.json file).
struct BenchFile {
    static constexpr std::string_view kSchema = "dta-bench-v1";

    std::string label;
    BenchEnv env;
    std::vector<BenchCase> cases;

    [[nodiscard]] const BenchCase* find(std::string_view name) const;
};

/// Median of \p v (0 when empty).  Exposed for the bench driver itself.
[[nodiscard]] double median_of(std::vector<double> v);
/// Median absolute deviation of \p v around \p center.
[[nodiscard]] double mad_of(const std::vector<double>& v, double center);

/// Renders \p f as a schema-conforming JSON document.
[[nodiscard]] std::string serialize_bench_file(const BenchFile& f);

/// Parses and schema-validates one bench file.  Returns false with a
/// one-line \p error naming the offending field on any violation: wrong or
/// missing schema tag, non-object env, case without name / cycles /
/// non-empty host_seconds, or malformed JSON.
bool parse_bench_file(std::string_view text, BenchFile& out,
                      std::string& error);

}  // namespace dta::stats
