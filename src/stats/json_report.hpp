/// \file json_report.hpp
/// \brief Machine-readable run reports: serialises a RunResult (including
///        the metrics registry) to JSON for dashboards and regression
///        tooling, plus a dependency-free well-formedness checker used by
///        the tests and the CLI.
#pragma once

#include <string>
#include <string_view>

#include "core/machine.hpp"
#include "sim/metrics.hpp"

namespace dta::stats {

/// Escapes a string for embedding in a JSON document (quotes, backslashes,
/// control characters).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Serialises just the metrics registry: one object per counter, histogram
/// (count/sum/min/max/mean/p50/p90/p99 + non-empty log2 buckets) and gauge
/// (last/max + the sampled [cycle, value] series).
[[nodiscard]] std::string metrics_json(const sim::MetricsRegistry& reg,
                                       int indent = 0);

/// Serialises a whole run: cycle count, aggregate breakdown and instruction
/// mix, fabric / memory / DMA / DSE totals, the per-thread-code profile,
/// and — when the run collected them — the metrics registry.
/// \p benchmark names the workload in the report header ("" omits it).
/// \p include_host additionally emits the "host" section (the scheduler's
/// counters).  Off by default because those counters describe the
/// host-side scheduler, not the machine: every byte-identity comparison
/// (the scheduler-policy differential, neutrality tests) uses the default.
[[nodiscard]] std::string run_report_json(const core::RunResult& r,
                                          std::string_view benchmark = "",
                                          bool include_host = false);

/// Minimal recursive-descent JSON well-formedness check (structure only, no
/// schema).  Exists so tests and the CLI can validate emitted documents
/// without an external JSON dependency.
[[nodiscard]] bool validate_json(std::string_view text);

}  // namespace dta::stats
