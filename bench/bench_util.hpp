/// \file bench_util.hpp
/// \brief Shared plumbing for the per-figure benchmark harnesses: workload
///        construction at paper scale, deadlock-tolerant runs, and the
///        paper's reference numbers for side-by-side printing.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include "bench_emit.hpp"
#include "sim/check.hpp"
#include "sim/events.hpp"
#include "stats/json_report.hpp"
#include "stats/report.hpp"
#include "workloads/bitcnt.hpp"
#include "workloads/harness.hpp"
#include "workloads/mmul.hpp"
#include "workloads/zoom.hpp"

namespace dta::bench {

/// Paper-scale workload parameters (Section 4.2).
inline workloads::MatMul::Params mmul_params(std::uint16_t spes) {
    return workloads::MatMul::preset(true, spes);
}

inline workloads::Zoom::Params zoom_params(std::uint16_t spes) {
    return workloads::Zoom::preset(true, spes);
}

inline workloads::BitCount::Params bitcnt_params(std::uint32_t iterations) {
    workloads::BitCount::Params p;
    p.iterations = iterations;
    return p;
}

/// `--iterations N` style override so CI can run benches at reduced scale.
inline std::uint32_t arg_u32(int argc, char** argv, const char* flag,
                             std::uint32_t fallback) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == flag) {
            return static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
        }
    }
    return fallback;
}

/// Machine-shape override shared by every bench main: `--nodes N` spreads
/// the workload's PEs over N nodes (0 keeps the workload's default shape).
struct Shape {
    std::uint16_t nodes = 0;
};

inline Shape shape_from_args(int argc, char** argv) {
    Shape s;
    s.nodes = static_cast<std::uint16_t>(arg_u32(argc, argv, "--nodes", 0));
    return s;
}

/// Applies \p s to a workload's machine config, keeping the total PE count
/// (so the simulated machine stays comparable across shapes).
inline core::MachineConfig shaped(core::MachineConfig cfg, const Shape& s) {
    if (s.nodes > 0) {
        const std::uint32_t total = cfg.total_pes();
        DTA_SIM_REQUIRE(total % s.nodes == 0,
                        "--nodes must divide the total PE count");
        cfg.nodes = s.nodes;
        cfg.spes_per_node = static_cast<std::uint16_t>(total / s.nodes);
    }
    return cfg;
}

/// When the DTA_BENCH_JSON environment variable names a file, appends one
/// JSON run report per call (newline-delimited JSON, one document per run)
/// so CI can archive bench results without parsing stdout.  No-op when the
/// variable is unset.  Both run helpers below call this automatically; the
/// rendering and file handling live in bench_emit.hpp, the emit path this
/// harness shares with the microbench reporter.
inline void maybe_emit_json(const core::RunResult& res,
                            const std::string& label,
                            const std::string& extra_fields = "") {
    emit_run_report(res, label, extra_fields);
}

/// When the DTA_BENCH_EVENTS environment variable is set, every bench run
/// also collects its thread-lifecycle event log and writes it to
/// "<prefix><label>.dtaev" (the variable's value is used as a path prefix,
/// so "events/" drops one DTAEV1 file per run into that directory, ready
/// for dta_analyze).  Unset (the default): no collection, no overhead.
inline const char* bench_events_prefix() {
    const char* p = std::getenv("DTA_BENCH_EVENTS");
    return (p != nullptr && *p != '\0') ? p : nullptr;
}

inline void maybe_emit_events(const core::RunResult& res,
                              const core::MachineConfig& cfg,
                              const std::string& label) {
    const char* prefix = bench_events_prefix();
    if (prefix == nullptr) {
        return;
    }
    const std::string path = std::string(prefix) + label + ".dtaev";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr,
                     "WARNING: cannot open DTA_BENCH_EVENTS file %s\n",
                     path.c_str());
        return;
    }
    sim::write_events(out, res.events, res.cycles, cfg.total_pes(),
                      res.code_names);
}

/// run_workload plus the DTA_BENCH_JSON hook, labelled by program name.
/// Each run also logs its host wall clock (and cycles fast-forwarded) to
/// stderr so bench timings can be compared run by run, not just per binary.
template <typename W>
workloads::RunOutcome run_reported(const W& wl, const core::MachineConfig& cfg,
                                   bool prefetch,
                                   const std::string& extra_fields = "") {
    core::MachineConfig run_cfg = cfg;
    run_cfg.collect_events |= bench_events_prefix() != nullptr;
    workloads::RunOutcome out = workloads::run_workload(wl, run_cfg, prefetch);
    const std::string& label =
        prefetch ? wl.prefetch_program().name : wl.program().name;
    std::fprintf(stderr,
                 "[bench] %-24s %10llu cycles  %7.3f s host  "
                 "%10llu fast-forwarded\n",
                 label.c_str(),
                 static_cast<unsigned long long>(out.result.cycles),
                 out.host_seconds,
                 static_cast<unsigned long long>(out.cycles_fast_forwarded));
    maybe_emit_json(out.result, label, extra_fields);
    maybe_emit_events(out.result, run_cfg, label);
    return out;
}

/// run_reported under a machine shape.
template <typename W>
workloads::RunOutcome run_shaped(const W& wl, const core::MachineConfig& base,
                                 const Shape& shape, bool prefetch) {
    return run_reported(wl, shaped(base, shape), prefetch);
}

/// A run that may legitimately deadlock (frame-starvation ablations).
struct MaybeRun {
    std::optional<workloads::RunOutcome> outcome;
    std::string error;
    [[nodiscard]] bool ok() const { return outcome.has_value(); }
    [[nodiscard]] std::uint64_t cycles() const {
        return outcome ? outcome->result.cycles : 0;
    }
};

template <typename W>
MaybeRun try_run(const W& wl, const core::MachineConfig& cfg, bool prefetch) {
    MaybeRun r;
    try {
        r.outcome = run_reported(wl, cfg, prefetch);
        if (!r.outcome->correct) {
            std::fprintf(stderr, "WARNING: incorrect result: %s\n",
                         r.outcome->detail.c_str());
        }
    } catch (const sim::SimError& e) {
        r.error = e.what();
    }
    return r;
}

/// Prints a header naming the experiment and the paper artefact it mirrors.
inline void banner(const char* exp_id, const char* description) {
    std::printf("=== %s — %s ===\n", exp_id, description);
}

/// Prints a "paper vs measured" line for a headline number.
inline void compare(const char* what, double paper, double measured) {
    std::printf("  %-34s paper: %8.2f   measured: %8.2f\n", what, paper,
                measured);
}

/// Wraps a bench body so invalid parameters (a --nodes split that does not
/// divide the PE count, frame famine, a deadlocked run) print one clean
/// error line plus a hint instead of an uncaught-exception abort, and
/// internal consistency failures are labelled as simulator bugs.  Non-zero
/// exit either way, so CI still notices.
template <typename Fn>
int guarded_main(Fn&& body, const char* argv0) {
    try {
        return body();
    } catch (const sim::SimError& e) {
        std::fprintf(stderr, "%s: error: %s\n", argv0, e.what());
        std::fprintf(stderr,
                     "hint: check the workload/machine parameters "
                     "(--iterations, --nodes)\n");
        return 1;
    } catch (const sim::CheckError& e) {
        std::fprintf(stderr,
                     "%s: internal error (please report): %s\n", argv0,
                     e.what());
        return 1;
    }
}

}  // namespace dta::bench
