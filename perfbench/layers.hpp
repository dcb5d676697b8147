/// \file layers.hpp
/// \brief One case of a paper workload, driven layer by layer from
///        outside: the benchmark times each public call it makes (workload
///        constructor, xform::add_prefetch, the core::Machine constructor,
///        init_memory plus launch, run(), check(), run_report_json) and
///        reads the exact counters RunResult returns.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/machine.hpp"
#include "sim/check.hpp"
#include "spans.hpp"
#include "stats/json_report.hpp"
#include "workloads/bitcnt.hpp"
#include "workloads/mmul.hpp"
#include "workloads/zoom.hpp"
#include "xform/prefetch_pass.hpp"

namespace perfbench {

using namespace dta;

enum class Workload { kMmul, kZoom, kBitcnt };

/// What one case or served job runs.  The scale presets and the 8-SPE
/// CellDTA machine are the ones serve::prepare_job applies to the same
/// job spec, so a Kind runs identically in-process and through the engine.
struct Kind {
    Workload wl = Workload::kMmul;
    bool paper = false;
    bool prefetch = false;
    std::uint64_t seed = 1;        ///< mmul/zoom input data
    std::uint32_t iterations = 0;  ///< bitcnt only
    std::uint32_t frames = 0;      ///< LSE frames per PE; 0 = the preset

    static constexpr std::uint16_t kSpes = 8;

    [[nodiscard]] const char* workload_name() const {
        switch (wl) {
            case Workload::kMmul: return "mmul";
            case Workload::kZoom: return "zoom";
            case Workload::kBitcnt: return "bitcnt";
        }
        return "?";
    }
    /// "paper/mmul/pf" — the label serve and dta_bench use.
    [[nodiscard]] std::string name() const {
        return std::string(paper ? "paper/" : "ci/") + workload_name() +
               (prefetch ? "/pf" : "/orig");
    }
    /// The serve job object for this kind.
    [[nodiscard]] std::string job_json(const std::string& id) const {
        std::string j = "{\"id\":\"" + id + "\",\"workload\":\"" +
                        workload_name() + "\",\"scale\":\"" +
                        (paper ? "paper" : "ci") + "\",\"prefetch\":" +
                        (prefetch ? "true" : "false") + ",\"threads\":1";
        if (wl == Workload::kBitcnt) {
            j += ",\"iterations\":" + std::to_string(iterations);
            if (frames != 0) {
                j += ",\"frames\":" + std::to_string(frames);
            }
        } else {
            j += ",\"seed\":" + std::to_string(seed);
        }
        return j + "}";
    }
};

/// Host seconds of each timed call of one case.
struct LayerTimes {
    double build = 0.0;      ///< workload constructor (runs the prefetch pass)
    double prefetch = 0.0;   ///< xform::add_prefetch again, outside the case
    double construct = 0.0;  ///< core::Machine constructor
    double launch = 0.0;     ///< init_memory + launch
    double run = 0.0;        ///< Machine::run
    double check = 0.0;      ///< the workload's output check
    double report = 0.0;     ///< stats::run_report_json (when asked)
    double total = 0.0;      ///< the whole case, build through check

    [[nodiscard]] double setup() const { return build + construct + launch; }
};

struct CaseOptions {
    bool profile = false;          ///< MachineConfig::profile
    bool extra_layers = false;     ///< then time add_prefetch, run_report_json
    bool setup_only = false;       ///< stop after launch
    std::uint64_t pinned_cycles = 0;  ///< expected cycles; 0 = not pinned
};

struct CaseResult {
    bool ok = false;
    std::string why;  ///< failure description when !ok
    LayerTimes t;
    core::RunResult result;
};

/// The pass/fail rule shared by every case and job, and by the self-check
/// that proves a wrong output or cycle count is counted as a failure.
/// Returns "" when the case passes.
[[nodiscard]] inline std::string verdict(bool output_ok,
                                         const std::string& why,
                                         std::uint64_t cycles,
                                         std::uint64_t pinned) {
    if (!output_ok) {
        return "wrong output: " + why;
    }
    if (pinned != 0 && cycles != pinned) {
        return "simulated " + std::to_string(cycles) +
               " cycles, pinned value is " + std::to_string(pinned);
    }
    return "";
}

template <typename W>
CaseResult run_case_as(const typename W::Params& p, core::MachineConfig cfg,
                       bool prefetch, const std::string& name,
                       const CaseOptions& o, SpanRecorder& rec,
                       std::uint64_t id) {
    CaseResult out;
    cfg.profile = o.profile;
    cfg.host_threads = 1;
    // Declared out here so that tearing them down is not part of the case.
    std::optional<W> w;
    std::optional<core::Machine> m;
    out.t.total = rec.time("case", id, [&] {
        try {
            out.t.build =
                rec.time("workloads.build", id, [&] { w.emplace(p); });
            out.t.construct = rec.time("core.Machine", id, [&] {
                m.emplace(cfg,
                          prefetch ? w->prefetch_program() : w->program());
            });
            out.t.launch = rec.time("core.launch", id, [&] {
                w->init_memory(m->memory());
                const auto args = w->entry_args();
                m->launch(args);
            });
            if (o.setup_only) {
                out.ok = true;
                return;
            }
            out.t.run =
                rec.time("core.run", id, [&] { out.result = m->run(); });
            bool correct = false;
            std::string why;
            out.t.check = rec.time("workloads.check", id, [&] {
                correct = w->check(m->memory(), &why);
            });
            out.why = verdict(correct, why, out.result.cycles,
                              o.pinned_cycles);
            out.ok = out.why.empty();
        } catch (const sim::SimError& e) {
            out.ok = false;
            out.why = std::string("SimError: ") + e.what();
        }
    });
    if (o.extra_layers && out.ok) {
        // Every workload constructor, orig included, already ran the pass
        // inside build; this repeats it on its own to time it as a layer.
        xform::PrefetchOptions opt;
        opt.staging_bytes = cfg.lse.staging_bytes_per_frame;
        isa::Program prog;
        out.t.prefetch = rec.time("xform.add_prefetch", id, [&] {
            prog = xform::add_prefetch(w->program(), opt);
        });
        // Serialisation is the serve path's last step, timed apart from
        // the case proper (case_s ends at check()).
        std::string doc;
        out.t.report = rec.time("stats.run_report_json", id, [&] {
            doc = stats::run_report_json(out.result, name);
        });
        if (doc.empty()) {
            out.ok = false;
            out.why = "empty run report";
        }
    }
    return out;
}

/// Runs one case of \p k; see run_case_as.
[[nodiscard]] inline CaseResult run_case(const Kind& k, const CaseOptions& o,
                                         SpanRecorder& rec,
                                         std::uint64_t id) {
    switch (k.wl) {
        case Workload::kMmul: {
            workloads::MatMul::Params p;
            p.n = k.paper ? 32 : 16;
            p.threads =
                k.paper ? workloads::MatMul::threads_for(Kind::kSpes) : 16;
            p.seed = k.seed;
            return run_case_as<workloads::MatMul>(
                p, workloads::MatMul::machine_config(Kind::kSpes),
                k.prefetch, k.name(), o, rec, id);
        }
        case Workload::kZoom: {
            workloads::Zoom::Params p;
            p.n = k.paper ? 32 : 16;
            p.factor = k.paper ? 8 : 4;
            p.threads =
                k.paper ? workloads::Zoom::threads_for(Kind::kSpes) : 16;
            p.seed = k.seed;
            return run_case_as<workloads::Zoom>(
                p, workloads::Zoom::machine_config(Kind::kSpes), k.prefetch,
                k.name(), o, rec, id);
        }
        case Workload::kBitcnt: {
            workloads::BitCount::Params p;
            p.iterations = k.iterations;
            core::MachineConfig cfg =
                workloads::BitCount::machine_config(Kind::kSpes);
            if (k.frames != 0) {  // as serve's "frames" override applies it
                cfg.lse = sched::LseConfig::with(
                    k.frames, cfg.lse.staging_bytes_per_frame);
            }
            return run_case_as<workloads::BitCount>(p, cfg, k.prefetch,
                                                    k.name(), o, rec, id);
        }
    }
    return {};
}

}  // namespace perfbench
