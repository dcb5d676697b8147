#include "serve/job.hpp"

#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "isa/asmtext.hpp"
#include "sim/check.hpp"
#include "sim/snapshot.hpp"
#include "stats/json_report.hpp"
#include "workloads/bitcnt.hpp"
#include "workloads/mmul.hpp"
#include "workloads/zoom.hpp"

namespace dta::serve {

namespace {

using stats::JsonValue;

/// Every key a job object may carry; anything else is a typo we refuse
/// rather than silently ignore (a misspelled "perfect_cache" must not
/// quietly benchmark the wrong machine).
constexpr const char* kKnownKeys[] = {
    "id",           "workload",        "scale",
    "prefetch",     "spes",            "nodes",
    "threads",      "mem_latency",     "frames",
    "staging",      "vfp",             "perfect_cache",
    "max_cycles",   "n",               "factor",
    "wthreads",     "unroll",          "iterations",
    "seed",         "program_text",    "program_file",
    "args",         "snapshot",        "checkpoint_every",
    "checkpoint_prefix",
};

bool known_key(const std::string& k) {
    for (const char* s : kKnownKeys) {
        if (k == s) {
            return true;
        }
    }
    return false;
}

/// Fetches an unsigned integer member; false (with a reason) on a
/// non-number, negative, fractional or out-of-range value.  Absent
/// members leave \p out untouched and succeed.
template <typename T>
bool get_uint(const JsonValue& spec, const char* key, T& out,
              std::string& error, std::uint64_t lo = 0,
              std::uint64_t hi = std::numeric_limits<T>::max()) {
    const JsonValue* v = spec.find(key);
    if (v == nullptr) {
        return true;
    }
    if (!v->is_number()) {
        error = std::string("job field '") + key + "' must be a number";
        return false;
    }
    const double d = v->as_number();
    if (d < 0 || d != static_cast<double>(static_cast<std::uint64_t>(d)) ||
        static_cast<std::uint64_t>(d) < lo ||
        static_cast<std::uint64_t>(d) > hi) {
        error = std::string("job field '") + key + "' out of range [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]";
        return false;
    }
    out = static_cast<T>(d);
    return true;
}

bool get_bool(const JsonValue& spec, const char* key, bool& out,
              std::string& error) {
    const JsonValue* v = spec.find(key);
    if (v == nullptr) {
        return true;
    }
    if (!v->is_bool()) {
        error = std::string("job field '") + key + "' must be a boolean";
        return false;
    }
    out = v->as_bool();
    return true;
}

bool get_string(const JsonValue& spec, const char* key, std::string& out,
                std::string& error) {
    const JsonValue* v = spec.find(key);
    if (v == nullptr) {
        return true;
    }
    if (!v->is_string()) {
        error = std::string("job field '") + key + "' must be a string";
        return false;
    }
    out = v->as_string();
    return true;
}

/// Shared machine-shape overrides (the dta_run flag set).
struct Overrides {
    std::uint16_t spes = 8;
    std::uint16_t nodes = 0;        // 0 = factory default
    std::uint32_t threads;          // host threads (only 1); seeded by caller
    std::uint32_t mem_latency = 0;  // 0 = factory default
    std::uint32_t frames = 0;
    std::uint32_t staging = 0;
    bool vfp = false;
    bool vfp_set = false;
    bool perfect_cache = false;
    std::uint64_t max_cycles = 0;
};

bool parse_overrides(const JsonValue& spec, Overrides& o,
                     std::string& error) {
    if (!get_uint(spec, "spes", o.spes, error, 1) ||
        !get_uint(spec, "nodes", o.nodes, error, 1) ||
        !get_uint(spec, "threads", o.threads, error, 1, 1) ||
        !get_uint(spec, "mem_latency", o.mem_latency, error, 1) ||
        !get_uint(spec, "frames", o.frames, error, 1) ||
        !get_uint(spec, "staging", o.staging, error, 1) ||
        !get_uint(spec, "max_cycles", o.max_cycles, error, 1) ||
        !get_bool(spec, "perfect_cache", o.perfect_cache, error)) {
        return false;
    }
    o.vfp_set = spec.find("vfp") != nullptr;
    return get_bool(spec, "vfp", o.vfp, error);
}

void apply_overrides(core::MachineConfig& cfg, const Overrides& o) {
    if (o.nodes != 0) {
        cfg.nodes = o.nodes;
    }
    cfg.host_threads = o.threads;
    if (o.mem_latency != 0) {
        cfg.memory.latency = o.mem_latency;
    }
    if (o.frames != 0 || o.staging != 0) {
        cfg.lse = sched::LseConfig::with(
            o.frames != 0 ? o.frames : cfg.lse.frames,
            o.staging != 0 ? o.staging : cfg.lse.staging_bytes_per_frame);
    }
    if (o.vfp_set) {
        cfg.lse.virtual_frames = o.vfp;
    }
    if (o.max_cycles != 0) {
        cfg.max_cycles = o.max_cycles;
    }
}

/// Builds the workload-specific half of a PreparedJob.  The workload
/// object lives in a shared_ptr captured by the setup/check closures.
template <typename W>
void bind_workload(PreparedJob& out, typename W::Params p, bool prefetch,
                   const std::string& snapshot) {
    auto wl = std::make_shared<const W>(p);
    out.prog = prefetch ? wl->prefetch_program() : wl->program();
    if (snapshot.empty()) {
        out.setup = [wl](core::Machine& m) {
            wl->init_memory(m.memory());
            const auto args = wl->entry_args();
            m.launch(args);
        };
    } else {
        out.setup = [snapshot](core::Machine& m) { m.restore(snapshot); };
        out.warm_start = true;
    }
    out.check = [wl](const mem::MainMemory& mem, std::string* why) {
        return wl->check(mem, why);
    };
}

/// The cache key: a format tag, the structural machine+program
/// fingerprint, and everything that shapes the memory image or entry
/// arguments.
std::uint64_t job_key(const core::MachineConfig& cfg,
                      const isa::Program& prog, const std::string& workload,
                      bool prefetch, std::uint64_t p0, std::uint64_t p1,
                      std::uint64_t p2, std::uint64_t p3, std::uint64_t seed,
                      const std::vector<std::uint64_t>& args) {
    sim::StateSink s;
    s.str("dta-serve-key-v1");
    s.u64(core::structural_fingerprint(cfg, prog));
    s.str(workload);
    s.flag(prefetch);
    s.u64(p0);
    s.u64(p1);
    s.u64(p2);
    s.u64(p3);
    s.u64(seed);
    s.u64(args.size());
    for (const std::uint64_t a : args) {
        s.u64(a);
    }
    return sim::fnv1a64(s.data().data(), s.size());
}

}  // namespace

bool prepare_job(const JsonValue& spec, std::uint32_t default_threads,
                 PreparedJob& out, std::string& error) {
    if (!spec.is_object()) {
        error = "job must be a JSON object";
        return false;
    }
    for (const JsonValue::Member& m : spec.members()) {
        if (!known_key(m.first)) {
            error = "unknown job field '" + m.first + "'";
            return false;
        }
    }
    std::string workload;
    std::string scale = "ci";
    bool prefetch = false;
    std::string snapshot;
    if (!get_string(spec, "workload", workload, error) ||
        !get_string(spec, "scale", scale, error) ||
        !get_bool(spec, "prefetch", prefetch, error) ||
        !get_string(spec, "id", out.id, error) ||
        !get_string(spec, "snapshot", snapshot, error) ||
        !get_uint(spec, "checkpoint_every", out.checkpoint_every, error, 1) ||
        !get_string(spec, "checkpoint_prefix", out.checkpoint_prefix,
                    error)) {
        return false;
    }
    if (workload.empty()) {
        error = "job field 'workload' is required "
                "(mmul, zoom, bitcnt or asm)";
        return false;
    }
    if (scale != "ci" && scale != "paper") {
        error = "job field 'scale' must be \"ci\" or \"paper\"";
        return false;
    }
    const bool paper = scale == "paper";

    Overrides o;
    o.threads = default_threads;
    if (!parse_overrides(spec, o, error)) {
        return false;
    }

    // The report's benchmark label is canonical — a function of the job's
    // content, never of the caller's 'id' — so one cache entry serves any
    // id that maps to the same key with identical bytes.
    out.name = scale + "/" + workload + (prefetch ? "/pf" : "/orig");
    if (out.id.empty()) {
        out.id = out.name;
    }

    if (workload == "mmul") {
        auto p = workloads::MatMul::preset(paper, o.spes);
        if (!get_uint(spec, "n", p.n, error, 1) ||
            !get_uint(spec, "wthreads", p.threads, error, 1) ||
            !get_uint(spec, "unroll", p.unroll, error, 1) ||
            !get_uint(spec, "seed", p.seed, error)) {
            return false;
        }
        out.cfg = workloads::MatMul::machine_config(o.spes);
        apply_overrides(out.cfg, o);
        bind_workload<workloads::MatMul>(out, p, prefetch, snapshot);
        out.key = job_key(out.cfg, out.prog, workload, prefetch, p.n,
                          p.threads, p.unroll, 0, p.seed, {});
    } else if (workload == "zoom") {
        auto p = workloads::Zoom::preset(paper, o.spes);
        if (!get_uint(spec, "n", p.n, error, 1) ||
            !get_uint(spec, "factor", p.factor, error, 1) ||
            !get_uint(spec, "wthreads", p.threads, error, 1) ||
            !get_uint(spec, "unroll", p.unroll, error, 1) ||
            !get_uint(spec, "seed", p.seed, error)) {
            return false;
        }
        out.cfg = workloads::Zoom::machine_config(o.spes);
        apply_overrides(out.cfg, o);
        bind_workload<workloads::Zoom>(out, p, prefetch, snapshot);
        out.key = job_key(out.cfg, out.prog, workload, prefetch, p.n,
                          p.threads, p.unroll, p.factor, p.seed, {});
    } else if (workload == "bitcnt") {
        auto p = workloads::BitCount::preset(paper);
        if (!get_uint(spec, "iterations", p.iterations, error, 1)) {
            return false;
        }
        out.cfg = workloads::BitCount::machine_config(o.spes);
        apply_overrides(out.cfg, o);
        bind_workload<workloads::BitCount>(out, p, prefetch, snapshot);
        out.key = job_key(out.cfg, out.prog, workload, prefetch,
                          p.iterations, 0, 0, 0, 0, {});
    } else if (workload == "asm") {
        std::string text;
        std::string file;
        if (!get_string(spec, "program_text", text, error) ||
            !get_string(spec, "program_file", file, error)) {
            return false;
        }
        if (text.empty() == file.empty()) {
            error = "asm job needs exactly one of 'program_text' and "
                    "'program_file'";
            return false;
        }
        if (!file.empty()) {
            std::ifstream in(file);
            if (!in) {
                error = "cannot open program file '" + file + "'";
                return false;
            }
            std::ostringstream buf;
            buf << in.rdbuf();
            text = buf.str();
        }
        std::vector<std::uint64_t> args;
        if (const JsonValue* av = spec.find("args"); av != nullptr) {
            if (!av->is_array()) {
                error = "job field 'args' must be an array of numbers";
                return false;
            }
            for (const JsonValue& item : av->items()) {
                if (!item.is_number() || item.as_number() < 0) {
                    error = "job field 'args' must be an array of "
                            "non-negative numbers";
                    return false;
                }
                args.push_back(item.as_u64());
            }
        }
        try {
            out.prog = isa::parse_program(text);
        } catch (const sim::SimError& e) {
            error = std::string("program parse error: ") + e.what();
            return false;
        }
        out.cfg = o.perfect_cache
                      ? core::MachineConfig::perfect_cache(o.spes)
                      : core::MachineConfig::cell_dta(o.spes);
        apply_overrides(out.cfg, o);
        if (snapshot.empty()) {
            out.setup = [args](core::Machine& m) { m.launch(args); };
        } else {
            out.setup = [snapshot](core::Machine& m) {
                m.restore(snapshot);
            };
            out.warm_start = true;
        }
        out.key = job_key(out.cfg, out.prog, workload, prefetch, 0, 0, 0, 0,
                          0, args);
        out.name = out.prog.name.empty() ? "asm" : out.prog.name;
    } else {
        error = "unknown workload '" + workload +
                "' (mmul, zoom, bitcnt or asm)";
        return false;
    }
    return true;
}

JobResult run_job(const PreparedJob& job) {
    JobResult r;
    try {
        core::Machine machine(job.cfg, job.prog);
        if (job.checkpoint_every > 0) {
            machine.set_checkpoints(job.checkpoint_every,
                                    job.checkpoint_prefix.empty()
                                        ? job.name
                                        : job.checkpoint_prefix);
        }
        job.setup(machine);
        const core::RunResult res = machine.run();
        if (job.check) {
            std::string why;
            if (!job.check(machine.memory(), &why)) {
                r.error = "incorrect result: " + why;
                return r;
            }
        }
        r.report = stats::run_report_json(res, job.name,
                                          /*include_host=*/false);
        r.cycles = res.cycles;
        r.ok = true;
    } catch (const sim::SimError& e) {
        r.error = e.what();
    } catch (const sim::CheckError& e) {
        r.error = std::string("internal error: ") + e.what();
    }
    return r;
}

}  // namespace dta::serve
