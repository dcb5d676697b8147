/// \file dta_fuzz.cpp
/// \brief Differential fuzz harness: random machine configurations crossed
///        with random-dataflow programs (workloads/dataflow_gen.hpp), run
///        with invariant audits on and checked word-for-word against the
///        functional Interpreter oracle and the generator's host-side
///        replica — and, per run, the default scheduler's run report is
///        byte-compared against the per-cycle reference's (every
///        component ticked every cycle), and so are the heartbeats and
///        audit sweeps each leg observed.  A quarter of the corpus
///        additionally runs with live telemetry and the stall watchdog
///        armed; a passing run that trips the watchdog is reported as a
///        failure (no spurious stall diagnostics), and the report
///        comparison then covers the telemetry timeline too.
///
/// Usage:
///   dta_fuzz [options]
///     --seeds N         program seeds per config shape (default 25)
///     --start-seed S    first seed (default 1)
///     --shapes LIST     comma-separated shape ids, or "all" (default all)
///     --list-shapes     print the shape table and exit
///     --seed S          run one seed only (replay mode; use with --config)
///     --config STR      explicit "key=value,..." machine config (replay
///                       mode; keys as printed by a failure's replay line;
///                       an unknown key or a bad value exits 2)
///     --inject-failure  register an always-failing audit check (validates
///                       the failure-reporting and replay path end to end)
///     --no-shrink       report the first failure without minimising it
///     --bisect          (replay mode) time-travel bisect: re-run the
///                       failing cell with periodic snapshots, then refine
///                       from the newest pre-failure snapshot with smaller
///                       intervals; prints one copy-pasteable --restore
///                       command landing just before the failure
///     --restore FILE    (replay mode) resume the machine leg from a
///                       snapshot written by a --bisect pass instead of
///                       launching fresh (see docs/CHECKPOINT.md)
///     -v                print one line per run instead of one per shape
///
/// On failure the harness shrinks the reproducer (smaller program, then
/// simpler machine) while the failure persists and prints a single replay
/// line of the form
///   replay: dta_fuzz --seed S --config "nodes=1,spes=2,..."
/// plus a bisect line that appends --bisect to the same command.
/// Exit status: 0 when every run passed, 1 on any failure, 2 on bad usage.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli_util.hpp"
#include "core/interpreter.hpp"
#include "core/machine.hpp"
#include "sim/check.hpp"
#include "stats/json_report.hpp"
#include "workloads/dataflow_gen.hpp"

using namespace dta;

namespace {

/// One point of the machine-configuration space the fuzzer sweeps.
struct FuzzConfig {
    std::uint16_t nodes = 1;
    std::uint16_t spes = 2;
    std::uint32_t frames = 16;
    std::uint32_t staging = 2048;
    bool vfp = false;
    bool prefetch = false;
    std::uint32_t mem_latency = 150;
    std::uint32_t inject_depth = 16;
    std::uint32_t mfc_queue = 16;
    std::uint32_t link_latency = 40;
    // program-shape knobs (fed to DataflowGenParams)
    std::uint32_t max_threads = 48;
    std::uint32_t max_fanout = 4;
    std::uint32_t join_percent = 40;
};

std::string encode(const FuzzConfig& c) {
    auto b = [](const bool v) { return v ? "1" : "0"; };
    return "nodes=" + std::to_string(c.nodes) +
           ",spes=" + std::to_string(c.spes) +
           ",frames=" + std::to_string(c.frames) +
           ",staging=" + std::to_string(c.staging) + ",vfp=" + b(c.vfp) +
           ",prefetch=" + b(c.prefetch) + ",mem=" +
           std::to_string(c.mem_latency) +
           ",inject=" + std::to_string(c.inject_depth) +
           ",mfcq=" + std::to_string(c.mfc_queue) +
           ",link=" + std::to_string(c.link_latency) +
           ",maxthreads=" + std::to_string(c.max_threads) +
           ",fanout=" + std::to_string(c.max_fanout) +
           ",joinpct=" + std::to_string(c.join_percent);
}

/// Parses a --config string ("key=value,..." with the keys encode()
/// prints).  Each value is range-checked against what the machine or the
/// generator accepts; a pair without '=', an unknown key or a bad value
/// prints one line and exits 2.
FuzzConfig decode(const char* argv0, const std::string& s) {
    FuzzConfig c;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t end = s.find(',', pos);
        if (end == std::string::npos) {
            end = s.size();
        }
        const std::string pair = s.substr(pos, end - pos);
        pos = end + 1;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos) {
            std::fprintf(stderr, "%s: --config entry '%s' is not key=value\n",
                         argv0, pair.c_str());
            std::exit(2);
        }
        const std::string key = pair.substr(0, eq);
        const std::string val = pair.substr(eq + 1);
        const std::string flag = "--config " + key;
        const auto num = [&](std::uint64_t lo, std::uint64_t hi) {
            return cli::parse_u64(argv0, flag.c_str(), val.c_str(), lo, hi);
        };
        constexpr std::uint64_t kU16 = 0xffff;
        constexpr std::uint64_t kU32 = 0xffffffff;
        if (key == "nodes") {
            c.nodes = static_cast<std::uint16_t>(num(1, kU16));
        } else if (key == "spes") {
            c.spes = static_cast<std::uint16_t>(num(1, kU16));
        } else if (key == "frames") {
            c.frames = static_cast<std::uint32_t>(num(1, kU32));
        } else if (key == "staging") {
            c.staging = static_cast<std::uint32_t>(num(0, kU32));
        } else if (key == "vfp") {
            c.vfp = num(0, 1) != 0;
        } else if (key == "prefetch") {
            c.prefetch = num(0, 1) != 0;
        } else if (key == "mem") {
            c.mem_latency = static_cast<std::uint32_t>(num(0, kU32));
        } else if (key == "inject") {
            c.inject_depth = static_cast<std::uint32_t>(num(1, kU32));
        } else if (key == "mfcq") {
            c.mfc_queue = static_cast<std::uint32_t>(num(1, kU32));
        } else if (key == "link") {
            c.link_latency = static_cast<std::uint32_t>(num(0, kU32));
        } else if (key == "maxthreads") {
            c.max_threads = static_cast<std::uint32_t>(num(1, kU32));
        } else if (key == "fanout") {
            c.max_fanout = static_cast<std::uint32_t>(num(1, kU32));
        } else if (key == "joinpct") {
            c.join_percent = static_cast<std::uint32_t>(num(0, 100));
        } else {
            std::fprintf(stderr, "%s: unknown --config key '%s'\n", argv0,
                         key.c_str());
            std::exit(2);
        }
    }
    return c;
}

/// The predefined configuration shapes the default sweep covers: small and
/// large node counts, scarce and plentiful frames, virtual frames, the
/// prefetch pass, shallow queues, and slow inter-node links.
std::vector<FuzzConfig> shape_table() {
    std::vector<FuzzConfig> shapes(10);
    // 0: the baseline tiny machine.
    // 1: wider node, scarce frames, virtual frame pointers.
    shapes[1].spes = 4;
    shapes[1].frames = 8;
    shapes[1].vfp = true;
    // 2: two nodes.
    shapes[2].nodes = 2;
    // 3: three nodes, virtual frames.
    shapes[3].nodes = 3;
    shapes[3].frames = 12;
    shapes[3].vfp = true;
    // 4: frame starvation + virtual frames + the prefetch pass.
    shapes[4].frames = 6;
    shapes[4].vfp = true;
    shapes[4].prefetch = true;
    // 5: two wide nodes with prefetch and a fast memory.
    shapes[5].nodes = 2;
    shapes[5].spes = 4;
    shapes[5].prefetch = true;
    shapes[5].mem_latency = 40;
    // 6: deep machine with shallow queues and slow memory (back pressure).
    shapes[6].spes = 8;
    shapes[6].inject_depth = 2;
    shapes[6].mfc_queue = 2;
    shapes[6].mem_latency = 300;
    // 7: slow inter-node link.
    shapes[7].nodes = 2;
    shapes[7].frames = 8;
    shapes[7].link_latency = 100;
    shapes[7].max_threads = 32;
    // 8: near-perfect memory with prefetch (races squeezed together).
    shapes[8].frames = 32;
    shapes[8].mem_latency = 1;
    shapes[8].prefetch = true;
    // 9: many single-SPE nodes, virtual frames.
    shapes[9].nodes = 4;
    shapes[9].spes = 1;
    shapes[9].vfp = true;
    shapes[9].max_fanout = 3;
    return shapes;
}

/// Thread budget for one generated program: without virtual frame pointers
/// a parked FALLOC deadlocks, so cap the program at one node's frame
/// capacity (spes * frames) — then no FALLOC ever parks (see
/// workloads/dataflow_gen.hpp).
std::uint32_t thread_cap(const FuzzConfig& c) {
    if (c.vfp) {
        return c.max_threads;
    }
    const auto cap = static_cast<std::uint32_t>(c.spes) * c.frames;
    return std::min(c.max_threads, cap);
}

core::MachineConfig machine_config(const FuzzConfig& c) {
    auto cfg = core::MachineConfig::cell_dta(c.spes);
    cfg.nodes = c.nodes;
    cfg.memory.latency = c.mem_latency;
    cfg.lse = sched::LseConfig::with(c.frames, c.staging);
    cfg.lse.virtual_frames = c.vfp;
    cfg.noc.inject_queue_depth = c.inject_depth;
    cfg.mfc.queue_depth = c.mfc_queue;
    cfg.link.latency = c.link_latency;
    cfg.audit.enabled = true;
    // Gauges on: the reference differential byte-compares the full run
    // report, and sampled gauges exercise the run loop's replay of skipped
    // spans.
    cfg.collect_metrics = true;
    cfg.max_cycles = 50'000'000;
    cfg.no_progress_limit = 500'000;
    return cfg;
}

workloads::DataflowGenParams gen_params(const FuzzConfig& c,
                                        std::uint64_t seed) {
    workloads::DataflowGenParams gp;
    gp.seed = seed;
    gp.max_threads = thread_cap(c);
    gp.max_fanout = c.max_fanout;
    gp.join_percent = c.join_percent;
    gp.table_reads = c.prefetch;
    return gp;
}

/// Snapshot plumbing for the bisect loop: restore the machine leg from a
/// snapshot and/or write periodic checkpoints during it, reporting the
/// newest snapshot that existed before a failure.
struct SnapshotKnobs {
    std::string restore;              ///< resume from here (empty = launch)
    sim::Cycle checkpoint_every = 0;  ///< 0 = no periodic snapshots
    std::string checkpoint_prefix;
    sim::Cycle last_cycle = 0;  ///< out: newest snapshot written (0 = none)
    std::string last_path;      ///< out
};

/// What the periodic observers of one run saw: heartbeats (cycle, live
/// threads) and the sweeps of an audit probe (cycle, Σ instructions
/// retired, live frames).
struct Observed {
    struct Sweep {
        sim::Cycle cycle;
        std::uint64_t instrs;
        std::uint64_t frames;
    };
    std::vector<std::pair<sim::Cycle, std::uint64_t>> beats;
    std::vector<Sweep> sweeps;
};

/// Records \p m's heartbeats and audit sweeps into \p obs.
void record_observers(core::Machine& m, Observed& obs) {
    m.set_progress(97, [&obs](const core::Machine::Progress& p) {
        obs.beats.emplace_back(p.cycle, p.live_threads);
    });
    m.auditor().add("probe", [&m, &obs](const sim::AuditCtx& ctx) {
        Observed::Sweep s{ctx.now(), 0, 0};
        for (std::uint32_t i = 0; i < m.num_pes(); ++i) {
            const core::Pe& pe = m.pe(i);
            s.instrs += pe.instr_stats().total();
            s.frames +=
                pe.lse().live_frames() + pe.lse().virtual_frames_live();
        }
        obs.sweeps.push_back(s);
    });
}

/// The observer oracle: the default policy must serve the heartbeats the
/// per-cycle reference serves, sweep only at cycles the reference sweeps,
/// and have swept every state the reference swept — each reference sweep
/// reads what the default policy's latest sweep at or before it read.
/// Returns an empty string when both agree.
std::string compare_observers(const Observed& dflt, const Observed& ref) {
    if (dflt.beats != ref.beats) {
        return "heartbeats diverged from the per-cycle reference's";
    }
    for (const Observed::Sweep& s : dflt.sweeps) {
        if (!std::ranges::binary_search(ref.sweeps, s.cycle, {},
                                        &Observed::Sweep::cycle)) {
            return "audit sweep at cycle " + std::to_string(s.cycle) +
                   ", where the per-cycle reference swept none";
        }
    }
    std::size_t next = 0;
    const Observed::Sweep* latest = nullptr;
    for (const Observed::Sweep& r : ref.sweeps) {
        while (next < dflt.sweeps.size() &&
               dflt.sweeps[next].cycle <= r.cycle) {
            latest = &dflt.sweeps[next++];
        }
        if (latest == nullptr || latest->instrs != r.instrs ||
            latest->frames != r.frames) {
            return "no audit sweep saw the state at cycle " +
                   std::to_string(r.cycle);
        }
    }
    return "";
}

/// Runs one (config, seed) point: generator -> Interpreter oracle ->
/// audited Machine (default scheduler) -> per-cycle reference differential
/// (run report and observers) -> word-for-word memory comparison.  Returns
/// true when everything agreed; otherwise fills \p why.  With \p snap, the
/// machine leg restores and/or checkpoints (the reference differential is
/// skipped — the bisect loop studies the one failing leg).
bool run_one(const FuzzConfig& c, std::uint64_t seed, bool inject_failure,
             std::string& why, SnapshotKnobs* snap = nullptr) {
    try {
        const workloads::DataflowGen gen(gen_params(c, seed));
        const std::vector<std::uint64_t> args = gen.entry_args();

        // The functional oracle always runs the plain program; prefetch is
        // a timing transformation and must not change results.
        core::Interpreter interp(gen.program());
        gen.init_memory(interp.memory());
        interp.launch(args);
        (void)interp.run();
        if (std::string w; !gen.check(interp.memory(), &w)) {
            why = "interpreter diverged from host replica: " + w;
            return false;
        }

        const isa::Program prog =
            c.prefetch ? gen.prefetch_program(c.staging) : gen.program();
        auto cfg = machine_config(c);
        // A quarter of the corpus also runs with live telemetry and the
        // stall watchdog armed, at a cadence tight enough that short fuzz
        // programs still capture frames.  Passing runs must never trip the
        // watchdog (checked below), and the reference report comparison
        // then also byte-compares the telemetry timeline across the two
        // scheduling policies.
        const bool telem = seed % 4 == 0;
        if (telem) {
            cfg.telemetry.enabled = true;
            cfg.telemetry.interval = 1024;
        }
        core::Machine machine(cfg, prog);
        Observed seen;
        record_observers(machine, seen);
        if (inject_failure) {
            machine.auditor().add("fuzz", [](const sim::AuditCtx& ctx) {
                ctx.fail("injected",
                         "deliberate failure to validate the report path");
            });
        }
        if (snap != nullptr && snap->checkpoint_every > 0) {
            machine.set_checkpoints(snap->checkpoint_every,
                                    snap->checkpoint_prefix);
        }
        if (snap != nullptr && !snap->restore.empty()) {
            machine.restore(snap->restore);
        } else {
            gen.init_memory(machine.memory());
            machine.launch(args);
        }
        core::RunResult res;
        try {
            res = machine.run();
        } catch (...) {
            if (snap != nullptr) {
                snap->last_cycle = machine.last_checkpoint_cycle();
                snap->last_path = machine.last_checkpoint_path();
            }
            throw;
        }
        if (snap != nullptr) {
            snap->last_cycle = machine.last_checkpoint_cycle();
            snap->last_path = machine.last_checkpoint_path();
        }

        if (res.telemetry.stalled) {
            why = "spurious telemetry stall diagnostic: watchdog fired at "
                  "cycle " +
                  std::to_string(res.telemetry.stall.cycle) +
                  " on a run that completed";
            return false;
        }
        if (std::string w; !gen.check(machine.memory(), &w)) {
            why = "machine diverged from host replica: " + w;
            return false;
        }
        for (std::uint32_t id = 0; id < gen.thread_count(); ++id) {
            const auto addr = gen.params().out_base + 4ull * id;
            const std::uint32_t m = machine.memory().read_u32(addr);
            const std::uint32_t i = interp.memory().read_u32(addr);
            if (m != i) {
                why = "machine/interpreter mismatch at thread " +
                      std::to_string(id) + ": machine " + std::to_string(m) +
                      ", interpreter " + std::to_string(i);
                return false;
            }
        }

        // Per-cycle reference differential: the same program with every
        // component ticked every cycle (use_wheel = false) must produce a
        // byte-identical run report and identical output memory.
        if (snap == nullptr) {
            core::MachineConfig ref_cfg = cfg;
            ref_cfg.use_wheel = false;
            core::Machine ref(ref_cfg, prog);
            Observed ref_seen;
            record_observers(ref, ref_seen);
            gen.init_memory(ref.memory());
            ref.launch(args);
            const core::RunResult rres = ref.run();
            const std::string a = stats::run_report_json(res, prog.name);
            const std::string b = stats::run_report_json(rres, prog.name);
            if (a != b) {
                why = "run report diverged from the per-cycle reference's";
                return false;
            }
            why = compare_observers(seen, ref_seen);
            if (!why.empty()) {
                return false;
            }
            for (std::uint32_t id = 0; id < gen.thread_count(); ++id) {
                const auto addr = gen.params().out_base + 4ull * id;
                const std::uint32_t mv = machine.memory().read_u32(addr);
                const std::uint32_t rv = ref.memory().read_u32(addr);
                if (mv != rv) {
                    why = "memory mismatch against the per-cycle reference "
                          "at thread " +
                          std::to_string(id) + ": " + std::to_string(mv) +
                          ", reference " + std::to_string(rv);
                    return false;
                }
            }
        }
        return true;
    } catch (const sim::SimError& e) {
        why = e.what();
        return false;
    } catch (const sim::CheckError& e) {
        why = std::string("internal check failed: ") + e.what();
        return false;
    }
}

/// Greedy minimisation: shrink the program, then simplify the machine one
/// axis at a time, keeping each step only while the failure reproduces.
FuzzConfig shrink(FuzzConfig c, std::uint64_t seed, std::string& why) {
    std::string w;
    // 1. Program size: halve the thread budget while it still fails.
    while (c.max_threads > 2) {
        FuzzConfig t = c;
        t.max_threads = c.max_threads / 2;
        if (!run_one(t, seed, false, w)) {
            c = t;
            why = w;
        } else {
            break;
        }
    }
    // 2. Machine axes, most-simplifying first.
    const auto try_keep = [&](FuzzConfig t) {
        if (!run_one(t, seed, false, w)) {
            c = t;
            why = w;
        }
    };
    {
        FuzzConfig t = c;
        t.nodes = 1;
        try_keep(t);
    }
    {
        FuzzConfig t = c;
        t.prefetch = false;
        try_keep(t);
    }
    {
        FuzzConfig t = c;
        t.vfp = false;
        try_keep(t);
    }
    {
        FuzzConfig t = c;
        t.inject_depth = 16;
        t.mfc_queue = 16;
        t.link_latency = 40;
        try_keep(t);
    }
    {
        FuzzConfig t = c;
        t.mem_latency = 10;
        try_keep(t);
    }
    return c;
}

void report_failure(const FuzzConfig& c, std::uint64_t seed,
                    const std::string& why, bool injected) {
    std::fprintf(stderr, "failure (seed %llu): %s\n",
                 static_cast<unsigned long long>(seed), why.c_str());
    std::fprintf(stderr, "replay: dta_fuzz --seed %llu --config \"%s\"%s\n",
                 static_cast<unsigned long long>(seed), encode(c).c_str(),
                 injected ? " --inject-failure" : "");
    if (!injected) {
        std::fprintf(stderr,
                     "bisect: dta_fuzz --seed %llu --config \"%s\" --bisect\n",
                     static_cast<unsigned long long>(seed), encode(c).c_str());
    }
}

/// Time-travel bisect of one failing (config, seed) cell: a coarse pass
/// writes snapshots every 64 Kcycles, then each refinement restores from
/// the newest pre-failure snapshot and quarters the interval, homing in on
/// a snapshot a few Kcycles before the failure.  Prints one copy-pasteable
/// --restore command.  Returns the process exit status.
int bisect(const FuzzConfig& c, std::uint64_t seed) {
    const std::string prefix = "dta_fuzz_s" + std::to_string(seed);
    sim::Cycle interval = 65536;
    SnapshotKnobs snap;
    snap.checkpoint_every = interval;
    snap.checkpoint_prefix = prefix;
    std::string why;
    if (run_one(c, seed, false, why, &snap)) {
        std::printf("bisect: seed %llu passes on \"%s\"; nothing to bisect\n",
                    static_cast<unsigned long long>(seed), encode(c).c_str());
        return 0;
    }
    std::fprintf(stderr, "failure (seed %llu): %s\n",
                 static_cast<unsigned long long>(seed), why.c_str());
    while (snap.last_cycle > 0 && interval > 4096) {
        interval /= 4;
        SnapshotKnobs finer;
        finer.restore = snap.last_path;
        finer.checkpoint_every = interval;
        finer.checkpoint_prefix = prefix;
        std::string w;
        if (run_one(c, seed, false, w, &finer)) {
            // The failure did not reproduce from the restore — it depends
            // on earlier history; keep the coarser snapshot.
            break;
        }
        why = w;
        if (finer.last_path.empty() || finer.last_path == snap.last_path) {
            break;  // no snapshot newer than the restore point
        }
        snap = finer;
    }
    if (snap.last_cycle == 0) {
        std::fprintf(stderr,
                     "bisect: failure is within the first %llu cycles (no "
                     "snapshot precedes it); replay from the start\n",
                     static_cast<unsigned long long>(snap.checkpoint_every));
        return 1;
    }
    std::fprintf(stderr,
                 "bisect: failure reproduces from %s (cycle %llu)\n",
                 snap.last_path.c_str(),
                 static_cast<unsigned long long>(snap.last_cycle));
    std::fprintf(
        stderr, "replay: dta_fuzz --seed %llu --config \"%s\" --restore=%s\n",
        static_cast<unsigned long long>(seed), encode(c).c_str(),
        snap.last_path.c_str());
    return 1;
}

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--seeds N] [--start-seed S] [--shapes a,b|all]\n"
                 "       [--seed S] [--config \"k=v,...\"] [--inject-failure]\n"
                 "       [--no-shrink] [--bisect] [--restore FILE] "
                 "[--list-shapes] [-v]\n",
                 argv0);
    std::exit(2);
}

struct Options {
    std::uint32_t seeds = 25;
    std::uint64_t start_seed = 1;
    std::vector<std::uint32_t> shapes;  ///< empty = all
    std::optional<std::uint64_t> one_seed;
    std::optional<FuzzConfig> config;
    bool inject_failure = false;
    bool no_shrink = false;
    bool bisect = false;
    std::string restore_path;
    bool list_shapes = false;
    bool verbose = false;
};

Options parse_options(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (a == "--seeds") {
            opt.seeds = cli::parse_uint<std::uint32_t>(argv[0], "--seeds",
                                                       next(), 1);
        } else if (a == "--start-seed") {
            opt.start_seed = cli::parse_u64(argv[0], "--start-seed", next());
        } else if (a == "--shapes") {
            const std::string list = next();
            if (list != "all") {
                std::size_t pos = 0;
                while (true) {
                    const std::size_t comma = list.find(',', pos);
                    const std::string tok =
                        list.substr(pos, comma == std::string::npos
                                             ? std::string::npos
                                             : comma - pos);
                    opt.shapes.push_back(cli::parse_uint<std::uint32_t>(
                        argv[0], "--shapes", tok.c_str()));
                    if (comma == std::string::npos) {
                        break;
                    }
                    pos = comma + 1;
                }
            }
        } else if (a == "--seed") {
            opt.one_seed = cli::parse_u64(argv[0], "--seed", next());
        } else if (a == "--config") {
            opt.config = decode(argv[0], next());
        } else if (a == "--inject-failure") {
            opt.inject_failure = true;
        } else if (a == "--no-shrink") {
            opt.no_shrink = true;
        } else if (a == "--bisect") {
            opt.bisect = true;
        } else if (a == "--restore") {
            opt.restore_path = next();
        } else if (a.rfind("--restore=", 0) == 0) {
            opt.restore_path = a.substr(std::strlen("--restore="));
        } else if (a == "--list-shapes") {
            opt.list_shapes = true;
        } else if (a == "-v") {
            opt.verbose = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(argv[0]);
        }
    }
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);
    const std::vector<FuzzConfig> shapes = shape_table();

    if (opt.list_shapes) {
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            std::printf("shape %zu: %s\n", i, encode(shapes[i]).c_str());
        }
        return 0;
    }

    // Replay mode: one seed against one explicit (or default) config.
    if (opt.one_seed.has_value() || opt.config.has_value()) {
        if (!opt.one_seed.has_value()) {
            std::fprintf(stderr, "--config needs --seed\n");
            usage(argv[0]);
        }
        const FuzzConfig c = opt.config.value_or(shapes[0]);
        if (opt.bisect) {
            return bisect(c, *opt.one_seed);
        }
        std::string why;
        if (!opt.restore_path.empty()) {
            SnapshotKnobs snap;
            snap.restore = opt.restore_path;
            if (run_one(c, *opt.one_seed, opt.inject_failure, why, &snap)) {
                std::printf("seed %llu ok on \"%s\" (restored from %s)\n",
                            static_cast<unsigned long long>(*opt.one_seed),
                            encode(c).c_str(), opt.restore_path.c_str());
                return 0;
            }
            report_failure(c, *opt.one_seed, why, opt.inject_failure);
            return 1;
        }
        if (run_one(c, *opt.one_seed, opt.inject_failure, why)) {
            std::printf("seed %llu ok on \"%s\"\n",
                        static_cast<unsigned long long>(*opt.one_seed),
                        encode(c).c_str());
            return 0;
        }
        report_failure(c, *opt.one_seed, why, opt.inject_failure);
        return 1;
    }

    std::vector<std::uint32_t> shape_ids = opt.shapes;
    if (shape_ids.empty()) {
        for (std::uint32_t i = 0; i < shapes.size(); ++i) {
            shape_ids.push_back(i);
        }
    }
    for (const std::uint32_t id : shape_ids) {
        if (id >= shapes.size()) {
            std::fprintf(stderr, "no shape %u (have %zu)\n", id,
                         shapes.size());
            return 2;
        }
    }

    std::uint64_t runs = 0;
    for (const std::uint32_t id : shape_ids) {
        const FuzzConfig& c = shapes[id];
        for (std::uint32_t k = 0; k < opt.seeds; ++k) {
            const std::uint64_t seed = opt.start_seed + k;
            std::string why;
            if (!run_one(c, seed, opt.inject_failure, why)) {
                FuzzConfig repro = c;
                if (!opt.no_shrink && !opt.inject_failure) {
                    repro = shrink(repro, seed, why);
                }
                report_failure(repro, seed, why, opt.inject_failure);
                return 1;
            }
            ++runs;
            if (opt.verbose) {
                std::printf("shape %u seed %llu ok\n", id,
                            static_cast<unsigned long long>(seed));
            }
        }
        std::printf("shape %u (%s): %u seeds ok\n", id, encode(c).c_str(),
                    opt.seeds);
    }
    std::printf("fuzz: %llu runs over %zu shapes, 0 failures\n",
                static_cast<unsigned long long>(runs), shape_ids.size());
    return 0;
}
