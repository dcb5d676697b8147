/// \file dta_run.cpp
/// \brief Command-line runner: execute a textual DTA assembly program on
///        the cycle-level machine (or the reference interpreter) and print
///        statistics.  The downstream user's entry point for experimenting
///        with their own DTA programs.
///
/// Usage:
///   dta_run <program.dta> [options]
///     --spes N          SPEs (default 8)
///     --nodes N         nodes (default 1)
///     --mem-latency N   main-memory latency in cycles (default 150)
///     --frames N        frame slots per PE (default 16)
///     --staging N       DMA staging bytes per frame (default 8192)
///     --vfp             enable virtual frame pointers
///     --perfect-cache   Section 4.3 variant: 1-cycle memory system
///     --audit[=N]       machine-wide invariant audits every N cycles
///                       (default cadence: every cycle in debug builds,
///                       every 64th in release; see docs/CORRECTNESS.md)
///     --arg V           append a 64-bit entry argument (repeatable)
///     --max-cycles N    runaway guard (default 2e9); also the horizon the
///                       --progress ETA counts down to
///     --interp          run the functional interpreter instead
///     --profile         print the per-thread-code profile
///     --prof            host-time profiler: print the sorted self-time
///                       table (per component/phase) after the run;
///                       adds a host_profile section to --metrics and host
///                       counter tracks to --trace.  Simulated results are
///                       byte-identical with or without it.
///     --breakdown       print the SPU cycle breakdown
///     --trace FILE      write a Chrome-trace JSON timeline to FILE
///                       (includes counter tracks and DMA slices; with
///                       --events also dataflow arrows between slices)
///     --metrics FILE    write a JSON run report (histograms, gauges) to FILE
///     --events FILE     write the thread-lifecycle event log (DTAEV1) to
///                       FILE; feed it to dta_analyze
///     --progress[=N]    heartbeat to stderr every N simulated cycles
///                       (default 1000000, rounded to a multiple of the
///                       telemetry cadence when --telemetry is on): cycle,
///                       live threads, simulated Mcycles/s with the host
///                       tick rate and fast-forward share, the telemetry
///                       retire rate and busiest component, and (with
///                       --max-cycles) an ETA bound
///     --telemetry[=N]   live telemetry: sample a machine-wide frame every
///                       N cycles (default 8192) into a bounded ring; adds
///                       a telemetry section to --metrics, counter tracks
///                       to --trace, and arms the progress/stall watchdog
///                       (see docs/OBSERVABILITY.md).  Simulated results
///                       are byte-identical with or without it.
///     --telemetry-fifo PATH  also stream each frame as one NDJSON line to
///                       PATH (a FIFO or file); `dta_top PATH` renders it
///                       live.  Implies --telemetry.
///     --log-level L     stderr simulator log: info, debug or trace
///     --disasm          print the disassembly and exit
///     --dump ADDR N     after the run, print N 32-bit words at ADDR
///     --checkpoint-every N   write a snapshot at every multiple of N
///                       cycles (to PREFIX.c<cycle>.dtasnap; see
///                       docs/CHECKPOINT.md)
///     --checkpoint-prefix P  snapshot path prefix (default: the program
///                       path)
///     --restore FILE    resume from a snapshot instead of launching; the
///                       machine shape flags must match the snapshot's
///                       config fingerprint, observer flags (--audit,
///                       --prof, --log-level, ...) are free — time-travel
///                       debugging
///     --stop-at M       end the run at exactly cycle M with the machine
///                       state as of that cut (partial statistics; no
///                       quiescence audit)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "core/interpreter.hpp"
#include "core/machine.hpp"
#include "core/trace.hpp"
#include "isa/asmtext.hpp"
#include "isa/disasm.hpp"
#include "sim/check.hpp"
#include "sim/events.hpp"
#include "sim/log.hpp"
#include "stats/critpath.hpp"
#include "stats/json_report.hpp"
#include "stats/report.hpp"

using namespace dta;

namespace {

struct Options {
    std::string program_path;
    std::uint16_t spes = 8;
    std::uint16_t nodes = 1;
    std::uint32_t mem_latency = 150;
    bool mem_latency_set = false;
    std::uint32_t frames = 16;
    std::uint32_t staging = 8192;
    bool vfp = false;
    bool perfect_cache = false;
    bool audit = false;
    sim::Cycle audit_interval = 0;  ///< 0 = auto cadence
    bool interp = false;
    bool profile = false;
    bool prof = false;
    bool breakdown = false;
    bool disasm = false;
    sim::Cycle max_cycles = 0;  ///< 0 = config default
    std::string trace_path;
    std::string metrics_path;
    std::string events_path;
    sim::Cycle progress_interval = 0;  ///< 0 = no heartbeat
    bool progress_default = false;     ///< interval came from the default
    sim::Cycle telemetry_interval = 0;  ///< 0 = telemetry off
    std::string telemetry_fifo;         ///< empty = no NDJSON stream
    sim::LogLevel log_level = sim::LogLevel::kOff;
    std::vector<std::uint64_t> args;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> dumps;
    sim::Cycle checkpoint_every = 0;  ///< 0 = periodic snapshots off
    std::string checkpoint_prefix;    ///< empty = program path
    std::string restore_path;         ///< empty = fresh launch
    sim::Cycle stop_at = 0;           ///< 0 = run to quiescence
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <program.dta> [--spes N] [--nodes N] "
                 "[--mem-latency N]\n"
                 "       [--frames N] [--staging N] [--vfp] "
                 "[--perfect-cache] [--audit[=N]]\n"
                 "       [--arg V]... [--max-cycles N] [--interp]\n"
                 "       [--profile] [--prof] [--breakdown] [--trace FILE] "
                 "[--metrics FILE]\n"
                 "       [--events FILE] [--progress[=N]] [--telemetry[=N]] "
                 "[--telemetry-fifo PATH]\n"
                 "       [--log-level info|debug|trace] [--disasm] "
                 "[--dump ADDR N]...\n"
                 "       [--checkpoint-every N] [--checkpoint-prefix P] "
                 "[--restore FILE] [--stop-at M]\n",
                 argv0);
    std::exit(2);
}

Options parse_options(int argc, char** argv) {
    Options opt;
    bool have_path = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
        } else if (a == "--spes") {
            opt.spes = cli::parse_uint<std::uint16_t>(argv[0], "--spes",
                                                      next(), 1);
        } else if (a == "--nodes") {
            opt.nodes = cli::parse_uint<std::uint16_t>(argv[0], "--nodes",
                                                       next(), 1);
        } else if (a == "--mem-latency") {
            opt.mem_latency = cli::parse_uint<std::uint32_t>(
                argv[0], "--mem-latency", next());
            opt.mem_latency_set = true;
        } else if (a == "--frames") {
            // lo stays 0: an impossible frame count must still reach the
            // Machine so its SimError diagnostic path is exercised.
            opt.frames = cli::parse_uint<std::uint32_t>(argv[0], "--frames",
                                                        next());
        } else if (a == "--staging") {
            opt.staging = cli::parse_uint<std::uint32_t>(argv[0], "--staging",
                                                         next());
        } else if (a == "--vfp") {
            opt.vfp = true;
        } else if (a == "--perfect-cache") {
            opt.perfect_cache = true;
        } else if (a == "--audit") {
            opt.audit = true;
        } else if (a.rfind("--audit=", 0) == 0) {
            opt.audit = true;
            opt.audit_interval = cli::parse_u64(
                argv[0], "--audit", a.c_str() + std::strlen("--audit="), 1);
        } else if (a == "--interp") {
            opt.interp = true;
        } else if (a == "--profile") {
            opt.profile = true;
        } else if (a == "--prof") {
            opt.prof = true;
        } else if (a == "--max-cycles") {
            opt.max_cycles = cli::parse_u64(argv[0], "--max-cycles", next(),
                                            1);
        } else if (a == "--breakdown") {
            opt.breakdown = true;
        } else if (a == "--disasm") {
            opt.disasm = true;
        } else if (a == "--trace") {
            opt.trace_path = next();
        } else if (a == "--metrics") {
            opt.metrics_path = next();
        } else if (a == "--events") {
            opt.events_path = next();
        } else if (a == "--progress") {
            opt.progress_interval = 1000000;
            opt.progress_default = true;
        } else if (a == "--telemetry") {
            opt.telemetry_interval = sim::TelemetryConfig{}.interval;
        } else if (a.rfind("--telemetry=", 0) == 0) {
            opt.telemetry_interval = cli::parse_u64(
                argv[0], "--telemetry",
                a.c_str() + std::strlen("--telemetry="), 1);
        } else if (a == "--telemetry-fifo") {
            opt.telemetry_fifo = next();
        } else if (a.rfind("--telemetry-fifo=", 0) == 0) {
            opt.telemetry_fifo = a.substr(std::strlen("--telemetry-fifo="));
        } else if (a.rfind("--progress=", 0) == 0) {
            opt.progress_interval = cli::parse_u64(
                argv[0], "--progress",
                a.c_str() + std::strlen("--progress="), 1);
        } else if (a == "--log-level") {
            const std::string lvl = next();
            if (lvl == "info") {
                opt.log_level = sim::LogLevel::kInfo;
            } else if (lvl == "debug") {
                opt.log_level = sim::LogLevel::kDebug;
            } else if (lvl == "trace") {
                opt.log_level = sim::LogLevel::kTrace;
            } else {
                std::fprintf(stderr, "unknown log level '%s'\n", lvl.c_str());
                usage(argv[0]);
            }
        } else if (a == "--checkpoint-every") {
            opt.checkpoint_every =
                cli::parse_u64(argv[0], "--checkpoint-every", next(), 1);
        } else if (a.rfind("--checkpoint-every=", 0) == 0) {
            opt.checkpoint_every = cli::parse_u64(
                argv[0], "--checkpoint-every",
                a.c_str() + std::strlen("--checkpoint-every="), 1);
        } else if (a == "--checkpoint-prefix") {
            opt.checkpoint_prefix = next();
        } else if (a == "--restore") {
            opt.restore_path = next();
        } else if (a.rfind("--restore=", 0) == 0) {
            opt.restore_path = a.substr(std::strlen("--restore="));
        } else if (a == "--stop-at") {
            opt.stop_at = cli::parse_u64(argv[0], "--stop-at", next(), 1);
        } else if (a.rfind("--stop-at=", 0) == 0) {
            opt.stop_at =
                cli::parse_u64(argv[0], "--stop-at",
                               a.c_str() + std::strlen("--stop-at="), 1);
        } else if (a == "--arg") {
            opt.args.push_back(cli::parse_u64(argv[0], "--arg", next()));
        } else if (a == "--dump") {
            const std::uint64_t addr =
                cli::parse_u64(argv[0], "--dump ADDR", next());
            const auto words = cli::parse_uint<std::uint32_t>(
                argv[0], "--dump N", next(), 1);
            opt.dumps.emplace_back(addr, words);
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(argv[0]);
        } else if (!have_path) {
            opt.program_path = a;
            have_path = true;
        } else {
            cli::extra_argument(argv[0], a, opt.program_path);
        }
    }
    if (!have_path) {
        usage(argv[0]);
    }
    return opt;
}

void dump_words(const mem::MainMemory& memory,
                const std::vector<std::pair<std::uint64_t, std::uint32_t>>&
                    dumps) {
    for (const auto& [addr, words] : dumps) {
        std::printf("memory @0x%llx:",
                    static_cast<unsigned long long>(addr));
        for (std::uint32_t w = 0; w < words; ++w) {
            std::printf(" %u", memory.read_u32(addr + 4ull * w));
        }
        std::puts("");
    }
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);

    std::ifstream file(opt.program_path);
    if (!file) {
        std::fprintf(stderr, "cannot open '%s'\n", opt.program_path.c_str());
        return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();

    try {
        const isa::Program prog = isa::parse_program(buffer.str());
        if (opt.disasm) {
            std::fputs(isa::disassemble(prog).c_str(), stdout);
            return 0;
        }

        if (opt.interp) {
            core::Interpreter interp(prog);
            interp.launch(opt.args);
            const auto stats = interp.run();
            std::printf(
                "interpreter: %llu instructions, %llu threads, %llu DMA "
                "commands, %llu frame stores\n",
                static_cast<unsigned long long>(stats.instructions),
                static_cast<unsigned long long>(stats.threads),
                static_cast<unsigned long long>(stats.dma_commands),
                static_cast<unsigned long long>(stats.frame_stores));
            dump_words(interp.memory(), opt.dumps);
            return 0;
        }

        auto cfg = opt.perfect_cache
                       ? core::MachineConfig::perfect_cache(opt.spes)
                       : core::MachineConfig::cell_dta(opt.spes);
        cfg.nodes = opt.nodes;
        if (opt.mem_latency_set || !opt.perfect_cache) {
            cfg.memory.latency = opt.mem_latency;
        }
        cfg.lse = sched::LseConfig::with(opt.frames, opt.staging);
        cfg.lse.virtual_frames = opt.vfp;
        cfg.capture_spans = !opt.trace_path.empty();
        cfg.collect_metrics =
            !opt.metrics_path.empty() || !opt.trace_path.empty();
        cfg.collect_events = !opt.events_path.empty();
        cfg.audit.enabled = opt.audit;
        cfg.audit.interval = opt.audit_interval;
        cfg.profile = opt.prof;
        if (opt.telemetry_interval > 0 || !opt.telemetry_fifo.empty()) {
            cfg.telemetry.enabled = true;
            if (opt.telemetry_interval > 0) {
                cfg.telemetry.interval = opt.telemetry_interval;
            }
            cfg.telemetry.stream_path = opt.telemetry_fifo;
        }
        if (opt.max_cycles > 0) {
            cfg.max_cycles = opt.max_cycles;
        }

        core::Machine machine(cfg, prog);
        if (cfg.telemetry.enabled) {
            // The watchdog's replay hint reproduces this invocation minus
            // any --restore (the diagnostic appends its own).
            std::string hint;
            for (int i = 0; i < argc; ++i) {
                const std::string a = argv[i];
                if (a == "--restore") {
                    ++i;
                    continue;
                }
                if (a.rfind("--restore=", 0) == 0) {
                    continue;
                }
                hint += (hint.empty() ? "" : " ") + a;
            }
            machine.set_replay_hint(hint);
        }
        sim::Cycle progress_interval = opt.progress_interval;
        if (opt.progress_default && cfg.telemetry.enabled) {
            // Round the default heartbeat up to a multiple of the telemetry
            // cadence so every heartbeat lands just after a fresh frame.
            const sim::Cycle step = cfg.telemetry.interval;
            progress_interval =
                ((progress_interval + step - 1) / step) * step;
        }
        if (progress_interval > 0) {
            // Rates come from deltas between heartbeats (the cumulative
            // average would smear startup over the whole run); the ticked /
            // fast-forwarded split separates honest host throughput from
            // cycles the horizon scan skipped wholesale.  The ETA counts
            // down to max_cycles — an upper bound, so it is only printed
            // when the user set one explicitly.
            struct ProgressState {
                std::chrono::steady_clock::time_point last;
                sim::Cycle last_cycle = 0;
                sim::Cycle last_ticked = 0;
                std::uint64_t last_retired = 0;
                sim::Cycle last_sample = 0;
            };
            auto st = std::make_shared<ProgressState>();
            st->last = std::chrono::steady_clock::now();
            const sim::Cycle eta_horizon = opt.max_cycles;
            const bool telem = cfg.telemetry.enabled;
            machine.set_progress(
                progress_interval,
                [st, eta_horizon, telem](const core::Machine::Progress& p) {
                    const auto now = std::chrono::steady_clock::now();
                    const double dt =
                        std::chrono::duration<double>(now - st->last).count();
                    const double cyc_rate =
                        dt > 0.0 ? static_cast<double>(p.cycle -
                                                       st->last_cycle) /
                                       dt
                                 : 0.0;
                    const double tick_rate =
                        dt > 0.0 ? static_cast<double>(p.ticked -
                                                       st->last_ticked) /
                                       dt
                                 : 0.0;
                    st->last = now;
                    st->last_cycle = p.cycle;
                    st->last_ticked = p.ticked;
                    const double ff_share =
                        p.ticked + p.skipped > 0
                            ? 100.0 * static_cast<double>(p.skipped) /
                                  static_cast<double>(p.ticked + p.skipped)
                            : 0.0;
                    std::string eta;
                    if (eta_horizon > p.cycle && cyc_rate > 0.0) {
                        char buf[48];
                        std::snprintf(
                            buf, sizeof buf, ", eta <= %.0f s",
                            static_cast<double>(eta_horizon - p.cycle) /
                                cyc_rate);
                        eta = buf;
                    }
                    // Telemetry summary: instruction retire rate between
                    // heartbeats (per simulated cycle, from the latest
                    // frame's cumulative count) and the busiest component.
                    std::string telem_note;
                    if (telem && p.sample_cycle > st->last_sample) {
                        const double retire =
                            static_cast<double>(p.instrs_retired -
                                                st->last_retired) /
                            static_cast<double>(p.sample_cycle -
                                                st->last_sample);
                        st->last_retired = p.instrs_retired;
                        st->last_sample = p.sample_cycle;
                        char buf[96];
                        std::snprintf(buf, sizeof buf,
                                      ", %.3f instrs/cycle%s%s", retire,
                                      p.busiest.empty() ? "" : ", busiest ",
                                      p.busiest.c_str());
                        telem_note = buf;
                    }
                    std::fprintf(
                        stderr,
                        "progress: cycle %llu, %llu live threads, "
                        "%.2f Mcycles/s (%.2f Mticks/s host, %.0f%% "
                        "fast-forwarded)%s%s\n",
                        static_cast<unsigned long long>(p.cycle),
                        static_cast<unsigned long long>(p.live_threads),
                        cyc_rate / 1e6, tick_rate / 1e6, ff_share,
                        telem_note.c_str(), eta.c_str());
                });
        }
        if (opt.log_level != sim::LogLevel::kOff) {
            machine.set_log_sink(opt.log_level, [](std::string_view line) {
                std::fprintf(stderr, "%.*s\n",
                             static_cast<int>(line.size()), line.data());
            });
        }
        if (opt.checkpoint_every > 0) {
            machine.set_checkpoints(opt.checkpoint_every,
                                    opt.checkpoint_prefix.empty()
                                        ? opt.program_path
                                        : opt.checkpoint_prefix);
        }
        if (opt.stop_at > 0) {
            machine.set_stop_at(opt.stop_at);
        }
        if (!opt.restore_path.empty()) {
            machine.restore(opt.restore_path);
            std::printf("restored %s at cycle %llu\n",
                        opt.restore_path.c_str(),
                        static_cast<unsigned long long>(
                            machine.start_cycle()));
        } else {
            machine.launch(opt.args);
        }
        const auto t0 = std::chrono::steady_clock::now();
        const core::RunResult res = machine.run();
        const auto t1 = std::chrono::steady_clock::now();
        const double host_s =
            std::chrono::duration<double>(t1 - t0).count();

        std::printf("%llu cycles on %u SPE(s) x %u node(s); "
                    "%llu instructions, usage %s\n",
                    static_cast<unsigned long long>(res.cycles), opt.spes,
                    opt.nodes,
                    static_cast<unsigned long long>(res.total_instrs().total()),
                    stats::pct(res.pipeline_usage()).c_str());
        std::printf("host: %.3f s wall clock, %.2f Mcycles/s "
                    "(%llu cycles fast-forwarded)\n",
                    host_s,
                    host_s > 0.0
                        ? static_cast<double>(res.cycles) / host_s / 1e6
                        : 0.0,
                    static_cast<unsigned long long>(
                        machine.cycles_fast_forwarded()));
        if (!machine.last_checkpoint_path().empty()) {
            std::printf("last checkpoint: %s (cycle %llu)\n",
                        machine.last_checkpoint_path().c_str(),
                        static_cast<unsigned long long>(
                            machine.last_checkpoint_cycle()));
        }
        if (res.wheel.enabled) {
            std::printf(
                "host: wheel %.2f pops/cycle, %llu inserts, %llu wakes, "
                "peak %llu armed\n",
                res.wheel.pops_per_cycle(res.cycles),
                static_cast<unsigned long long>(res.wheel.inserts),
                static_cast<unsigned long long>(res.wheel.wakes),
                static_cast<unsigned long long>(res.wheel.peak_occupancy));
        }
        if (res.telemetry.enabled) {
            std::printf(
                "telemetry: %llu frames captured (interval %llu, "
                "%llu dropped)%s\n",
                static_cast<unsigned long long>(res.telemetry.captured),
                static_cast<unsigned long long>(res.telemetry.interval),
                static_cast<unsigned long long>(res.telemetry.dropped),
                res.telemetry.stalled ? "; WATCHDOG STALL — see stderr"
                                      : "");
        }
        if (opt.breakdown) {
            std::fputs(
                stats::breakdown_table({{prog.name, res.total_breakdown()}})
                    .c_str(),
                stdout);
        }
        if (opt.profile) {
            std::fputs(stats::profile_table(res.profile).c_str(), stdout);
        }
        if (opt.prof) {
            std::printf("host profile (self time, top 30):\n%s",
                        res.host_profile.table().c_str());
        }
        std::vector<core::TraceFlow> flows;
        if (!opt.events_path.empty()) {
            std::ofstream out(opt.events_path);
            if (!out) {
                std::fprintf(stderr, "cannot write '%s'\n",
                             opt.events_path.c_str());
                return 1;
            }
            sim::write_events(out, res.events, res.cycles,
                              cfg.total_pes(), res.code_names);
            std::printf("wrote %zu events to %s\n", res.events.size(),
                        opt.events_path.c_str());
            if (!opt.trace_path.empty()) {
                // Reuse the in-memory log to draw dataflow arrows between
                // the trace's SPU slices.
                sim::EventFile file;
                file.cycles = res.cycles;
                file.pes = cfg.total_pes();
                file.code_names = res.code_names;
                file.events = res.events.flatten();
                flows = stats::analyze(file).flows;
            }
        }
        if (!opt.trace_path.empty()) {
            std::ofstream out(opt.trace_path);
            if (!out) {
                std::fprintf(stderr, "cannot write '%s'\n",
                             opt.trace_path.c_str());
                return 1;
            }
            out << core::chrome_trace_json(res.spans, res.code_names,
                                           res.metrics, res.dma_spans, flows,
                                           res.host_profile, res.wheel,
                                           res.telemetry);
            std::printf("wrote %zu spans, %zu counter tracks, %zu DMA "
                        "slices, %zu flows to %s\n",
                        res.spans.size(), res.metrics.gauges().size(),
                        res.dma_spans.size(), flows.size(),
                        opt.trace_path.c_str());
        }
        if (!opt.metrics_path.empty()) {
            std::ofstream out(opt.metrics_path);
            if (!out) {
                std::fprintf(stderr, "cannot write '%s'\n",
                             opt.metrics_path.c_str());
                return 1;
            }
            out << stats::run_report_json(res, prog.name,
                                          /*include_host=*/true);
            std::size_t live = 0;
            for (const auto& [name, h] : res.metrics.histograms()) {
                live += h.count() > 0 ? 1 : 0;
            }
            std::printf("wrote run report (%zu histograms with samples) "
                        "to %s\n",
                        live, opt.metrics_path.c_str());
        }
        dump_words(machine.memory(), opt.dumps);
        return 0;
    } catch (const sim::SimError& e) {
        // Invalid programs, impossible machine shapes, deadlocks and audit
        // violations all land here: one clean line, no abort.
        std::fprintf(stderr, "error: %s\n", e.what());
        std::fprintf(stderr,
                     "hint: run '%s' without arguments for usage\n", argv[0]);
        return 1;
    } catch (const sim::CheckError& e) {
        std::fprintf(stderr, "internal error (please report): %s\n",
                     e.what());
        return 1;
    }
}
