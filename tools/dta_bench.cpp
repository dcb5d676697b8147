/// \file dta_bench.cpp
/// \brief Unified in-process benchmark driver: runs the paper workloads
///        (original and prefetch variants) with warmup + repeated timed
///        runs, computes robust statistics (min / median / MAD), captures
///        the environment (git sha, compiler, build type, host threads),
///        and writes a schema-validated `dta-bench-v1` file that
///        tools/dta_benchdiff can compare against a stored baseline.
///
/// Usage:
///   dta_bench [--label L] [--out FILE] [--warmup N] [--repeats N]
///             [--filter SUBSTR] [--scale paper|ci]
///             [--scale-time X] [--list]
///             [--serve SOCKET]
///
/// `--serve SOCKET` runs the sweep against a dta_serve daemon instead of
/// in-process: each timed repeat is one run request over the Unix socket,
/// and host seconds measure the round trip (queue + simulate — or a cache
/// hit, docs/SERVING.md).  Against a warm cache the same sweep completes
/// orders of magnitude faster, byte-identical.  Warmup runs are skipped
/// (they would pre-populate the cache and hide the cold/warm contrast);
/// the interleave and rescale modes conflict with --serve.
///
/// Determinism is enforced, not assumed: every repeat of a case must
/// produce the same simulated cycle count, or the driver exits non-zero.
///
/// Two extra modes support the regression-gate smoke tests on noisy hosts:
///   * `--scale-time X` multiplies the recorded host seconds by X — a
///     deterministic slowdown injector.  Combined with `--from FILE` (which
///     rescales an existing bench file instead of running anything) the
///     injected delta is *exactly* X, so the CI proof that the gate fires
///     cannot be washed out by host jitter.
///   * `--split-out FILE2` interleaves the timed repeats between two output
///     files (A, B, A, B, ...), so slow host-speed drift hits both files
///     equally and a same-binary comparison stays clean even on a host
///     whose clock rate wanders between invocations.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cli_util.hpp"
#include "serve/protocol.hpp"
#include "stats/bench_file.hpp"
#include "stats/json_report.hpp"
#include "stats/json_value.hpp"
#include "workloads/bitcnt.hpp"
#include "workloads/harness.hpp"
#include "workloads/mmul.hpp"
#include "workloads/zoom.hpp"

namespace {

using namespace dta;

struct Options {
    std::string label = "local";
    std::string out;  // default: BENCH_<label>.json
    std::string split_out;  // second file for interleaved A/B sampling
    std::string from;       // rescale this file instead of running
    std::uint32_t warmup = 1;
    std::uint32_t repeats = 5;
    std::string filter;
    std::string scale = "ci";  // "ci" (reduced, fast) or "paper"
    double scale_time = 1.0;
    bool list = false;
    std::string serve_socket;  // run the sweep via a dta_serve daemon
};

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --label L        session label (default \"local\"; file is\n"
        "                   BENCH_<label>.json unless --out is given)\n"
        "  --out FILE       output path\n"
        "  --warmup N       untimed warmup runs per case (default 1)\n"
        "  --repeats N      timed runs per case (default 5)\n"
        "  --filter SUBSTR  only run cases whose name contains SUBSTR\n"
        "  --scale ci|paper workload sizes: reduced CI scale (default) or\n"
        "                   the paper's Section 4.2 sizes\n"
        "  --scale-time X   multiply recorded host seconds by X (>= 1);\n"
        "                   test hook proving the regression gate fires\n"
        "  --from FILE      do not run anything: rescale FILE's samples by\n"
        "                   --scale-time and write the result to --out\n"
        "  --split-out F2   run 2x repeats, interleaving samples between\n"
        "                   --out and F2 (drift-robust A/B comparison)\n"
        "  --serve SOCKET   submit cases to a dta_serve daemon at SOCKET\n"
        "                   instead of simulating in-process\n"
        "  --list           print case names and exit\n",
        argv0);
}

/// One registry entry: a name plus a closure running the workload once.
struct Case {
    std::string name;
    std::function<workloads::RunOutcome()> run;
};

template <typename W>
Case make_case(std::string name, typename W::Params p,
               core::MachineConfig cfg, bool prefetch) {
    return Case{std::move(name), [p, cfg, prefetch] {
                    const W wl(p);
                    return workloads::run_workload(wl, cfg, prefetch);
                }};
}

std::vector<Case> build_registry(const Options& opt) {
    const bool paper = opt.scale == "paper";
    const std::uint16_t spes = 8;

    const auto mp = workloads::MatMul::preset(paper, spes);
    const core::MachineConfig mc = workloads::MatMul::machine_config(spes);
    const auto zp = workloads::Zoom::preset(paper, spes);
    const core::MachineConfig zc = workloads::Zoom::machine_config(spes);
    const auto bp = workloads::BitCount::preset(paper);
    const core::MachineConfig bc = workloads::BitCount::machine_config(spes);

    const std::string tag = paper ? "paper" : "ci";
    std::vector<Case> reg;
    reg.push_back(make_case<workloads::MatMul>(tag + "/mmul/orig", mp, mc,
                                               false));
    reg.push_back(make_case<workloads::MatMul>(tag + "/mmul/pf", mp, mc,
                                               true));
    reg.push_back(make_case<workloads::Zoom>(tag + "/zoom/orig", zp, zc,
                                             false));
    reg.push_back(make_case<workloads::Zoom>(tag + "/zoom/pf", zp, zc,
                                             true));
    reg.push_back(make_case<workloads::BitCount>(tag + "/bitcnt/orig", bp,
                                                 bc, false));
    reg.push_back(make_case<workloads::BitCount>(tag + "/bitcnt/pf", bp, bc,
                                                 true));
    return reg;
}

/// First line of `git rev-parse HEAD`, or "unknown" outside a checkout.
std::string git_sha() {
    std::string sha = "unknown";
    FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r");
    if (p == nullptr) {
        return sha;
    }
    char buf[128];
    if (std::fgets(buf, sizeof buf, p) != nullptr) {
        std::string s(buf);
        while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
            s.pop_back();
        }
        if (!s.empty()) {
            sha = s;
        }
    }
    pclose(p);
    return sha;
}

stats::BenchEnv capture_env() {
    stats::BenchEnv env;
    env.git_sha = git_sha();
    env.compiler = __VERSION__;
#ifdef DTA_BUILD_TYPE
    env.build_type = DTA_BUILD_TYPE;
#else
    env.build_type = "unknown";
#endif
    env.host_threads = std::thread::hardware_concurrency();
    return env;
}

bool parse_args(int argc, char** argv, Options& opt) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", argv[0],
                             flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (a == "--label") {
            const char* v = next("--label");
            if (v == nullptr) return false;
            opt.label = v;
        } else if (a == "--out") {
            const char* v = next("--out");
            if (v == nullptr) return false;
            opt.out = v;
        } else if (a == "--warmup") {
            const char* v = next("--warmup");
            if (v == nullptr) return false;
            opt.warmup =
                cli::parse_uint<std::uint32_t>(argv[0], "--warmup", v);
        } else if (a == "--repeats") {
            const char* v = next("--repeats");
            if (v == nullptr) return false;
            opt.repeats =
                cli::parse_uint<std::uint32_t>(argv[0], "--repeats", v, 1);
        } else if (a == "--filter") {
            const char* v = next("--filter");
            if (v == nullptr) return false;
            opt.filter = v;
        } else if (a == "--scale") {
            const char* v = next("--scale");
            if (v == nullptr) return false;
            opt.scale = v;
            if (opt.scale != "ci" && opt.scale != "paper") {
                std::fprintf(stderr, "%s: --scale must be ci or paper\n",
                             argv[0]);
                return false;
            }
        } else if (a == "--scale-time") {
            const char* v = next("--scale-time");
            if (v == nullptr) return false;
            opt.scale_time =
                cli::parse_double(argv[0], "--scale-time", v, 1.0, 1e9);
        } else if (a == "--from") {
            const char* v = next("--from");
            if (v == nullptr) return false;
            opt.from = v;
        } else if (a == "--split-out") {
            const char* v = next("--split-out");
            if (v == nullptr) return false;
            opt.split_out = v;
        } else if (a == "--serve") {
            const char* v = next("--serve");
            if (v == nullptr) return false;
            opt.serve_socket = v;
        } else if (a == "--list") {
            opt.list = true;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return false;
        } else {
            std::fprintf(stderr, "%s: unknown option %s\n", argv[0],
                         a.c_str());
            usage(argv[0]);
            return false;
        }
    }
    if (opt.repeats == 0) {
        std::fprintf(stderr, "%s: --repeats must be >= 1\n", argv[0]);
        return false;
    }
    if (!opt.serve_socket.empty() &&
        (!opt.split_out.empty() || !opt.from.empty() ||
         opt.scale_time != 1.0)) {
        std::fprintf(stderr,
                     "%s: --serve conflicts with --split-out, --from and "
                     "--scale-time\n",
                     argv[0]);
        return false;
    }
    return true;
}

/// Validates \p file against its own parser and writes it to \p path.
bool validate_and_write(const char* argv0, const stats::BenchFile& file,
                        const std::string& path) {
    const std::string doc = stats::serialize_bench_file(file);
    // Belt and braces: the emitted document must satisfy our own parser
    // before anything downstream sees it.
    std::string err;
    stats::BenchFile reparsed;
    if (!stats::validate_json(doc) ||
        !stats::parse_bench_file(doc, reparsed, err)) {
        std::fprintf(stderr,
                     "%s: internal error: emitted file fails validation: "
                     "%s\n",
                     argv0, err.c_str());
        return false;
    }
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "%s: cannot open %s for writing\n", argv0,
                     path.c_str());
        return false;
    }
    out << doc;
    std::printf("wrote %s (%zu cases, label \"%s\", sha %s)\n", path.c_str(),
                file.cases.size(), file.label.c_str(),
                file.env.git_sha.c_str());
    return true;
}

/// `--serve` mode: one run request per timed repeat against a dta_serve
/// daemon; host seconds are the round trip.  The job specs mirror
/// build_registry exactly (same scale presets, spes = 8), so the daemon's
/// cache key matches what any other client of the same sweep computes.
int serve_mode(const char* argv0, const Options& opt) {
    struct ServeCase {
        std::string name;
        std::string payload;
    };
    std::vector<ServeCase> cases;
    for (const char* wl : {"mmul", "zoom", "bitcnt"}) {
        for (const bool pf : {false, true}) {
            ServeCase c;
            c.name = opt.scale + "/" + wl + (pf ? "/pf" : "/orig");
            if (!opt.filter.empty() &&
                c.name.find(opt.filter) == std::string::npos) {
                continue;
            }
            c.payload = "{\"op\":\"run\",\"jobs\":[{\"id\":\"" + c.name +
                        "\",\"workload\":\"" + wl + "\",\"scale\":\"" +
                        opt.scale + "\",\"prefetch\":" +
                        (pf ? "true" : "false") + "}]}";
            cases.push_back(std::move(c));
        }
    }
    if (cases.empty()) {
        std::fprintf(stderr, "%s: no cases matched --filter \"%s\"\n",
                     argv0, opt.filter.c_str());
        return 2;
    }

    stats::BenchFile file;
    file.label = opt.label;
    file.env = capture_env();
    for (const ServeCase& c : cases) {
        stats::BenchCase bc;
        bc.name = c.name;
        for (std::uint32_t r = 0; r < opt.repeats; ++r) {
            std::string err;
            const auto t0 = std::chrono::steady_clock::now();
            const int fd =
                serve::connect_unix(opt.serve_socket, 2000, err);
            if (fd < 0) {
                std::fprintf(stderr, "%s: %s\n", argv0, err.c_str());
                return 1;
            }
            std::string header;
            std::string meta;
            std::string report;
            const bool io_ok =
                serve::write_frame(fd, c.payload) &&
                serve::read_frame(fd, header) ==
                    serve::FrameStatus::kOk &&
                serve::read_frame(fd, meta) == serve::FrameStatus::kOk;
            std::uint64_t cycles = 0;
            bool job_ok = false;
            if (io_ok) {
                const stats::JsonParseResult m = stats::parse_json(meta);
                const stats::JsonValue* ok =
                    m.ok ? m.value.find("ok",
                                        stats::JsonValue::Kind::kBool)
                         : nullptr;
                job_ok = ok != nullptr && ok->as_bool();
                if (job_ok) {
                    job_ok = serve::read_frame(fd, report) ==
                             serve::FrameStatus::kOk;
                    const stats::JsonValue* cy = m.value.find(
                        "cycles", stats::JsonValue::Kind::kNumber);
                    cycles = cy != nullptr ? cy->as_u64() : 0;
                }
            }
            ::close(fd);
            const double dt = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
            if (!io_ok || !job_ok) {
                std::fprintf(stderr, "%s: %s failed via %s: %s\n", argv0,
                             c.name.c_str(), opt.serve_socket.c_str(),
                             meta.empty() ? "no reply" : meta.c_str());
                return 1;
            }
            if (bc.cycles != 0 && cycles != bc.cycles) {
                std::fprintf(
                    stderr,
                    "%s: %s is non-deterministic via serve: %llu vs "
                    "%llu cycles\n",
                    argv0, c.name.c_str(),
                    static_cast<unsigned long long>(cycles),
                    static_cast<unsigned long long>(bc.cycles));
                return 1;
            }
            bc.cycles = cycles;
            bc.host_seconds.push_back(dt);
        }
        std::printf("%-20s %10llu cycles  min %.4f s  median %.4f s  "
                    "mad %.5f s  (%u repeats, via serve)\n",
                    bc.name.c_str(),
                    static_cast<unsigned long long>(bc.cycles), bc.min_s(),
                    bc.median_s(), bc.mad_s(), opt.repeats);
        file.cases.push_back(std::move(bc));
    }
    const std::string path =
        opt.out.empty() ? "BENCH_" + opt.label + ".json" : opt.out;
    return validate_and_write(argv0, file, path) ? 0 : 1;
}

/// `--from` mode: rescale an existing file's samples, run nothing.
int rescale_mode(const char* argv0, const Options& opt) {
    std::ifstream in(opt.from);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open %s\n", argv0,
                     opt.from.c_str());
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    stats::BenchFile file;
    std::string err;
    if (!stats::parse_bench_file(buf.str(), file, err)) {
        std::fprintf(stderr, "%s: %s: %s\n", argv0, opt.from.c_str(),
                     err.c_str());
        return 2;
    }
    for (stats::BenchCase& c : file.cases) {
        for (double& s : c.host_seconds) {
            s *= opt.scale_time;
        }
    }
    file.label = opt.label;
    const std::string path =
        opt.out.empty() ? "BENCH_" + opt.label + ".json" : opt.out;
    return validate_and_write(argv0, file, path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    if (!parse_args(argc, argv, opt)) {
        return 2;
    }
    if (!opt.from.empty()) {
        return rescale_mode(argv[0], opt);
    }
    const std::vector<Case> registry = build_registry(opt);
    if (opt.list) {
        for (const Case& c : registry) {
            std::printf("%s\n", c.name.c_str());
        }
        return 0;
    }
    if (!opt.serve_socket.empty()) {
        return serve_mode(argv[0], opt);
    }

    stats::BenchFile file;
    file.label = opt.label;
    file.env = capture_env();
    // --split-out: a second file whose samples interleave with the first's.
    const bool split = !opt.split_out.empty();
    stats::BenchFile file_b = file;
    file_b.label = opt.label + "-b";

    for (const Case& c : registry) {
        if (!opt.filter.empty() &&
            c.name.find(opt.filter) == std::string::npos) {
            continue;
        }
        stats::BenchCase bc;
        bc.name = c.name;
        stats::BenchCase bc_b = bc;
        for (std::uint32_t w = 0; w < opt.warmup; ++w) {
            bc.cycles = c.run().result.cycles;
        }
        const std::uint32_t timed = opt.repeats * (split ? 2 : 1);
        for (std::uint32_t r = 0; r < timed; ++r) {
            const workloads::RunOutcome out = c.run();
            if (!out.correct) {
                std::fprintf(stderr,
                             "%s: %s produced an incorrect result: %s\n",
                             argv[0], c.name.c_str(), out.detail.c_str());
                return 1;
            }
            if (bc.cycles != 0 && out.result.cycles != bc.cycles) {
                std::fprintf(
                    stderr,
                    "%s: %s is non-deterministic: %llu vs %llu cycles\n",
                    argv[0], c.name.c_str(),
                    static_cast<unsigned long long>(out.result.cycles),
                    static_cast<unsigned long long>(bc.cycles));
                return 1;
            }
            bc.cycles = out.result.cycles;
            bc_b.cycles = out.result.cycles;
            // Scheduler trend counters (deterministic per case, so any
            // repeat's values are the values).
            bc.wheel_pops = out.result.wheel.pops;
            bc.wheel_inserts = out.result.wheel.inserts;
            bc.wheel_dense_cycles = out.result.wheel.dense_cycles;
            const double s = out.host_seconds * opt.scale_time;
            if (split && (r % 2) == 1) {
                bc_b.host_seconds.push_back(s);
            } else {
                bc.host_seconds.push_back(s);
            }
        }
        std::printf("%-20s %10llu cycles  min %.4f s  median %.4f s  "
                    "mad %.5f s  (%u repeats)\n",
                    bc.name.c_str(),
                    static_cast<unsigned long long>(bc.cycles), bc.min_s(),
                    bc.median_s(), bc.mad_s(), opt.repeats);
        if (split) {
            file_b.cases.push_back(std::move(bc_b));
        }
        file.cases.push_back(std::move(bc));
    }
    if (file.cases.empty()) {
        std::fprintf(stderr, "%s: no cases matched --filter \"%s\"\n",
                     argv[0], opt.filter.c_str());
        return 2;
    }

    const std::string path =
        opt.out.empty() ? "BENCH_" + opt.label + ".json" : opt.out;
    if (!validate_and_write(argv[0], file, path)) {
        return 1;
    }
    if (split && !validate_and_write(argv[0], file_b, opt.split_out)) {
        return 1;
    }
    return 0;
}
