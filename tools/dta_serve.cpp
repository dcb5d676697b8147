/// \file dta_serve.cpp
/// \brief Sweep-as-a-service daemon: accepts batches of simulation jobs
///        over a Unix-domain socket (length-prefixed JSON frames, see
///        docs/SERVING.md), runs them on a bounded worker pool, and
///        memoizes results in an on-disk content-addressed cache keyed by
///        the structural config fingerprint — a repeated sweep is served
///        from disk, byte-identical, without re-simulating.
///
/// Usage:
///   dta_serve --socket PATH [options]
///     --workers N        simulation worker threads (default 2); each job
///                        runs on one of them, so this is the host
///                        parallelism
///     --queue N          pending-job bound; a full queue answers
///                        {"busy":true} instead of blocking (default 64)
///     --cache-dir D      result cache directory (default: no cache)
///     --cache-max-bytes N  LRU eviction budget (default 0 = unbounded)
///     --verify-hits N    re-run every Nth cache hit and byte-compare
///                        against the stored report (default 0 = never)
///     --metrics-out FILE write the final stats JSON on shutdown
///
/// Stop it with `dta_client --socket PATH shutdown` (or SIGINT/SIGTERM).
/// Exit status: 0 on clean shutdown, 1 on a startup error, 2 bad usage.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "cli_util.hpp"
#include "serve/server.hpp"
#include "sim/check.hpp"

namespace {

dta::serve::Server* g_server = nullptr;

void on_signal(int) {
    if (g_server != nullptr) {
        g_server->stop();
    }
}

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--workers N] [--queue N]\n"
                 "       [--cache-dir D] [--cache-max-bytes N] "
                 "[--verify-hits N]\n"
                 "       [--metrics-out FILE]\n",
                 argv0);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    using dta::cli::parse_u64;
    using dta::cli::parse_uint;

    std::string socket_path;
    std::string metrics_out;
    dta::serve::EngineConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (a == "--socket") {
            socket_path = next();
        } else if (a == "--workers") {
            cfg.workers = parse_uint<std::uint32_t>(argv[0], "--workers",
                                                    next(), 1, 1024);
        } else if (a == "--queue") {
            cfg.queue_capacity =
                parse_uint<std::uint32_t>(argv[0], "--queue", next());
        } else if (a == "--cache-dir") {
            cfg.cache_dir = next();
        } else if (a == "--cache-max-bytes") {
            cfg.cache_max_bytes =
                parse_u64(argv[0], "--cache-max-bytes", next(), 1);
        } else if (a == "--verify-hits") {
            cfg.verify_hits =
                parse_uint<std::uint32_t>(argv[0], "--verify-hits", next());
        } else if (a == "--metrics-out") {
            metrics_out = next();
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(argv[0]);
        }
    }
    if (socket_path.empty()) {
        std::fprintf(stderr, "%s: --socket is required\n", argv[0]);
        usage(argv[0]);
    }

    try {
        dta::serve::Server server(socket_path, cfg);
        g_server = &server;
        std::signal(SIGINT, on_signal);
        std::signal(SIGTERM, on_signal);
        std::printf("dta_serve: listening on %s (%u workers%s%s)\n",
                    socket_path.c_str(), cfg.workers,
                    cfg.cache_dir.empty() ? "" : ", cache ",
                    cfg.cache_dir.c_str());
        std::fflush(stdout);
        server.serve_forever();
        const std::string stats = server.engine().stats_json();
        g_server = nullptr;
        if (!metrics_out.empty()) {
            std::ofstream out(metrics_out);
            if (!out) {
                std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0],
                             metrics_out.c_str());
                return 1;
            }
            out << stats << "\n";
        }
        std::printf("dta_serve: shut down\n");
        return 0;
    } catch (const dta::sim::SimError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
