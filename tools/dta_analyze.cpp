/// \file dta_analyze.cpp
/// \brief Offline analyzer for thread-lifecycle event logs (DTAEV1, written
///        by `dta_run --events FILE`): reconstructs the dynamic dataflow
///        graph, walks the critical path, and attributes every cycle of the
///        run to compute / DMA wait / frame wait / scheduler wait / NoC
///        transit / idle.
///
/// Usage:
///   dta_analyze <events.dtaev> [options]
///     --json FILE       write the critical-path JSON report to FILE
///                       ("-" for stdout)
///     --benchmark NAME  label the JSON report with a workload name
///     --top K           list the K longest critical-path steps (default 10)
///     --quiet           suppress the human-readable summary on stdout

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "cli_util.hpp"
#include "sim/check.hpp"
#include "stats/critpath.hpp"

using namespace dta;

namespace {

struct Options {
    std::string events_path;
    std::string json_path;
    std::string benchmark;
    std::size_t top_k = 10;
    bool quiet = false;
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <events.dtaev> [--json FILE] [--benchmark NAME]\n"
                 "       [--top K] [--quiet]\n",
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
        } else if (a == "--json") {
            opt.json_path = next();
        } else if (a == "--benchmark") {
            opt.benchmark = next();
        } else if (a == "--top") {
            opt.top_k =
                cli::parse_uint<std::size_t>(argv[0], "--top", next(), 1);
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(argv[0]);
        } else if (!have_path) {
            opt.events_path = a;
            have_path = true;
        } else {
            cli::extra_argument(argv[0], a, opt.events_path);
        }
    }
    if (!have_path) {
        usage(argv[0]);
    }
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);
    std::ifstream in(opt.events_path);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", opt.events_path.c_str());
        return 1;
    }
    try {
        const sim::EventFile file = sim::read_events(in);
        const stats::CritPathReport report = stats::analyze(file);
        if (!opt.quiet) {
            std::fputs(stats::critpath_text(report, opt.top_k).c_str(),
                       stdout);
        }
        if (!opt.json_path.empty()) {
            const std::string json =
                stats::critpath_json(report, opt.benchmark);
            if (opt.json_path == "-") {
                std::fputs(json.c_str(), stdout);
            } else {
                std::ofstream out(opt.json_path);
                if (!out) {
                    std::fprintf(stderr, "cannot write '%s'\n",
                                 opt.json_path.c_str());
                    return 1;
                }
                out << json;
                if (!opt.quiet) {
                    std::printf("wrote critical-path report to %s\n",
                                opt.json_path.c_str());
                }
            }
        }
        return 0;
    } catch (const sim::SimError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
