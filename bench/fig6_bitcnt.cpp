/// \file fig6_bitcnt.cpp
/// \brief Regenerates Figure 6: bitcnt(10000) execution time (a) and
///        scalability (b) at memory latency 150, for 1/2/4/8 SPEs, with and
///        without prefetching.
///
/// Usage: fig6_bitcnt [--iterations N]

#include <cstdio>

#include "bench_util.hpp"

using namespace dta;
using namespace dta::bench;

int bench_main(int argc, char** argv) {
    const std::uint32_t iters =
        arg_u32(argc, argv, "--iterations",
                workloads::BitCount::preset(/*paper=*/true).iterations);
    const Shape shape = shape_from_args(argc, argv);
    banner("FIG6", "bitcnt execution time & scalability, latency 150");

    const workloads::BitCount wl(bitcnt_params(iters));
    std::vector<stats::SeriesPoint> pts;
    for (std::uint16_t spes : {1, 2, 4, 8}) {
        const auto cfg = workloads::BitCount::machine_config(spes);
        Shape pt = shape;  // --nodes applies only where it divides the PEs
        if (pt.nodes != 0 && spes % pt.nodes != 0) {
            pt.nodes = 0;
        }
        const auto orig = bench::run_shaped(wl, cfg, pt, false);
        const auto pf = bench::run_shaped(wl, cfg, pt, true);
        if (!orig.correct || !pf.correct) {
            std::fprintf(stderr, "bitcnt@%u SPEs: INCORRECT RESULT\n", spes);
        }
        pts.push_back({spes, orig.result.cycles, pf.result.cycles});
    }
    std::fputs(stats::exec_time_table("\nbitcnt(" + std::to_string(iters) +
                                          ")",
                                      pts)
                   .c_str(),
               stdout);
    std::puts("\ncsv:");
    std::fputs(stats::exec_time_csv(pts).c_str(), stdout);

    const double measured = static_cast<double>(pts.back().cycles_noprefetch) /
                            static_cast<double>(pts.back().cycles_prefetch);
    std::puts("");
    compare("prefetch speedup at 8 SPEs", 1.13, measured);
    return 0;
}

int main(int argc, char** argv) {
    return guarded_main([&] { return bench_main(argc, argv); }, argv[0]);
}
