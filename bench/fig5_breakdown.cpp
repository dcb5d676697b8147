/// \file fig5_breakdown.cpp
/// \brief Regenerates Figure 5: the breakdown of average SPU execution time
///        on CellDTA with eight SPUs and memory latency 150, (a) without
///        and (b) with prefetching, for bitcnt(10000), mmul(32), zoom(32).
///
/// Usage: fig5_breakdown [--iterations N] [--nodes N]
///   --iterations   bitcnt iterations (default 10000, the paper's)
///   --nodes        spread the 8 PEs over N nodes (default: single node)

#include <cstdio>

#include "bench_util.hpp"

using namespace dta;
using namespace dta::bench;

namespace {

/// Paper values read off Fig. 5 (percent of SPU time).
struct PaperRow {
    const char* name;
    double mem_noprefetch;  ///< Fig. 5a memory-stall share
    double mem_prefetch;    ///< Fig. 5b memory-stall share
    double pf_overhead;     ///< Fig. 5b prefetching share
};
constexpr PaperRow kPaper[] = {
    {"bitcnt", 0.58, 0.26, 0.19},
    {"mmul", 0.94, 0.00, 0.28},
    {"zoom", 0.92, 0.00, 0.00},
};

}  // namespace

int bench_main(int argc, char** argv) {
    const std::uint32_t iters =
        arg_u32(argc, argv, "--iterations",
                workloads::BitCount::preset(/*paper=*/true).iterations);
    const Shape shape = shape_from_args(argc, argv);
    banner("FIG5", "SPU execution-time breakdown, 8 SPEs, latency 150");

    const workloads::BitCount bc(bitcnt_params(iters));
    const workloads::MatMul mm(mmul_params(8));
    const workloads::Zoom zm(zoom_params(8));

    std::vector<stats::BreakdownRow> fig5a;
    std::vector<stats::BreakdownRow> fig5b;
    double mem_np[3]{};
    double mem_pf[3]{};
    double ovh_pf[3]{};

    const auto run_both = [&](const auto& wl, const core::MachineConfig& cfg,
                              const char* name, int idx) {
        const auto orig = bench::run_shaped(wl, cfg, shape, false);
        const auto pf = bench::run_shaped(wl, cfg, shape, true);
        if (!orig.correct || !pf.correct) {
            std::fprintf(stderr, "%s: INCORRECT RESULT\n", name);
        }
        fig5a.push_back({name, orig.result.total_breakdown()});
        fig5b.push_back({name, pf.result.total_breakdown()});
        mem_np[idx] = orig.result.total_breakdown().fraction(
            core::CycleBucket::kMemStall);
        mem_pf[idx] =
            pf.result.total_breakdown().fraction(core::CycleBucket::kMemStall);
        ovh_pf[idx] =
            pf.result.total_breakdown().fraction(core::CycleBucket::kPrefetch);
    };

    run_both(bc, workloads::BitCount::machine_config(8), "bitcnt", 0);
    run_both(mm, workloads::MatMul::machine_config(8), "mmul", 1);
    run_both(zm, workloads::Zoom::machine_config(8), "zoom", 2);

    std::puts("\nFig. 5a — no prefetching:");
    std::fputs(stats::breakdown_table(fig5a).c_str(), stdout);
    std::puts("\nFig. 5b — with prefetching:");
    std::fputs(stats::breakdown_table(fig5b).c_str(), stdout);

    std::puts("\npaper-vs-measured (fractions of SPU time):");
    for (int i = 0; i < 3; ++i) {
        std::printf("%s:\n", kPaper[i].name);
        compare("memory stalls, no prefetch", kPaper[i].mem_noprefetch,
                mem_np[i]);
        compare("memory stalls, prefetch", kPaper[i].mem_prefetch, mem_pf[i]);
        compare("prefetch overhead", kPaper[i].pf_overhead, ovh_pf[i]);
    }
    return 0;
}

int main(int argc, char** argv) {
    return guarded_main([&] { return bench_main(argc, argv); }, argv[0]);
}
