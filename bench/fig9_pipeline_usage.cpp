/// \file fig9_pipeline_usage.cpp
/// \brief Regenerates Figure 9: pipeline usage for all three programs with
///        and without prefetching (8 SPEs, latency 150).  Usage is the
///        fraction of SPU cycles with at least one instruction issued; the
///        2-wide slot utilisation is printed alongside.
///
/// Usage: fig9_pipeline_usage [--iterations N]

#include <cstdio>

#include "bench_util.hpp"

using namespace dta;
using namespace dta::bench;

int bench_main(int argc, char** argv) {
    const std::uint32_t iters =
        arg_u32(argc, argv, "--iterations",
                workloads::BitCount::preset(/*paper=*/true).iterations);
    const Shape shape = shape_from_args(argc, argv);
    banner("FIG9", "pipeline usage with and without prefetching");

    const workloads::BitCount bc(bitcnt_params(iters));
    const workloads::MatMul mm(mmul_params(8));
    const workloads::Zoom zm(zoom_params(8));

    std::vector<stats::UsageRow> rows;
    const auto add = [&](const auto& wl, const core::MachineConfig& cfg,
                         const char* name) {
        const auto orig = bench::run_shaped(wl, cfg, shape, false);
        const auto pf = bench::run_shaped(wl, cfg, shape, true);
        rows.push_back({name, orig.result.pipeline_usage(),
                        pf.result.pipeline_usage()});
        std::printf("%-8s slot utilisation: %s -> %s\n", name,
                    stats::pct(orig.result.slot_utilisation()).c_str(),
                    stats::pct(pf.result.slot_utilisation()).c_str());
    };
    add(bc, workloads::BitCount::machine_config(8), "bitcnt");
    add(mm, workloads::MatMul::machine_config(8), "mmul");
    add(zm, workloads::Zoom::machine_config(8), "zoom");

    std::puts("");
    std::fputs(stats::pipeline_usage_table(rows).c_str(), stdout);
    std::puts(
        "\nexpected shape (Fig. 9): usage rises sharply with prefetching for\n"
        "mmul and zoom (memory stalls removed) and modestly for bitcnt.");
    return 0;
}

int main(int argc, char** argv) {
    return guarded_main([&] { return bench_main(argc, argv); }, argv[0]);
}
