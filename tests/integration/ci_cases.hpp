// dta_bench's six ci cases (mmul, zoom and bitcnt, original and prefetch
// variants, at each workload's ci preset), runnable on any machine shape.
// Shared by the tests that pin their results.
#pragma once

#include <cstdint>

#include "core/machine.hpp"
#include "workloads/bitcnt.hpp"
#include "workloads/harness.hpp"
#include "workloads/mmul.hpp"
#include "workloads/zoom.hpp"

namespace dta::workloads {

enum class Kernel { kMmul, kZoom, kBitcnt };

/// Runs one ci case on \p nodes x \p spes_per_node.  The workload's paper
/// machine (built for 8 SPEs) is reshaped; every other knob stays as the
/// workload sets it.  \p perfect_cache swaps in Section 4.3's
/// perfect-cache machine (LAT1), built as bench/lat1_perfect_cache.cpp
/// builds it: MachineConfig::perfect_cache(8) with the workload's LSE.
inline RunOutcome run_ci_case(Kernel kernel, bool prefetch,
                              std::uint16_t nodes,
                              std::uint16_t spes_per_node,
                              bool perfect_cache = false) {
    const auto shaped = [&](core::MachineConfig cfg) {
        if (perfect_cache) {
            const sched::LseConfig lse = cfg.lse;
            cfg = core::MachineConfig::perfect_cache(8);
            cfg.lse = lse;
        }
        cfg.nodes = nodes;
        cfg.spes_per_node = spes_per_node;
        return cfg;
    };
    switch (kernel) {
        case Kernel::kMmul:
            return run_workload(MatMul(MatMul::preset(/*paper=*/false, 8)),
                                shaped(MatMul::machine_config(8)), prefetch);
        case Kernel::kZoom:
            return run_workload(Zoom(Zoom::preset(/*paper=*/false, 8)),
                                shaped(Zoom::machine_config(8)), prefetch);
        case Kernel::kBitcnt:
            return run_workload(BitCount(BitCount::preset(/*paper=*/false)),
                                shaped(BitCount::machine_config(8)),
                                prefetch);
    }
    return {};
}

}  // namespace dta::workloads
