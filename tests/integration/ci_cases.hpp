// dta_bench's six ci cases (mmul, zoom and bitcnt, original and prefetch
// variants, with build_registry's parameters), runnable on any machine
// shape.  Shared by the tests that pin their results.
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
        case Kernel::kMmul: {
            MatMul::Params p;
            p.n = 16;
            p.threads = 16;
            return run_workload(MatMul(p), shaped(MatMul::machine_config(8)),
                                prefetch);
        }
        case Kernel::kZoom: {
            Zoom::Params p;
            p.n = 16;
            p.factor = 4;
            p.threads = 16;
            return run_workload(Zoom(p), shaped(Zoom::machine_config(8)),
                                prefetch);
        }
        case Kernel::kBitcnt: {
            BitCount::Params p;
            p.iterations = 1024;
            return run_workload(BitCount(p),
                                shaped(BitCount::machine_config(8)),
                                prefetch);
        }
    }
    return {};
}

}  // namespace dta::workloads
