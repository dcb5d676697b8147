/// \file mmul.hpp
/// \brief The paper's matrix-multiply benchmark (Section 4.2): "threads that
///        run in parallel are calculating parts of the output matrix [...]
///        Prefetching of the parts of the input matrices is performed in the
///        threads that are calculating the output matrix."
///
/// Each worker thread computes a contiguous band of rows of C = A x B.  In
/// the original version the inner loop READs A and B elements from main
/// memory (two READs per multiply-accumulate — with n = 32 exactly the
/// 65536 READs of Table 5); the prefetch variant DMAs the worker's band of
/// A and the whole of B into its staging area.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "isa/program.hpp"
#include "mem/main_memory.hpp"
#include "sim/types.hpp"

namespace dta::workloads {

/// Matrix-multiply workload generator.
class MatMul {
public:
    struct Params {
        std::uint32_t n = 32;        ///< matrices are n x n (paper: 32)
        std::uint32_t threads = 32;  ///< worker count; must divide n
        std::uint32_t unroll = 2;    ///< inner-loop unrolling (1, 2 or 4) —
                                     ///< the paper unrolls its benchmark loops;
                                     ///< 2 calibrates the prefetch speedup to
                                     ///< the paper's 11.18x at 8 SPEs

        std::uint64_t seed = 1;      ///< input data seed
    };

    explicit MatMul(const Params& p);

    [[nodiscard]] const isa::Program& program() const { return prog_; }
    [[nodiscard]] const isa::Program& prefetch_program() const {
        return prog_pf_;
    }
    void init_memory(mem::MainMemory& mem) const;
    [[nodiscard]] std::vector<std::uint64_t> entry_args() const { return {}; }
    [[nodiscard]] bool check(const mem::MainMemory& mem,
                             std::string* why) const;

    /// LSE layout this workload needs: few frames, 8 KB staging each
    /// (a worker stages its band of A plus the whole of B).
    [[nodiscard]] static sched::LseConfig lse_config() {
        return sched::LseConfig::with(/*frames=*/16, /*staging=*/8 * 1024);
    }
    /// Worker count appropriate for a machine with \p spes SPEs (the paper
    /// sizes its power-of-two thread counts per configuration); bounded so
    /// the live-thread peak fits the frame supply even on one SPE.
    [[nodiscard]] static std::uint32_t threads_for(std::uint16_t spes) {
        const std::uint32_t t = 8u * spes;
        return t > 32 ? 32 : t;
    }
    /// The sizes benches and tools run: the paper's mmul(32) or the ci scale.
    [[nodiscard]] static Params preset(bool paper, std::uint16_t spes) {
        return {.n = paper ? 32u : 16u,
                .threads = paper ? threads_for(spes) : 16u};
    }
    /// The paper's CellDTA machine configuration tuned for this workload.
    [[nodiscard]] static core::MachineConfig machine_config(
        std::uint16_t spes) {
        auto cfg = core::MachineConfig::cell_dta(spes);
        cfg.lse = lse_config();
        return cfg;
    }

    [[nodiscard]] const Params& params() const { return p_; }
    [[nodiscard]] sim::MemAddr a_base() const { return kDataBase; }
    [[nodiscard]] sim::MemAddr b_base() const {
        return kDataBase + matrix_bytes();
    }
    [[nodiscard]] sim::MemAddr c_base() const {
        return kDataBase + 2 * static_cast<sim::MemAddr>(matrix_bytes());
    }

private:
    static constexpr sim::MemAddr kDataBase = 0x10000;

    [[nodiscard]] std::uint32_t matrix_bytes() const {
        return p_.n * p_.n * 4;
    }
    [[nodiscard]] isa::Program build() const;

    Params p_;
    std::vector<std::uint32_t> a_;
    std::vector<std::uint32_t> b_;
    std::vector<std::uint32_t> ref_;
    isa::Program prog_;
    isa::Program prog_pf_;
};

}  // namespace dta::workloads
