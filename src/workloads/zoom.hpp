/// \file zoom.hpp
/// \brief The paper's zoom benchmark (Section 4.2): "a program that zooms
///        into one part of the input picture.  It is parallelized by sending
///        different parts of the picture to different PEs. [...] Parts of
///        the input image are prefetched in the threads that are calculating
///        the zoom."
///
/// The n x n input picture's top-left (n/2 x n/2)-ish region is magnified by
/// a power-of-two factor with two-tap horizontal interpolation: every output
/// pixel READs two neighbouring input pixels (for n = 32, factor 8 and a
/// 16 x 16 source region this gives exactly the 32768 READs and 16384 WRITEs
/// of Table 5).  Each worker produces a band of output rows; the prefetch
/// variant DMAs the input rows that band samples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "isa/program.hpp"
#include "mem/main_memory.hpp"
#include "sim/types.hpp"

namespace dta::workloads {

/// Image-zoom workload generator.
class Zoom {
public:
    struct Params {
        std::uint32_t n = 32;       ///< input picture is n x n (paper: 32)
        std::uint32_t factor = 8;   ///< zoom factor (power of two)
        std::uint32_t threads = 64; ///< worker count; must divide output rows
        std::uint32_t unroll = 4;   ///< x-loop unrolling (must divide factor)
        std::uint64_t seed = 2;
    };

    explicit Zoom(const Params& p);

    [[nodiscard]] const isa::Program& program() const { return prog_; }
    [[nodiscard]] const isa::Program& prefetch_program() const {
        return prog_pf_;
    }
    /// This repository's extension of the paper's mechanism: outputs are
    /// staged in the LS via REGSET + LSSTORE and written back with a single
    /// DMAPUT per worker (a DMA *post-store*), instead of one posted WRITE
    /// per pixel.  Fully non-blocking on both ends: the thread suspends in
    /// Wait-for-DMA for the prefetch AND for the write-back drain.
    [[nodiscard]] const isa::Program& writeback_program() const;
    /// Whether the write-back variant exists for these parameters (each
    /// worker's output band must fit its LS staging window).
    [[nodiscard]] bool has_writeback() const { return !prog_wb_.codes.empty(); }
    void init_memory(mem::MainMemory& mem) const;
    [[nodiscard]] std::vector<std::uint64_t> entry_args() const { return {}; }
    [[nodiscard]] bool check(const mem::MainMemory& mem,
                             std::string* why) const;

    /// LSE layout: medium frame count, 4 KB staging (a worker stages a
    /// couple of input rows).
    [[nodiscard]] static sched::LseConfig lse_config() {
        return sched::LseConfig::with(/*frames=*/32, /*staging=*/4 * 1024);
    }
    /// Worker count for \p spes SPEs (see MatMul::threads_for).
    [[nodiscard]] static std::uint32_t threads_for(std::uint16_t spes) {
        const std::uint32_t t = 16u * spes;
        return t > 64 ? 64 : t;
    }
    /// The sizes benches and tools run: the paper's zoom(32) by 8, or the
    /// ci scale.
    [[nodiscard]] static Params preset(bool paper, std::uint16_t spes) {
        return {.n = paper ? 32u : 16u,
                .factor = paper ? 8u : 4u,
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
    /// Output picture edge length (factor * n/2).
    [[nodiscard]] std::uint32_t out_n() const {
        return p_.factor * (p_.n / 2);
    }
    [[nodiscard]] sim::MemAddr in_base() const { return kDataBase; }
    [[nodiscard]] sim::MemAddr out_base() const {
        return kDataBase + static_cast<sim::MemAddr>(p_.n) * p_.n * 4;
    }
    /// Host view of the expected output (for the image_zoom example).
    [[nodiscard]] const std::vector<std::uint32_t>& reference() const {
        return ref_;
    }
    [[nodiscard]] const std::vector<std::uint32_t>& input() const {
        return in_;
    }

private:
    static constexpr sim::MemAddr kDataBase = 0x200000;

    [[nodiscard]] isa::Program build() const;
    [[nodiscard]] isa::Program build_writeback() const;

    Params p_;
    std::vector<std::uint32_t> in_;
    std::vector<std::uint32_t> ref_;
    isa::Program prog_;
    isa::Program prog_pf_;
    isa::Program prog_wb_;
};

}  // namespace dta::workloads
