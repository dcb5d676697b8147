/// \file bitcnt.hpp
/// \brief The paper's bitcount benchmark (Section 4.2, after MiBench
///        bitcount): "counts bits for a certain number of iterations [...]
///        Its parallelization has been performed by unrolling both the main
///        loop and the loops inside each function.  Global data that is
///        used by some of the functions in the program is prefetched in the
///        threads where it was needed."
///
/// Structure: a chain of *spawner* threads unrolls the main loop in groups
/// of 16 iterations.  Every iteration forks four bit-counting function
/// threads (Kernighan loop, byte-table, nibble-table, mask-coefficient) plus
/// a combiner; per-group accumulator threads gather the combiner results
/// through frame stores and WRITE one partial sum per group to memory.
/// This reproduces bitcnt's character in the paper: data exchanged mostly
/// through frame memory, a vast forking rate that pressures the LSE, and
/// global-table READs of which only the linearly-scanned coefficient array
/// is worth prefetching — the byte/nibble table lookups have data-dependent
/// indices and stay as READs ("it is faster to leave one memory access
/// inside the thread rather than prefetch all elements of the array when
/// only one will be used"), so only ~60 % of READs are decoupled, as in the
/// paper (62 %).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "isa/program.hpp"
#include "mem/main_memory.hpp"
#include "sim/types.hpp"

namespace dta::workloads {

/// Bit-count workload generator.
class BitCount {
public:
    struct Params {
        std::uint32_t iterations = 10000;  ///< paper: bitcnt(10000)
    };

    /// Iterations per spawner group / accumulator fan-in.
    static constexpr std::uint32_t kGroup = 16;

    explicit BitCount(const Params& p);

    [[nodiscard]] const isa::Program& program() const { return prog_; }
    [[nodiscard]] const isa::Program& prefetch_program() const {
        return prog_pf_;
    }
    void init_memory(mem::MainMemory& mem) const;
    [[nodiscard]] std::vector<std::uint64_t> entry_args() const {
        return {0};  // first iteration index
    }
    [[nodiscard]] bool check(const mem::MainMemory& mem,
                             std::string* why) const;

    /// LSE layout: bitcnt forks a vast number of tiny threads, so it wants
    /// many frames and almost no staging (only the 48-byte mask table).
    /// 192 frames covers the live-thread peak of two overlapping spawner
    /// groups even on a single SPE, where one parked FALLOC is fatal.
    [[nodiscard]] static sched::LseConfig lse_config() {
        return sched::LseConfig::with(/*frames=*/192, /*staging=*/512);
    }
    /// The paper's CellDTA machine configuration tuned for this workload.
    [[nodiscard]] static core::MachineConfig machine_config(
        std::uint16_t spes) {
        auto cfg = core::MachineConfig::cell_dta(spes);
        cfg.lse = lse_config();
        return cfg;
    }
    /// The sizes benches and tools run: the paper's bitcnt(10000), or the
    /// ci scale.
    [[nodiscard]] static Params preset(bool paper) {
        return {.iterations = paper ? 10000u : 1024u};
    }

    [[nodiscard]] const Params& params() const { return p_; }
    [[nodiscard]] std::uint32_t blocks() const {
        return p_.iterations / kGroup;
    }

    // Host-side replicas of the four counting functions (used by tests).
    [[nodiscard]] static std::uint32_t mix(std::uint64_t x);
    [[nodiscard]] static std::uint32_t fn_kern(std::uint32_t v);
    [[nodiscard]] static std::uint32_t fn_btbl(std::uint32_t v);
    [[nodiscard]] static std::uint32_t fn_ntbl(std::uint32_t v);
    [[nodiscard]] static std::uint32_t fn_masks(std::uint32_t v);

private:
    static constexpr sim::MemAddr kBase = 0x400000;
    static constexpr sim::MemAddr kTable8 = kBase;            // 256 x u32
    static constexpr sim::MemAddr kTable4 = kBase + 0x400;    // 16 x u32
    static constexpr sim::MemAddr kMasks = kBase + 0x440;     // 12 x u32
    static constexpr sim::MemAddr kOut = kBase + 0x1000;
    static constexpr std::uint32_t kNumMasks = 12;

    [[nodiscard]] static std::uint32_t mask_value(std::uint32_t i) {
        return 0xffffffffu >> i;
    }
    [[nodiscard]] isa::Program build() const;

    Params p_;
    std::vector<std::uint32_t> ref_;  ///< expected OUT per block
    isa::Program prog_;
    isa::Program prog_pf_;
};

}  // namespace dta::workloads
