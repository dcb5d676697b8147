/// \file dataflow_gen.hpp
/// \brief Seeded random-dataflow program generator for differential fuzzing.
///
/// Generates a random allocation tree of DTA threads with optional diamond
/// joins: every internal node forks a set of children, and may additionally
/// allocate a *join* thread whose Synchronisation Counter equals the number
/// of children; each child then stores its result into a distinct word of
/// the join's frame.  That exercises the full frame protocol — FALLOC
/// fan-out, cross-thread STOREs, SC count-down, handle forwarding through
/// frame memory — with a shape that varies per seed.  Every fourth thread
/// (id % 4 == 3) frees its frame first and runs 20 more instructions after
/// its stores, so a run can end while a thread works past its FFREE.
///
/// Every thread writes its 32-bit result to a distinct output word exactly
/// once, so the program is deterministic: memory after a cycle-level
/// Machine run must match the functional Interpreter and the host-side
/// replica in \ref expected.  The optional table-READ axis gives each
/// thread an annotated global-table read (xor-folded into its result),
/// which makes the program a valid input to the prefetch pass
/// (xform::add_prefetch) and so lets the fuzzer sweep the prefetch
/// dimension too.
///
/// Deadlock-freedom: when the target machine runs without virtual frame
/// pointers, a parked FALLOC can deadlock a program whose live-thread peak
/// exceeds one node's frame capacity; callers must clamp
/// \ref DataflowGenParams::max_threads to spes_per_node * frames_per_pe
/// (one node's capacity) in that case.  With virtual frames on, FALLOC
/// never fails and any thread count is safe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "mem/main_memory.hpp"
#include "sim/types.hpp"
#include "xform/prefetch_pass.hpp"

namespace dta::workloads {

/// Shape parameters of one generated program (all consumed deterministically
/// from \ref seed).
struct DataflowGenParams {
    std::uint64_t seed = 1;
    /// Hard cap on total generated threads (tree nodes plus joins).  See the
    /// file comment for the no-virtual-frames deadlock-freedom bound.
    std::uint32_t max_threads = 48;
    /// Maximum children per node (also bounds join fan-in).
    std::uint32_t max_fanout = 4;
    /// Percent chance that a node with >= 2 children also allocates a join.
    std::uint32_t join_percent = 40;
    /// Give every thread an annotated global-table READ (prefetch axis).
    bool table_reads = false;
    sim::MemAddr out_base = 0x10000;
    sim::MemAddr table_base = 0x40000;
    std::uint32_t table_words = 64;
};

/// One generated random-dataflow program plus its host-side oracle.
class DataflowGen {
public:
    explicit DataflowGen(const DataflowGenParams& p);

    [[nodiscard]] const isa::Program& program() const { return prog_; }
    /// The same program with PF blocks synthesised by the prefetch pass
    /// (only meaningful when params().table_reads; otherwise returns the
    /// program unchanged).  \p staging_bytes must match the machine's
    /// LseConfig::staging_bytes_per_frame.
    [[nodiscard]] isa::Program prefetch_program(
        std::uint32_t staging_bytes) const {
        xform::PrefetchOptions opt;
        opt.staging_bytes = staging_bytes;
        return xform::add_prefetch(prog_, opt);
    }

    [[nodiscard]] std::vector<std::uint64_t> entry_args() const {
        return {p_.seed & 0xffff};
    }
    /// Seeds the global table the annotated READs consume (no-op layout-wise
    /// when table_reads is off, but always safe to call).
    void init_memory(mem::MainMemory& mem) const;

    /// Total generated threads (== thread codes; ids are dense from 0).
    [[nodiscard]] std::uint32_t thread_count() const {
        return static_cast<std::uint32_t>(nodes_.size());
    }
    /// Frame words any generated code touches (>= join fan-in); the target
    /// LseConfig::frame_words must be at least this.
    [[nodiscard]] std::uint32_t min_frame_words() const {
        return min_frame_words_;
    }
    /// Expected output word per thread id (host-side replica).
    [[nodiscard]] const std::vector<std::uint32_t>& expected() const {
        return expected_;
    }
    /// Compares every output word of \p mem against \ref expected; on
    /// mismatch fills \p why (if non-null) and returns false.
    [[nodiscard]] bool check(const mem::MainMemory& mem,
                             std::string* why) const;

    [[nodiscard]] const DataflowGenParams& params() const { return p_; }

private:
    struct Node {
        std::uint32_t id = 0;
        std::vector<std::uint32_t> children;  ///< regular children (fallocd)
        std::int64_t join = -1;       ///< join this node allocates, or -1
        std::int64_t join_word = -1;  ///< word of the parent's join we fill
        bool is_join = false;
        std::uint32_t arity = 0;      ///< join fan-in (is_join only)
    };

    void generate_shape();
    void emit_code();
    void fill_expected(std::uint32_t id, std::uint64_t input);
    [[nodiscard]] std::uint32_t table_at(std::uint32_t word) const;
    [[nodiscard]] std::uint32_t transform(std::uint64_t input,
                                          std::uint32_t id) const;

    DataflowGenParams p_;
    std::vector<Node> nodes_;
    std::uint32_t min_frame_words_ = 2;
    isa::Program prog_;
    std::vector<std::uint32_t> expected_;
};

}  // namespace dta::workloads
