/// \file pe.hpp
/// \brief One processing element: the SPU pipeline plus its local store,
///        LSE and MFC, and the glue that speaks the NoC protocol.
///
/// The SPU is the simple core DTA assumes (Section 1: "in-order pipelines,
/// no branch predictors, no ROBs"), modelled after the Cell SPU: dual issue
/// with one compute pipe and one memory pipe per cycle, a register
/// scoreboard with per-register ready times, fixed ALU/MUL/DIV latencies, a
/// flush penalty on taken branches, and no caches — only the local store.
///
/// Every SPU cycle is charged to exactly one CycleBucket, reproducing the
/// Fig. 5 accounting; the mapping is documented on \ref CycleBucket.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>

#include "core/breakdown.hpp"
#include "core/trace.hpp"
#include "core/config.hpp"
#include "core/topology.hpp"
#include "dma/mfc.hpp"
#include "isa/predecode.hpp"
#include "isa/program.hpp"
#include "mem/local_store.hpp"
#include "noc/packet.hpp"
#include "sched/lse.hpp"
#include "sim/component.hpp"
#include "sim/events.hpp"
#include "sim/log.hpp"
#include "sim/port.hpp"

namespace dta::core {

/// One SPE of the machine.
class Pe final : public sim::Component {
public:
    /// \p decoded is predecode(prog), built once by the machine and shared
    /// by every PE; both must outlive the PE.
    Pe(const MachineConfig& cfg, const sched::Topology& topo,
       sim::GlobalPeId self, const isa::Program& prog,
       const isa::DecodedProgram& decoded, const sim::Logger& log);

    Pe(const Pe&) = delete;
    Pe& operator=(const Pe&) = delete;

    // ---- packet I/O (machine glue) --------------------------------------
    /// The fabric endpoint of this PE binds here.
    [[nodiscard]] sim::Port<noc::Packet>& rx_port() { return inbox_; }
    /// Fabric delivered a packet addressed to this PE.
    void deliver(noc::Packet pkt);
    /// Pops the next packet this PE wants to inject, if any.
    [[nodiscard]] bool pop_outgoing(noc::Packet& out);
    [[nodiscard]] bool has_outgoing() const { return !outgoing_.empty(); }
    /// The outgoing queue as a port, so the event-driven scheduler can bind
    /// a waker to it (the node router sleeps until a packet shows up).
    [[nodiscard]] sim::Port<noc::Packet>& outgoing_port() { return outgoing_; }

    // ---- component interface ---------------------------------------------
    /// One full PE cycle: local store, then units, then the SPU pipeline;
    /// returns horizon().  PEs share no intra-cycle state, so fusing the
    /// three seed phases per-PE is cycle-equivalent to the seed's three
    /// machine-wide loops.
    sim::Cycle tick(sim::Cycle now) override {
        tick_local_store(now);
        tick_units(now);
        tick_spu(now);
        return horizon(now);
    }

    /// Bulk-applies the per-cycle accounting the seed loop would have
    /// produced for the skipped cycles [from, to): exactly one Breakdown
    /// bucket per cycle (the stall/idle reason is invariant across a
    /// skipped span by construction of horizon()), per-code cycle
    /// attribution, the stale-by-one event clocks of the MFC and LSE, and
    /// the dispatch request a PE with an empty LSE slept without posting.
    void skip(sim::Cycle from, sim::Cycle to) override;

    // ---- per-cycle phases (in tick() order; split for unit tests) --------
    /// Services the local store's ports.
    void tick_local_store(sim::Cycle now);
    /// Decodes inbox packets, advances the MFC and LSE, applies completions.
    void tick_units(sim::Cycle now);
    /// Advances the SPU pipeline by one cycle (issue + accounting).
    void tick_spu(sim::Cycle now);

    // ---- component access (bootstrap, stats, tests) -----------------------
    [[nodiscard]] sched::Lse& lse() { return lse_; }
    [[nodiscard]] const sched::Lse& lse() const { return lse_; }
    [[nodiscard]] mem::LocalStore& local_store() { return ls_; }
    [[nodiscard]] const mem::LocalStore& local_store() const { return ls_; }
    [[nodiscard]] dma::Mfc& mfc() { return mfc_; }
    [[nodiscard]] const dma::Mfc& mfc() const { return mfc_; }

    [[nodiscard]] const Breakdown& breakdown() const { return breakdown_; }
    [[nodiscard]] const InstrStats& instr_stats() const { return instrs_; }
    /// Issue slots actually used (for the Fig. 9 pipeline-usage metric; the
    /// SPU has two slots per cycle).
    [[nodiscard]] std::uint64_t issue_slots_used() const { return slots_used_; }
    [[nodiscard]] std::uint64_t cycles_with_issue() const {
        return cycles_with_issue_;
    }
    [[nodiscard]] std::uint64_t threads_executed() const {
        return threads_executed_;
    }
    /// Per-thread-code counters (indexed by ThreadCodeId).
    [[nodiscard]] const std::vector<std::uint64_t>& code_cycles() const {
        return code_cycles_;
    }
    [[nodiscard]] const std::vector<std::uint64_t>& code_instrs() const {
        return code_instrs_;
    }
    [[nodiscard]] const std::vector<std::uint64_t>& code_starts() const {
        return code_starts_;
    }
    [[nodiscard]] const std::vector<std::uint64_t>& code_dispatches() const {
        return code_dispatches_;
    }
    /// Installs a sink that receives one ThreadSpan per SPU occupancy.
    void set_span_sink(std::vector<ThreadSpan>* sink) { spans_ = sink; }
    /// Resolves this PE's LSE and MFC instruments against \p reg and points
    /// the MFC's span recorder at \p dma_sink (machine-owned, may be null).
    void attach_metrics(sim::MetricsRegistry& reg,
                        std::vector<dma::DmaSpan>* dma_sink) {
        lse_.attach_metrics(reg);
        mfc_.attach_metrics(reg);
        mfc_.set_span_sink(dma_sink, self_);
    }
    /// Points this PE's (and its LSE's) lifecycle-event emission at \p log
    /// (nullptr keeps it off at one cached-pointer test per site).
    void attach_events(sim::EventLog* log) {
        events_ = log;
        lse_.attach_events(log);
    }

    [[nodiscard]] bool spu_bound() const { return bound_; }
    /// True when nothing on this PE is live or in flight.
    [[nodiscard]] bool quiescent() const override;

    // --- checkpoint/restore -------------------------------------------------
    /// Serializes the whole PE: local store, LSE, MFC, both packet ports,
    /// the SPU architectural state (registers, region table, scoreboard,
    /// pipeline control), and every statistic.  The bound thread-code
    /// pointer is re-derived from the program on load.
    void save_state(sim::StateSink& s) const override;
    void load_state(sim::StateSource& s) override;

private:
    /// Why the pipeline's front is blocked this cycle.
    enum class RegSrc : std::uint8_t { kNone, kAlu, kMul, kMem, kLs, kLse };
    /// Why busy_until_ is in the future.
    enum class BusyReason : std::uint8_t {
        kNone,
        kThreadStart,
        kBranch,
        kDmaProgram
    };

    struct IssueCheck {
        bool ok = false;
        CycleBucket stall = CycleBucket::kWorking;
    };

    // pipeline steps
    void handle_dispatch(sim::Cycle now);
    void bind_thread(const sched::Dispatch& d, sim::Cycle now);
    void unbind(sim::Cycle now);
    /// Issue verdict for instruction \p ip of the bound thread code.
    [[nodiscard]] IssueCheck can_issue(std::uint32_t ip, sim::Cycle now) const;
    /// Executes \p ins; returns false when the pipeline must not look at a
    /// second slot this cycle (branch taken, control op, thread unbound).
    bool execute(const isa::Instruction& ins, sim::Cycle now);
    [[nodiscard]] CycleBucket stall_bucket(RegSrc src) const;
    [[nodiscard]] std::optional<CycleBucket> operand_block(
        const isa::IssueFacts& f, sim::Cycle now) const;
    /// Earliest cycle this PE (SPU + LS + LSE + MFC) could change state.
    [[nodiscard]] sim::Cycle horizon(sim::Cycle now) const;
    /// Earliest cycle a finite operand ready-time could change the issue
    /// verdict of \p f (kIdleForever when all blockers are external).
    [[nodiscard]] sim::Cycle operand_horizon(const isa::IssueFacts& f,
                                             sim::Cycle now) const;

    // execution helpers
    void exec_compute(const isa::Instruction& ins, sim::Cycle now);
    void exec_branch(const isa::Instruction& ins);
    void exec_load(const isa::Instruction& ins);
    void exec_lsload(const isa::Instruction& ins);
    void exec_lsstore(const isa::Instruction& ins);
    void exec_store(const isa::Instruction& ins, sim::Cycle now);
    void exec_read(const isa::Instruction& ins);
    void exec_write(const isa::Instruction& ins);
    void exec_falloc(const isa::Instruction& ins, sim::Cycle now);
    /// Handles both DMAGET and DMAPUT (direction from the opcode).
    void exec_dmaget(const isa::Instruction& ins, sim::Cycle now);
    void exec_regset(const isa::Instruction& ins);
    /// Returns false when the thread suspended (pipeline released).
    bool exec_dmawait(sim::Cycle now);
    void exec_stop(sim::Cycle now);

    void set_reg(std::uint8_t rd, std::uint64_t value, sim::Cycle ready_at,
                 RegSrc src);
    [[nodiscard]] std::uint64_t reg(std::uint8_t r) const {
        return r == 0 ? 0 : regs_[r];
    }
    /// Resolves an LSLOAD/LSSTORE address: region translation or raw LS.
    [[nodiscard]] std::uint32_t resolve_ls_addr(const isa::Instruction& ins,
                                                std::uint32_t access_bytes) const;

    // packet plumbing
    void push_packet(noc::Packet pkt);
    void send_sched_msg(const sched::SchedMsg& msg);
    void pump_outgoing_producers();
    void apply_read_response(std::uint8_t rd, std::uint64_t value,
                             sim::Cycle now);

    /// Emits a lifecycle event stamped with this SPU's cumulative memory
    /// stall cycles (callers already null-tested events_).
    void emit_event(sim::EventKind kind, sim::Cycle now, std::uint64_t thread,
                    std::uint64_t other, std::uint64_t arg, std::uint8_t aux);

    // configuration / identity
    SpuConfig cfg_;
    sched::LseConfig lse_cfg_;
    sched::Topology topo_;
    FabricLayout layout_;
    sim::GlobalPeId self_;
    const isa::Program& prog_;
    const isa::DecodedProgram& decoded_;
    const sim::Logger& log_;

    // components
    mem::LocalStore ls_;
    sched::Lse lse_;
    dma::Mfc mfc_;

    // packet ports (rx bound to the fabric, tx drained by the node router)
    sim::Port<noc::Packet> inbox_;
    sim::Port<noc::Packet> outgoing_;
    static constexpr std::size_t kOutgoingPullCap = 16;

    // SPU architectural state
    bool bound_ = false;
    std::uint32_t slot_ = 0;
    sim::ThreadCodeId code_id_ = 0;
    const isa::ThreadCode* code_ = nullptr;
    const isa::IssueFacts* facts_ = nullptr;  ///< decoded_[code_id_] while bound
    std::uint32_t ip_ = 0;
    bool freed_ = false;  ///< FFREE already executed by this thread
    std::array<std::uint64_t, isa::kNumRegs> regs_{};
    std::array<sched::RegionEntry, sched::kNumRegions> regions_{};

    // scoreboard
    std::array<sim::Cycle, isa::kNumRegs> reg_ready_{};
    std::array<RegSrc, isa::kNumRegs> reg_src_{};
    std::uint32_t outstanding_reads_ = 0;
    std::uint32_t outstanding_lsloads_ = 0;
    std::uint32_t outstanding_fallocs_ = 0;

    // pipeline control
    sim::Cycle busy_until_ = 0;
    BusyReason busy_reason_ = BusyReason::kNone;
    std::uint64_t ls_req_seq_ = 1;

    // statistics
    Breakdown breakdown_;
    InstrStats instrs_;
    std::uint64_t slots_used_ = 0;
    std::uint64_t cycles_with_issue_ = 0;
    std::uint64_t threads_executed_ = 0;
    std::vector<std::uint64_t> code_cycles_;
    std::vector<std::uint64_t> code_instrs_;
    std::vector<std::uint64_t> code_starts_;
    std::vector<std::uint64_t> code_dispatches_;
    std::vector<ThreadSpan>* spans_ = nullptr;  ///< optional, machine-owned
    ThreadSpan open_span_;                      ///< valid while bound_
    sim::EventLog* events_ = nullptr;           ///< optional, machine-owned
    std::uint64_t cur_uid_ = 0;     ///< bound thread's uid, cached at bind
                                    ///< (the slot may be re-granted after
                                    ///< FFREE while the thread still runs)
    std::int8_t phase_block_ = -1;  ///< last code block a kPhase was emitted
                                    ///< for (-1 = none yet this binding)
};

}  // namespace dta::core
