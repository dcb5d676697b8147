/// \file lse.hpp
/// \brief The Local Scheduler Element — one per processing element.
///
/// The LSE owns this PE's frame memory (a region of the local store),
/// tracks each frame's Synchronisation Counter and lifetime state (Fig. 4
/// of the paper, including the Program-DMA / Wait-for-DMA states this paper
/// introduces), keeps the ready queue, and exchanges scheduler messages
/// with the node's DSE and with remote LSEs.
///
/// Frame stores — local or remote — are written into the local store
/// through the LSE's LS client port and the SC is decremented only when the
/// write completes, so a thread can never start before its inputs are
/// physically in frame memory.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "isa/instruction.hpp"
#include "mem/local_store.hpp"
#include "sched/messages.hpp"
#include "sim/events.hpp"
#include "sim/fifo.hpp"
#include "sim/metrics.hpp"
#include "sim/types.hpp"

namespace dta::sim {
class AuditCtx;
}

namespace dta::sched {

/// Lifetime states of a frame / thread (Fig. 4).
enum class FrameState : std::uint8_t {
    kFree,
    kWaitStores,  ///< allocated, SC > 0
    kReady,       ///< SC == 0 (or DMA finished), queued for the pipeline
    kRunning,     ///< bound to the SPU
    kWaitDma,     ///< suspended in the paper's new Wait-for-DMA state
};

/// Runtime region-table entry: the hardware support that lets LSLOAD
/// translate a main-memory address into the LS staging copy (Section 3:
/// "the hardware is designed so that prefetch on such complex structures
/// are facilitated").  Filled by DMAGET; saved/restored across Wait-for-DMA.
struct RegionEntry {
    bool valid = false;
    std::uint64_t mem_base = 0;  ///< first main-memory byte covered
    std::uint32_t mem_stride = 0;    ///< 0 = contiguous copy
    std::uint32_t mem_elem_bytes = 0;///< element size when strided
    std::uint32_t ls_base = 0;   ///< absolute LS address of the staged copy
    std::uint32_t bytes = 0;     ///< staged bytes
};

/// Number of region-table entries per thread context.
inline constexpr std::size_t kNumRegions = 8;

/// Register file + region table snapshot saved across Wait-for-DMA.
struct ThreadSnapshot {
    std::array<std::uint64_t, isa::kNumRegs> regs{};
    std::array<RegionEntry, kNumRegions> regions{};
};

/// Checkpoint serialization of a region-table entry (shared by the LSE's
/// suspended-thread snapshots and the SPU's live region table).
inline void save_region(sim::StateSink& s, const RegionEntry& r) {
    s.flag(r.valid);
    s.u64(r.mem_base);
    s.u32(r.mem_stride);
    s.u32(r.mem_elem_bytes);
    s.u32(r.ls_base);
    s.u32(r.bytes);
}

inline void load_region(sim::StateSource& s, RegionEntry& r) {
    r.valid = s.flag();
    r.mem_base = s.u64();
    r.mem_stride = s.u32();
    r.mem_elem_bytes = s.u32();
    r.ls_base = s.u32();
    r.bytes = s.u32();
}

inline void save_thread_snapshot(sim::StateSink& s, const ThreadSnapshot& t) {
    for (const std::uint64_t v : t.regs) {
        s.u64(v);
    }
    for (const RegionEntry& r : t.regions) {
        save_region(s, r);
    }
}

inline void load_thread_snapshot(sim::StateSource& s, ThreadSnapshot& t) {
    for (std::uint64_t& v : t.regs) {
        v = s.u64();
    }
    for (RegionEntry& r : t.regions) {
        load_region(s, r);
    }
}

/// Configuration of one LSE / frame memory (per PE).
struct LseConfig {
    std::uint32_t frames = 16;          ///< frame slots per PE
    std::uint32_t frame_words = 32;     ///< 64-bit words per frame (256 B)
    std::uint32_t dispatch_latency = 4; ///< SPU<->LSE next-thread handshake
    std::uint32_t frame_area_base = 0;  ///< LS byte address of frame 0
    std::uint32_t staging_base = 16 * 256;     ///< LS byte address of staging area
    std::uint32_t staging_bytes_per_frame = 8 * 1024;

    /// Virtual frame pointers — the DTA-C feature the paper cites as the
    /// fix for bitcnt's scheduler pressure but explicitly leaves out of
    /// CellDTA ("a possible solution is to use virtual frame pointers, but
    /// we did not include this feature in the current version").  When
    /// enabled, FALLOC always succeeds: if no physical frame is free the
    /// LSE hands out a *virtual* frame whose stores are buffered in an
    /// LS-backed overflow area; when a physical frame frees, the oldest
    /// complete virtual frame is materialised into it (its buffered words
    /// are written to real frame memory) and becomes dispatchable.
    bool virtual_frames = false;
    /// Runaway bound on outstanding virtual frames per LSE.
    std::uint32_t max_virtual_frames = 65536;

    [[nodiscard]] std::uint32_t frame_bytes() const { return frame_words * 8; }

    /// Builds a packed layout: \p frames frame slots at LS address 0
    /// followed immediately by \p staging bytes of DMA staging per frame.
    [[nodiscard]] static LseConfig with(std::uint32_t frames,
                                        std::uint32_t staging) {
        LseConfig cfg;
        cfg.frames = frames;
        cfg.staging_bytes_per_frame = staging;
        cfg.frame_area_base = 0;
        cfg.staging_base = frames * cfg.frame_bytes();
        return cfg;
    }
};

/// Completed FALLOC, delivered back to the SPU.
struct FallocDone {
    std::uint8_t rd = 0;            ///< destination register of the FALLOC
    sim::FrameHandle handle;
};

/// A thread handed to the SPU for execution.
struct Dispatch {
    std::uint32_t slot = 0;
    sim::ThreadCodeId code = 0;
    std::uint32_t resume_ip = 0;   ///< 0 for a fresh thread, post-PF otherwise
    bool has_snapshot = false;     ///< true when resuming after Wait-for-DMA
    ThreadSnapshot snapshot;
};

/// Statistics of one LSE.
struct LseStats {
    std::uint64_t frames_allocated = 0;
    std::uint64_t frames_freed = 0;
    std::uint64_t local_stores = 0;
    std::uint64_t remote_stores_in = 0;
    std::uint64_t remote_stores_out = 0;  ///< kRemoteStore messages emitted
    std::uint64_t dispatches = 0;
    std::uint64_t dma_suspends = 0;     ///< threads that entered Wait-for-DMA
    std::uint64_t dma_immediate = 0;    ///< DMAWAITs that found DMA already done
    std::uint32_t peak_live_frames = 0;
    std::uint64_t virtual_allocations = 0;  ///< FALLOCs served virtually
    std::uint32_t peak_virtual_frames = 0;
};

/// The Local Scheduler Element of one PE.
class Lse {
public:
    Lse(const LseConfig& cfg, const Topology& topo, sim::GlobalPeId self,
        mem::LocalStore& ls);

    // ---- SPU-facing interface (same-PE, no NoC) -------------------------
    /// Issues a FALLOC request into the scheduler; rd tags the reply and
    /// \p parent (the issuing thread's uid) rides along so the grant can
    /// record its parent link.
    void falloc(std::uint8_t rd, sim::ThreadCodeId code, std::uint32_t sc,
                std::uint64_t parent = 0);
    /// Pops a completed FALLOC, if any.
    [[nodiscard]] bool pop_falloc_response(FallocDone& out);

    /// STORE to a frame owned by *this* PE (bypasses the NoC).  \p producer
    /// is the storing thread's uid (0 from tests / bootstrap).
    void store_local(sim::FrameHandle h, std::uint32_t word_off,
                     std::uint64_t value, std::uint64_t producer = 0);
    /// STORE to a remote frame: emits a kRemoteStore scheduler message.
    void store_remote(sim::FrameHandle h, std::uint32_t word_off,
                      std::uint64_t value, std::uint64_t producer = 0);

    /// FFREE executed by the running thread in \p slot.  The slot becomes
    /// immediately reusable (the frame data is dead once PL has run); the
    /// SPU remembers that its thread freed the frame and passes that fact
    /// to \ref stop_thread, because the slot may be reallocated to a new
    /// thread before the old one reaches STOP.
    void ffree(std::uint32_t slot);
    /// STOP executed by the running thread; frees the frame unless the
    /// thread already did so itself via FFREE.
    void stop_thread(std::uint32_t slot, bool already_freed);

    /// A DMAGET was issued on behalf of \p slot.
    void mark_dma_issued(std::uint32_t slot);
    /// MFC completion for a command owned by \p slot.
    void dma_completed(std::uint32_t slot);
    /// Outstanding DMA commands of \p slot (DMAWAIT checks this).
    [[nodiscard]] std::uint32_t dma_pending(std::uint32_t slot) const;
    /// DMAWAIT with transfers still outstanding: park the thread
    /// (Wait-for-DMA) and remember where and with what context to resume.
    void suspend_for_dma(std::uint32_t slot, std::uint32_t resume_ip,
                         const ThreadSnapshot& snap);

    /// SPU asks for the next ready thread; reply after dispatch_latency.
    void request_dispatch(sim::Cycle now);
    [[nodiscard]] bool dispatch_requested() const { return dispatch_pending_; }
    /// Cycle a pending dispatch handshake completes (PE horizon input).
    [[nodiscard]] sim::Cycle dispatch_ready_at() const {
        return dispatch_ready_at_;
    }
    /// Pops the dispatched thread once the handshake latency elapsed and a
    /// ready thread exists.
    [[nodiscard]] bool pop_dispatch(sim::Cycle now, Dispatch& out);

    /// The SPU finished the PF block without suspending (DMA already done)
    /// or resumed; keeps state bookkeeping in sync.
    void thread_running(std::uint32_t slot);

    // ---- NoC-facing interface (PE glue feeds decoded packets) ------------
    void on_falloc_fwd(sim::ThreadCodeId code, std::uint32_t sc, FallocCtx ctx,
                       std::uint64_t parent = 0);
    void on_falloc_resp(sim::FrameHandle h, FallocCtx ctx);
    void on_remote_store(sim::FrameHandle h, std::uint32_t word_off,
                         std::uint64_t value, std::uint64_t producer = 0);

    /// Drains one outgoing scheduler message, if any.
    [[nodiscard]] bool pop_outgoing(SchedMsg& out);
    /// True when no outgoing scheduler message waits for transport.
    [[nodiscard]] bool outgoing_empty() const { return outbox_.empty(); }
    /// True when a completed FALLOC waits for the SPU to apply it (PE
    /// horizon input: the next tick delivers it to a register).
    [[nodiscard]] bool falloc_response_pending() const {
        return !falloc_done_.empty();
    }

    /// Processes local-store completions (SC decrements) once per cycle.
    void tick(sim::Cycle now);

    /// Fast-forward bookkeeping: off-tick handlers (inbox decode, DMA
    /// completions) stamp events with the *previous* cycle's now_, exactly
    /// as after a real tick at to - 1. Skipped cycles mutate nothing else.
    void skip(sim::Cycle from, sim::Cycle to) {
        (void)from;
        now_ = to - 1;
    }

    // ---- host / machine bootstrap ------------------------------------------
    /// Directly allocates a frame (no messages); used to seed the entry
    /// thread.  Returns the slot.
    std::uint32_t bootstrap_frame(sim::ThreadCodeId code, std::uint32_t sc);
    /// Functionally writes an input word into a bootstrapped frame.
    void write_frame_word(std::uint32_t slot, std::uint32_t word_off,
                          std::uint64_t value);
    /// Marks a bootstrapped frame ready (SC forced to zero).
    void make_ready(std::uint32_t slot);

    // ---- queries ---------------------------------------------------------------
    [[nodiscard]] std::uint32_t ready_count() const {
        return static_cast<std::uint32_t>(ready_.size());
    }
    [[nodiscard]] std::uint32_t waitdma_count() const { return waitdma_count_; }
    [[nodiscard]] std::uint32_t live_frames() const { return live_frames_; }
    /// Outstanding virtual frames (always 0 without virtual_frames).
    [[nodiscard]] std::uint32_t virtual_frames_live() const {
        return static_cast<std::uint32_t>(virtual_.size());
    }
    [[nodiscard]] sim::ThreadCodeId code_of(std::uint32_t slot) const;
    /// Run-unique thread id of the frame in \p slot (physical or virtual).
    /// Slots are reused; uids are not — lifecycle events key on them.
    [[nodiscard]] std::uint64_t uid_of(std::uint32_t slot) const;
    /// LS byte address of word 0 of \p slot's frame.
    [[nodiscard]] std::uint32_t frame_ls_base(std::uint32_t slot) const;
    /// LS byte address of \p slot's DMA staging area.
    [[nodiscard]] std::uint32_t staging_ls_base(std::uint32_t slot) const;
    [[nodiscard]] const LseConfig& config() const { return cfg_; }
    [[nodiscard]] const LseStats& stats() const { return stats_; }

    /// Resolves this LSE's latency histograms (no-op when \p reg is
    /// disabled): sched.falloc_wait (FALLOC issue → handle back),
    /// sched.dispatch_wait (frame ready → bound to the SPU), and
    /// sched.dma_suspend (Wait-for-DMA park duration).
    void attach_metrics(sim::MetricsRegistry& reg);
    /// Points lifecycle-event emission at \p log (nullptr keeps it off; the
    /// hot paths then cost one cached-pointer null test each).
    void attach_events(sim::EventLog* log) { events_ = log; }
    /// True when nothing is live, queued, in flight, or pending.
    [[nodiscard]] bool quiescent() const;

    /// Invariant audit (sim/audit.hpp): frame-slot lifecycle FSM, SC /
    /// store-in-flight conservation, free- and ready-queue consistency,
    /// virtual-frame bookkeeping, and the allocation ledger.  Read-only;
    /// reports violations through \p ctx.
    void audit(const sim::AuditCtx& ctx) const;

    // --- checkpoint/restore (driven by the owning PE's save_state) ----------
    /// Serializes every frame (including suspended-thread snapshots),
    /// queues, the virtual-frame table (sorted by id for canonical bytes),
    /// uid sequencing, and statistics.
    void save_state(sim::StateSink& s) const;
    void load_state(sim::StateSource& s);

private:
    struct Frame {
        FrameState state = FrameState::kFree;
        sim::ThreadCodeId code = 0;
        std::uint64_t uid = 0;  ///< run-unique thread id (survives the slot)
        std::uint32_t sc = 0;
        std::uint32_t dma_pending = 0;
        std::uint32_t resume_ip = 0;
        bool has_snapshot = false;
        ThreadSnapshot snapshot;
        std::uint32_t stores_in_flight = 0;  ///< LS writes not yet completed
        sim::Cycle ready_at = 0;    ///< when the frame last became kReady
        sim::Cycle suspend_at = 0;  ///< when the thread entered kWaitDma
    };

    /// A not-yet-physical frame: its stores accumulate in a buffer until a
    /// physical slot frees, then are replayed into real frame memory.
    struct BufferedStore {
        std::uint32_t word_off = 0;
        std::uint64_t value = 0;
        std::uint64_t producer = 0;  ///< storing thread's uid
    };

    struct VirtualFrame {
        sim::ThreadCodeId code = 0;
        std::uint64_t uid = 0;  ///< carried into the physical frame
        std::uint32_t sc = 0;   ///< stores still expected
        std::vector<BufferedStore> stores;
        bool complete = false;  ///< SC reached zero; queued to materialise
    };

    [[nodiscard]] Frame& frame_at(std::uint32_t slot);
    [[nodiscard]] const Frame& frame_at(std::uint32_t slot) const;
    std::uint32_t allocate_slot(sim::ThreadCodeId code, std::uint32_t sc,
                                std::uint64_t parent = 0,
                                std::uint8_t rd = 0);
    void release_slot(std::uint32_t slot, bool notify_dse);
    /// \p replay marks virtual-frame materialization writes, whose arrival
    /// events were already emitted at buffering time.
    void enqueue_frame_write(std::uint32_t slot, std::uint32_t word_off,
                             std::uint64_t value, std::uint64_t producer = 0,
                             bool replay = false);
    void sc_arrived(std::uint32_t slot, std::uint32_t word_off,
                    std::uint64_t producer, bool replay);
    [[nodiscard]] bool is_virtual(std::uint32_t slot) const {
        return slot >= cfg_.frames;
    }
    void store_virtual(std::uint32_t vid, std::uint32_t word_off,
                       std::uint64_t value, std::uint64_t producer);
    /// Run-unique thread id: PE index in the high half, per-LSE sequence in
    /// the low.  Stays below 2^48 (so it fits the pack_carried_uid wire
    /// encoding) as long as the machine has < 2^16 PEs and an LSE allocates
    /// < 2^32 threads in one run.
    [[nodiscard]] std::uint64_t next_uid() {
        return (static_cast<std::uint64_t>(self_) << 32) | ++uid_seq_;
    }
    void emit_ready(std::uint64_t uid, sim::ThreadCodeId code, bool resume);
    /// Binds the oldest complete virtual frame to a free physical slot.
    void materialize_next();

    LseConfig cfg_;
    Topology topo_;
    sim::GlobalPeId self_;
    mem::LocalStore& ls_;
    std::vector<Frame> frames_;
    sim::Fifo<std::uint32_t> free_slots_;
    sim::Fifo<std::uint32_t> ready_;
    sim::Fifo<SchedMsg> outbox_;
    sim::Fifo<FallocDone> falloc_done_;
    bool dispatch_pending_ = false;
    sim::Cycle dispatch_ready_at_ = 0;
    std::uint32_t live_frames_ = 0;
    std::uint32_t waitdma_count_ = 0;
    std::uint64_t ls_write_seq_ = 1;
    std::uint64_t uid_seq_ = 0;  ///< per-LSE thread-uid sequence (always on)
    // virtual-frame machinery (empty unless cfg_.virtual_frames)
    std::unordered_map<std::uint32_t, VirtualFrame> virtual_;
    sim::Fifo<std::uint32_t> materialize_queue_;   ///< complete virtual ids
    std::uint32_t next_virtual_id_ = 0;            ///< offset past cfg_.frames
    LseStats stats_;

    // observability (all optional; null when metrics / events are off)
    sim::Cycle now_ = 0;  ///< last tick time, for off-tick event stamps
    sim::EventLog* events_ = nullptr;
    /// Producer uid of each in-flight frame write, enqueue order (the LS
    /// completes a client's requests FIFO).  Touched only when events are
    /// on — keeps the uid out of the LsRequest/LsResponse hot structs.
    sim::Fifo<std::uint64_t> write_producers_;
    sim::Histogram* falloc_wait_ = nullptr;
    sim::Histogram* dispatch_wait_ = nullptr;
    sim::Histogram* dma_suspend_ = nullptr;
    /// FALLOC issue cycles keyed by destination register, popped FIFO when
    /// the handle comes back (responses for one register stay in order).
    std::map<std::uint8_t, sim::Fifo<sim::Cycle>> falloc_issue_;
};

}  // namespace dta::sched
