/// \file events.hpp
/// \brief Thread-lifecycle event log: compact chunked ring of fixed-size
///        event structs in a canonical (cycle, ordinal) order.
///
/// Where the metrics layer (PR 1) aggregates — histograms and counters that
/// say *how much* — the event log records *which*: every DTA thread's
/// lifecycle as a sequence of timestamped events (FALLOC issue, frame grant,
/// each incoming frame store with its producer, ready, dispatch, phase
/// boundaries, DMA issue/complete, Wait-for-DMA suspend/resume, STOP, frame
/// free).  The offline critical-path analyzer (stats/critpath) reconstructs
/// the dynamic dataflow DAG from this log alone.
///
/// Collection follows the PR-1 discipline: components hold a raw
/// `EventLog*` resolved once at attach time, nullptr when collection is
/// off, so every instrumented hot path costs exactly one cached-pointer
/// null test when disabled.  Threads are identified by a run-unique 64-bit
/// id assigned by the owning LSE at frame-allocation time (slot numbers are
/// reused; uids are not), so producer/consumer edges survive slot reuse and
/// virtual-frame materialization.  A uid is (pe << 32) | sequence and stays
/// below 2^48 on any machine event collection admits (<= 65535 PEs), which
/// lets scheduler messages carry it in the spare upper bits of an existing
/// payload word instead of growing the hot packet structs — see
/// sched::pack_carried_uid.
///
/// Storage is a ring of fixed-size chunks: pushes append into the current
/// chunk and a full chunk links a fresh one, so logging never moves
/// previously written events and never triggers a large reallocation spike
/// mid-run.  After the run the Machine canonicalizes the log by a stable
/// sort on (cycle, ordinal) — each (cycle, ordinal) pair is emitted by
/// exactly one component, so within a group the push order is already the
/// emission order and the sort is deterministic.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace dta::sim {

class StateSink;
class StateSource;

/// What happened.  One enumerator per lifecycle transition; the payload
/// convention for `thread` / `other` / `arg` / `aux` is documented per kind.
enum class EventKind : std::uint8_t {
    /// A running thread executed FALLOC/FALLOCN.  thread = issuer uid,
    /// arg = child thread-code id, aux = destination register rd.
    kFallocIssue,
    /// An LSE granted a frame (physical slot or virtual frame).
    /// thread = new uid, other = parent uid (0 for the entry frame),
    /// arg = pack_grant(code, virtual), aux = requester's rd.
    kFrameGrant,
    /// A producer executed STORE/STOREX into another frame.  thread =
    /// producer uid, arg = pack_store_dest(dest global PE, dest slot,
    /// word offset), aux = 1 if the destination is remote.
    kStoreIssue,
    /// A frame store arrived at the destination LSE and decremented the
    /// synchronization counter.  thread = consumer uid, other = producer
    /// uid, arg = pack_store_dest(consumer global PE, slot as issued,
    /// word offset), aux = min(SC remaining after decrement, 255).
    kFrameStore,
    /// A frame became ready for dispatch.  thread = uid, arg = code id,
    /// aux = 0 for the initial SC-reached-zero (or SC==0 grant) transition,
    /// 1 for a Wait-for-DMA resume.
    kReady,
    /// The SPU bound the thread and began executing.  thread = uid,
    /// arg = pack_grant(code, 0) | slot<<40, aux = 1 when resuming from
    /// Wait-for-DMA.
    kDispatch,
    /// The SPU crossed a code-block boundary inside a bound thread.
    /// thread = uid, arg = aux = the new block (isa::CodeBlock value).
    kPhase,
    /// The thread programmed an MFC DMA command.  thread = uid,
    /// arg = transfer bytes, aux = tag.
    kDmaIssue,
    /// The MFC signalled tag completion.  thread = owner uid, aux = tag.
    kDmaComplete,
    /// DMAWAIT found outstanding tags and the thread entered Wait-for-DMA
    /// (frame suspended, SPU freed).  thread = uid.
    kSuspend,
    /// The thread executed STOP.  thread = uid.
    kStop,
    /// The LSE released the frame slot.  thread = uid.
    kFree,
    /// A remote frame store crossed a node boundary (router bridge hop).
    /// thread = producer uid, arg = destination global PE.  Emitted by
    /// NodeRouter with ordinal = num_pes + node.
    kLinkHop,
};
inline constexpr std::size_t kNumEventKinds = 13;

[[nodiscard]] std::string_view event_kind_name(EventKind k);
/// Inverse of event_kind_name; returns false for unknown mnemonics.
[[nodiscard]] bool event_kind_from_name(std::string_view name, EventKind& out);

/// One lifecycle event.  48 bytes; trivially copyable.
struct Event {
    Cycle cycle = 0;            ///< stamp from the emitting component's clock
    std::uint64_t thread = 0;   ///< subject thread uid (see EventKind docs)
    std::uint64_t other = 0;    ///< related uid (parent / producer) or 0
    std::uint64_t arg = 0;      ///< kind-specific payload
    /// Cumulative memory-stall cycles of the emitting SPU at emission time
    /// (Breakdown kMemStall).  Only SPU-context events carry it; the
    /// analyzer uses deltas between consecutive events of one bound segment
    /// to split the segment into compute vs. blocked-on-memory exactly.
    std::uint64_t stall = 0;
    std::uint32_t ordinal = 0;  ///< emitting component (global PE id, or
                                ///< num_pes + node for routers)
    EventKind kind = EventKind::kFallocIssue;
    std::uint8_t aux = 0;       ///< kind-specific small payload
};

// Payload packing helpers (kept here so emitters and the analyzer cannot
// drift apart).
[[nodiscard]] inline std::uint64_t pack_store_dest(std::uint32_t pe,
                                                   std::uint32_t slot,
                                                   std::uint32_t word_off) {
    return (static_cast<std::uint64_t>(word_off) << 48) |
           (static_cast<std::uint64_t>(slot & 0xffffffffu) << 16) |
           (pe & 0xffffu);
}
[[nodiscard]] inline std::uint32_t store_dest_pe(std::uint64_t a) {
    return static_cast<std::uint32_t>(a & 0xffffu);
}
[[nodiscard]] inline std::uint32_t store_dest_slot(std::uint64_t a) {
    return static_cast<std::uint32_t>((a >> 16) & 0xffffffffu);
}
[[nodiscard]] inline std::uint32_t store_dest_off(std::uint64_t a) {
    return static_cast<std::uint32_t>(a >> 48);
}
[[nodiscard]] inline std::uint64_t pack_grant(std::uint32_t code,
                                              bool is_virtual) {
    return code | (is_virtual ? (1ull << 32) : 0ull);
}
[[nodiscard]] inline std::uint32_t grant_code(std::uint64_t a) {
    return static_cast<std::uint32_t>(a & 0xffffffffu);
}
[[nodiscard]] inline bool grant_virtual(std::uint64_t a) {
    return (a & (1ull << 32)) != 0;
}

/// Append-only chunked event ring.  Copyable (how a finished run's events
/// travel inside RunResult).
class EventLog {
public:
    static constexpr std::size_t kChunkEvents = 4096;

    void push(const Event& e) {
        if (chunks_.empty() || chunks_.back().size() == kChunkEvents) {
            chunks_.emplace_back();
            chunks_.back().reserve(kChunkEvents);
        }
        chunks_.back().push_back(e);
        ++size_;
    }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    template <typename F>
    void for_each(F&& f) const {
        for (const auto& c : chunks_) {
            for (const Event& e : c) {
                f(e);
            }
        }
    }

    /// All events in push order, flattened.
    [[nodiscard]] std::vector<Event> flatten() const;

    /// Stable-sorts the log by (cycle, ordinal) into one chunk (see file
    /// comment).
    void canonicalize();

    /// Snapshot every event in push order, field by field (Event has
    /// padding, so no struct memcpy).
    void save_state(StateSink& s) const;
    /// Inverse of save_state into an empty log.
    void load_state(StateSource& s);

private:
    std::vector<std::vector<Event>> chunks_;
    std::size_t size_ = 0;
};

/// A parsed event file: the log plus the run framing the analyzer needs.
struct EventFile {
    Cycle cycles = 0;                     ///< end-to-end run cycles
    std::uint32_t pes = 0;                ///< total PE count
    std::vector<std::string> code_names;  ///< thread-code id -> name
    std::vector<Event> events;            ///< canonical (cycle, ordinal) order
};

/// Writes the DTAEV1 text format: a small header (cycles, PE count, thread
/// code names) followed by one line per event.  Text keeps the format
/// diff-able and byte-identical across platforms, which the determinism
/// tests compare directly.
void write_events(std::ostream& out, const EventLog& log, Cycle cycles,
                  std::uint32_t pes,
                  const std::vector<std::string>& code_names);

/// Parses DTAEV1; throws sim::SimError on malformed input.
[[nodiscard]] EventFile read_events(std::istream& in);

}  // namespace dta::sim
