#include "stats/critpath.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "sim/check.hpp"

namespace dta::stats {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// One bound stretch of a thread on an SPU, as event indices into the
/// canonical log: [dispatch, end] where end is the kSuspend or kStop that
/// unbound it (kNone while open — only possible in a malformed log).
struct Seg {
    std::size_t dispatch = kNone;
    std::size_t end = kNone;
};

/// Everything pass 1 learns about one thread uid.
struct Thread {
    std::uint64_t parent = 0;
    std::uint32_t code = 0;
    std::size_t grant = kNone;
    std::size_t falloc_from = kNone;  ///< matched parent kFallocIssue
    std::vector<std::size_t> readies;
    std::vector<std::size_t> arrivals;  ///< kFrameStore, log order
    std::vector<Seg> segs;
};

struct StoreEdge {
    std::size_t issue = kNone;
    std::size_t arrival = kNone;
    std::uint64_t consumer = 0;
};

/// Last element of \p v that is < \p idx (indices are log-ordered), or
/// kNone.
std::size_t last_before(const std::vector<std::size_t>& v, std::size_t idx) {
    auto it = std::lower_bound(v.begin(), v.end(), idx);
    return it == v.begin() ? kNone : *(it - 1);
}

/// The segment of \p th containing event index \p idx, or nullptr.
const Seg* seg_containing(const Thread& th, std::size_t idx) {
    for (auto it = th.segs.rbegin(); it != th.segs.rend(); ++it) {
        if (it->dispatch <= idx && (it->end == kNone || idx <= it->end)) {
            return &*it;
        }
        if (it->end != kNone && it->end < idx) {
            return nullptr;  // idx lies between segments: not bound
        }
    }
    return nullptr;
}

/// Last *closed* segment of \p th whose end event index is < \p idx.
const Seg* closed_seg_before(const Thread& th, std::size_t idx) {
    for (auto it = th.segs.rbegin(); it != th.segs.rend(); ++it) {
        if (it->end != kNone && it->end < idx) {
            return &*it;
        }
    }
    return nullptr;
}

}  // namespace

std::string_view crit_category_name(CritCategory c) {
    switch (c) {
        case CritCategory::kCompute: return "compute";
        case CritCategory::kDmaWait: return "dma_wait";
        case CritCategory::kFrameWait: return "frame_wait";
        case CritCategory::kSchedWait: return "sched_wait";
        case CritCategory::kNocTransit: return "noc_transit";
        case CritCategory::kIdle: return "idle";
    }
    return "?";
}

CritPathReport analyze(const sim::EventFile& file) {
    const std::vector<sim::Event>& ev = file.events;
    CritPathReport r;
    r.cycles = file.cycles;
    r.pes = file.pes;
    r.code_names = file.code_names;
    r.code_on_path.assign(file.code_names.size(), 0);

    // ---- pass 1: threads, segments, and edge matching -------------------
    // FIFO matching keyed on exactly the payload both endpoints carry, so
    // reordered interleavings match identically.
    std::map<std::uint64_t, Thread> threads;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::deque<std::size_t>>
        store_fifo;  ///< (producer uid, packed dest) -> kStoreIssue idxs
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint8_t>,
             std::deque<std::size_t>>
        falloc_fifo;  ///< (parent uid, code, rd) -> kFallocIssue idxs
    std::vector<StoreEdge> edges;
    std::unordered_map<std::size_t, std::size_t> arrival_issue;
    std::size_t last_stop = kNone;

    for (std::size_t i = 0; i < ev.size(); ++i) {
        const sim::Event& e = ev[i];
        switch (e.kind) {
            case sim::EventKind::kFallocIssue:
                falloc_fifo[{e.thread, e.arg, e.aux}].push_back(i);
                break;
            case sim::EventKind::kFrameGrant: {
                Thread& th = threads[e.thread];
                th.parent = e.other;
                th.code = sim::grant_code(e.arg);
                th.grant = i;
                auto it = falloc_fifo.find({e.other, th.code, e.aux});
                if (it != falloc_fifo.end() && !it->second.empty()) {
                    th.falloc_from = it->second.front();
                    it->second.pop_front();
                    ++r.falloc_edges;
                }
                break;
            }
            case sim::EventKind::kStoreIssue:
                store_fifo[{e.thread, e.arg}].push_back(i);
                break;
            case sim::EventKind::kFrameStore: {
                threads[e.thread].arrivals.push_back(i);
                auto it = store_fifo.find({e.other, e.arg});
                if (it != store_fifo.end() && !it->second.empty()) {
                    arrival_issue[i] = it->second.front();
                    edges.push_back({it->second.front(), i, e.thread});
                    it->second.pop_front();
                    ++r.store_edges;
                } else {
                    ++r.unmatched_stores;
                }
                break;
            }
            case sim::EventKind::kReady:
                threads[e.thread].readies.push_back(i);
                break;
            case sim::EventKind::kDispatch:
                threads[e.thread].segs.push_back({i, kNone});
                break;
            case sim::EventKind::kSuspend:
            case sim::EventKind::kStop: {
                Thread& th = threads[e.thread];
                DTA_SIM_REQUIRE(!th.segs.empty() &&
                                    th.segs.back().end == kNone,
                                "event log: unbind without a bound segment");
                th.segs.back().end = i;
                if (e.kind == sim::EventKind::kStop) {
                    last_stop = i;
                }
                break;
            }
            case sim::EventKind::kLinkHop:
                ++r.link_hops;
                break;
            default:
                break;  // kPhase / kDmaIssue / kDmaComplete / kFree
        }
    }
    r.threads = threads.size();

    // ---- pass 2: critical-path walk -------------------------------------
    // Backward from the final STOP, always following the latest cause.
    // `cur` is the frontier: everything in [cur, cycles) is attributed.
    // Every step moves `cur` monotonically toward 0 and attributes exactly
    // the distance moved, so the per-category totals telescope to the
    // end-to-end cycle count with no gap and no overlap.
    std::unordered_set<std::size_t> cp_issues;  ///< store issues on the path
    sim::Cycle cur = file.cycles;
    const auto attribute = [&](sim::Cycle at, CritCategory cat,
                               std::uint64_t thread, std::uint32_t code) {
        at = std::min(at, cur);
        if (cur > at) {
            r.on_path[static_cast<std::size_t>(cat)] += cur - at;
            r.path.push_back({at, cur, cat, thread, code});
            if (thread != 0 && code < r.code_on_path.size()) {
                r.code_on_path[code] += cur - at;
            }
        }
        cur = at;
    };

    if (last_stop != kNone) {
        attribute(ev[last_stop].cycle, CritCategory::kIdle, 0, 0);
        std::size_t xi = last_stop;
        std::size_t guard = 4 * ev.size() + 16;
        while (guard-- > 0) {
            // xi is an event inside a bound segment of its thread (a stop,
            // suspend, store issue, or falloc issue); cur == its cycle.
            const sim::Event& x = ev[xi];
            const Thread& th = threads.at(x.thread);
            const Seg* seg = seg_containing(th, xi);
            if (seg == nullptr || seg->dispatch == kNone) {
                break;
            }
            const sim::Event& d = ev[seg->dispatch];
            // Split the bound stretch: the emitting SPU's cumulative
            // memory-stall counter brackets exactly the cycles this
            // segment spent blocked on global memory (READs).
            const std::uint64_t span = cur > d.cycle ? cur - d.cycle : 0;
            std::uint64_t mem = x.stall >= d.stall ? x.stall - d.stall : 0;
            mem = std::min(mem, span);
            attribute(cur - (span - mem), CritCategory::kCompute, x.thread,
                      th.code);
            attribute(d.cycle, CritCategory::kDmaWait, x.thread, th.code);
            // Why did the dispatch happen only then?
            const std::size_t ready = last_before(th.readies, seg->dispatch);
            if (ready == kNone) {
                break;
            }
            attribute(ev[ready].cycle, CritCategory::kSchedWait, x.thread,
                      th.code);
            if (ev[ready].aux == 1) {
                // Wait-for-DMA resume: blocked since the suspend that
                // closed the previous segment.
                const Seg* prev = closed_seg_before(th, ready);
                if (prev == nullptr ||
                    ev[prev->end].kind != sim::EventKind::kSuspend) {
                    break;
                }
                attribute(ev[prev->end].cycle, CritCategory::kDmaWait,
                          x.thread, th.code);
                ++r.dma_edges;
                xi = prev->end;
                continue;
            }
            if (!th.arrivals.empty()) {
                // SC reached zero on the last incoming store; before that
                // the granted frame sat waiting for inputs.
                const std::size_t a = th.arrivals.back();
                attribute(ev[a].cycle, CritCategory::kFrameWait, x.thread,
                          th.code);
                auto it = arrival_issue.find(a);
                if (it == arrival_issue.end()) {
                    break;
                }
                attribute(ev[it->second].cycle, CritCategory::kNocTransit,
                          x.thread, th.code);
                cp_issues.insert(it->second);
                xi = it->second;  // continue inside the producer's segment
                continue;
            }
            // Ready straight from the grant (SC == 0): the chain continues
            // through the FALLOC that created this thread.
            if (th.grant == kNone) {
                break;
            }
            attribute(ev[th.grant].cycle, CritCategory::kFrameWait, x.thread,
                      th.code);
            if (th.falloc_from == kNone) {
                break;  // the entry thread: granted at cycle 0
            }
            attribute(ev[th.falloc_from].cycle, CritCategory::kSchedWait,
                      x.thread, th.code);
            xi = th.falloc_from;
        }
    }
    // Whatever precedes the walk's terminus (normally nothing: the entry
    // grant is at cycle 0).
    attribute(0, CritCategory::kIdle, 0, 0);
    std::uint64_t on_sum = 0;
    for (const std::uint64_t c : r.on_path) {
        on_sum += c;
    }
    DTA_CHECK_MSG(on_sum == file.cycles,
                  "critical-path attribution does not sum to the run length");

    // ---- pass 3: run-wide per-PE attribution ----------------------------
    // Each PE's [0, cycles) is carved at its dispatch/unbind marks; gaps
    // are classified by what the *next* dispatched thread was waiting for.
    // Store transit is never charged here (it always overlaps a PE-side
    // state), which is what keeps the sum exact: cycles x pes.
    std::vector<std::vector<std::size_t>> pe_marks(file.pes);
    for (std::size_t i = 0; i < ev.size(); ++i) {
        const sim::Event& e = ev[i];
        if (e.ordinal < file.pes &&
            (e.kind == sim::EventKind::kDispatch ||
             e.kind == sim::EventKind::kSuspend ||
             e.kind == sim::EventKind::kStop)) {
            pe_marks[e.ordinal].push_back(i);
        }
    }
    const auto charge = [&r](CritCategory cat, std::uint64_t n) {
        r.run_wide[static_cast<std::size_t>(cat)] += n;
    };
    for (std::uint32_t pe = 0; pe < file.pes; ++pe) {
        const std::vector<std::size_t>& marks = pe_marks[pe];
        sim::Cycle prev_end = 0;
        std::size_t m = 0;
        while (m < marks.size()) {
            const sim::Event& d = ev[marks[m]];
            DTA_SIM_REQUIRE(d.kind == sim::EventKind::kDispatch,
                            "event log: unbind mark without a dispatch");
            // Gap before this dispatch: [prev_end, ready) by cause,
            // [ready, dispatch) is the dispatch handshake.
            const Thread& th = threads.at(d.thread);
            const std::size_t ready = last_before(th.readies, marks[m]);
            sim::Cycle rc = ready != kNone ? ev[ready].cycle : prev_end;
            rc = std::clamp(rc, prev_end, d.cycle);
            CritCategory cause = CritCategory::kSchedWait;
            if (ready != kNone && ev[ready].aux == 1) {
                cause = CritCategory::kDmaWait;
            } else if (!th.arrivals.empty()) {
                cause = CritCategory::kFrameWait;
            }
            charge(cause, rc - prev_end);
            charge(CritCategory::kSchedWait, d.cycle - rc);
            if (m + 1 < marks.size()) {
                // Bound segment [dispatch, unbind]: the unbinding cycle
                // still belongs to it (same convention as ThreadSpan).
                const sim::Event& e = ev[marks[m + 1]];
                const std::uint64_t span = e.cycle + 1 - d.cycle;
                std::uint64_t mem =
                    e.stall >= d.stall ? e.stall - d.stall : 0;
                mem = std::min(mem, span);
                charge(CritCategory::kDmaWait, mem);
                charge(CritCategory::kCompute, span - mem);
                prev_end = e.cycle + 1;
                m += 2;
            } else {
                // Open segment at end of log (malformed): count as compute.
                charge(CritCategory::kCompute, file.cycles - d.cycle);
                prev_end = file.cycles;
                ++m;
            }
        }
        charge(CritCategory::kIdle, file.cycles - prev_end);
    }
    std::uint64_t wide_sum = 0;
    for (const std::uint64_t c : r.run_wide) {
        wide_sum += c;
    }
    DTA_CHECK_MSG(wide_sum == static_cast<std::uint64_t>(file.cycles) *
                                  file.pes,
                  "run-wide attribution does not sum to cycles x PEs");

    // ---- pass 4: slack and flows ----------------------------------------
    for (const auto& [uid, th] : threads) {
        (void)uid;
        if (th.arrivals.empty()) {
            continue;
        }
        const sim::Cycle last = ev[th.arrivals.back()].cycle;
        for (const std::size_t a : th.arrivals) {
            const std::uint64_t slack = last - ev[a].cycle;
            ++r.store_slack.edges;
            r.store_slack.total += slack;
            r.store_slack.max = std::max(r.store_slack.max, slack);
            if (slack == 0) {
                ++r.store_slack.zero_slack;
            }
        }
    }
    r.flows.reserve(edges.size());
    for (const StoreEdge& e : edges) {
        const Thread& consumer = threads.at(e.consumer);
        if (consumer.segs.empty()) {
            continue;
        }
        const sim::Event& issue = ev[e.issue];
        const sim::Event& disp = ev[consumer.segs.front().dispatch];
        core::TraceFlow f;
        f.src_pe = issue.ordinal;
        f.src_cycle = issue.cycle;
        f.dst_pe = disp.ordinal;
        f.dst_cycle = disp.cycle;
        f.on_critical_path = cp_issues.count(e.issue) != 0;
        r.flows.push_back(f);
    }
    return r;
}

namespace {

void emit_categories(std::ostringstream& os, const CritCycles& c,
                     const char* indent) {
    for (std::size_t i = 0; i < kNumCritCategories; ++i) {
        os << indent << '"'
           << crit_category_name(static_cast<CritCategory>(i)) << "\": "
           << c[i] << (i + 1 < kNumCritCategories ? ",\n" : "\n");
    }
}

}  // namespace

std::string critpath_json(const CritPathReport& r,
                          std::string_view benchmark) {
    constexpr std::size_t kMaxPathSteps = 512;
    std::ostringstream os;
    os << "{\n  \"report\": \"dta-critpath\",\n";
    if (!benchmark.empty()) {
        os << "  \"benchmark\": \"" << benchmark << "\",\n";
    }
    os << "  \"cycles\": " << r.cycles << ",\n"
       << "  \"pes\": " << r.pes << ",\n"
       << "  \"threads\": " << r.threads << ",\n"
       << "  \"edges\": {\"store\": " << r.store_edges
       << ", \"falloc\": " << r.falloc_edges << ", \"dma\": " << r.dma_edges
       << ", \"link_hops\": " << r.link_hops
       << ", \"unmatched_stores\": " << r.unmatched_stores << "},\n";
    os << "  \"on_path\": {\n";
    emit_categories(os, r.on_path, "    ");
    os << "  },\n  \"run_wide\": {\n";
    emit_categories(os, r.run_wide, "    ");
    os << "  },\n  \"code_on_path\": {";
    bool first = true;
    for (std::size_t c = 0; c < r.code_on_path.size(); ++c) {
        if (r.code_on_path[c] == 0) {
            continue;
        }
        os << (first ? "" : ", ") << '"'
           << (c < r.code_names.size() ? r.code_names[c]
                                       : "code" + std::to_string(c))
           << "\": " << r.code_on_path[c];
        first = false;
    }
    os << "},\n  \"store_slack\": {\"edges\": " << r.store_slack.edges
       << ", \"zero_slack\": " << r.store_slack.zero_slack
       << ", \"total\": " << r.store_slack.total
       << ", \"max\": " << r.store_slack.max << "},\n";
    os << "  \"path_steps\": " << r.path.size() << ",\n"
       << "  \"path_truncated\": "
       << (r.path.size() > kMaxPathSteps ? "true" : "false") << ",\n"
       << "  \"path\": [\n";
    const std::size_t n = std::min(r.path.size(), kMaxPathSteps);
    for (std::size_t i = 0; i < n; ++i) {
        const CritStep& s = r.path[i];
        os << "    {\"from\": " << s.from << ", \"to\": " << s.to
           << ", \"category\": \"" << crit_category_name(s.category)
           << "\", \"thread\": " << s.thread << ", \"code\": \""
           << (s.thread != 0 && s.code < r.code_names.size()
                   ? r.code_names[s.code]
                   : "")
           << "\"}" << (i + 1 < n ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    return os.str();
}

std::string critpath_text(const CritPathReport& r, std::size_t top_k) {
    std::ostringstream os;
    os << "critical path over " << r.cycles << " cycles, " << r.pes
       << " PEs, " << r.threads << " threads (" << r.store_edges
       << " store edges, " << r.falloc_edges << " falloc edges, "
       << r.dma_edges << " DMA waits on path)\n";
    const auto table = [&](const char* title, const CritCycles& c,
                           std::uint64_t total) {
        os << title << ":\n";
        for (std::size_t i = 0; i < kNumCritCategories; ++i) {
            const double pct =
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(c[i]) /
                                 static_cast<double>(total);
            os << "  " << crit_category_name(static_cast<CritCategory>(i))
               << ": " << c[i] << " (" << static_cast<int>(pct + 0.5)
               << "%)\n";
        }
    };
    table("on-path attribution", r.on_path, r.cycles);
    table("run-wide attribution", r.run_wide,
          static_cast<std::uint64_t>(r.cycles) * r.pes);
    // Longest steps first; ties resolve to the earlier span so the listing
    // is deterministic.
    std::vector<const CritStep*> by_len;
    by_len.reserve(r.path.size());
    for (const CritStep& s : r.path) {
        by_len.push_back(&s);
    }
    std::stable_sort(by_len.begin(), by_len.end(),
                     [](const CritStep* a, const CritStep* b) {
                         const sim::Cycle la = a->to - a->from;
                         const sim::Cycle lb = b->to - b->from;
                         return la != lb ? la > lb : a->from < b->from;
                     });
    const std::size_t n = std::min(top_k, by_len.size());
    os << "top " << n << " critical-path steps:\n";
    for (std::size_t i = 0; i < n; ++i) {
        const CritStep& s = *by_len[i];
        os << "  [" << s.from << ", " << s.to << ") "
           << crit_category_name(s.category);
        if (s.thread != 0) {
            os << " thread pe" << (s.thread >> 32) << '#'
               << (s.thread & 0xffffffffull);
            if (s.code < r.code_names.size()) {
                os << " '" << r.code_names[s.code] << '\'';
            }
        }
        os << " (" << (s.to - s.from) << " cycles)\n";
    }
    return os.str();
}

}  // namespace dta::stats
