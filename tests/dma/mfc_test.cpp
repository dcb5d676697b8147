// Unit tests for the MFC: command queue bounds, decode latency, line
// splitting, strided gathers, PUTs, tag completions.
#include "dma/mfc.hpp"

#include <gtest/gtest.h>

#include "sim/audit.hpp"
#include "sim/check.hpp"
#include "sim/metrics.hpp"
#include "sim/snapshot.hpp"

namespace dta::dma {
namespace {

/// Drives the MFC against a zero-latency fake memory, collecting every
/// emitted line (with the cycle it was picked up) and every completion.
struct Harness {
    mem::LocalStore ls{mem::LocalStoreConfig{}};
    Mfc mfc;
    std::vector<std::uint8_t> memory;  // fake main memory backing
    std::vector<MfcLineRequest> lines_seen;
    std::vector<sim::Cycle> line_cycles;  // parallel to lines_seen
    std::vector<MfcCompletion> completions;
    std::vector<sim::Cycle> completion_cycles;  // parallel to completions
    sim::Cycle next = 0;  // first cycle the next run() ticks
    bool audit = false;   // run the MFC invariant audit after every tick

    explicit Harness(const MfcConfig& cfg = MfcConfig{})
        : mfc(cfg, ls), memory(1 << 20, 0) {
        for (std::size_t i = 0; i < memory.size(); ++i) {
            memory[i] = static_cast<std::uint8_t>(i * 7 + 1);
        }
    }
    Harness(const Harness&) = delete;  // mfc refers to this harness's ls
    Harness& operator=(const Harness&) = delete;

    /// Ticks \p cycles more cycles, continuing from the last run().
    void run(sim::Cycle cycles) {
        const std::string name = "mfc";
        for (const sim::Cycle end = next + cycles; next < end; ++next) {
            const sim::Cycle now = next;
            ls.tick(now);
            mfc.tick(now);
            if (audit) {
                mfc.audit(sim::AuditCtx(name, now));
            }
            MfcLineRequest line;
            while (mfc.pop_line_request(line)) {
                lines_seen.push_back(line);
                line_cycles.push_back(now);
                if (line.op == MfcOp::kGet) {
                    // Instant fake memory: return data next tick.
                    std::vector<std::uint8_t> data(
                        memory.begin() + static_cast<long>(line.mem_addr),
                        memory.begin() +
                            static_cast<long>(line.mem_addr + line.bytes));
                    mfc.deliver_line_data(line.line_id, data);
                } else {
                    // Apply the PUT and ack.
                    for (std::uint32_t i = 0; i < line.bytes; ++i) {
                        memory[line.mem_addr + i] = line.data[i];
                    }
                    mfc.ack_put_line(line.line_id);
                }
            }
            MfcCompletion comp;
            while (mfc.pop_completion(comp)) {
                completions.push_back(comp);
                completion_cycles.push_back(now);
            }
        }
    }

    /// Local store + MFC state, in the order a PE serialises them.
    [[nodiscard]] std::vector<std::uint8_t> save() const {
        sim::StateSink s;
        ls.save_state(s);
        mfc.save_state(s);
        return s.data();
    }
    void load(const std::vector<std::uint8_t>& bytes, sim::Cycle resume_at) {
        sim::StateSource s(bytes.data(), bytes.size());
        ls.load_state(s);
        mfc.load_state(s);
        s.finish();
        next = resume_at;
    }
};

MfcCommand get_cmd(std::uint32_t bytes, sim::MemAddr src = 0x1000,
                   sim::LsAddr dst = 0x100) {
    MfcCommand cmd;
    cmd.op = MfcOp::kGet;
    cmd.tag = 3;
    cmd.mem_addr = src;
    cmd.ls_addr = dst;
    cmd.bytes = bytes;
    cmd.owner = 42;
    return cmd;
}

TEST(Mfc, QueueDepthSixteenEnforced) {
    Harness h;
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(16)));
    }
    EXPECT_FALSE(h.mfc.can_enqueue());
    EXPECT_FALSE(h.mfc.try_enqueue(get_cmd(16)));
    EXPECT_EQ(h.mfc.enqueue_rejections(), 1u);
}

TEST(Mfc, RejectsInvalidCommands) {
    Harness h;
    EXPECT_THROW((void)h.mfc.try_enqueue(get_cmd(0)), sim::SimError);
    MfcCommand strided = get_cmd(64);
    strided.stride = 8;
    strided.elem_bytes = 16;  // elements overlap
    EXPECT_THROW((void)h.mfc.try_enqueue(strided), sim::SimError);
    MfcCommand overflow = get_cmd(1024, 0, 256 * 1024 - 4);
    EXPECT_THROW((void)h.mfc.try_enqueue(overflow), sim::SimError);
}

TEST(Mfc, ContiguousGetSplitsIntoLines) {
    Harness h;
    ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(300)));  // 128 + 128 + 44
    h.run(200);
    ASSERT_EQ(h.lines_seen.size(), 3u);
    EXPECT_EQ(h.lines_seen[0].bytes, 128u);
    EXPECT_EQ(h.lines_seen[1].bytes, 128u);
    EXPECT_EQ(h.lines_seen[2].bytes, 44u);
    EXPECT_EQ(h.lines_seen[1].mem_addr, 0x1080u);
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].tag, 3u);
    EXPECT_EQ(h.completions[0].owner, 42u);
    EXPECT_EQ(h.mfc.bytes_transferred(), 300u);
    EXPECT_TRUE(h.mfc.quiescent());
}

TEST(Mfc, GetDataLandsInLocalStore) {
    Harness h;
    ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(64, 0x2000, 0x400)));
    h.run(200);
    for (std::uint32_t i = 0; i < 16; ++i) {  // 64 bytes = 16 u32 words
        ASSERT_EQ(h.ls.read_u32(0x400 + i * 4) & 0xff,
                  h.memory[0x2000 + i * 4]);
    }
}

TEST(Mfc, CommandLatencyDelaysFirstLine) {
    MfcConfig cfg;
    cfg.command_latency = 30;
    Harness h(cfg);
    ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(16)));
    // Tick exactly 30 cycles: decode finishes at cycle 30, so no line yet
    // at cycle 29.
    for (sim::Cycle now = 0; now < 30; ++now) {
        h.ls.tick(now);
        h.mfc.tick(now);
        MfcLineRequest line;
        ASSERT_FALSE(h.mfc.pop_line_request(line))
            << "line emitted before command decode finished (cycle " << now
            << ")";
    }
    h.mfc.tick(30);
    MfcLineRequest line;
    EXPECT_TRUE(h.mfc.pop_line_request(line));
}

TEST(Mfc, StridedGatherOneCommandManyElements) {
    // Section 3: a strided access "could generate too many transactions
    // [individually] and DMA performs it in one transaction" — one command,
    // element_count line requests, gathered contiguously into the LS.
    Harness h;
    MfcCommand cmd = get_cmd(32, 0x3000, 0x800);
    cmd.stride = 128;     // one u64 every 128 bytes
    cmd.elem_bytes = 8;   // 4 elements (32 / 8)
    ASSERT_TRUE(h.mfc.try_enqueue(cmd));
    h.run(300);
    ASSERT_EQ(h.lines_seen.size(), 4u);
    EXPECT_EQ(h.lines_seen[0].mem_addr, 0x3000u);
    EXPECT_EQ(h.lines_seen[1].mem_addr, 0x3080u);
    EXPECT_EQ(h.lines_seen[3].mem_addr, 0x3180u);
    for (auto& l : h.lines_seen) {
        EXPECT_EQ(l.bytes, 8u);
    }
    // Gathered packing: element i at ls_addr + i*8.
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(h.ls.read_u64(0x800 + i * 8) & 0xff,
                  h.memory[0x3000 + i * 128]);
    }
    ASSERT_EQ(h.completions.size(), 1u);
}

TEST(Mfc, OutstandingLineLimitThrottles) {
    MfcConfig cfg;
    cfg.max_outstanding_lines = 2;
    cfg.command_latency = 1;
    mem::LocalStore ls{mem::LocalStoreConfig{}};
    Mfc mfc(cfg, ls);
    ASSERT_TRUE(mfc.try_enqueue(get_cmd(128 * 6)));
    // Never deliver data: the MFC must stop emitting after 2 lines.
    std::size_t emitted = 0;
    for (sim::Cycle now = 0; now < 50; ++now) {
        ls.tick(now);
        mfc.tick(now);
        MfcLineRequest line;
        while (mfc.pop_line_request(line)) {
            ++emitted;
        }
    }
    EXPECT_EQ(emitted, 2u);
}

TEST(Mfc, PutWritesBackToMemory) {
    Harness h;
    h.ls.write_u32(0x100, 0xcafebabe);
    MfcCommand cmd;
    cmd.op = MfcOp::kPut;
    cmd.tag = 9;
    cmd.mem_addr = 0x4000;
    cmd.ls_addr = 0x100;
    cmd.bytes = 4;
    ASSERT_TRUE(h.mfc.try_enqueue(cmd));
    h.run(300);
    EXPECT_EQ(h.memory[0x4000], 0xbe);
    EXPECT_EQ(h.memory[0x4003], 0xca);
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].tag, 9u);
}

TEST(Mfc, MultipleCommandsCompleteWithTheirOwnTags) {
    Harness h;
    MfcCommand a = get_cmd(64, 0x1000, 0x100);
    a.tag = 1;
    a.owner = 10;
    MfcCommand b = get_cmd(64, 0x2000, 0x200);
    b.tag = 2;
    b.owner = 20;
    ASSERT_TRUE(h.mfc.try_enqueue(a));
    ASSERT_TRUE(h.mfc.try_enqueue(b));
    h.run(400);
    ASSERT_EQ(h.completions.size(), 2u);
    EXPECT_EQ(h.completions[0].tag, 1u);
    EXPECT_EQ(h.completions[0].owner, 10u);
    EXPECT_EQ(h.completions[1].tag, 2u);
    EXPECT_EQ(h.completions[1].owner, 20u);
    EXPECT_EQ(h.mfc.commands_completed(), 2u);
}

TEST(Mfc, MultiLinePutCompletesOnceAfterAllAcks) {
    // A PUT command finishes only when memory acknowledges its last line
    // (not when the LS read drains), and exactly once.
    Harness h;
    MfcCommand cmd;
    cmd.op = MfcOp::kPut;
    cmd.tag = 5;
    cmd.mem_addr = 0x5000;
    cmd.ls_addr = 0x100;
    cmd.bytes = 300;  // 128 + 128 + 44
    ASSERT_TRUE(h.mfc.try_enqueue(cmd));
    h.run(400);
    ASSERT_EQ(h.lines_seen.size(), 3u);
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].tag, 5u);
    EXPECT_EQ(h.mfc.commands_completed(), 1u);
    EXPECT_EQ(h.mfc.bytes_transferred(), 300u);
    EXPECT_TRUE(h.mfc.quiescent());
}

/// A single outstanding line: every line waits for the previous one.
MfcConfig saturated_cfg() {
    MfcConfig cfg;
    cfg.max_outstanding_lines = 1;
    return cfg;
}

/// Queues one contiguous GET (6 lines) then one strided GET (4 elements)
/// and turns the per-tick audit on.
void queue_saturating_pair(Harness& h) {
    MfcCommand contiguous = get_cmd(128 * 6, 0x1000, 0x100);
    contiguous.tag = 1;
    MfcCommand strided = get_cmd(32, 0x3000, 0x800);
    strided.tag = 2;
    strided.stride = 128;
    strided.elem_bytes = 8;
    ASSERT_TRUE(h.mfc.try_enqueue(contiguous));
    ASSERT_TRUE(h.mfc.try_enqueue(strided));
    h.audit = true;
}

TEST(Mfc, SaturatedEmissionPinsEveryLineCycle) {
    // Timeline with the instant fake memory: the contiguous command decodes
    // in [0, 30) and the strided one in [30, 60).  A line picked up at t is
    // written to the LS at t+1 and lands at t+7, which frees the single
    // outstanding slot for the next line that same cycle.  The strided
    // command is active from 60 but waits until the contiguous one (lower
    // slot) has emitted its last line; it then emits once per round trip.
    // After its last pickup (93) nothing is due until the data lands at
    // 100 — the idle ticks in between take the MFC's early return.
    Harness h(saturated_cfg());
    queue_saturating_pair(h);
    h.run(200);
    const std::vector<sim::Cycle> want_cycles = {30, 37, 44, 51, 58,
                                                 65, 72, 79, 86, 93};
    ASSERT_EQ(h.line_cycles, want_cycles);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(h.lines_seen[i].mem_addr, 0x1000u + 128u * i) << i;
        EXPECT_EQ(h.lines_seen[i].bytes, 128u) << i;
    }
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(h.lines_seen[6 + i].mem_addr, 0x3000u + 128u * i) << i;
        EXPECT_EQ(h.lines_seen[6 + i].bytes, 8u) << i;
    }
    ASSERT_EQ(h.completions.size(), 2u);
    EXPECT_EQ(h.completions[0].tag, 1u);
    EXPECT_EQ(h.completions[1].tag, 2u);
    EXPECT_EQ(h.completion_cycles, (std::vector<sim::Cycle>{72, 100}));
    EXPECT_TRUE(h.mfc.quiescent());
}

TEST(Mfc, SaturatedPutEmitsNextLineAfterEachAck) {
    // A PUT line frees its outstanding slot in ack_put_line(), outside any
    // tick, so the next tick has no decode, queue or LS response to react
    // to: only the count of commands with lines left to emit makes it emit
    // the next line.  Each line: LS read queued at t, serviced at t+1,
    // payload ready at t+7 (picked up and acked), next line emitted at t+8.
    Harness h(saturated_cfg());
    MfcCommand put;
    put.op = MfcOp::kPut;
    put.tag = 6;
    put.mem_addr = 0x5000;
    put.ls_addr = 0x100;
    put.bytes = 300;  // 128 + 128 + 44
    ASSERT_TRUE(h.mfc.try_enqueue(put));
    h.audit = true;
    h.run(100);
    EXPECT_EQ(h.line_cycles, (std::vector<sim::Cycle>{37, 45, 53}));
    EXPECT_EQ(h.completion_cycles, (std::vector<sim::Cycle>{53}));
    EXPECT_TRUE(h.mfc.quiescent());
}

TEST(Mfc, SnapshotMidEmissionResumesWithSameLinesAndCycles) {
    Harness straight(saturated_cfg());
    queue_saturating_pair(straight);
    straight.run(200);
    // Cuts inside the first decode, mid-contiguous, while the strided
    // command waits for the slot, mid-strided, and in the final idle wait.
    for (const sim::Cycle cut : {12u, 47u, 62u, 80u, 96u}) {
        Harness first(saturated_cfg());
        queue_saturating_pair(first);
        first.run(cut);
        const std::vector<std::uint8_t> snap = first.save();

        Harness resumed(saturated_cfg());
        resumed.audit = true;
        resumed.load(snap, cut);
        EXPECT_TRUE(resumed.save() == snap) << "cut " << cut;
        resumed.mfc.audit(sim::AuditCtx("mfc", cut));
        resumed.run(200 - cut);

        // Everything picked up after the cut matches the straight run.
        const std::size_t before = first.lines_seen.size();
        ASSERT_EQ(before + resumed.lines_seen.size(),
                  straight.lines_seen.size())
            << "cut " << cut;
        for (std::size_t i = 0; i < resumed.lines_seen.size(); ++i) {
            const MfcLineRequest& got = resumed.lines_seen[i];
            const MfcLineRequest& want = straight.lines_seen[before + i];
            EXPECT_EQ(got.line_id, want.line_id) << "cut " << cut;
            EXPECT_EQ(got.mem_addr, want.mem_addr) << "cut " << cut;
            EXPECT_EQ(resumed.line_cycles[i], straight.line_cycles[before + i])
                << "cut " << cut;
        }
        const std::size_t done = first.completions.size();
        ASSERT_EQ(done + resumed.completions.size(),
                  straight.completions.size())
            << "cut " << cut;
        for (std::size_t i = 0; i < resumed.completions.size(); ++i) {
            EXPECT_EQ(resumed.completions[i].tag,
                      straight.completions[done + i].tag);
            EXPECT_EQ(resumed.completion_cycles[i],
                      straight.completion_cycles[done + i]);
        }
        EXPECT_TRUE(resumed.mfc.quiescent());
    }
}

TEST(Mfc, MetricsCountersMatchPublicStats) {
    // Regression: the dma.commands / dma.bytes counters must track the
    // public statistics one-for-one over a GET + PUT mix (they were once
    // gated on the latency histogram being attached).
    Harness h;
    sim::MetricsRegistry reg;
    reg.enable();
    h.mfc.attach_metrics(reg);

    ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(300)));
    MfcCommand put;
    put.op = MfcOp::kPut;
    put.tag = 7;
    put.mem_addr = 0x6000;
    put.ls_addr = 0x200;
    put.bytes = 200;
    ASSERT_TRUE(h.mfc.try_enqueue(put));
    ASSERT_TRUE(h.mfc.try_enqueue(get_cmd(64, 0x2000, 0x400)));
    h.run(600);

    EXPECT_EQ(h.mfc.commands_completed(), 3u);
    EXPECT_EQ(reg.counter("dma.commands")->value, h.mfc.commands_completed());
    EXPECT_EQ(reg.counter("dma.bytes")->value, h.mfc.bytes_transferred());
    EXPECT_EQ(reg.histogram("dma.tag_latency")->count(),
              h.mfc.commands_completed());
}

}  // namespace
}  // namespace dta::dma
