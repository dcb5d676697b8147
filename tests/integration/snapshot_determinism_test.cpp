// Checkpoint/restore must be invisible: a run that writes periodic
// snapshots produces byte-identical results to one that does not, and a
// run resumed from any snapshot finishes with byte-identical results to
// the straight run — same cycle count, same spans and DMA spans, same
// JSON run report, same DTAEV1 event log, same memory contents.  Each
// paper workload is exercised in both program variants (original and
// prefetch-pass) on a 4-node x 2-SPE machine, with the timing wheel
// on and off, resuming from snapshots at roughly the 25%, 50% and 75%
// marks.  Invariant audits stay on throughout, so every restore is also
// swept by the machine-wide auditor.  A final case checkpoints at fine
// granularity and proves that a snapshot taken with DMA transfers in
// flight restores and resumes correctly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "core/trace.hpp"
#include "dma/mfc.hpp"
#include "sim/check.hpp"
#include "sim/events.hpp"
#include "sim/snapshot.hpp"
#include "stats/json_report.hpp"
#include "workloads/bitcnt.hpp"
#include "workloads/mmul.hpp"
#include "workloads/zoom.hpp"

namespace dta::core {
namespace {

struct Captured {
    RunResult res;
    std::string json;
    std::string events;
};

Captured capture(RunResult res, std::uint32_t pes) {
    std::ostringstream ev;
    sim::write_events(ev, res.events, res.cycles, pes, res.code_names);
    std::string json = stats::run_report_json(res, "snap");
    return {std::move(res), std::move(json), ev.str()};
}

void expect_identical(const Captured& ref, const Captured& got) {
    EXPECT_EQ(ref.res.cycles, got.res.cycles);
    EXPECT_EQ(ref.json, got.json) << "JSON run report differs";
    EXPECT_EQ(ref.events, got.events) << "event log differs";
    ASSERT_EQ(ref.res.spans.size(), got.res.spans.size());
    for (std::size_t i = 0; i < ref.res.spans.size(); ++i) {
        const ThreadSpan& a = ref.res.spans[i];
        const ThreadSpan& b = got.res.spans[i];
        EXPECT_TRUE(a.pe == b.pe && a.begin == b.begin && a.end == b.end &&
                    a.code == b.code && a.slot == b.slot &&
                    a.resumed == b.resumed)
            << "span " << i;
    }
    ASSERT_EQ(ref.res.dma_spans.size(), got.res.dma_spans.size());
    for (std::size_t i = 0; i < ref.res.dma_spans.size(); ++i) {
        const dma::DmaSpan& a = ref.res.dma_spans[i];
        const dma::DmaSpan& b = got.res.dma_spans[i];
        EXPECT_TRUE(a.pe == b.pe && a.tag == b.tag && a.op == b.op &&
                    a.bytes == b.bytes && a.begin == b.begin && a.end == b.end)
            << "dma span " << i;
    }
}

MachineConfig cell_config(MachineConfig cfg, bool use_wheel) {
    cfg.nodes = 4;
    cfg.spes_per_node = 2;
    cfg.use_wheel = use_wheel;
    cfg.capture_spans = true;
    cfg.collect_metrics = true;
    cfg.collect_events = true;
    cfg.audit.enabled = true;
    return cfg;
}

std::string snap_path(const std::string& prefix, sim::Cycle cycle) {
    return prefix + ".c" + std::to_string(cycle) + ".dtasnap";
}

/// One matrix cell: straight reference run, a checkpointing run that must
/// match it exactly, then a resume from each quarter-mark snapshot, each
/// of which must also match it exactly.
template <typename Workload>
void check_cell(const Workload& w, const MachineConfig& base,
                const std::string& tag, bool prefetch, bool use_wheel) {
    SCOPED_TRACE(tag + (prefetch ? "/pf" : "/orig") +
                 (use_wheel ? "/wheel" : "/dense"));
    const MachineConfig cfg = cell_config(base, use_wheel);
    const isa::Program& prog = prefetch ? w.prefetch_program() : w.program();

    Captured ref;
    {
        Machine m(cfg, prog);
        w.init_memory(m.memory());
        m.launch(w.entry_args());
        RunResult res = m.run();
        std::string why;
        ASSERT_TRUE(w.check(m.memory(), &why)) << why;
        ref = capture(std::move(res), cfg.total_pes());
    }
    ASSERT_GT(ref.res.cycles, 16u);

    // Same run again, writing a snapshot at every quarter mark.  The
    // observer must not perturb a single byte of the results.
    const sim::Cycle every = ref.res.cycles / 4;
    const std::string prefix = testing::TempDir() + "snapdet_" + tag +
                               (prefetch ? "_pf" : "_orig") +
                               (use_wheel ? "_wheel" : "_dense");
    std::vector<sim::Cycle> cuts;
    {
        Machine m(cfg, prog);
        m.set_checkpoints(every, prefix);
        w.init_memory(m.memory());
        m.launch(w.entry_args());
        RunResult res = m.run();
        std::string why;
        ASSERT_TRUE(w.check(m.memory(), &why)) << why;
        expect_identical(ref, capture(std::move(res), cfg.total_pes()));
        EXPECT_NE(m.last_checkpoint_cycle(), 0u);
    }
    for (sim::Cycle c = every; c < ref.res.cycles; c += every) {
        cuts.push_back(c);
    }
    ASSERT_GE(cuts.size(), 3u);

    // Resume from each snapshot in a fresh machine: restore() replaces
    // init_memory() + launch() entirely.
    for (const sim::Cycle cut : cuts) {
        SCOPED_TRACE("resume@" + std::to_string(cut));
        Machine m(cfg, prog);
        m.restore(snap_path(prefix, cut));
        EXPECT_EQ(m.start_cycle(), cut);
        RunResult res = m.run();
        std::string why;
        ASSERT_TRUE(w.check(m.memory(), &why)) << why;
        expect_identical(ref, capture(std::move(res), cfg.total_pes()));
    }
    for (const sim::Cycle cut : cuts) {
        std::remove(snap_path(prefix, cut).c_str());
    }
}

/// Full matrix for one workload: {orig, pf} x wheel {on, off}.
template <typename Workload>
void check_all_cells(const Workload& w, const MachineConfig& base,
                     const std::string& tag) {
    for (const bool prefetch : {false, true}) {
        for (const bool use_wheel : {true, false}) {
            check_cell(w, base, tag, prefetch, use_wheel);
        }
    }
}

TEST(SnapshotDeterminism, BitCount) {
    workloads::BitCount::Params p;
    p.iterations = 128;
    const workloads::BitCount w(p);
    check_all_cells(w, workloads::BitCount::machine_config(8), "bitcnt");
}

TEST(SnapshotDeterminism, MatMul) {
    workloads::MatMul::Params p;
    p.n = 16;
    p.threads = 16;
    const workloads::MatMul w(p);
    check_all_cells(w, workloads::MatMul::machine_config(8), "mmul");
}

TEST(SnapshotDeterminism, Zoom) {
    workloads::Zoom::Params p;
    p.n = 16;
    p.factor = 4;
    p.threads = 16;
    const workloads::Zoom w(p);
    check_all_cells(w, workloads::Zoom::machine_config(8), "zoom");
}

// A snapshot taken while DMA transfers are in flight (MFC commands issued
// but not yet complete) must restore and resume exactly.  The prefetch
// matmul keeps the MFCs busy, so fine-grained checkpoints are near-certain
// to land mid-transfer; the test demands at least one does.
TEST(SnapshotDeterminism, MidDmaCheckpoint) {
    workloads::MatMul::Params p;
    p.n = 16;
    p.threads = 16;
    const workloads::MatMul w(p);
    const MachineConfig cfg =
        cell_config(workloads::MatMul::machine_config(8), true);
    const isa::Program& prog = w.prefetch_program();

    Captured ref;
    {
        Machine m(cfg, prog);
        w.init_memory(m.memory());
        m.launch(w.entry_args());
        ref = capture(m.run(), cfg.total_pes());
    }
    const sim::Cycle every = std::max<sim::Cycle>(ref.res.cycles / 16, 1);
    const std::string prefix = testing::TempDir() + "snapdet_middma";
    {
        Machine m(cfg, prog);
        m.set_checkpoints(every, prefix);
        w.init_memory(m.memory());
        m.launch(w.entry_args());
        expect_identical(ref, capture(m.run(), cfg.total_pes()));
    }

    std::uint32_t mid_dma_snapshots = 0;
    for (sim::Cycle cut = every; cut < ref.res.cycles; cut += every) {
        Machine m(cfg, prog);
        m.restore(snap_path(prefix, cut));
        std::size_t in_flight = 0;
        for (std::uint32_t id = 0; id < m.num_pes(); ++id) {
            in_flight += m.pe(id).mfc().commands_in_flight();
        }
        if (in_flight == 0) {
            continue;
        }
        ++mid_dma_snapshots;
        SCOPED_TRACE("mid-DMA resume@" + std::to_string(cut));
        RunResult res = m.run();
        std::string why;
        ASSERT_TRUE(w.check(m.memory(), &why)) << why;
        expect_identical(ref, capture(std::move(res), cfg.total_pes()));
    }
    EXPECT_GE(mid_dma_snapshots, 1u)
        << "no snapshot landed with DMA in flight; tighten the interval";
    for (sim::Cycle cut = every; cut < ref.res.cycles; cut += every) {
        std::remove(snap_path(prefix, cut).c_str());
    }
}

// Restoring a snapshot into a machine with a different structural config
// or a different program is refused up front with a clean SimError that
// names both fingerprints.
TEST(SnapshotDeterminism, MismatchedConfigOrProgramRejected) {
    workloads::BitCount::Params p;
    p.iterations = 64;
    const workloads::BitCount w(p);
    const MachineConfig cfg =
        cell_config(workloads::BitCount::machine_config(8), true);
    const std::string path = testing::TempDir() + "snapdet_mismatch.dtasnap";
    {
        Machine m(cfg, w.program());
        w.init_memory(m.memory());
        m.launch(w.entry_args());
        m.checkpoint(path);  // cycle-0 snapshot, pre-run
    }

    {
        MachineConfig other = cfg;
        other.spes_per_node = 4;  // different machine shape
        Machine m(other, w.program());
        try {
            m.restore(path);
            FAIL() << "config mismatch accepted";
        } catch (const sim::SimError& e) {
            EXPECT_NE(std::string(e.what()).find("fingerprint"),
                      std::string::npos)
                << e.what();
        }
    }
    {
        Machine m(cfg, w.prefetch_program());  // different program
        EXPECT_THROW(m.restore(path), sim::SimError);
    }
    {
        // Observer knobs are excluded from the fingerprint: replaying under
        // the per-cycle reference policy must be accepted.
        MachineConfig replay = cfg;
        replay.use_wheel = false;
        Machine m(replay, w.program());
        m.restore(path);
        RunResult res = m.run();
        std::string why;
        EXPECT_TRUE(w.check(m.memory(), &why)) << why;
        EXPECT_GT(res.cycles, 0u);
    }
    std::remove(path.c_str());
}

// The section list is part of the snapshot format (v4): renaming a
// component, or the ring links the Machine names itself, must show up
// here rather than slip into the format unnoticed.
TEST(SnapshotDeterminism, SectionNamesArePinned) {
    workloads::BitCount::Params p;
    p.iterations = 64;
    const workloads::BitCount w(p);
    MachineConfig cfg = workloads::BitCount::machine_config(8);
    cfg.nodes = 3;
    cfg.spes_per_node = 2;
    const std::string path = testing::TempDir() + "snapdet_sections.dtasnap";
    {
        Machine m(cfg, w.program());
        w.init_memory(m.memory());
        m.launch(w.entry_args());
        m.checkpoint(path);
    }
    const std::vector<std::string> want = {
        "config", "dse0",    "dse1",    "dse2",    "events",  "link0",
        "link1",  "link2",   "machine", "mem",     "memif",   "metrics",
        "noc0",   "noc1",    "noc2",    "pe0",     "pe1",     "pe2",
        "pe3",    "pe4",     "pe5",     "router0", "router1", "router2",
        "spans"};
    EXPECT_EQ(sim::SnapshotReader(path).section_names(), want);
    std::remove(path.c_str());
}

// A cycle-0 checkpoint taken right after launch() restores into a fresh
// machine and runs to the same result as the original.
TEST(SnapshotDeterminism, LaunchCheckpointRoundTrip) {
    workloads::Zoom::Params p;
    p.n = 16;
    p.factor = 4;
    p.threads = 16;
    const workloads::Zoom w(p);
    const MachineConfig cfg =
        cell_config(workloads::Zoom::machine_config(8), true);
    const std::string path = testing::TempDir() + "snapdet_launch.dtasnap";

    Captured ref;
    {
        Machine m(cfg, w.program());
        w.init_memory(m.memory());
        m.launch(w.entry_args());
        m.checkpoint(path);
        ref = capture(m.run(), cfg.total_pes());
    }
    {
        Machine m(cfg, w.program());
        m.restore(path);
        EXPECT_EQ(m.start_cycle(), 0u);
        RunResult res = m.run();
        std::string why;
        ASSERT_TRUE(w.check(m.memory(), &why)) << why;
        expect_identical(ref, capture(std::move(res), cfg.total_pes()));
    }
    std::remove(path.c_str());
}

// --stop-at semantics: the run ends exactly at the requested cycle with
// partial results, and resuming a snapshot up to the same stop cycle gives
// the same partial results.
TEST(SnapshotDeterminism, StopAtProducesIdenticalPartialResults) {
    workloads::BitCount::Params p;
    p.iterations = 128;
    const workloads::BitCount w(p);
    const MachineConfig cfg =
        cell_config(workloads::BitCount::machine_config(8), true);

    sim::Cycle total = 0;
    {
        Machine m(cfg, w.program());
        w.init_memory(m.memory());
        m.launch(w.entry_args());
        total = m.run().cycles;
    }
    const sim::Cycle quarter = total / 4;
    const sim::Cycle stop = 2 * quarter;
    const std::string prefix = testing::TempDir() + "snapdet_stopat";

    Captured straight;
    {
        Machine m(cfg, w.program());
        m.set_checkpoints(quarter, prefix);
        m.set_stop_at(stop);
        w.init_memory(m.memory());
        m.launch(w.entry_args());
        RunResult res = m.run();
        EXPECT_EQ(res.cycles, stop);
        straight = capture(std::move(res), cfg.total_pes());
    }
    {
        Machine m(cfg, w.program());
        m.set_stop_at(stop);
        m.restore(snap_path(prefix, quarter));
        RunResult res = m.run();
        EXPECT_EQ(res.cycles, stop);
        expect_identical(straight, capture(std::move(res), cfg.total_pes()));
    }
    for (sim::Cycle c = quarter; c < total; c += quarter) {
        std::remove(snap_path(prefix, c).c_str());
    }
}

}  // namespace
}  // namespace dta::core
