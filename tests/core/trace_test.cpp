// Per-thread profiling and span/trace capture.
#include "core/trace.hpp"

#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "isa/builder.hpp"
#include "stats/json_report.hpp"
#include "test_util.hpp"
#include "workloads/harness.hpp"
#include "workloads/mmul.hpp"

namespace dta::core {
namespace {

using isa::CodeBlock;
using isa::r;

isa::Program two_workers() {
    isa::Program prog;
    isa::CodeBuilder w("leaf", 1);
    w.block(CodeBlock::kPl).load(r(1), 0);
    w.block(CodeBlock::kEx).muli(r(2), r(1), 3);
    w.block(CodeBlock::kPs).ffree().stop();
    const auto leaf = prog.add(std::move(w).build());
    isa::CodeBuilder m("root", 0);
    m.block(CodeBlock::kPs)
        .falloc(r(1), leaf)
        .movi(r(2), 1)
        .store(r(2), r(1), 0)
        .falloc(r(3), leaf)
        .movi(r(4), 2)
        .store(r(4), r(3), 0)
        .ffree()
        .stop();
    prog.entry = prog.add(std::move(m).build());
    return prog;
}

TEST(Profile, CountsPerCodeActivity) {
    core::Machine m(test::tiny_config(2), two_workers());
    m.launch({});
    const auto res = m.run();
    ASSERT_EQ(res.profile.size(), 2u);
    EXPECT_EQ(res.profile[0].name, "leaf");
    EXPECT_EQ(res.profile[0].threads_started, 2u);
    EXPECT_EQ(res.profile[0].dispatches, 2u);
    EXPECT_EQ(res.profile[1].name, "root");
    EXPECT_EQ(res.profile[1].threads_started, 1u);
    // Every instruction belongs to some code.
    EXPECT_EQ(res.profile[0].instructions + res.profile[1].instructions,
              res.total_instrs().total());
    EXPECT_GT(res.profile[0].pipeline_cycles, 0u);
}

TEST(Profile, ResumesCountAsDispatchesNotStarts) {
    // A prefetching workload: every worker suspends once, so dispatches =
    // 2x starts for the worker code.
    workloads::MatMul::Params p;
    p.n = 16;
    p.threads = 8;
    const workloads::MatMul wl(p);
    core::Machine m(workloads::MatMul::machine_config(4),
                    wl.prefetch_program());
    wl.init_memory(m.memory());
    m.launch({});
    const auto res = m.run();
    const auto& worker = res.profile[0];  // mmul_worker+pf
    EXPECT_EQ(worker.threads_started, 8u);
    EXPECT_EQ(worker.dispatches, 16u);
}

TEST(Spans, CapturedWhenEnabled) {
    auto cfg = test::tiny_config(2);
    cfg.capture_spans = true;
    core::Machine m(cfg, two_workers());
    m.launch({});
    const auto res = m.run();
    // root + 2 leaves, no suspensions: exactly 3 spans.
    ASSERT_EQ(res.spans.size(), 3u);
    for (const auto& s : res.spans) {
        EXPECT_LT(s.begin, s.end);
        EXPECT_LT(s.pe, 2u);
        EXPECT_LE(s.end, res.cycles);
    }
    // Spans on the same PE never overlap.
    for (std::size_t i = 0; i < res.spans.size(); ++i) {
        for (std::size_t j = i + 1; j < res.spans.size(); ++j) {
            if (res.spans[i].pe != res.spans[j].pe) {
                continue;
            }
            const bool disjoint = res.spans[i].end <= res.spans[j].begin ||
                                  res.spans[j].end <= res.spans[i].begin;
            EXPECT_TRUE(disjoint) << "spans " << i << " and " << j;
        }
    }
}

TEST(Spans, OffByDefault) {
    core::Machine m(test::tiny_config(2), two_workers());
    m.launch({});
    const auto res = m.run();
    EXPECT_TRUE(res.spans.empty());
}

TEST(Spans, ResumedFlagMarksPostDmaContinuations) {
    workloads::MatMul::Params p;
    p.n = 8;
    p.threads = 4;
    const workloads::MatMul wl(p);
    auto cfg = workloads::MatMul::machine_config(2);
    cfg.capture_spans = true;
    core::Machine m(cfg, wl.prefetch_program());
    wl.init_memory(m.memory());
    m.launch({});
    const auto res = m.run();
    std::size_t resumed = 0;
    for (const auto& s : res.spans) {
        resumed += s.resumed ? 1 : 0;
    }
    EXPECT_EQ(resumed, 4u);  // one resume per worker
}

TEST(ChromeTrace, EmitsWellFormedJson) {
    std::vector<ThreadSpan> spans;
    spans.push_back(ThreadSpan{0, 10, 25, 0, 3, false});
    spans.push_back(ThreadSpan{1, 12, 40, 1, 0, true});
    const std::string json =
        chrome_trace_json(spans, {"alpha", "beta"});
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find(R"("name": "alpha")"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"beta (resume)\""), std::string::npos);
    EXPECT_NE(json.find(R"("ts": 10)"), std::string::npos);
    EXPECT_NE(json.find(R"("dur": 15)"), std::string::npos);
    EXPECT_NE(json.find(R"("tid": 1)"), std::string::npos);
    // Unknown code ids degrade gracefully.
    const std::string fallback =
        chrome_trace_json({ThreadSpan{0, 0, 1, 7, 0, false}}, {});
    EXPECT_NE(fallback.find("code7"), std::string::npos);
}

TEST(ChromeTrace, EmitsCounterTracksAndDmaSlices) {
    sim::MetricsRegistry reg;
    reg.enable();
    sim::GaugeSeries* q = reg.gauge("mem.queue_depth");
    q->sample(0, 0);
    q->sample(256, 5);
    reg.gauge("dma.commands_in_flight")->sample(256, 2);

    std::vector<dma::DmaSpan> dma;
    dma.push_back(dma::DmaSpan{3, 1, dma::MfcOp::kGet, 512, 100, 180});

    const std::string json = chrome_trace_json({}, {}, reg, dma);
    // Counter events: ph C, one per sample, named after the gauge.
    EXPECT_NE(json.find(R"("name": "mem.queue_depth", "cat": "gauge", )"
                        R"("ph": "C", "ts": 256, "pid": 1, )"
                        R"("args": {"value": 5})"),
              std::string::npos);
    EXPECT_NE(json.find(R"("name": "dma.commands_in_flight")"),
              std::string::npos);
    // DMA transfers: async begin/end pair on the DMA process, tid = PE.
    EXPECT_NE(json.find(R"("name": "GET 512B", "cat": "dma", "ph": "b")"),
              std::string::npos);
    EXPECT_NE(json.find(R"("ph": "e")"), std::string::npos);
    EXPECT_NE(json.find(R"("ts": 100, "pid": 2, "tid": 3)"),
              std::string::npos);
    // Process-name metadata labels all three tracks.
    EXPECT_NE(json.find(R"({"name": "counters"})"), std::string::npos);
    EXPECT_NE(json.find(R"({"name": "DMA"})"), std::string::npos);
}

TEST(ChromeTrace, EmitsTrackMetadataAndFlowArrows) {
    std::vector<ThreadSpan> spans;
    spans.push_back(ThreadSpan{0, 10, 25, 0, 3, false});
    spans.push_back(ThreadSpan{2, 30, 40, 1, 0, false});

    std::vector<TraceFlow> flows;
    flows.push_back(TraceFlow{0, 20, 2, 30, false});
    flows.push_back(TraceFlow{0, 22, 2, 30, true});

    sim::MetricsRegistry reg;
    const std::string json =
        chrome_trace_json(spans, {"alpha", "beta"}, reg, {}, flows);
    EXPECT_TRUE(stats::validate_json(json));
    // Perfetto row metadata: every SPU row up to the highest seen gets a
    // name and a sort index pinning PE order.
    EXPECT_NE(json.find(R"("name": "thread_name", "ph": "M", "pid": 0, )"
                        R"("tid": 1, "args": {"name": "spu1"})"),
              std::string::npos);
    EXPECT_NE(json.find(R"("name": "thread_sort_index", "ph": "M", )"
                        R"("pid": 0, "tid": 2, "args": {"sort_index": 2})"),
              std::string::npos);
    // Flow arrows: start inside the producer slice, finish bound to the
    // consumer slice's enclosing edge.
    EXPECT_NE(json.find(R"("name": "store", "cat": "dataflow", "ph": "s", )"
                        R"("id": 0, "ts": 20, "pid": 0, "tid": 0)"),
              std::string::npos);
    EXPECT_NE(json.find(R"("ph": "f", "bp": "e", "id": 0, "ts": 30, )"
                        R"("pid": 0, "tid": 2)"),
              std::string::npos);
    // The critical-path edge is named so the UI can filter it.
    EXPECT_NE(json.find(R"("name": "critical-store", "cat": "dataflow", )"
                        R"("ph": "s", "id": 1, "ts": 22)"),
              std::string::npos);
}

TEST(ChromeTrace, FourArgOverloadMatchesEmptyFlows) {
    std::vector<ThreadSpan> spans;
    spans.push_back(ThreadSpan{0, 0, 5, 0, 0, false});
    sim::MetricsRegistry reg;
    EXPECT_EQ(chrome_trace_json(spans, {"a"}, reg, {}),
              chrome_trace_json(spans, {"a"}, reg, {}, {}));
}

/// Occurrences of \p needle in \p hay (for event-balance counting).
std::size_t count_of(const std::string& hay, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size())) {
        ++n;
    }
    return n;
}

TEST(ChromeTrace, FlowAndAsyncEventsBalance) {
    std::vector<ThreadSpan> spans;
    spans.push_back(ThreadSpan{0, 10, 25, 0, 0, false});
    spans.push_back(ThreadSpan{1, 30, 40, 0, 0, false});
    std::vector<TraceFlow> flows;
    flows.push_back(TraceFlow{0, 20, 1, 30, false});
    flows.push_back(TraceFlow{0, 22, 1, 30, true});
    flows.push_back(TraceFlow{0, 24, 1, 30, false});
    std::vector<dma::DmaSpan> dma;
    dma.push_back(dma::DmaSpan{0, 1, dma::MfcOp::kGet, 512, 5, 30});
    dma.push_back(dma::DmaSpan{1, 2, dma::MfcOp::kPut, 256, 12, 20});
    sim::MetricsRegistry reg;
    const std::string json =
        chrome_trace_json(spans, {"w"}, reg, dma, flows);
    EXPECT_TRUE(stats::validate_json(json));
    // Every flow start has exactly one finish, every async begin an end.
    EXPECT_EQ(count_of(json, R"("ph": "s")"), 3u);
    EXPECT_EQ(count_of(json, R"("ph": "f")"), 3u);
    EXPECT_EQ(count_of(json, R"("ph": "b")"), 2u);
    EXPECT_EQ(count_of(json, R"("ph": "e")"), 2u);
}

TEST(ChromeTrace, HostProfileTracksWhenEnabled) {
    sim::HostProfile host;
    host.enabled = true;
    host.wall_ns = 1000;
    const auto tick = static_cast<std::size_t>(sim::ProfPhase::kTick);
    host.phase_ns[tick] = 700;
    sim::ProfSnapshot s0;
    s0.cycle = 0;
    s0.ns[tick] = 300;
    sim::ProfSnapshot s1;
    s1.cycle = 256;
    s1.ns[tick] = 700;
    host.samples = {s0, s1};

    sim::MetricsRegistry reg;
    const std::string json =
        chrome_trace_json({}, {}, reg, {}, {}, host);
    EXPECT_TRUE(stats::validate_json(json));
    // The host process track exists, named per phase, and each sample
    // plots the delta since the previous snapshot.
    EXPECT_NE(json.find(R"({"name": "host"})"), std::string::npos);
    EXPECT_NE(json.find(R"j("name": "tick (ns)", "cat": "host", )j"
                        R"("ph": "C", "ts": 0, "pid": 3, )"
                        R"("args": {"value": 300})"),
              std::string::npos);
    EXPECT_NE(json.find(R"("ts": 256, "pid": 3, "args": {"value": 400})"),
              std::string::npos);
    // Phases the run never touched get no track.
    EXPECT_EQ(json.find("audit"), std::string::npos);
}

TEST(ChromeTrace, DisabledHostProfileMatchesFlowVariant) {
    std::vector<ThreadSpan> spans;
    spans.push_back(ThreadSpan{0, 0, 5, 0, 0, false});
    sim::MetricsRegistry reg;
    EXPECT_EQ(chrome_trace_json(spans, {"a"}, reg, {}, {}),
              chrome_trace_json(spans, {"a"}, reg, {}, {},
                                sim::HostProfile{}));
}

TEST(ChromeTrace, FullVariantFromRealRunIsWellFormed) {
    workloads::MatMul::Params p;
    p.n = 8;
    p.threads = 4;
    const workloads::MatMul wl(p);
    auto cfg = workloads::MatMul::machine_config(2);
    cfg.capture_spans = true;
    cfg.collect_metrics = true;
    core::Machine m(cfg, wl.prefetch_program());
    wl.init_memory(m.memory());
    m.launch({});
    const auto res = m.run();
    ASSERT_FALSE(res.dma_spans.empty());
    ASSERT_GE(res.metrics.gauges().size(), 2u);
    const std::string json =
        chrome_trace_json(res.spans, res.code_names, res.metrics,
                          res.dma_spans);
    // Every DMA span must fit the run and be non-empty.
    for (const auto& d : res.dma_spans) {
        EXPECT_LT(d.begin, d.end);
        EXPECT_LE(d.end, res.cycles);
    }
    EXPECT_TRUE(stats::validate_json(json));
    EXPECT_NE(json.find(R"("ph": "C")"), std::string::npos);
    EXPECT_NE(json.find(R"("ph": "b")"), std::string::npos);
}

}  // namespace
}  // namespace dta::core
