// TelemetrySampler mechanics: bounded-ring eviction order, the one-shot
// stall watchdog (trigger, latch, reset-on-progress, quiescence immunity),
// and the NDJSON line formats dta_top parses.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/check.hpp"
#include "sim/telemetry.hpp"

namespace dta::sim {
namespace {

TelemetryFrame frame_at(std::uint64_t cycle, std::uint64_t fp) {
    TelemetryFrame f;
    f.cycle = cycle;
    f.activity_fp = fp;
    f.instrs_retired = fp;  // any monotone stand-in
    return f;
}

TEST(Telemetry, ConfigMustBeSane) {
    TelemetryConfig bad;
    bad.interval = 0;
    EXPECT_THROW(TelemetrySampler{bad}, SimError);
    bad = TelemetryConfig{};
    bad.ring_capacity = 0;
    EXPECT_THROW(TelemetrySampler{bad}, SimError);
}

TEST(Telemetry, RingKeepsNewestAndCountsDrops) {
    TelemetryConfig cfg;
    cfg.ring_capacity = 4;
    cfg.watchdog_samples = 0;
    TelemetrySampler s(cfg);
    for (std::uint64_t i = 0; i < 10; ++i) {
        s.record(frame_at(i * 100, i), false);
    }
    const TelemetryResult r = s.result();
    EXPECT_TRUE(r.enabled);
    EXPECT_EQ(r.captured, 10u);
    EXPECT_EQ(r.dropped, 6u);
    ASSERT_EQ(r.frames.size(), 4u);
    // Oldest-first drain of the newest window.
    EXPECT_EQ(r.frames.front().cycle, 600u);
    EXPECT_EQ(r.frames.back().cycle, 900u);
    EXPECT_EQ(s.latest().cycle, 900u);
}

TEST(Telemetry, RingBelowCapacityKeepsEverything) {
    TelemetryConfig cfg;
    cfg.ring_capacity = 8;
    TelemetrySampler s(cfg);
    s.record(frame_at(0, 1), false);
    s.record(frame_at(100, 2), false);
    const TelemetryResult r = s.result();
    EXPECT_EQ(r.dropped, 0u);
    ASSERT_EQ(r.frames.size(), 2u);
    EXPECT_EQ(r.frames[0].cycle, 0u);
    EXPECT_EQ(r.frames[1].cycle, 100u);
}

TEST(Telemetry, WatchdogFiresOnceAfterNSamples) {
    TelemetryConfig cfg;
    cfg.watchdog_samples = 3;
    TelemetrySampler s(cfg);
    std::FILE* diag = std::tmpfile();
    ASSERT_NE(diag, nullptr);
    s.set_diag_stream(diag);
    int stall_info_calls = 0;
    s.set_stall_info([&stall_info_calls](TelemetryStall& st) {
        ++stall_info_calls;
        st.components = "lse0, pe1";
    });
    // Progress, then a frozen fingerprint; the reference sample (sample 0
    // of the freeze) does not count, the next 3 do.
    s.record(frame_at(0, 7), false);
    s.record(frame_at(100, 9), false);
    for (std::uint64_t i = 2; i < 10; ++i) {
        s.record(frame_at(i * 100, 9), false);
    }
    EXPECT_TRUE(s.stalled());
    EXPECT_EQ(stall_info_calls, 1) << "diagnostic must latch after firing";
    const TelemetryResult r = s.result();
    EXPECT_TRUE(r.stalled);
    EXPECT_EQ(r.stall.cycle, 400u);  // 3rd frozen sample after cycle 100
    EXPECT_EQ(r.stall.samples, 3u);
    EXPECT_EQ(r.stall.stalled_cycles, 300u);
    EXPECT_EQ(r.stall.components, "lse0, pe1");
    // Exactly one diagnostic line reached the stream.
    std::rewind(diag);
    std::string text;
    char buf[256];
    while (std::fgets(buf, sizeof buf, diag) != nullptr) {
        text += buf;
    }
    std::fclose(diag);
    std::size_t hits = 0;
    for (std::size_t at = text.find("telemetry watchdog:");
         at != std::string::npos;
         at = text.find("telemetry watchdog:", at + 1)) {
        ++hits;
    }
    EXPECT_EQ(hits, 1u) << text;
    EXPECT_NE(text.find("lse0"), std::string::npos) << text;
}

TEST(Telemetry, WatchdogResetsWhenProgressResumes) {
    TelemetryConfig cfg;
    cfg.watchdog_samples = 3;
    TelemetrySampler s(cfg);
    std::uint64_t cycle = 0;
    const auto freeze = [&](std::uint64_t fp, int n) {
        for (int i = 0; i < n; ++i) {
            s.record(frame_at(cycle, fp), false);
            cycle += 100;
        }
    };
    freeze(5, 3);   // 2 frozen samples — below the threshold
    freeze(6, 3);   // progress resets the streak, then 2 frozen again
    freeze(7, 3);
    EXPECT_FALSE(s.stalled());
}

TEST(Telemetry, WatchdogIgnoresQuiescentMachine) {
    TelemetryConfig cfg;
    cfg.watchdog_samples = 2;
    TelemetrySampler s(cfg);
    // A finished machine has a frozen fingerprint but is quiescent: a
    // drained run is completion, not a stall.
    for (std::uint64_t i = 0; i < 8; ++i) {
        s.record(frame_at(i * 100, 42), /*quiescent=*/true);
    }
    EXPECT_FALSE(s.stalled());
}

TEST(Telemetry, WatchdogDisabledByZeroSamples) {
    TelemetryConfig cfg;
    cfg.watchdog_samples = 0;
    TelemetrySampler s(cfg);
    for (std::uint64_t i = 0; i < 20; ++i) {
        s.record(frame_at(i * 100, 42), false);
    }
    EXPECT_FALSE(s.stalled());
}

TEST(Telemetry, NdjsonFrameLine) {
    TelemetryFrame f;
    f.cycle = 12800;
    f.pes_running = 3;
    f.threads_ready = 5;
    f.threads_waitdma = 2;
    f.frames_live = 9;
    f.mfc_commands = 4;
    f.dma_bytes = 512;
    f.mem_queue = 1;
    f.noc_pending = 6;
    f.instrs_retired = 777;
    f.host_ns = 1234;
    f.wheel_armed = 11;
    f.wheel_pops = 999;
    const std::string line = TelemetrySampler::ndjson_line(f);
    EXPECT_EQ(line,
              "{\"type\":\"frame\",\"cycle\":12800,\"running\":3,"
              "\"ready\":5,\"waitdma\":2,\"frames_live\":9,"
              "\"mfc_commands\":4,\"dma_bytes\":512,\"mem_queue\":1,"
              "\"noc_pending\":6,\"instrs_retired\":777,\"host_ns\":1234,"
              "\"wheel_armed\":11,\"wheel_pops\":999}\n");
}

TEST(Telemetry, NdjsonStallLineEscapes) {
    TelemetryStall st;
    st.cycle = 500;
    st.samples = 4;
    st.stalled_cycles = 400;
    st.components = "mfc0 \"queue\"\nlse1 c:\\x";
    st.replay = "dta_run p.dta --restore snap";
    const std::string line = TelemetrySampler::ndjson_stall_line(st);
    EXPECT_EQ(line,
              "{\"type\":\"stall\",\"cycle\":500,\"samples\":4,"
              "\"stalled_cycles\":400,"
              "\"components\":\"mfc0 \\\"queue\\\"\\nlse1 c:\\\\x\","
              "\"replay\":\"dta_run p.dta --restore snap\"}\n");
}

TEST(Telemetry, StreamWritesOneLinePerFrame) {
    // A plain file stands in for the FIFO: same fopen/fwrite path.
    TelemetryConfig cfg;
    cfg.watchdog_samples = 0;
    const std::string path = ::testing::TempDir() + "telemetry_stream.ndjson";
    cfg.stream_path = path;
    {
        TelemetrySampler s(cfg);
        s.record(frame_at(0, 1), false);
        s.record(frame_at(100, 2), false);
    }
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    int lines = 0;
    char buf[512];
    std::string first;
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
        if (lines == 0) {
            first = buf;
        }
        ++lines;
    }
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(lines, 2);
    EXPECT_NE(first.find("\"type\":\"frame\""), std::string::npos);
    EXPECT_NE(first.find("\"cycle\":0"), std::string::npos);
}

TEST(Telemetry, UnwritableStreamPathIsRefused) {
    TelemetryConfig cfg;
    cfg.stream_path = "/nonexistent-dir/telemetry.ndjson";
    EXPECT_THROW(TelemetrySampler{cfg}, SimError);
}

}  // namespace
}  // namespace dta::sim
