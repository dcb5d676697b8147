// The sweep server's core contracts (docs/SERVING.md): wire framing over
// plain fds, the on-disk result cache (hit/miss/eviction/corruption), and
// the Engine's request handling — batch replies, backpressure, cache-hit
// verification and snapshot warm starts, all byte-compared where the
// protocol promises byte identity.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/job.hpp"
#include "stats/json_value.hpp"

namespace dta::serve {
namespace {

std::string tmp_path(const std::string& name) {
    return testing::TempDir() + "serve_test_" + name;
}

/// tmp_path that also wipes any residue of a previous test run — the
/// cache tests assert exact hit/miss counts, so a stale entry from an
/// earlier ctest invocation must not turn a scripted miss into a hit.
std::string fresh_dir(const std::string& name) {
    const std::string dir = tmp_path(name);
    std::filesystem::remove_all(dir);
    return dir;
}

/// A pipe whose ends close with the object (framing is fd-level, so the
/// protocol tests never need a real socket).
struct Pipe {
    int fds[2] = {-1, -1};
    Pipe() { EXPECT_EQ(::pipe(fds), 0); }
    ~Pipe() {
        close_read();
        close_write();
    }
    void close_read() {
        if (fds[0] >= 0) {
            ::close(fds[0]);
            fds[0] = -1;
        }
    }
    void close_write() {
        if (fds[1] >= 0) {
            ::close(fds[1]);
            fds[1] = -1;
        }
    }
};

TEST(Framing, RoundTripsPayloads) {
    Pipe p;
    // All frames are queued before any is read, so the total must stay
    // under the pipe's 64 KiB buffer or the writer blocks forever.
    const std::string payloads[] = {"", "x", "{\"op\":\"ping\"}",
                                    std::string(30000, 'a')};
    for (const std::string& out : payloads) {
        ASSERT_TRUE(write_frame(p.fds[1], out));
    }
    std::string in;
    for (const std::string& out : payloads) {
        ASSERT_EQ(read_frame(p.fds[0], in), FrameStatus::kOk);
        EXPECT_EQ(in, out);
    }
}

TEST(Framing, CleanEofAtFrameBoundary) {
    Pipe p;
    ASSERT_TRUE(write_frame(p.fds[1], "last"));
    p.close_write();
    std::string in;
    ASSERT_EQ(read_frame(p.fds[0], in), FrameStatus::kOk);
    EXPECT_EQ(in, "last");
    EXPECT_EQ(read_frame(p.fds[0], in), FrameStatus::kEof);
}

TEST(Framing, TruncatedFrameIsAnError) {
    Pipe p;
    // Header promises 100 bytes; only 4 arrive before EOF.
    const unsigned char raw[] = {100, 0, 0, 0, 'o', 'o', 'p', 's'};
    ASSERT_EQ(::write(p.fds[1], raw, sizeof raw),
              static_cast<ssize_t>(sizeof raw));
    p.close_write();
    std::string in;
    EXPECT_EQ(read_frame(p.fds[0], in), FrameStatus::kError);
}

TEST(Framing, TruncatedHeaderIsAnError) {
    Pipe p;
    const unsigned char raw[] = {1, 0};  // two of four header bytes
    ASSERT_EQ(::write(p.fds[1], raw, sizeof raw), 2);
    p.close_write();
    std::string in;
    EXPECT_EQ(read_frame(p.fds[0], in), FrameStatus::kError);
}

TEST(Framing, OversizedFrameRefusedBeforeAllocation) {
    Pipe p;
    // Header claims kMaxFrameBytes + 1; no payload needed — the reader
    // must refuse on the prefix alone.
    const std::uint32_t len = kMaxFrameBytes + 1;
    unsigned char hdr[4];
    for (int i = 0; i < 4; ++i) {
        hdr[i] = static_cast<unsigned char>((len >> (8 * i)) & 0xffu);
    }
    ASSERT_EQ(::write(p.fds[1], hdr, 4), 4);
    std::string in;
    EXPECT_EQ(read_frame(p.fds[0], in), FrameStatus::kOversized);
    // The writer enforces the same bound.
    EXPECT_FALSE(write_frame(p.fds[1], std::string(kMaxFrameBytes + 1, 'x')));
}

TEST(Cache, MissThenStoreThenHit) {
    const std::string dir = fresh_dir("cache_basic");
    ResultCache cache(dir);
    EXPECT_FALSE(cache.lookup(42).has_value());
    ASSERT_TRUE(cache.store(42, "report bytes"));
    const auto hit = cache.lookup(42);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "report bytes");
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(Cache, PersistsAcrossReopen) {
    const std::string dir = fresh_dir("cache_reopen");
    {
        ResultCache cache(dir);
        ASSERT_TRUE(cache.store(7, "persisted"));
    }
    ResultCache cache(dir);
    EXPECT_EQ(cache.entry_count(), 1u);
    const auto hit = cache.lookup(7);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "persisted");
}

TEST(Cache, CorruptEntryIsAMissAndDeleted) {
    const std::string dir = fresh_dir("cache_corrupt");
    ResultCache cache(dir);
    ASSERT_TRUE(cache.store(9, "precious"));
    // Flip one payload byte on disk behind the cache's back.
    const std::string path = cache.entry_path(9);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(-3, std::ios::end);
    f.put('X');
    f.close();
    EXPECT_FALSE(cache.lookup(9).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_EQ(cache.entry_count(), 0u);
    // The poisoned file is gone, not re-served on reopen.
    std::ifstream gone(path);
    EXPECT_FALSE(gone.is_open());
}

TEST(Cache, TruncatedEntryIsAMiss) {
    const std::string dir = fresh_dir("cache_trunc");
    ResultCache cache(dir);
    ASSERT_TRUE(cache.store(11, std::string(256, 'z')));
    const std::string path = cache.entry_path(11);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    out.close();
    EXPECT_FALSE(cache.lookup(11).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST(Cache, EvictsLeastRecentlyUsedOverBudget) {
    const std::string dir = fresh_dir("cache_lru");
    // Budget fits two 100-byte payloads, not three.
    ResultCache cache(dir, 250);
    ASSERT_TRUE(cache.store(1, std::string(100, 'a')));
    ASSERT_TRUE(cache.store(2, std::string(100, 'b')));
    // Touch 1 so 2 becomes the LRU entry.
    EXPECT_TRUE(cache.lookup(1).has_value());
    ASSERT_TRUE(cache.store(3, std::string(100, 'c')));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(cache.lookup(1).has_value());
    EXPECT_FALSE(cache.lookup(2).has_value());
    EXPECT_TRUE(cache.lookup(3).has_value());
}

TEST(Cache, OversizedSingleEntrySurvivesEviction) {
    const std::string dir = fresh_dir("cache_one");
    ResultCache cache(dir, 10);
    ASSERT_TRUE(cache.store(5, std::string(100, 'x')));
    // The budget can never fit it, but the just-stored entry must not be
    // evicted out from under its own store.
    EXPECT_EQ(cache.entry_count(), 1u);
    EXPECT_TRUE(cache.lookup(5).has_value());
}

// --- Engine-level tests (socket-free: handle_request directly). ---

/// One request through the engine; returns the reply frames.
std::vector<std::string> ask(Engine& engine, const std::string& payload,
                             bool* shutdown = nullptr) {
    bool flag = false;
    auto frames = engine.handle_request(payload, flag);
    if (shutdown != nullptr) {
        *shutdown = flag;
    }
    return frames;
}

bool meta_ok(const std::string& frame) {
    const stats::JsonParseResult r = stats::parse_json(frame);
    const stats::JsonValue* ok =
        r.ok ? r.value.find("ok", stats::JsonValue::Kind::kBool) : nullptr;
    return ok != nullptr && ok->as_bool();
}

const stats::JsonValue* meta_field(const stats::JsonParseResult& r,
                                   const char* key,
                                   stats::JsonValue::Kind kind) {
    return r.ok ? r.value.find(key, kind) : nullptr;
}

std::string mmul_job(const std::string& id, const std::string& extra = "") {
    return "{\"op\":\"run\",\"jobs\":[{\"id\":\"" + id +
           "\",\"workload\":\"mmul\",\"scale\":\"ci\"" + extra + "}]}";
}

TEST(Engine, PingAndUnknownOpAndGarbage) {
    EngineConfig cfg;
    cfg.workers = 1;
    Engine engine(cfg);
    auto pong = ask(engine, "{\"op\":\"ping\"}");
    ASSERT_EQ(pong.size(), 1u);
    EXPECT_TRUE(meta_ok(pong[0]));

    // Malformed JSON, missing op, unknown op: one error frame each, and
    // the engine keeps answering afterwards.
    for (const char* bad :
         {"not json at all", "{\"op\":\"ping\"}x", "{}", "{\"op\":\"frobnicate\"}",
          "{\"op\":\"ping\",\"op\":\"stats\"}", ""}) {
        auto frames = ask(engine, bad);
        ASSERT_EQ(frames.size(), 1u) << bad;
        EXPECT_FALSE(meta_ok(frames[0])) << bad;
    }
    EXPECT_TRUE(meta_ok(ask(engine, "{\"op\":\"ping\"}")[0]));
}

TEST(Engine, ShutdownSetsTheFlag) {
    EngineConfig cfg;
    cfg.workers = 1;
    Engine engine(cfg);
    bool shutdown = false;
    auto frames = ask(engine, "{\"op\":\"shutdown\"}", &shutdown);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_TRUE(meta_ok(frames[0]));
    EXPECT_TRUE(shutdown);
}

TEST(Engine, BadJobSpecsFailWithoutRunning) {
    EngineConfig cfg;
    cfg.workers = 1;
    Engine engine(cfg);
    // Unknown workload, unknown field, missing program: header + one
    // not-ok meta frame each, no report frame.
    for (const char* jobs :
         {"{\"op\":\"run\",\"jobs\":[{\"workload\":\"quicksort\"}]}",
          "{\"op\":\"run\",\"jobs\":[{\"workload\":\"mmul\",\"prefetchh\":true}]}",
          "{\"op\":\"run\",\"jobs\":[{\"workload\":\"asm\"}]}"}) {
        auto frames = ask(engine, jobs);
        ASSERT_EQ(frames.size(), 2u) << jobs;
        EXPECT_TRUE(meta_ok(frames[0])) << jobs;   // batch header
        EXPECT_FALSE(meta_ok(frames[1])) << jobs;  // job error
    }
    // A run request with no job array is a request-level error.
    auto frames = ask(engine, "{\"op\":\"run\"}");
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_FALSE(meta_ok(frames[0]));
}

TEST(Engine, ZeroCapacityQueueAnswersBusy) {
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 0;
    Engine engine(cfg);
    auto frames = ask(engine, mmul_job("j"));
    ASSERT_EQ(frames.size(), 2u);
    const stats::JsonParseResult meta = stats::parse_json(frames[1]);
    EXPECT_FALSE(meta_ok(frames[1]));
    const stats::JsonValue* busy =
        meta_field(meta, "busy", stats::JsonValue::Kind::kBool);
    ASSERT_NE(busy, nullptr);
    EXPECT_TRUE(busy->as_bool());
}

TEST(Engine, CachedRerunIsByteIdentical) {
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.cache_dir = fresh_dir("engine_cache");
    Engine engine(cfg);

    auto cold = ask(engine, mmul_job("cold"));
    ASSERT_EQ(cold.size(), 3u);  // header, meta, report
    ASSERT_TRUE(meta_ok(cold[1]));
    const stats::JsonParseResult cold_meta = stats::parse_json(cold[1]);
    const stats::JsonValue* cached =
        meta_field(cold_meta, "cached", stats::JsonValue::Kind::kBool);
    ASSERT_NE(cached, nullptr);
    EXPECT_FALSE(cached->as_bool());

    // Different id, same content: must hit the same cache entry, and the
    // report bytes must be exactly the first run's.
    auto warm = ask(engine, mmul_job("warm"));
    ASSERT_EQ(warm.size(), 3u);
    ASSERT_TRUE(meta_ok(warm[1]));
    const stats::JsonParseResult warm_meta = stats::parse_json(warm[1]);
    cached = meta_field(warm_meta, "cached", stats::JsonValue::Kind::kBool);
    ASSERT_NE(cached, nullptr);
    EXPECT_TRUE(cached->as_bool());
    EXPECT_EQ(warm[2], cold[2]);

    // "threads":1 is the one accepted host-thread count; it names the same
    // job and hits the same entry.
    auto one = ask(engine, mmul_job("t1", ",\"threads\":1"));
    ASSERT_EQ(one.size(), 3u);
    ASSERT_TRUE(meta_ok(one[1]));
    const stats::JsonParseResult one_meta = stats::parse_json(one[1]);
    cached = meta_field(one_meta, "cached", stats::JsonValue::Kind::kBool);
    ASSERT_NE(cached, nullptr);
    EXPECT_TRUE(cached->as_bool());
    EXPECT_EQ(one[2], cold[2]);

    // Any other count is refused with one error line and no report.
    auto four = ask(engine, mmul_job("t4", ",\"threads\":4"));
    ASSERT_EQ(four.size(), 2u);
    EXPECT_FALSE(meta_ok(four[1]));
    const stats::JsonParseResult four_meta = stats::parse_json(four[1]);
    const stats::JsonValue* error =
        meta_field(four_meta, "error", stats::JsonValue::Kind::kString);
    ASSERT_NE(error, nullptr);
    EXPECT_NE(error->as_string().find("'threads'"), std::string::npos)
        << error->as_string();
    EXPECT_EQ(error->as_string().find('\n'), std::string::npos);
}

TEST(Engine, VerifiedHitMatchesStoredBytes) {
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.cache_dir = fresh_dir("engine_verify");
    cfg.verify_hits = 1;  // re-run every hit
    Engine engine(cfg);

    auto cold = ask(engine, mmul_job("cold"));
    ASSERT_EQ(cold.size(), 3u);
    auto verified = ask(engine, mmul_job("verify"));
    ASSERT_EQ(verified.size(), 3u);
    ASSERT_TRUE(meta_ok(verified[1]));
    const stats::JsonParseResult meta = stats::parse_json(verified[1]);
    const stats::JsonValue* flag =
        meta_field(meta, "verified", stats::JsonValue::Kind::kBool);
    ASSERT_NE(flag, nullptr);
    EXPECT_TRUE(flag->as_bool());
    EXPECT_EQ(verified[2], cold[2]);
}

TEST(Engine, WarmStartFromSnapshotIsByteIdentical) {
    EngineConfig cfg;
    cfg.workers = 1;
    Engine engine(cfg);

    // First run writes periodic snapshots (observer-only, key-excluded).
    const std::string prefix = tmp_path("warm_ckpt");
    auto ckpt = ask(
        engine, mmul_job("ckpt", ",\"checkpoint_every\":20000"
                                 ",\"checkpoint_prefix\":\"" +
                                     prefix + "\""));
    ASSERT_EQ(ckpt.size(), 3u);
    ASSERT_TRUE(meta_ok(ckpt[1])) << ckpt[1];

    // Resume mid-run from one of them: the finished report must be
    // byte-identical to the cold run's (the checkpoint/restore contract).
    auto warm = ask(engine, mmul_job("warm", ",\"snapshot\":\"" + prefix +
                                                 ".c20000.dtasnap\""));
    ASSERT_EQ(warm.size(), 3u);
    ASSERT_TRUE(meta_ok(warm[1])) << warm[1];
    EXPECT_EQ(warm[2], ckpt[2]);
}

TEST(Engine, StatsReportsQueueAndCache) {
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.cache_dir = fresh_dir("engine_stats");
    Engine engine(cfg);
    (void)ask(engine, mmul_job("a"));
    (void)ask(engine, mmul_job("b"));

    const stats::JsonParseResult r = stats::parse_json(engine.stats_json());
    ASSERT_TRUE(r.ok) << r.error;
    const stats::JsonValue* cache =
        r.value.find("cache", stats::JsonValue::Kind::kObject);
    ASSERT_NE(cache, nullptr);
    const stats::JsonValue* hits =
        cache->find("hits", stats::JsonValue::Kind::kNumber);
    const stats::JsonValue* misses =
        cache->find("misses", stats::JsonValue::Kind::kNumber);
    ASSERT_NE(hits, nullptr);
    ASSERT_NE(misses, nullptr);
    EXPECT_EQ(hits->as_u64(), 1u);
    EXPECT_EQ(misses->as_u64(), 1u);
    EXPECT_NE(r.value.find("queue_capacity",
                           stats::JsonValue::Kind::kNumber),
              nullptr);
}

}  // namespace
}  // namespace dta::serve
