// Unit tests for the main-memory model: functional correctness, Table-2
// timing, port serialisation.
#include "mem/main_memory.hpp"

#include <gtest/gtest.h>

#include "sim/check.hpp"

namespace dta::mem {
namespace {

MainMemoryConfig small_cfg() {
    MainMemoryConfig cfg;
    cfg.size_bytes = 1 << 20;
    return cfg;
}

TEST(MainMemory, FunctionalRoundTrip) {
    MainMemory mem(small_cfg());
    mem.write_u32(0x100, 0xdeadbeef);
    EXPECT_EQ(mem.read_u32(0x100), 0xdeadbeefu);
    mem.write_u64(0x200, 0x0123456789abcdefull);
    EXPECT_EQ(mem.read_u64(0x200), 0x0123456789abcdefull);
}

TEST(MainMemory, UntouchedMemoryReadsZero) {
    MainMemory mem(small_cfg());
    EXPECT_EQ(mem.read_u32(0x5000), 0u);
}

TEST(MainMemory, CrossPageAccess) {
    MainMemory mem(small_cfg());
    // 64 KiB page boundary.
    const sim::MemAddr addr = 64 * 1024 - 2;
    mem.write_u32(addr, 0xa1b2c3d4);
    EXPECT_EQ(mem.read_u32(addr), 0xa1b2c3d4u);
}

TEST(MainMemory, OutOfBoundsRejected) {
    MainMemory mem(small_cfg());
    EXPECT_THROW(mem.write_u32((1 << 20) - 2, 1), sim::SimError);
    MemRequest rq;
    rq.addr = (1 << 20) - 1;
    rq.size = 4;
    EXPECT_THROW(mem.enqueue(std::move(rq)), sim::SimError);
}

TEST(MainMemory, OversizeRequestRejected) {
    MainMemory mem(small_cfg());
    MemRequest rq;
    rq.addr = 0;
    rq.size = 4096;  // > max_request_bytes (128)
    EXPECT_THROW(mem.enqueue(std::move(rq)), sim::SimError);
}

TEST(MainMemory, ReadCompletesAfterLatency) {
    MainMemoryConfig cfg = small_cfg();
    cfg.latency = 150;
    MainMemory mem(cfg);
    mem.write_u32(0x40, 77);
    MemRequest rq;
    rq.id = 9;
    rq.op = MemOp::kRead;
    rq.addr = 0x40;
    rq.size = 4;
    rq.meta = 123;
    mem.enqueue(std::move(rq));

    MemResponse resp;
    sim::Cycle done_at = 0;
    for (sim::Cycle now = 0; now < 400; ++now) {
        mem.tick(now);
        if (mem.pop_response(now, resp)) {
            done_at = now;
            break;
        }
    }
    // Starts at cycle 0, completes 150 cycles later.
    EXPECT_EQ(done_at, 150u);
    EXPECT_EQ(resp.id, 9u);
    EXPECT_EQ(resp.meta, 123u);
    ASSERT_EQ(resp.data.size(), 4u);
    EXPECT_EQ(resp.data[0], 77u);
    EXPECT_TRUE(mem.quiescent());
}

TEST(MainMemory, WritePayloadLandsInBackingStore) {
    MainMemory mem(small_cfg());
    MemRequest rq;
    rq.op = MemOp::kWrite;
    rq.addr = 0x80;
    rq.size = 4;
    rq.data = {1, 2, 3, 4};
    mem.enqueue(std::move(rq));
    for (sim::Cycle now = 0; now < 200 && !mem.quiescent(); ++now) {
        mem.tick(now);
        MemResponse resp;
        (void)mem.pop_response(now, resp);
    }
    EXPECT_EQ(mem.read_u32(0x80), 0x04030201u);
    EXPECT_EQ(mem.writes_served(), 1u);
    EXPECT_EQ(mem.bytes_written(), 4u);
}

TEST(MainMemory, WritePayloadSizeMismatchRejected) {
    MainMemory mem(small_cfg());
    MemRequest rq;
    rq.op = MemOp::kWrite;
    rq.addr = 0;
    rq.size = 8;
    rq.data = {1, 2};
    EXPECT_THROW(mem.enqueue(std::move(rq)), sim::SimError);
}

TEST(MainMemory, SinglePortSerialisesStarts) {
    MainMemoryConfig cfg = small_cfg();
    cfg.latency = 10;
    cfg.ports = 1;
    cfg.bank_busy = 2;
    MainMemory mem(cfg);
    for (int i = 0; i < 4; ++i) {
        MemRequest rq;
        rq.id = static_cast<std::uint64_t>(i);
        rq.addr = static_cast<sim::MemAddr>(i) * 4;
        rq.size = 4;
        mem.enqueue(std::move(rq));
    }
    std::vector<sim::Cycle> completions;
    for (sim::Cycle now = 0; now < 100; ++now) {
        mem.tick(now);
        MemResponse resp;
        while (mem.pop_response(now, resp)) {
            completions.push_back(now);
        }
    }
    ASSERT_EQ(completions.size(), 4u);
    // One start every bank_busy cycles: completions at 10, 12, 14, 16.
    EXPECT_EQ(completions[0], 10u);
    EXPECT_EQ(completions[1], 12u);
    EXPECT_EQ(completions[2], 14u);
    EXPECT_EQ(completions[3], 16u);
    EXPECT_EQ(mem.peak_queue_depth(), 4u);
}

TEST(MainMemory, ResponsesPreserveFifoOrder) {
    MainMemory mem(small_cfg());
    for (int i = 0; i < 8; ++i) {
        MemRequest rq;
        rq.id = static_cast<std::uint64_t>(i);
        rq.addr = 0;
        rq.size = 4;
        mem.enqueue(std::move(rq));
    }
    std::vector<std::uint64_t> order;
    for (sim::Cycle now = 0; now < 1000 && order.size() < 8; ++now) {
        mem.tick(now);
        MemResponse resp;
        while (mem.pop_response(now, resp)) {
            order.push_back(resp.id);
        }
    }
    ASSERT_EQ(order.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(MainMemory, LatencyOneConfigBehaves) {
    MainMemoryConfig cfg = small_cfg();
    cfg.latency = 1;
    cfg.bank_busy = 1;
    MainMemory mem(cfg);
    MemRequest rq;
    rq.addr = 0;
    rq.size = 4;
    mem.enqueue(std::move(rq));
    mem.tick(0);  // starts
    mem.tick(1);
    MemResponse resp;
    EXPECT_TRUE(mem.pop_response(1, resp));  // completes
}

}  // namespace
}  // namespace dta::mem
