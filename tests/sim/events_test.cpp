// Event-log unit tests: payload packing, chunked storage, the canonical
// (cycle, ordinal) order, and the DTAEV1 text round trip.
#include "sim/events.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sim/check.hpp"

namespace dta::sim {
namespace {

Event make(Cycle cycle, std::uint32_t ordinal, EventKind kind,
           std::uint64_t thread) {
    Event e;
    e.cycle = cycle;
    e.ordinal = ordinal;
    e.kind = kind;
    e.thread = thread;
    return e;
}

TEST(Events, KindNamesRoundTrip) {
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
        const auto kind = static_cast<EventKind>(k);
        EventKind back = EventKind::kFallocIssue;
        ASSERT_TRUE(event_kind_from_name(event_kind_name(kind), back))
            << "kind " << k;
        EXPECT_EQ(back, kind);
    }
    EventKind out = EventKind::kFallocIssue;
    EXPECT_FALSE(event_kind_from_name("no_such_kind", out));
}

TEST(Events, PayloadPacking) {
    const std::uint64_t d = pack_store_dest(513, 0xabcdef, 1023);
    EXPECT_EQ(store_dest_pe(d), 513u);
    EXPECT_EQ(store_dest_slot(d), 0xabcdefu);
    EXPECT_EQ(store_dest_off(d), 1023u);

    EXPECT_EQ(grant_code(pack_grant(42, false)), 42u);
    EXPECT_FALSE(grant_virtual(pack_grant(42, false)));
    EXPECT_TRUE(grant_virtual(pack_grant(42, true)));
    EXPECT_EQ(grant_code(pack_grant(42, true)), 42u);
}

TEST(Events, ChunkedStorageKeepsPushOrder) {
    EventLog log;
    const std::size_t n = EventLog::kChunkEvents * 2 + 17;
    for (std::size_t i = 0; i < n; ++i) {
        log.push(make(i, 0, EventKind::kReady, i + 1));
    }
    EXPECT_EQ(log.size(), n);
    const std::vector<Event> flat = log.flatten();
    ASSERT_EQ(flat.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(flat[i].thread, i + 1) << "event " << i;
    }
}

// canonicalize() sorts by (cycle, ordinal) and keeps push order within a
// group, whatever order the groups were pushed in.
TEST(Events, CanonicalizeSortsByCycleThenOrdinal) {
    EventLog log;
    log.push(make(0, 2, EventKind::kFrameGrant, 2));
    log.push(make(3, 2, EventKind::kDispatch, 2));
    log.push(make(0, 0, EventKind::kFrameGrant, 1));
    log.push(make(0, 0, EventKind::kReady, 1));  // same group, after
    log.push(make(5, 1, EventKind::kDispatch, 1));
    log.canonicalize();

    const std::vector<Event> flat = log.flatten();
    ASSERT_EQ(flat.size(), 5u);
    EXPECT_EQ(flat[0].kind, EventKind::kFrameGrant);  // (0,0) grant first
    EXPECT_EQ(flat[0].thread, 1u);
    EXPECT_EQ(flat[1].kind, EventKind::kReady);  // (0,0) push order kept
    EXPECT_EQ(flat[2].thread, 2u);               // (0,2)
    EXPECT_EQ(flat[3].cycle, 3u);                // (3,2)
    EXPECT_EQ(flat[4].cycle, 5u);                // (5,1)
}

TEST(Events, Dtaev1RoundTrip) {
    EventLog log;
    Event e;
    e.cycle = 123456789;
    e.thread = (7ull << 32) | 42;
    e.other = (1ull << 32) | 1;
    e.arg = pack_store_dest(7, 3, 12);
    e.stall = 987654321;
    e.ordinal = 7;
    e.kind = EventKind::kFrameStore;
    e.aux = 255;
    log.push(e);
    log.push(make(123456790, 9, EventKind::kStop, e.thread));

    std::ostringstream out;
    write_events(out, log, 123456791, 16, {"main", "worker"});

    std::istringstream in(out.str());
    const EventFile file = read_events(in);
    EXPECT_EQ(file.cycles, 123456791u);
    EXPECT_EQ(file.pes, 16u);
    ASSERT_EQ(file.code_names.size(), 2u);
    EXPECT_EQ(file.code_names[0], "main");
    EXPECT_EQ(file.code_names[1], "worker");
    ASSERT_EQ(file.events.size(), 2u);
    const Event& r = file.events[0];
    EXPECT_EQ(r.cycle, e.cycle);
    EXPECT_EQ(r.thread, e.thread);
    EXPECT_EQ(r.other, e.other);
    EXPECT_EQ(r.arg, e.arg);
    EXPECT_EQ(r.stall, e.stall);
    EXPECT_EQ(r.ordinal, e.ordinal);
    EXPECT_EQ(r.kind, e.kind);
    EXPECT_EQ(r.aux, e.aux);
    EXPECT_EQ(file.events[1].kind, EventKind::kStop);
}

TEST(Events, MalformedInputThrows) {
    std::istringstream bad_magic("NOTDTA\n");
    EXPECT_THROW(read_events(bad_magic), SimError);
    std::istringstream bad_kind(
        "DTAEV1\ncycles 10\npes 1\nevents 1\n0 bogus 0 0 1 0 0 0\n");
    EXPECT_THROW(read_events(bad_kind), SimError);
}

}  // namespace
}  // namespace dta::sim
