// The snapshot container and byte-stream layer: primitive round-trips,
// the save_seq/load_seq helpers, the writer/reader container format
// (magic, version, fingerprint, per-section CRCs), and the failure modes —
// every one a clean sim::SimError, never an abort: a damaged snapshot is a
// user-input problem.
#include "sim/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "sim/check.hpp"

namespace dta::sim {
namespace {

std::string tmp_path(const std::string& name) {
    return testing::TempDir() + "snapshot_test_" + name;
}

TEST(StateStream, PrimitivesRoundTrip) {
    StateSink s;
    s.u8(0xab);
    s.u16(0xbeef);
    s.u32(0xdeadbeefu);
    s.u64(0x0123456789abcdefull);
    s.i64(-42);
    s.flag(true);
    s.flag(false);
    s.str("hello");
    s.str("");
    const std::uint8_t raw[3] = {1, 2, 3};
    s.blob(raw, sizeof(raw));

    StateSource r(s.data().data(), s.size());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_TRUE(r.flag());
    EXPECT_FALSE(r.flag());
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    std::uint8_t back[3] = {};
    r.blob(back, sizeof(back));
    EXPECT_EQ(back[2], 3);
    r.finish();  // consumed exactly
}

TEST(StateStream, LittleEndianLayout) {
    StateSink s;
    s.u32(0x01020304u);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s.data()[0], 0x04);  // least-significant byte first
    EXPECT_EQ(s.data()[3], 0x01);
}

TEST(StateStream, SequenceRoundTrip) {
    const std::deque<std::uint32_t> in = {5, 10, 15};
    StateSink s;
    save_seq(s, in, [](StateSink& k, std::uint32_t v) { k.u32(v); });
    StateSource r(s.data().data(), s.size());
    std::deque<std::uint32_t> out;
    load_seq(r, out, [](StateSource& k, std::uint32_t& v) { v = k.u32(); });
    r.finish();
    EXPECT_EQ(in, out);
}

TEST(StateStream, UnderflowIsSimError) {
    StateSink s;
    s.u16(7);
    StateSource r(s.data().data(), s.size());
    (void)r.u8();
    EXPECT_THROW((void)r.u32(), SimError);  // only one byte left
}

TEST(StateStream, UnconsumedBytesAreFormatDrift) {
    StateSink s;
    s.u64(1);
    s.u64(2);
    StateSource r(s.data().data(), s.size());
    (void)r.u64();
    EXPECT_THROW(r.finish(), SimError);
}

TEST(Snapshot, WriterReaderRoundTrip) {
    const std::string path = tmp_path("roundtrip.dtasnap");
    SnapshotWriter w(0x1122334455667788ull, 4096);
    w.section("alpha").u32(11);
    {
        StateSink& s = w.section("beta");
        s.u64(22);
        s.str("payload");
    }
    w.write(path);

    const SnapshotReader r(path);
    EXPECT_EQ(r.config_fingerprint(), 0x1122334455667788ull);
    EXPECT_EQ(r.cycle(), 4096u);
    EXPECT_EQ(r.version(), kSnapshotFormatVersion);
    EXPECT_TRUE(r.has_section("alpha"));
    EXPECT_FALSE(r.has_section("gamma"));
    const std::vector<std::string> names = r.section_names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");  // sorted
    EXPECT_EQ(names[1], "beta");
    {
        StateSource s = r.section("alpha");
        EXPECT_EQ(s.u32(), 11u);
        s.finish();
    }
    {
        StateSource s = r.section("beta");
        EXPECT_EQ(s.u64(), 22u);
        EXPECT_EQ(s.str(), "payload");
        s.finish();
    }
    EXPECT_THROW((void)r.section("gamma"), SimError);
    std::remove(path.c_str());
}

TEST(Snapshot, SameStateSavesIdenticalBytes) {
    const std::string pa = tmp_path("ident_a.dtasnap");
    const std::string pb = tmp_path("ident_b.dtasnap");
    for (const std::string& p : {pa, pb}) {
        SnapshotWriter w(7, 123);
        w.section("x").u64(99);
        w.write(p);
    }
    const auto slurp = [](const std::string& p) {
        std::ifstream f(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(f), {});
    };
    EXPECT_EQ(slurp(pa), slurp(pb));
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

TEST(Snapshot, MissingFileIsSimError) {
    EXPECT_THROW(SnapshotReader r(tmp_path("nonexistent.dtasnap")), SimError);
}

TEST(Snapshot, BadMagicIsSimError) {
    const std::string path = tmp_path("badmagic.dtasnap");
    {
        std::ofstream f(path, std::ios::binary);
        f << "NOTASNAPnonsense payload";
    }
    EXPECT_THROW(SnapshotReader r(path), SimError);
    std::remove(path.c_str());
}

TEST(Snapshot, TruncationIsSimError) {
    const std::string path = tmp_path("trunc.dtasnap");
    {
        SnapshotWriter w(1, 2);
        w.section("s").u64(3);
        w.write(path);
    }
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), {});
    in.close();
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() - 4));
    }
    EXPECT_THROW(SnapshotReader r(path), SimError);
    std::remove(path.c_str());
}

TEST(Snapshot, PayloadCorruptionTripsCrc) {
    const std::string path = tmp_path("corrupt.dtasnap");
    {
        SnapshotWriter w(1, 2);
        w.section("s").u64(0);
        w.write(path);
    }
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), {});
    in.close();
    bytes[bytes.size() - 3] ^= 0x40;  // flip a payload bit
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(SnapshotReader r(path), SimError);
    std::remove(path.c_str());
}

TEST(Snapshot, VersionMismatchIsSimError) {
    const std::string path = tmp_path("version.dtasnap");
    // The previous format (its layout differs) and one from the future.
    for (const std::uint32_t version : {kSnapshotFormatVersion - 1, 0x7fu}) {
        {
            SnapshotWriter w(1, 2);
            w.section("s").u64(0);
            w.write(path);
        }
        std::ifstream in(path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)), {});
        in.close();
        // The u32 version field follows the 8-byte magic.
        bytes[8] = static_cast<char>(version);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        try {
            const SnapshotReader r(path);
            FAIL() << "version " << version << " accepted";
        } catch (const SimError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "format version " + std::to_string(version)),
                      std::string::npos)
                << e.what();
        }
    }
    std::remove(path.c_str());
}

TEST(Snapshot, Crc32KnownVector) {
    // IEEE CRC-32 of "123456789" is the classic check value.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
}

TEST(Snapshot, Fnv1a64KnownVector) {
    EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace dta::sim
