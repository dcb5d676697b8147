/// \file snapshot.hpp
/// \brief Versioned, self-describing binary snapshot container plus the
///        byte-level reader/writer every component serialises through.
///
/// This is the third pillar of the component contract (sim/component.hpp):
/// next to tick/quiescence/horizon, every stateful component implements
/// `save_state(StateSink&)` / `load_state(StateSource&)`.  The Machine
/// collects one *section per component* (keyed by the component's unique
/// name) into a snapshot file:
///
///     magic "DTASNAP1" | u32 format version | u64 config fingerprint
///     u64 snapshot cycle | u32 section count
///     per section: name | u64 payload length | u32 CRC32 | payload
///
/// Everything is little-endian and written field by field — never by
/// memcpy'ing structs — so padding bytes and host endianness can not leak
/// into the format.  Each section carries its own CRC32; the reader
/// validates magic, version and CRCs up front and reports problems as
/// clean sim::SimError one-liners (a truncated or corrupted snapshot is a
/// user-input problem, not a simulator bug).  The config fingerprint is an
/// FNV-1a 64 hash over the serialised MachineConfig echo (plus the loaded
/// program), so restoring into a structurally different machine fails fast
/// with both fingerprints in the message.
///
/// Determinism: a snapshot is a pure function of simulated history.  All
/// unordered containers are serialised in a canonical (sorted) order by
/// their owners, so saving twice at the same cycle yields byte-identical
/// files.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/types.hpp"

namespace dta::sim {

/// Current snapshot format version.  Bump on any incompatible layout
/// change; the reader rejects mismatches with a clean SimError (see
/// docs/CHECKPOINT.md for the versioning policy).
inline constexpr std::uint32_t kSnapshotFormatVersion = 4;

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over \p size bytes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size);

/// FNV-1a 64-bit hash (config fingerprints).
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t size);

/// Little-endian byte-stream writer components serialise into.
class StateSink {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }
    void u32(std::uint32_t v) {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }
    void u64(std::uint64_t v) {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void flag(bool v) { u8(v ? 1 : 0); }
    void blob(const void* p, std::size_t n) {
        if (n == 0) {
            return;
        }
        const auto* b = static_cast<const std::uint8_t*>(p);
        buf_.insert(buf_.end(), b, b + n);
    }
    void str(const std::string& s) {
        u32(static_cast<std::uint32_t>(s.size()));
        blob(s.data(), s.size());
    }

    [[nodiscard]] const std::vector<std::uint8_t>& data() const {
        return buf_;
    }
    [[nodiscard]] std::size_t size() const { return buf_.size(); }

private:
    std::vector<std::uint8_t> buf_;
};

/// Little-endian byte-stream reader over one snapshot section.  Underflow
/// and trailing bytes are both reported as SimError: a section that does
/// not parse exactly means the snapshot and the simulator disagree about
/// the component's layout.
class StateSource {
public:
    StateSource(const std::uint8_t* data, std::size_t size)
        : p_(data), size_(size) {}

    [[nodiscard]] std::uint8_t u8() {
        need(1);
        return p_[off_++];
    }
    [[nodiscard]] std::uint16_t u16() {
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo |
                                          (static_cast<std::uint16_t>(u8())
                                           << 8));
    }
    [[nodiscard]] std::uint32_t u32() {
        const std::uint32_t lo = u16();
        return lo | (static_cast<std::uint32_t>(u16()) << 16);
    }
    [[nodiscard]] std::uint64_t u64() {
        const std::uint64_t lo = u32();
        return lo | (static_cast<std::uint64_t>(u32()) << 32);
    }
    [[nodiscard]] std::int64_t i64() {
        return static_cast<std::int64_t>(u64());
    }
    [[nodiscard]] bool flag() { return u8() != 0; }
    void blob(void* p, std::size_t n) {
        if (n == 0) {
            return;
        }
        need(n);
        std::memcpy(p, p_ + off_, n);
        off_ += n;
    }
    [[nodiscard]] std::string str() {
        const std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char*>(p_ + off_), n);
        off_ += n;
        return s;
    }

    void skip(std::size_t n) {
        need(n);
        off_ += n;
    }

    [[nodiscard]] std::size_t remaining() const { return size_ - off_; }
    /// Every loader calls this last: a partially-consumed section means
    /// layout drift between writer and reader.
    void finish() const {
        DTA_SIM_REQUIRE(off_ == size_,
                        "snapshot section has " +
                            std::to_string(size_ - off_) +
                            " unconsumed bytes (format drift)");
    }

private:
    void need(std::size_t n) const {
        DTA_SIM_REQUIRE(off_ + n <= size_,
                        "snapshot section truncated (wanted " +
                            std::to_string(n) + " bytes, " +
                            std::to_string(size_ - off_) + " left)");
    }

    const std::uint8_t* p_;
    std::size_t size_;
    std::size_t off_ = 0;
};

/// Serialises a sized sequence: u64 count, then \p f per element.
template <typename C, typename F>
void save_seq(StateSink& s, const C& c, F&& f) {
    s.u64(static_cast<std::uint64_t>(c.size()));
    for (const auto& e : c) {
        f(s, e);
    }
}

/// Inverse of save_seq into any push_back-able container.
template <typename C, typename F>
void load_seq(StateSource& s, C& c, F&& f) {
    c.clear();
    const std::uint64_t n = s.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        typename C::value_type e{};
        f(s, e);
        c.push_back(std::move(e));
    }
}

/// Accumulates named sections and writes the container file atomically
/// (tmp + rename), so a crash mid-write never leaves a torn snapshot at
/// the target path.
class SnapshotWriter {
public:
    SnapshotWriter(std::uint64_t config_fingerprint, Cycle cycle)
        : fingerprint_(config_fingerprint), cycle_(cycle) {}

    /// Starts a new section; serialise into the returned sink.  Section
    /// names must be unique (the component-name invariant).
    [[nodiscard]] StateSink& section(const std::string& name);

    /// Finalises and writes the file; throws SimError on I/O failure.
    void write(const std::string& path) const;

private:
    std::uint64_t fingerprint_;
    Cycle cycle_;
    std::vector<std::pair<std::string, StateSink>> sections_;
};

/// Parses and validates a snapshot file (magic, version, per-section
/// CRCs); every failure is a clean SimError naming the file.
class SnapshotReader {
public:
    explicit SnapshotReader(const std::string& path);

    [[nodiscard]] std::uint64_t config_fingerprint() const {
        return fingerprint_;
    }
    [[nodiscard]] Cycle cycle() const { return cycle_; }
    [[nodiscard]] std::uint32_t version() const { return version_; }

    [[nodiscard]] bool has_section(const std::string& name) const {
        return sections_.find(name) != sections_.end();
    }
    /// A reader over section \p name; throws SimError when absent.
    [[nodiscard]] StateSource section(const std::string& name) const;
    /// All section names, sorted (diagnostics / tests).
    [[nodiscard]] std::vector<std::string> section_names() const;

private:
    std::string path_;
    std::vector<std::uint8_t> file_;
    std::uint64_t fingerprint_ = 0;
    Cycle cycle_ = 0;
    std::uint32_t version_ = 0;
    std::map<std::string, std::pair<std::size_t, std::size_t>>
        sections_;  ///< name -> (offset, length) into file_
};

}  // namespace dta::sim
