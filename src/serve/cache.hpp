/// \file cache.hpp
/// \brief On-disk content-addressed result cache for the sweep server.
///
/// Entries are keyed by a 64-bit job key (the structural config
/// fingerprint of core/machine.hpp salted with the workload identity and
/// parameters; see serve/job.hpp) and store the run's raw JSON report
/// bytes verbatim, so a cache hit can be byte-compared against a fresh
/// run.
///
/// One entry per file at `<dir>/<key as 16 hex digits>.dtares`:
///
///     magic "DTARES1\0" | u32 format version | u64 key
///     u32 CRC32(payload) | u64 payload length | payload
///
/// Writes are atomic (tmp + rename, the SnapshotWriter idiom), so a crash
/// mid-store never leaves a torn entry.  A corrupt or short entry is
/// treated as a miss, deleted, and counted — never served.  When a byte
/// budget is set, least-recently-used entries are evicted at store time
/// (recency is an in-memory tick, seeded from file mtimes at startup so
/// restarts approximate the prior order).
///
/// Not thread-safe; the Engine serialises access under its own mutex.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace dta::serve {

inline constexpr std::uint32_t kCacheFormatVersion = 1;

struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
    std::uint64_t corrupt = 0;  ///< entries dropped on failed validation
};

class ResultCache {
public:
    /// Opens (creating if needed) the cache under \p dir.  \p max_bytes
    /// bounds the payload total, 0 = unbounded.  Throws sim::SimError when
    /// the directory cannot be created.
    explicit ResultCache(std::string dir, std::uint64_t max_bytes = 0);

    /// The stored report for \p key, or nullopt (miss, or entry corrupt).
    [[nodiscard]] std::optional<std::string> lookup(std::uint64_t key);

    /// Stores \p payload under \p key (overwriting), then evicts LRU
    /// entries while over budget.  False on I/O failure (the run's reply
    /// is unaffected; the result just is not memoized).
    bool store(std::uint64_t key, std::string_view payload);

    [[nodiscard]] const CacheStats& stats() const { return stats_; }
    [[nodiscard]] std::uint64_t entry_count() const {
        return entries_.size();
    }
    [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

    /// The entry file path for \p key (tests poke entries directly).
    [[nodiscard]] std::string entry_path(std::uint64_t key) const;

private:
    struct Entry {
        std::uint64_t bytes = 0;
        std::uint64_t tick = 0;  ///< larger = more recently used
    };

    void touch(std::uint64_t key);
    void drop(std::uint64_t key, bool corrupt);
    void evict_over_budget();

    std::string dir_;
    std::uint64_t max_bytes_;
    std::uint64_t next_tick_ = 1;
    std::uint64_t total_bytes_ = 0;
    std::map<std::uint64_t, Entry> entries_;
    CacheStats stats_;
};

}  // namespace dta::serve
