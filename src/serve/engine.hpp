/// \file engine.hpp
/// \brief The sweep server's socket-free core: a bounded job queue, a
///        worker pool running simulations, the result cache, and the
///        request dispatcher.  src/serve/server.hpp adds the Unix-socket
///        transport; the protocol tests drive this class directly.
///
/// Request payloads are strict JSON (stats/json_value).  Operations:
///
///   {"op":"ping"}                  -> one meta frame {"ok":true,...}
///   {"op":"stats"}                 -> one meta frame with queue depth,
///                                     cache counters, rates
///   {"op":"shutdown"}              -> one meta frame; sets the flag
///   {"op":"run","jobs":[{...}]}    -> a batch header frame, then per job
///                                     one meta frame and — when ok — one
///                                     raw report frame (byte-exact
///                                     run_report_json output, cached or
///                                     fresh)
///
/// Backpressure is explicit: when the bounded queue cannot take a job,
/// its meta frame answers {"ok":false,"busy":true} immediately — the
/// client decides whether to retry; the server never blocks the
/// connection on a full queue.
///
/// With verify_hits = N, every Nth cache hit is re-run and byte-compared
/// against the stored report (a mismatch is reported as a job error and
/// the entry replaced) — the cheap standing self-check that memoization
/// never changes results.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/job.hpp"
#include "sim/metrics.hpp"

namespace dta::serve {

struct EngineConfig {
    std::uint32_t workers = 2;        ///< simulation threads
    std::uint32_t queue_capacity = 64;  ///< pending-job bound (backpressure)
    std::string cache_dir;            ///< empty = caching off
    std::uint64_t cache_max_bytes = 0;  ///< 0 = unbounded
    std::uint32_t verify_hits = 0;    ///< re-run every Nth hit; 0 = never
    /// Host threads per job.  Retired: 1 is the only valid value (the
    /// Engine constructor rejects any other); jobs run in parallel across
    /// `workers` instead.  Kept until the benchmark harness stops
    /// assigning it.
    std::uint32_t default_threads = 1;
};

class Engine {
public:
    explicit Engine(const EngineConfig& cfg);
    ~Engine();

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Dispatches one request payload; returns the reply frames in order.
    /// Sets \p shutdown on {"op":"shutdown"}.  Malformed JSON or an
    /// unknown op yields a single {"ok":false,...} meta frame — the
    /// connection survives.
    [[nodiscard]] std::vector<std::string> handle_request(
        const std::string& payload, bool& shutdown);

    /// The stats reply document (also written by dta_serve --metrics-out).
    [[nodiscard]] std::string stats_json();

private:
    struct Pending {
        const PreparedJob* job = nullptr;
        JobResult result;
        bool done = false;
    };

    /// Enqueues \p p for the worker pool; false when the queue is full.
    bool try_submit(std::shared_ptr<Pending> p);
    void wait(const std::shared_ptr<Pending>& p);
    void worker_loop();

    void count(const char* name, std::uint64_t n = 1);
    std::vector<std::string> run_batch(const stats::JsonValue& doc);

    EngineConfig cfg_;
    std::unique_ptr<ResultCache> cache_;  ///< null = caching off
    sim::MetricsRegistry metrics_;

    std::mutex mu_;  ///< guards queue_, cache_, metrics_, totals
    std::condition_variable queue_cv_;  ///< workers: work available
    std::condition_variable done_cv_;   ///< requesters: a job finished
    std::queue<std::shared_ptr<Pending>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;

    // Rate bookkeeping (under mu_).
    std::uint64_t jobs_completed_ = 0;
    std::uint64_t cycles_simulated_ = 0;
    double busy_seconds_ = 0.0;  ///< summed wall time inside run_job
    std::chrono::steady_clock::time_point started_;
};

}  // namespace dta::serve
