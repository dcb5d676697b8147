#include "serve/engine.hpp"

#include <utility>

#include "sim/check.hpp"
#include "stats/json_value.hpp"

namespace dta::serve {

using stats::JsonValue;

namespace {

/// Builds a meta frame from members (compact, via the strict serialiser —
/// ids and error strings are escaped properly).
std::string meta_frame(std::vector<JsonValue::Member> members) {
    return stats::dump_json(JsonValue::make_object(std::move(members)));
}

std::string error_frame(const std::string& what) {
    return meta_frame({{"ok", JsonValue::make_bool(false)},
                       {"error", JsonValue::make_string(what)}});
}

/// Pulls the "cycles" field back out of a stored report (cache hits reply
/// without re-running, but the meta frame still reports cycles).
std::uint64_t report_cycles(const std::string& report) {
    const stats::JsonParseResult r = stats::parse_json(report);
    if (!r.ok) {
        return 0;
    }
    const JsonValue* c = r.value.find("cycles", JsonValue::Kind::kNumber);
    return c != nullptr ? c->as_u64() : 0;
}

}  // namespace

Engine::Engine(const EngineConfig& cfg)
    : cfg_(cfg), started_(std::chrono::steady_clock::now()) {
    DTA_SIM_REQUIRE(cfg_.default_threads == 1,
                    "EngineConfig::default_threads must be 1 (got " +
                        std::to_string(cfg_.default_threads) +
                        "): each job runs on one host thread; use more "
                        "workers for parallelism");
    metrics_.enable();
    if (!cfg_.cache_dir.empty()) {
        cache_ = std::make_unique<ResultCache>(cfg_.cache_dir,
                                               cfg_.cache_max_bytes);
    }
    workers_.reserve(cfg_.workers);
    for (std::uint32_t w = 0; w < cfg_.workers; ++w) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

Engine::~Engine() {
    {
        const std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& t : workers_) {
        t.join();
    }
}

void Engine::count(const char* name, std::uint64_t n) {
    // Caller holds mu_ (MetricsRegistry is not thread-safe).
    metrics_.counter(name)->add(n);
}

bool Engine::try_submit(std::shared_ptr<Pending> p) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= cfg_.queue_capacity || workers_.empty()) {
        count("serve.busy_rejects");
        return false;
    }
    queue_.push(std::move(p));
    count("serve.jobs.submitted");
    queue_cv_.notify_one();
    return true;
}

void Engine::wait(const std::shared_ptr<Pending>& p) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return p->done; });
}

void Engine::worker_loop() {
    while (true) {
        std::shared_ptr<Pending> p;
        {
            std::unique_lock<std::mutex> lock(mu_);
            queue_cv_.wait(lock,
                           [&] { return stopping_ || !queue_.empty(); });
            if (stopping_) {
                return;
            }
            p = std::move(queue_.front());
            queue_.pop();
        }
        const auto t0 = std::chrono::steady_clock::now();
        JobResult result = run_job(*p->job);
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        {
            const std::lock_guard<std::mutex> lock(mu_);
            busy_seconds_ += secs;
            ++jobs_completed_;
            count("serve.jobs.completed");
            if (result.ok) {
                cycles_simulated_ += result.cycles;
            } else {
                count("serve.jobs.failed");
            }
            p->result = std::move(result);
            p->done = true;
        }
        done_cv_.notify_all();
    }
}

std::vector<std::string> Engine::handle_request(const std::string& payload,
                                                bool& shutdown) {
    const stats::JsonParseResult parsed = stats::parse_json(payload);
    if (!parsed.ok) {
        const std::lock_guard<std::mutex> lock(mu_);
        count("serve.requests.malformed");
        return {error_frame("malformed request: " + parsed.error +
                            " at byte " + std::to_string(parsed.offset))};
    }
    const JsonValue* op =
        parsed.value.find("op", JsonValue::Kind::kString);
    if (op == nullptr) {
        const std::lock_guard<std::mutex> lock(mu_);
        count("serve.requests.malformed");
        return {error_frame("request needs a string 'op' field")};
    }
    if (op->as_string() == "ping") {
        return {meta_frame({{"ok", JsonValue::make_bool(true)},
                            {"op", JsonValue::make_string("pong")}})};
    }
    if (op->as_string() == "stats") {
        return {stats_json()};
    }
    if (op->as_string() == "shutdown") {
        shutdown = true;
        return {meta_frame({{"ok", JsonValue::make_bool(true)},
                            {"op", JsonValue::make_string("shutdown")}})};
    }
    if (op->as_string() == "run") {
        return run_batch(parsed.value);
    }
    const std::lock_guard<std::mutex> lock(mu_);
    count("serve.requests.malformed");
    return {error_frame("unknown op '" + op->as_string() + "'")};
}

std::vector<std::string> Engine::run_batch(const JsonValue& doc) {
    const JsonValue* jobs = doc.find("jobs", JsonValue::Kind::kArray);
    if (jobs == nullptr) {
        const std::lock_guard<std::mutex> lock(mu_);
        count("serve.requests.malformed");
        return {error_frame("run request needs a 'jobs' array")};
    }

    // Per-job state through the batch.  A job is resolved by exactly one
    // of: a prepare/busy error, a cached report, or a Pending handed to
    // the worker pool.
    struct Slot {
        PreparedJob job;
        std::string error;            ///< prepare failure
        bool busy = false;            ///< queue full
        bool cached = false;
        bool verify = false;          ///< cached + this hit is re-run
        std::string cached_report;
        std::shared_ptr<Pending> pending;
    };
    std::vector<Slot> slots(jobs->items().size());

    for (std::size_t i = 0; i < slots.size(); ++i) {
        Slot& s = slots[i];
        s.job.id = "job" + std::to_string(i);
        std::string err;
        if (!prepare_job(jobs->items()[i], cfg_.default_threads, s.job,
                         err)) {
            s.error = err;
            continue;
        }
        if (cache_ != nullptr && !s.job.warm_start) {
            const std::lock_guard<std::mutex> lock(mu_);
            if (auto hit = cache_->lookup(s.job.key)) {
                s.cached = true;
                s.cached_report = std::move(*hit);
                if (cfg_.verify_hits > 0 &&
                    cache_->stats().hits % cfg_.verify_hits == 0) {
                    s.verify = true;
                }
                if (!s.verify) {
                    continue;
                }
            }
        }
        // Miss (or a hit due for verification): run it.
        s.pending = std::make_shared<Pending>();
        s.pending->job = &s.job;
        if (!try_submit(s.pending)) {
            s.pending.reset();
            s.busy = true;
            if (s.verify) {
                // Verification is best-effort: under pressure, serve the
                // hit and skip the re-run rather than reject the job.
                s.busy = false;
                s.verify = false;
            }
        }
    }

    std::vector<std::string> frames;
    frames.push_back(meta_frame(
        {{"ok", JsonValue::make_bool(true)},
         {"op", JsonValue::make_string("run")},
         {"jobs",
          JsonValue::make_number(static_cast<double>(slots.size()))}}));

    for (Slot& s : slots) {
        std::vector<JsonValue::Member> meta;
        meta.emplace_back("id", JsonValue::make_string(s.job.id));
        if (!s.error.empty()) {
            meta.emplace_back("ok", JsonValue::make_bool(false));
            meta.emplace_back("error", JsonValue::make_string(s.error));
            frames.push_back(meta_frame(std::move(meta)));
            continue;
        }
        if (s.busy) {
            meta.emplace_back("ok", JsonValue::make_bool(false));
            meta.emplace_back("busy", JsonValue::make_bool(true));
            meta.emplace_back(
                "error", JsonValue::make_string("queue full, retry later"));
            frames.push_back(meta_frame(std::move(meta)));
            continue;
        }
        if (s.pending != nullptr) {
            wait(s.pending);
        }
        if (s.cached && !s.verify) {
            meta.emplace_back("ok", JsonValue::make_bool(true));
            meta.emplace_back("cached", JsonValue::make_bool(true));
            meta.emplace_back(
                "cycles", JsonValue::make_number(static_cast<double>(
                              report_cycles(s.cached_report))));
            frames.push_back(meta_frame(std::move(meta)));
            frames.push_back(std::move(s.cached_report));
            continue;
        }
        const JobResult& r = s.pending->result;
        if (s.verify) {
            const std::lock_guard<std::mutex> lock(mu_);
            count("serve.cache.verify_reruns");
            if (r.ok && r.report == s.cached_report) {
                meta.emplace_back("ok", JsonValue::make_bool(true));
                meta.emplace_back("cached", JsonValue::make_bool(true));
                meta.emplace_back("verified", JsonValue::make_bool(true));
                meta.emplace_back(
                    "cycles",
                    JsonValue::make_number(static_cast<double>(r.cycles)));
                frames.push_back(meta_frame(std::move(meta)));
                frames.push_back(std::move(s.cached_report));
                continue;
            }
            // The memoized bytes and a fresh run disagree — never serve
            // the stale entry; replace it (when the fresh run is good) and
            // surface the mismatch.
            count("serve.cache.verify_mismatches");
            if (r.ok && cache_ != nullptr) {
                (void)cache_->store(s.job.key, r.report);
            }
            meta.emplace_back("ok", JsonValue::make_bool(false));
            meta.emplace_back(
                "error",
                JsonValue::make_string(
                    r.ok ? "cache verification mismatch (entry replaced)"
                         : "cache verification re-run failed: " + r.error));
            frames.push_back(meta_frame(std::move(meta)));
            continue;
        }
        if (!r.ok) {
            meta.emplace_back("ok", JsonValue::make_bool(false));
            meta.emplace_back("error", JsonValue::make_string(r.error));
            frames.push_back(meta_frame(std::move(meta)));
            continue;
        }
        if (cache_ != nullptr) {
            const std::lock_guard<std::mutex> lock(mu_);
            (void)cache_->store(s.job.key, r.report);
        }
        meta.emplace_back("ok", JsonValue::make_bool(true));
        meta.emplace_back("cached", JsonValue::make_bool(false));
        meta.emplace_back("cycles", JsonValue::make_number(
                                        static_cast<double>(r.cycles)));
        frames.push_back(meta_frame(std::move(meta)));
        frames.push_back(r.report);
    }
    return frames;
}

std::string Engine::stats_json() {
    const std::lock_guard<std::mutex> lock(mu_);
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    std::vector<JsonValue::Member> m;
    m.emplace_back("ok", JsonValue::make_bool(true));
    m.emplace_back("op", JsonValue::make_string("stats"));
    m.emplace_back("uptime_s", JsonValue::make_number(uptime));
    m.emplace_back("workers", JsonValue::make_number(
                                  static_cast<double>(cfg_.workers)));
    m.emplace_back("queue_depth", JsonValue::make_number(static_cast<double>(
                                      queue_.size())));
    m.emplace_back("queue_capacity",
                   JsonValue::make_number(
                       static_cast<double>(cfg_.queue_capacity)));

    std::vector<JsonValue::Member> cache;
    if (cache_ != nullptr) {
        const CacheStats& cs = cache_->stats();
        cache.emplace_back("hits", JsonValue::make_number(
                                       static_cast<double>(cs.hits)));
        cache.emplace_back("misses", JsonValue::make_number(
                                         static_cast<double>(cs.misses)));
        cache.emplace_back("stores", JsonValue::make_number(
                                         static_cast<double>(cs.stores)));
        cache.emplace_back(
            "evictions",
            JsonValue::make_number(static_cast<double>(cs.evictions)));
        cache.emplace_back("corrupt", JsonValue::make_number(
                                          static_cast<double>(cs.corrupt)));
        cache.emplace_back(
            "entries", JsonValue::make_number(
                           static_cast<double>(cache_->entry_count())));
        cache.emplace_back(
            "bytes", JsonValue::make_number(
                         static_cast<double>(cache_->total_bytes())));
    }
    m.emplace_back("cache", JsonValue::make_object(std::move(cache)));

    std::vector<JsonValue::Member> rates;
    rates.emplace_back(
        "jobs_per_s",
        JsonValue::make_number(
            uptime > 0.0 ? static_cast<double>(jobs_completed_) / uptime
                         : 0.0));
    rates.emplace_back(
        "mcycles_per_s",
        JsonValue::make_number(
            busy_seconds_ > 0.0
                ? static_cast<double>(cycles_simulated_) / busy_seconds_ /
                      1e6
                : 0.0));
    m.emplace_back("rates", JsonValue::make_object(std::move(rates)));

    std::vector<JsonValue::Member> counters;
    for (const auto& [name, c] : metrics_.counters()) {
        counters.emplace_back(
            name,
            JsonValue::make_number(static_cast<double>(c.value)));
    }
    m.emplace_back("counters", JsonValue::make_object(std::move(counters)));
    return meta_frame(std::move(m));
}

}  // namespace dta::serve
