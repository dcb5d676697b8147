/// \file log.hpp
/// \brief Lightweight, optional tracing for simulator components.
///
/// Tracing is off by default (zero overhead beyond a branch); tests and the
/// pipeline_trace example enable it to observe per-cycle behaviour.  Output
/// goes to a caller-supplied sink so tests can capture it.
#pragma once

#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

#include "sim/types.hpp"

namespace dta::sim {

/// Severity / verbosity classes for trace messages.
enum class LogLevel : int {
    kOff = 0,
    kInfo = 1,   ///< machine-level milestones (activity started, finished)
    kDebug = 2,  ///< component events (packet sent, frame allocated)
    kTrace = 3,  ///< per-cycle pipeline detail
};

/// A trace sink shared by all components of one Machine instance.
class Logger {
public:
    using Sink = std::function<void(std::string_view)>;

    Logger() = default;

    /// Installs a sink and verbosity; a null sink disables output entirely.
    void configure(LogLevel level, Sink sink) {
        level_ = sink ? level : LogLevel::kOff;
        sink_ = std::move(sink);
    }

    [[nodiscard]] bool enabled(LogLevel level) const {
        return static_cast<int>(level) <= static_cast<int>(level_);
    }

    /// Emits one line: "[cycle] component: message".  Serialised: machines
    /// run by different host threads (serve's worker pool) may share one
    /// sink, so concurrent emits must not interleave inside it.
    void log(LogLevel level, Cycle cycle, std::string_view component,
             std::string_view message) const {
        if (!enabled(level) || !sink_) {
            return;
        }
        std::ostringstream os;
        os << '[' << cycle << "] " << component << ": " << message;
        const std::lock_guard<std::mutex> lock(mu_);
        sink_(os.str());
    }

private:
    LogLevel level_ = LogLevel::kOff;
    Sink sink_;
    mutable std::mutex mu_;
};

}  // namespace dta::sim
