/// \file audit.hpp
/// \brief Machine-wide invariant auditor.
///
/// The simulator's correctness rests on a web of distributed counters and
/// state machines: per-thread synchronisation counters, the frame-slot
/// lifecycle FSM, MFC line/tag accounting, NoC packet conservation.  The
/// scattered DTA_CHECKs guard single call sites; the auditor complements
/// them with *cross-component* checks registered once at machine
/// construction and evaluated at a configurable cadence.
///
/// A check is a callable that inspects one component (or a set of them) and
/// calls AuditCtx::fail when an invariant does not hold.  Checks must not
/// mutate simulator state and must build failure strings only on the failure
/// path — the hot path is predicate evaluation.  Violations raise a
/// sim::SimError naming the component, the invariant, the cycle, and (when
/// one is implicated) the thread uid, so a fuzzer or test can pin the exact
/// state that broke.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace dta::sim {

/// Cadence / enablement knobs for the auditor (part of MachineConfig).
struct AuditConfig {
    /// Master switch.  Off by default: a disabled auditor costs one
    /// compare per span of the run loop and nothing else.
    bool enabled = false;
    /// Cycles between audit sweeps.  0 means auto: every cycle in debug
    /// builds, every 64th cycle in release builds (sampled audits still
    /// catch persistent corruption; transient windows need a debug build).
    Cycle interval = 0;

    [[nodiscard]] Cycle effective_interval() const {
        if (interval != 0) {
            return interval;
        }
#ifndef NDEBUG
        return 1;
#else
        return 64;
#endif
    }
};

/// Handed to every check; identifies the component under audit and the
/// current cycle, and is the only sanctioned way to report a violation.
class AuditCtx {
public:
    AuditCtx(const std::string& component, Cycle now)
        : component_(component), now_(now) {}

    [[nodiscard]] const std::string& component() const { return component_; }
    [[nodiscard]] Cycle now() const { return now_; }

    /// Raises sim::SimError with a message of the form
    ///   audit violation [component=..., invariant=..., cycle=..., thread=0x...]: detail
    /// (the thread field is omitted when \p thread_uid is 0).
    [[noreturn]] void fail(const std::string& invariant,
                           const std::string& detail,
                           std::uint64_t thread_uid = 0) const;

private:
    const std::string& component_;
    Cycle now_;
};

/// Registry of invariant checks.  Regular checks run at every audit sweep;
/// final checks additionally run once after the machine has quiesced (they
/// may assert drained-state properties that do not hold mid-run, e.g.
/// "every granted frame was freed").
class Auditor {
public:
    using CheckFn = std::function<void(const AuditCtx&)>;

    void add(std::string component, CheckFn fn) {
        checks_.push_back({std::move(component), std::move(fn)});
    }
    void add_final(std::string component, CheckFn fn) {
        final_.push_back({std::move(component), std::move(fn)});
    }

    /// Runs every regular check.  Throws sim::SimError on the first
    /// violation.
    void run(Cycle now) const;

    /// Runs every regular check, then every final check.
    void run_final(Cycle now) const;

    [[nodiscard]] std::size_t check_count() const { return checks_.size(); }
    [[nodiscard]] std::size_t final_check_count() const { return final_.size(); }
    [[nodiscard]] bool empty() const {
        return checks_.empty() && final_.empty();
    }

private:
    struct Check {
        std::string component;
        CheckFn fn;
    };
    std::vector<Check> checks_;
    std::vector<Check> final_;
};

}  // namespace dta::sim
