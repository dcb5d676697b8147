#include "sim/prof.hpp"

#include <algorithm>
#include <cstdio>

namespace dta::sim {

const char* prof_phase_name(ProfPhase p) {
    switch (p) {
        case ProfPhase::kTick: return "tick";
        case ProfPhase::kNextActivity: return "next_activity";
        case ProfPhase::kFastforwardScan: return "fastforward_scan";
        case ProfPhase::kAudit: return "audit";
        case ProfPhase::kSample: return "sample";
        case ProfPhase::kWheelPop: return "wheel_pop";
        case ProfPhase::kWheelInsert: return "wheel_insert";
        case ProfPhase::kCount: break;
    }
    return "?";
}

void ProfBuffer::snapshot(Cycle cycle) {
    ProfSnapshot s;
    s.cycle = cycle;
    for (const auto& row : rows_) {
        for (std::size_t p = 0; p < kNumProfPhases; ++p) {
            s.ns[p] += row[p].ns;
        }
    }
    snapshots_.push_back(s);
}

std::uint64_t ProfBuffer::phase_ns(ProfPhase p) const {
    std::uint64_t total = 0;
    for (const auto& row : rows_) {
        total += row[static_cast<std::size_t>(p)].ns;
    }
    return total;
}

std::uint64_t ProfBuffer::total_ns() const {
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < kNumProfPhases; ++p) {
        total += phase_ns(static_cast<ProfPhase>(p));
    }
    return total;
}

std::uint64_t HostProfile::total_ns() const {
    std::uint64_t total = 0;
    for (const std::uint64_t ns : phase_ns) {
        total += ns;
    }
    return total;
}

double HostProfile::coverage() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(total_ns()) /
                              static_cast<double>(wall_ns);
}

std::string HostProfile::table(std::size_t top) const {
    std::vector<const HostProfileEntry*> by_time;
    by_time.reserve(entries.size());
    for (const HostProfileEntry& e : entries) {
        by_time.push_back(&e);
    }
    std::stable_sort(by_time.begin(), by_time.end(),
                     [](const HostProfileEntry* a, const HostProfileEntry* b) {
                         return a->ns > b->ns;
                     });
    const double total = static_cast<double>(total_ns());
    std::string out;
    char line[160];
    std::snprintf(line, sizeof line, "%-12s %-18s %12s %7s %12s\n",
                  "component", "phase", "self ms", "%", "calls");
    out += line;
    const std::size_t n = std::min(top, by_time.size());
    for (std::size_t i = 0; i < n; ++i) {
        const HostProfileEntry& e = *by_time[i];
        std::snprintf(line, sizeof line,
                      "%-12s %-18s %12.3f %6.1f%% %12llu\n",
                      e.component.c_str(), prof_phase_name(e.phase),
                      static_cast<double>(e.ns) / 1e6,
                      total > 0.0
                          ? 100.0 * static_cast<double>(e.ns) / total
                          : 0.0,
                      static_cast<unsigned long long>(e.calls));
        out += line;
    }
    if (by_time.size() > n) {
        std::snprintf(line, sizeof line, "  ... %zu more rows\n",
                      by_time.size() - n);
        out += line;
    }
    std::snprintf(line, sizeof line,
                  "%.3f ms accounted of %.3f ms wall (coverage %.1f%%)\n",
                  total / 1e6, static_cast<double>(wall_ns) / 1e6,
                  100.0 * coverage());
    out += line;
    return out;
}

void merge_prof_buffer(HostProfile& out, const ProfBuffer& buf,
                       const std::vector<std::string>& component_names) {
    out.enabled = true;
    out.wall_ns = buf.wall_ns();
    out.samples = buf.snapshots();
    const auto& rows = buf.rows();
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t p = 0; p < kNumProfPhases; ++p) {
            const ProfAcc& a = rows[r][p];
            out.phase_ns[p] += a.ns;
            if (a.ns == 0 && a.calls == 0) {
                continue;
            }
            HostProfileEntry e;
            e.component = r == ProfBuffer::kLoopSlot
                              ? "-"
                              : component_names[r - 1];
            e.phase = static_cast<ProfPhase>(p);
            e.ns = a.ns;
            e.calls = a.calls;
            out.entries.push_back(std::move(e));
        }
    }
}

}  // namespace dta::sim
