#include "sim/events.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace dta::sim {

namespace {

constexpr std::string_view kKindNames[kNumEventKinds] = {
    "falloc",   "grant",    "store_iss", "store_arr", "ready",
    "dispatch", "phase",    "dma_iss",   "dma_done",  "suspend",
    "stop",     "free",     "hop",
};

}  // namespace

std::string_view event_kind_name(EventKind k) {
    const auto i = static_cast<std::size_t>(k);
    return i < kNumEventKinds ? kKindNames[i] : "?";
}

bool event_kind_from_name(std::string_view name, EventKind& out) {
    for (std::size_t i = 0; i < kNumEventKinds; ++i) {
        if (kKindNames[i] == name) {
            out = static_cast<EventKind>(i);
            return true;
        }
    }
    return false;
}

std::vector<Event> EventLog::flatten() const {
    std::vector<Event> all;
    all.reserve(size_);
    for_each([&](const Event& e) { all.push_back(e); });
    return all;
}

void EventLog::canonicalize() {
    std::vector<Event> all = flatten();
    std::stable_sort(all.begin(), all.end(),
                     [](const Event& a, const Event& b) {
                         return a.cycle != b.cycle ? a.cycle < b.cycle
                                                   : a.ordinal < b.ordinal;
                     });
    chunks_.clear();
    chunks_.push_back(std::move(all));
    size_ = chunks_.back().size();
}

void EventLog::save_state(StateSink& s) const {
    s.u64(size_);
    for_each([&](const Event& e) {
        s.u64(e.cycle);
        s.u64(e.thread);
        s.u64(e.other);
        s.u64(e.arg);
        s.u64(e.stall);
        s.u32(e.ordinal);
        s.u8(static_cast<std::uint8_t>(e.kind));
        s.u8(e.aux);
    });
}

void EventLog::load_state(StateSource& s) {
    DTA_CHECK(empty());
    const std::uint64_t n = s.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        Event e;
        e.cycle = s.u64();
        e.thread = s.u64();
        e.other = s.u64();
        e.arg = s.u64();
        e.stall = s.u64();
        e.ordinal = s.u32();
        e.kind = static_cast<EventKind>(s.u8());
        e.aux = s.u8();
        push(e);
    }
}

void write_events(std::ostream& out, const EventLog& log, Cycle cycles,
                  std::uint32_t pes,
                  const std::vector<std::string>& code_names) {
    out << "DTAEV1\n";
    out << "cycles " << cycles << '\n';
    out << "pes " << pes << '\n';
    for (std::size_t i = 0; i < code_names.size(); ++i) {
        out << "code " << i << ' ' << code_names[i] << '\n';
    }
    out << "events " << log.size() << '\n';
    log.for_each([&](const Event& e) {
        out << e.cycle << ' ' << event_kind_name(e.kind) << ' ' << e.ordinal
            << ' ' << static_cast<unsigned>(e.aux) << ' ' << e.thread << ' '
            << e.other << ' ' << e.arg << ' ' << e.stall << '\n';
    });
}

EventFile read_events(std::istream& in) {
    EventFile f;
    std::string line;
    DTA_SIM_REQUIRE(std::getline(in, line) && line == "DTAEV1",
                    "event file: missing DTAEV1 header");
    std::size_t count = 0;
    bool have_count = false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "cycles") {
            ls >> f.cycles;
        } else if (key == "pes") {
            ls >> f.pes;
        } else if (key == "code") {
            std::size_t id = 0;
            ls >> id;
            std::string name;
            std::getline(ls, name);
            if (!name.empty() && name.front() == ' ') {
                name.erase(0, 1);
            }
            if (f.code_names.size() <= id) {
                f.code_names.resize(id + 1);
            }
            f.code_names[id] = name;
        } else if (key == "events") {
            ls >> count;
            have_count = true;
            break;
        } else {
            DTA_SIM_REQUIRE(false, "event file: unknown header key '" + key +
                                       "'");
        }
    }
    DTA_SIM_REQUIRE(have_count, "event file: missing events count");
    f.events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        DTA_SIM_REQUIRE(std::getline(in, line),
                        "event file: truncated at event " + std::to_string(i));
        std::istringstream ls(line);
        Event e;
        std::string kind;
        unsigned aux = 0;
        ls >> e.cycle >> kind >> e.ordinal >> aux >> e.thread >> e.other >>
            e.arg >> e.stall;
        DTA_SIM_REQUIRE(!ls.fail(), "event file: malformed event line '" +
                                        line + "'");
        DTA_SIM_REQUIRE(event_kind_from_name(kind, e.kind),
                        "event file: unknown event kind '" + kind + "'");
        e.aux = static_cast<std::uint8_t>(aux);
        f.events.push_back(e);
    }
    return f;
}

}  // namespace dta::sim
