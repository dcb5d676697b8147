#include "stats/bench_file.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "stats/json_report.hpp"
#include "stats/json_value.hpp"

namespace dta::stats {

namespace {

/// Full-precision double rendering (round-trips via strtod); %.4f would
/// destroy sub-millisecond timings.
std::string dbl(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

double median_of(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double mad_of(const std::vector<double>& v, double center) {
    std::vector<double> dev;
    dev.reserve(v.size());
    for (const double x : v) {
        dev.push_back(std::fabs(x - center));
    }
    return median_of(std::move(dev));
}

double BenchCase::min_s() const {
    return host_seconds.empty()
               ? 0.0
               : *std::min_element(host_seconds.begin(), host_seconds.end());
}

double BenchCase::median_s() const { return median_of(host_seconds); }

double BenchCase::mad_s() const { return mad_of(host_seconds, median_s()); }

const BenchCase* BenchFile::find(std::string_view name) const {
    for (const BenchCase& c : cases) {
        if (c.name == name) {
            return &c;
        }
    }
    return nullptr;
}

std::string serialize_bench_file(const BenchFile& f) {
    std::ostringstream os;
    os << "{\n  \"schema\": \"" << BenchFile::kSchema << "\",\n"
       << "  \"label\": \"" << json_escape(f.label) << "\",\n"
       << "  \"env\": {\"git_sha\": \"" << json_escape(f.env.git_sha)
       << "\", \"compiler\": \"" << json_escape(f.env.compiler)
       << "\", \"build_type\": \"" << json_escape(f.env.build_type)
       << "\", \"host_threads\": " << f.env.host_threads << "},\n"
       << "  \"cases\": [";
    bool first = true;
    for (const BenchCase& c : f.cases) {
        os << (first ? "\n" : ",\n") << "    {\"name\": \""
           << json_escape(c.name) << "\", \"cycles\": " << c.cycles
           << ",\n     \"host_seconds\": [";
        bool sfirst = true;
        for (const double s : c.host_seconds) {
            os << (sfirst ? "" : ", ") << dbl(s);
            sfirst = false;
        }
        os << "],\n     \"min_s\": " << dbl(c.min_s())
           << ", \"median_s\": " << dbl(c.median_s())
           << ", \"mad_s\": " << dbl(c.mad_s());
        // Host-side scheduler counters ride an optional "host" sub-object
        // so files without them (and older readers) keep the original
        // shape.
        if (c.wheel_pops > 0 || c.wheel_inserts > 0) {
            os << ",\n     \"host\": {\"wheel_pops\": " << c.wheel_pops
               << ", \"wheel_inserts\": " << c.wheel_inserts
               << ", \"wheel_dense_cycles\": " << c.wheel_dense_cycles
               << "}";
        }
        os << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "]\n}\n";
    return os.str();
}

bool parse_bench_file(std::string_view text, BenchFile& out,
                      std::string& error) {
    const JsonParseResult r = parse_json(text);
    if (!r.ok) {
        error = "malformed JSON at byte " + std::to_string(r.offset) + ": " +
                r.error;
        return false;
    }
    const JsonValue& doc = r.value;
    if (!doc.is_object()) {
        error = "top level is not an object";
        return false;
    }
    const JsonValue* schema =
        doc.find("schema", JsonValue::Kind::kString);
    if (schema == nullptr || schema->as_string() != BenchFile::kSchema) {
        error = "missing or unsupported \"schema\" (want \"" +
                std::string(BenchFile::kSchema) + "\")";
        return false;
    }
    out = BenchFile{};
    if (const JsonValue* label = doc.find("label", JsonValue::Kind::kString);
        label != nullptr) {
        out.label = label->as_string();
    }
    const JsonValue* env = doc.find("env");
    if (env == nullptr || !env->is_object()) {
        error = "missing \"env\" object";
        return false;
    }
    if (const JsonValue* v = env->find("git_sha", JsonValue::Kind::kString);
        v != nullptr) {
        out.env.git_sha = v->as_string();
    }
    if (const JsonValue* v = env->find("compiler", JsonValue::Kind::kString);
        v != nullptr) {
        out.env.compiler = v->as_string();
    }
    if (const JsonValue* v =
            env->find("build_type", JsonValue::Kind::kString);
        v != nullptr) {
        out.env.build_type = v->as_string();
    }
    if (const JsonValue* v =
            env->find("host_threads", JsonValue::Kind::kNumber);
        v != nullptr) {
        out.env.host_threads = static_cast<std::uint32_t>(v->as_u64());
    }
    const JsonValue* cases = doc.find("cases");
    if (cases == nullptr || !cases->is_array()) {
        error = "missing \"cases\" array";
        return false;
    }
    for (std::size_t i = 0; i < cases->items().size(); ++i) {
        const JsonValue& jc = cases->items()[i];
        const std::string where = "cases[" + std::to_string(i) + "]";
        if (!jc.is_object()) {
            error = where + " is not an object";
            return false;
        }
        BenchCase c;
        const JsonValue* name = jc.find("name", JsonValue::Kind::kString);
        if (name == nullptr || name->as_string().empty()) {
            error = where + " has no \"name\"";
            return false;
        }
        c.name = name->as_string();
        const JsonValue* cycles =
            jc.find("cycles", JsonValue::Kind::kNumber);
        if (cycles == nullptr) {
            error = where + " (" + c.name + ") has no numeric \"cycles\"";
            return false;
        }
        c.cycles = cycles->as_u64();
        const JsonValue* secs = jc.find("host_seconds");
        if (secs == nullptr || !secs->is_array() || secs->items().empty()) {
            error = where + " (" + c.name +
                    ") has no non-empty \"host_seconds\" array";
            return false;
        }
        for (const JsonValue& s : secs->items()) {
            if (!s.is_number() || s.as_number() < 0.0) {
                error = where + " (" + c.name +
                        ") has a non-numeric or negative host_seconds entry";
                return false;
            }
            c.host_seconds.push_back(s.as_number());
        }
        // Optional host-side counters (absent in older files; never
        // gated on, so parse is lenient).
        if (const JsonValue* h = jc.find("host");
            h != nullptr && h->is_object()) {
            if (const JsonValue* v =
                    h->find("wheel_pops", JsonValue::Kind::kNumber);
                v != nullptr) {
                c.wheel_pops = v->as_u64();
            }
            if (const JsonValue* v =
                    h->find("wheel_inserts", JsonValue::Kind::kNumber);
                v != nullptr) {
                c.wheel_inserts = v->as_u64();
            }
            if (const JsonValue* v =
                    h->find("wheel_dense_cycles", JsonValue::Kind::kNumber);
                v != nullptr) {
                c.wheel_dense_cycles = v->as_u64();
            }
        }
        out.cases.push_back(std::move(c));
    }
    return true;
}

}  // namespace dta::stats
