#include "core/config_io.h"

#include <map>
#include <set>
#include <sstream>
#include <type_traits>

#include "util/error.h"
#include "util/hash.h"
#include "util/logging.h"

namespace h2p {
namespace core {

namespace {

workload::TraceProfile
profileFromName(const std::string &name)
{
    for (workload::TraceProfile p :
         {workload::TraceProfile::Drastic, workload::TraceProfile::Irregular,
          workload::TraceProfile::Common}) {
        if (workload::toString(p) == name)
            return p;
    }
    fatal("config [trace] profile: unknown profile `", name,
          "' (drastic|irregular|common)");
}

/** Overwrite @p value with the row's INI value, when the key is set. */
template <typename T>
void
readField(const sim::Config &ini, const ConfigField &f, T &value)
{
    if (!ini.has(f.section, f.key))
        return;
    if constexpr (std::is_same_v<T, bool>) {
        value = ini.getBool(f.section, f.key);
    } else if constexpr (std::is_same_v<T, double>) {
        value = ini.getDouble(f.section, f.key);
    } else if constexpr (std::is_same_v<T, std::string>) {
        value = ini.getString(f.section, f.key);
    } else if constexpr (std::is_same_v<T, workload::TraceProfile>) {
        value = profileFromName(ini.getString(f.section, f.key));
    } else {
        static_assert(std::is_unsigned_v<T>, "unsupported field type");
        // A cast would wrap -1 to SIZE_MAX (a huge allocation or a
        // silently unbounded loop); refuse it instead.
        const long v = ini.getLong(f.section, f.key);
        expect(v >= 0, "config [", f.section, "] ", f.key, ": ", v,
               " is negative; it must be 0 or more");
        value = static_cast<T>(v);
    }
}

template <typename T>
void
hashField(util::Fnv1a &h, const T &value)
{
    if constexpr (std::is_same_v<T, bool>)
        h.boolean(value);
    else if constexpr (std::is_same_v<T, double>)
        h.f64(value);
    else if constexpr (std::is_same_v<T, std::string>)
        h.str(value);
    else
        h.u64(value);
}

std::string
fieldName(const ConfigField &f)
{
    return std::string("[") + f.section + "] " + f.key;
}

/**
 * Warn about sections/keys no table row binds. A typo like
 * `[perf] thread = 8` used to be silently ignored — the run proceeded
 * serially and the user had no idea; a warning names the offender.
 * This stays a warning (not an error) so configs remain forward- and
 * backward-compatible across library versions.
 */
void
warnUnknownKeys(const sim::Config &ini)
{
    static const auto known = [] {
        std::map<std::string, std::set<std::string>> rows;
        const auto note = [&rows](const ConfigField &f, const auto &) {
            rows[f.section].insert(f.key);
        };
        const H2PConfig cfg;
        const TraceRequest req;
        forEachConfigField(cfg, note);
        forEachTraceField(req, note);
        return rows;
    }();

    for (const std::string &s : ini.sections()) {
        auto it = known.find(s);
        if (it == known.end()) {
            warn("config: unknown section [", s, "] is ignored");
            continue;
        }
        for (const std::string &k : ini.keys(s)) {
            if (it->second.count(k) == 0)
                warn("config: unknown key [", s, "] ", k,
                     " is ignored (typo?)");
        }
    }
}

} // namespace

H2PConfig
configFromIni(const sim::Config &ini)
{
    warnUnknownKeys(ini);
    H2PConfig cfg;
    forEachConfigField(cfg, [&ini](const ConfigField &f, auto &value) {
        readField(ini, f, value);
    });
    return cfg;
}

TraceRequest
traceRequestFromIni(const sim::Config &ini)
{
    TraceRequest req;
    forEachTraceField(req, [&ini](const ConfigField &f, auto &value) {
        readField(ini, f, value);
    });
    return req;
}

workload::UtilizationTrace
makeTrace(const TraceRequest &request)
{
    workload::TraceGenerator gen(request.seed);
    return gen.generateProfile(request.profile, request.servers);
}

std::string
configKeyReference()
{
    std::ostringstream os;
    const auto line = [&os](const ConfigField &f, const auto &) {
        os << fieldName(f) << "  " << f.doc << '\n';
    };
    const H2PConfig cfg;
    const TraceRequest req;
    forEachConfigField(cfg, line);
    forEachTraceField(req, line);
    return os.str();
}

std::vector<FieldDigest>
configDigests(const H2PConfig &cfg)
{
    std::vector<FieldDigest> out;
    forEachConfigField(cfg, [&out](const ConfigField &f,
                                   const auto &value) {
        if (f.result_neutral)
            return;
        util::Fnv1a h;
        hashField(h, value);
        out.push_back({fieldName(f), h.digest()});
    });

    // Code-only: scripted faults have no INI key but shape the run.
    util::Fnv1a h;
    h.size(cfg.faults.scripted.size());
    for (const fault::FaultEvent &e : cfg.faults.scripted) {
        h.f64(e.time_s);
        h.u64(static_cast<uint64_t>(e.kind));
        h.size(e.circulation);
        h.size(e.server);
        h.f64(e.magnitude);
        h.f64(e.duration_s);
    }
    out.push_back({"faults.scripted", h.digest()});
    return out;
}

std::string
differingFields(const std::vector<FieldDigest> &saved,
                const std::vector<FieldDigest> &current)
{
    std::map<std::string, uint64_t> unmatched;
    for (const FieldDigest &d : saved)
        unmatched.emplace(d.name, d.digest);
    std::string out;
    const auto name = [&out](const std::string &field) {
        out += out.empty() ? field : ", " + field;
    };
    for (const FieldDigest &d : current) {
        auto it = unmatched.find(d.name);
        if (it == unmatched.end() || it->second != d.digest)
            name(d.name);
        if (it != unmatched.end())
            unmatched.erase(it);
    }
    for (const auto &[field, digest] : unmatched)
        name(field);
    return out;
}

} // namespace core
} // namespace h2p
