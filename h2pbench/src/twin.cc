#include "twin.h"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "core/h2p_system.h"
#include "service/session_broker.h"
#include "sim/config.h"

namespace h2pbench {

namespace svc = h2p::service;
using h2p::sched::Policy;

TwinInput
parseTwin(const std::string &ini)
{
    std::istringstream is(ini);
    const h2p::sim::Config parsed = h2p::sim::Config::parse(is);
    return TwinInput{h2p::core::configFromIni(parsed),
                     h2p::core::traceRequestFromIni(parsed)};
}

std::vector<GridPoint>
policyGrid(const std::string &ini)
{
    std::vector<GridPoint> grid;
    for (Policy p : policies())
        grid.push_back(GridPoint{policyName(p), ini, p});
    return grid;
}

std::vector<GridPoint>
fleetGrid(uint64_t seed)
{
    const std::string base = fleetIni(seed);
    std::vector<GridPoint> grid;
    for (int t_safe : {57, 63, 69})
        for (int cold : {15, 25})
            for (Policy p : policies()) {
                std::string ini = iniSet(base, "optimizer", "t_safe_c",
                                         std::to_string(t_safe));
                ini = iniSet(ini, "datacenter", "cold_source_c",
                             std::to_string(cold));
                grid.push_back(GridPoint{
                    "t" + std::to_string(t_safe) + "-c" +
                        std::to_string(cold) + "-" + policyName(p),
                    ini, p});
            }
    return grid;
}

std::vector<h2p::core::SweepPoint>
sweepPoints(const std::vector<GridPoint> &grid,
            const h2p::workload::UtilizationTrace &trace)
{
    std::vector<h2p::core::SweepPoint> points;
    for (const GridPoint &g : grid) {
        h2p::core::SweepPoint p;
        p.config = parseTwin(g.ini).config;
        p.trace = &trace;
        p.policy = g.policy;
        p.label = g.label;
        points.push_back(std::move(p));
    }
    return points;
}

const std::vector<std::string> &
clientVerbs()
{
    static const std::vector<std::string> kVerbs = {"open", "step", "query",
                                                    "close"};
    return kVerbs;
}

h2p::core::RunSummary
referenceSummary(const std::string &ini, Policy policy)
{
    const TwinInput in = parseTwin(ini);
    const h2p::workload::UtilizationTrace trace =
        h2p::core::makeTrace(in.trace);
    h2p::core::H2PSystem system(in.config);
    return system.run(trace, policy).summary;
}

namespace {

/** The number after `"key":` in a flat JSON object; false if absent. */
bool
jsonNumber(const std::string &body, const std::string &key, double &out)
{
    const std::string needle = "\"" + key + "\":";
    const size_t at = body.find(needle);
    if (at == std::string::npos)
        return false;
    const char *begin = body.c_str() + at + needle.size();
    char *end = nullptr;
    out = std::strtod(begin, &end);
    return end != begin;
}

} // namespace

bool
summaryMatches(const std::string &body, const h2p::core::RunSummary &want,
               std::string *why)
{
    const std::pair<const char *, double> fields[] = {
        {"avg_teg_w", want.avg_teg_w},
        {"peak_teg_w", want.peak_teg_w},
        {"avg_cpu_w", want.avg_cpu_w},
        {"pre", want.pre},
        {"teg_energy_kwh", want.teg_energy_kwh},
        {"cpu_energy_kwh", want.cpu_energy_kwh},
        {"plant_energy_kwh", want.plant_energy_kwh},
        {"pump_energy_kwh", want.pump_energy_kwh},
        {"safe_fraction", want.safe_fraction},
        {"avg_t_in_c", want.avg_t_in_c},
        {"fault_events", static_cast<double>(want.fault_events)},
        {"throttle_events", static_cast<double>(want.throttle_events)},
        {"safe_mode_steps", static_cast<double>(want.safe_mode_steps)},
    };
    if (body.find(std::string("\"policy\":\"") + policyName(want.policy) +
                  "\"") == std::string::npos) {
        if (why != nullptr)
            *why = "close summary names another policy";
        return false;
    }
    for (const auto &[key, value] : fields) {
        double got = 0.0;
        if (!jsonNumber(body, key, got) ||
            std::memcmp(&got, &value, sizeof got) != 0) {
            if (why != nullptr)
                *why = std::string("close summary field ") + key +
                       " differs from the in-process run";
            return false;
        }
    }
    return true;
}

BrokerReplay
brokerReplay(const std::string &ini, Policy policy, Checks &checks)
{
    BrokerReplay out;
    svc::SessionBroker broker;
    const auto call = [&](svc::Request req) {
        out.request_payloads.push_back(req.serialize());
        const auto t0 = Clock::now();
        svc::Response resp = broker.handleOne(req);
        out.verb_us[req.verb].push_back(secondsSince(t0) * 1e6);
        out.responses.push_back(resp);
        return resp;
    };

    svc::Request open{"open",
                      {policy == Policy::TegOriginal ? "original"
                                                     : "balance"},
                      ini};
    const svc::Response opened = call(open);
    if (!checks.expect(opened.ok && opened.args.size() == 2,
                       "broker open: " + opened.message))
        return out;
    const std::string id = opened.args[0];
    const size_t steps = std::strtoul(opened.args[1].c_str(), nullptr, 10);
    for (size_t k = 0; k < steps; ++k) {
        const svc::Response stepped = call({"step", {id, "1"}, ""});
        checks.expect(stepped.ok && !stepped.args.empty() &&
                          stepped.args[0] == std::to_string(k + 1),
                      "broker step did not advance the twin");
        const svc::Response queried = call({"query", {id, "state"}, ""});
        checks.expect(queried.ok, "broker query: " + queried.message);
    }
    const svc::Response closed = call({"close", {id}, ""});
    checks.expect(closed.ok && !closed.args.empty() &&
                      closed.args[0] == "finished",
                  "broker close did not finish the twin");
    out.summary = closed.body;
    return out;
}

} // namespace h2pbench
