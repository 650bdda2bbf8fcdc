/**
 * @file
 * Workload `daemon`: controllers stepping live twins through an
 * in-process service::Server with its default options. A closed loop
 * of client connections, one thread each, at pipeline depth 1: open a
 * paper.ini twin (policies alternate), 144 x (step <id> 1,
 * query <id> state), close, repeat. Every step advances the twin, so
 * `step` is mostly twin compute, `query` almost all transport and
 * `open` mostly trace generation.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "sched/lookup_cache.h"
#include "service/server.h"
#include "service/session_broker.h"
#include "twin.h"
#include "util/socket.h"

namespace h2pbench {

namespace svc = h2p::service;
using h2p::sched::Policy;

namespace {

constexpr size_t kConnections = 4;

/** Rounds a run is cut into, each with its own cold daemon start. */
constexpr size_t kRounds = 20;

/** One request/response exchange at pipeline depth 1. */
svc::Response
exchange(const h2p::util::Fd &fd, const svc::Request &request)
{
    svc::writeFrame(fd, request.serialize());
    std::string payload;
    if (!svc::readFrame(fd, payload))
        throw std::runtime_error("daemon closed the connection");
    return svc::Response::parse(payload);
}

const char *
openArg(Policy p)
{
    return p == Policy::TegOriginal ? "original" : "balance";
}

/** Span names per verb (spans keep a pointer to the name). */
const char *
requestSpanName(const std::string &verb)
{
    if (verb == "open")
        return "service.open";
    if (verb == "step")
        return "service.step";
    if (verb == "query")
        return "service.query";
    return "service.close";
}

/** One closed-loop client's tallies; merged after the join. */
struct Client
{
    std::map<std::string, std::vector<double>> verb_us;
    std::vector<double> twin_ms;
    size_t requests = 0;
    size_t twins = 0;
    Checks checks;
    SpanLog spans;
};

void
runClient(size_t index, const LoopSpec &spec, const Golden &golden,
          Clock::time_point deadline, Client &me)
{
    h2p::util::Fd fd;
    try {
        fd = h2p::util::unixConnect(spec.socket_path);
    } catch (const std::exception &e) {
        me.checks.expect(false, std::string("connect refused: ") + e.what());
        return;
    }
    me.checks.succeeded(1);

    uint64_t request_id = static_cast<uint64_t>(index) << 40;
    try {
        for (size_t twin = 0;
             spec.twins_per_client > 0 ? twin < spec.twins_per_client
                                       : Clock::now() < deadline;
             ++twin) {
            const Policy policy = policies()[(index + twin) % 2];
            const size_t input =
                (index + twin * spec.connections) % spec.inis.size();
            const int64_t twin_span =
                spec.trace ? me.spans.begin("daemon.twin", -1, request_id)
                           : -1;
            const int64_t twin_t0 = nowNs();
            const auto request = [&](const svc::Request &req) {
                const int64_t a = nowNs();
                svc::Response resp = exchange(fd, req);
                const int64_t b = nowNs();
                me.verb_us[req.verb].push_back(static_cast<double>(b - a) /
                                               1e3);
                if (spec.trace)
                    me.spans.add(requestSpanName(req.verb), twin_span,
                                 request_id, a, b);
                ++request_id;
                ++me.requests;
                return resp;
            };

            const svc::Response opened =
                request({"open", {openArg(policy)}, spec.inis[input]});
            if (!me.checks.expect(opened.ok && opened.args.size() == 2,
                                  "open: " + opened.message))
                break;
            const std::string &id = opened.args[0];
            const size_t steps =
                std::strtoul(opened.args[1].c_str(), nullptr, 10);
            for (size_t k = 0; k < steps; ++k) {
                const svc::Response stepped =
                    request({"step", {id, "1"}, ""});
                me.checks.expect(stepped.ok && stepped.args.size() == 2 &&
                                     stepped.args[0] ==
                                         std::to_string(k + 1),
                                 "step did not advance the twin: " +
                                     stepped.message);
                const svc::Response queried =
                    request({"query", {id, "state"}, ""});
                me.checks.expect(queried.ok, "query: " + queried.message);
            }
            const svc::Response closed = request({"close", {id}, ""});
            std::string why = "close did not finish the twin";
            bool ok = closed.ok && !closed.args.empty() &&
                      closed.args[0] == "finished";
            if (ok) {
                auto ref = spec.reference.find({input, policy});
                ok = ref == spec.reference.end() ||
                     summaryMatches(closed.body, ref->second, &why);
                ok = ok && (spec.golden_workload.empty() ||
                            digestMatches(golden, spec.trace_seeds[input],
                                          spec.golden_workload,
                                          policyName(policy),
                                          hex64(fnv1a(closed.body)), "",
                                          &why));
            }
            me.checks.expect(ok, why);
            me.twin_ms.push_back(static_cast<double>(nowNs() - twin_t0) /
                                 1e6);
            ++me.twins;
            if (spec.trace)
                me.spans.end(twin_span);
        }
    } catch (const std::exception &e) {
        me.checks.expect(false, std::string("request failed: ") + e.what());
    }
}

} // namespace

LoopResult
runClients(const LoopSpec &spec, const Golden &golden)
{
    LoopResult out;
    std::vector<Client> clients(spec.connections);
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(spec.seconds));
    {
        std::vector<std::thread> threads;
        for (size_t c = 0; c < spec.connections; ++c)
            threads.emplace_back(runClient, c, std::cref(spec),
                                 std::cref(golden), deadline,
                                 std::ref(clients[c]));
        for (std::thread &t : threads)
            t.join();
    }
    out.wall_s = secondsSince(t0);

    for (Client &c : clients) {
        for (auto &[verb, v] : c.verb_us)
            out.verb_us[verb].insert(out.verb_us[verb].end(), v.begin(),
                                     v.end());
        out.twin_ms.insert(out.twin_ms.end(), c.twin_ms.begin(),
                           c.twin_ms.end());
        out.requests += c.requests;
        out.twins += c.twins;
        out.checks.merge(c.checks);
        out.spans.absorb(c.spans);
    }
    return out;
}

LoopResult
closedLoop(const LoopSpec &spec, const Golden &golden)
{
    svc::SessionBroker broker;
    svc::Server server(spec.socket_path, &broker);
    LoopResult out = runClients(spec, golden);

    // The broker's own request count must match ours (+1: stats itself).
    try {
        const h2p::util::Fd fd = h2p::util::unixConnect(spec.socket_path);
        const svc::Response stats = exchange(fd, {"stats", {}, ""});
        out.stats_requests =
            stats.args.size() == 2
                ? std::strtoull(stats.args[1].c_str(), nullptr, 10)
                : 0;
        out.checks.expect(stats.ok && out.stats_requests == out.requests + 1,
                          "stats verb counts " +
                              std::to_string(out.stats_requests) +
                              " requests, clients sent " +
                              std::to_string(out.requests) + " + 1");
    } catch (const std::exception &e) {
        out.checks.expect(false, std::string("stats failed: ") + e.what());
    }
    server.stop();
    return out;
}

double
daemonSetup(const std::string &ini, size_t connections,
            const std::string &socket_path, Checks &checks)
{
    h2p::sched::LookupSpaceCache::instance().clear();
    svc::SessionBroker broker;
    svc::Server server(socket_path, &broker);
    const auto t0 = Clock::now();

    std::vector<double> opened_s(connections, 0.0);
    std::vector<Checks> local(connections);
    std::atomic<size_t> open_count{0};
    {
        std::vector<std::thread> threads;
        for (size_t c = 0; c < connections; ++c)
            threads.emplace_back([&, c] {
                try {
                    const h2p::util::Fd fd =
                        h2p::util::unixConnect(socket_path);
                    const svc::Response opened = exchange(
                        fd, {"open", {openArg(policies()[c % 2])}, ini});
                    opened_s[c] = secondsSince(t0);
                    open_count.fetch_add(1);
                    if (!local[c].expect(opened.ok && !opened.args.empty(),
                                         "open: " + opened.message))
                        return;
                    // Hold the twin until every client has one open.
                    while (open_count.load() < connections)
                        std::this_thread::yield();
                    const svc::Response closed =
                        exchange(fd, {"close", {opened.args[0]}, ""});
                    local[c].expect(closed.ok, "close: " + closed.message);
                } catch (const std::exception &e) {
                    open_count.fetch_add(1);
                    local[c].expect(false, std::string("set-up client: ") +
                                               e.what());
                }
            });
        for (std::thread &t : threads)
            t.join();
    }
    for (const Checks &c : local)
        checks.merge(c);
    server.stop();
    return *std::max_element(opened_s.begin(), opened_s.end());
}

Outcome
runDaemon(const Options &opt, const Golden &golden)
{
    Outcome out;
    out.workers = svc::ServerOptions{}.workers;
    out.connections = kConnections;
    if (opt.trace) {
        const std::string ini = paperIni(opt.seed);
        profileLayers(
            LayerSpec{"daemon", ini, policyGrid(ini), 1, kConnections, false},
            opt, golden, out);
        return out;
    }

    const std::string socket_path =
        opt.out_dir + "/daemon-" +
        std::to_string(static_cast<long>(::getpid())) + ".sock";

    LoopSpec spec;
    spec.connections = kConnections;
    spec.socket_path = socket_path;
    for (size_t j = 0; j < kPaperTraces; ++j) {
        spec.trace_seeds.push_back(traceSeed(opt.seed, j));
        spec.inis.push_back(paperIni(spec.trace_seeds.back()));
        for (Policy p : policies())
            spec.reference[{j, p}] = referenceSummary(spec.inis.back(), p);
    }

    // Each round starts a cold daemon (set-up time), then runs the
    // closed loop on it.
    Rounds rounds;
    spec.seconds = opt.seconds / kRounds;
    for (size_t round = 0; round < kRounds; ++round) {
        rounds.add("setup_s",
                   daemonSetup(spec.inis[round % spec.inis.size()],
                               kConnections, socket_path, out.checks),
                   1);
        LoopResult lr = closedLoop(spec, golden);
        out.checks.merge(lr.checks);

        std::vector<double> open_ms;
        for (double us : lr.verb_us["open"])
            open_ms.push_back(us / 1e3);
        rounds.addMedian("run_ms", lr.twin_ms);
        rounds.add("runs_per_s", static_cast<double>(lr.twins) / lr.wall_s,
                   lr.twins);
        rounds.addPercentile("step_us.p50", lr.verb_us["step"], 50);
        rounds.addPercentile("step_us.p99", lr.verb_us["step"], 99);
        rounds.add("req_per_s", static_cast<double>(lr.requests) / lr.wall_s,
                   lr.requests);
        rounds.addPercentile("step_req_us.p50", lr.verb_us["step"], 50);
        rounds.addPercentile("step_req_us.p99", lr.verb_us["step"], 99);
        rounds.addPercentile("query_req_us.p50", lr.verb_us["query"], 50);
        rounds.addPercentile("query_req_us.p99", lr.verb_us["query"], 99);
        rounds.addPercentile("open_ms.p50", open_ms, 50);
    }

    Report &rep = out.report;
    rounds.report(rep, "setup_s", "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB", 1);
    rounds.report(rep, "run_ms", "ms");
    rounds.report(rep, "runs_per_s", "1/s");
    rounds.report(rep, "step_us.p50", "us");
    rounds.report(rep, "step_us.p99", "us");
    rounds.report(rep, "req_per_s", "1/s");
    rounds.report(rep, "step_req_us.p50", "us");
    rounds.report(rep, "step_req_us.p99", "us");
    rounds.report(rep, "query_req_us.p50", "us");
    rounds.report(rep, "query_req_us.p99", "us");
    rounds.report(rep, "open_ms.p50", "ms");
    return out;
}

} // namespace h2pbench
