/**
 * @file
 * Building blocks the three workloads share: parsed twin inputs,
 * sweep grids, the daemon's closed-loop clients, the in-process broker
 * replay and the traced layer profile.
 */

#ifndef H2PBENCH_TWIN_H_
#define H2PBENCH_TWIN_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "core/config_io.h"
#include "core/sweep_types.h"
#include "service/protocol.h"

namespace h2pbench {

/** What the twin receives: configuration and trace request. */
struct TwinInput
{
    h2p::core::H2PConfig config;
    h2p::core::TraceRequest trace;
};

TwinInput parseTwin(const std::string &ini);

/** One design point of a sweep, as INI text plus policy. */
struct GridPoint
{
    std::string label;
    std::string ini;
    h2p::sched::Policy policy = h2p::sched::Policy::TegOriginal;
};

/** Both policies on @p ini. */
std::vector<GridPoint> policyGrid(const std::string &ini);

/** t_safe_c {57, 63, 69} x cold_source_c {15, 25} x both policies. */
std::vector<GridPoint> fleetGrid(uint64_t seed);

/** Sweep points over one shared trace (parses every point's INI). */
std::vector<h2p::core::SweepPoint> sweepPoints(
    const std::vector<GridPoint> &grid,
    const h2p::workload::UtilizationTrace &trace);

/** The verbs a daemon client issues, in reporting order. */
const std::vector<std::string> &clientVerbs();

/** A closed-loop client run against an in-process service::Server. */
struct LoopSpec
{
    /** Twin inputs the clients cycle through, and their trace seeds. */
    std::vector<std::string> inis;
    std::vector<uint64_t> trace_seeds;
    size_t connections = 4;
    /** Clients start no new twin after this many seconds. */
    double seconds = 1.0;
    /** Twins per client; 0 = as many as fit in `seconds`. */
    size_t twins_per_client = 0;
    std::string socket_path;
    /** Close summary each (input index, policy) must reproduce. */
    std::map<std::pair<size_t, h2p::sched::Policy>, h2p::core::RunSummary>
        reference;
    /** Golden key of the close summaries; empty when none apply. */
    std::string golden_workload = "daemon";
    /** Record a span per twin and per request. */
    bool trace = false;
};

struct LoopResult
{
    /** Client-observed latency per verb, us. */
    std::map<std::string, std::vector<double>> verb_us;
    /** Open-to-close lifetime of each twin, ms. */
    std::vector<double> twin_ms;
    size_t requests = 0;
    size_t twins = 0;
    double wall_s = 0.0;
    /** The broker's own request count from the stats verb. */
    uint64_t stats_requests = 0;
    Checks checks;
    SpanLog spans;
};

/**
 * Run the clients against whatever listens at spec.socket_path. A
 * refused connect and every error response count as failed
 * operations.
 */
LoopResult runClients(const LoopSpec &spec, const Golden &golden);

/**
 * runClients() against a fresh in-process server with default
 * options, then cross-check the broker's stats verb against the
 * clients' request count.
 */
LoopResult closedLoop(const LoopSpec &spec, const Golden &golden);

/**
 * Set-up time of the daemon: from a freshly listening server (cold
 * look-up cache, as in a new process) until @p connections clients
 * each have a twin open, s.
 */
double daemonSetup(const std::string &ini, size_t connections,
                   const std::string &socket_path, Checks &checks);

/** In-process run of one policy: the reference a twin must match. */
h2p::core::RunSummary referenceSummary(const std::string &ini,
                                       h2p::sched::Policy policy);

/**
 * A close summary body reproduces @p want field for field (every
 * double bit for bit); @p why names the first differing field.
 */
bool summaryMatches(const std::string &body,
                    const h2p::core::RunSummary &want, std::string *why);

/** The request sequence of one twin lifetime through the broker. */
struct BrokerReplay
{
    std::map<std::string, std::vector<double>> verb_us;
    std::vector<std::string> request_payloads;
    std::vector<h2p::service::Response> responses;
    /** Close summary body. */
    std::string summary;
};

/**
 * open, steps x (step 1, query state), close through
 * SessionBroker::handleOne in-process, timing each request.
 */
BrokerReplay brokerReplay(const std::string &ini,
                          h2p::sched::Policy policy, Checks &checks);

/** Inputs of the traced per-layer profile of one workload. */
struct LayerSpec
{
    std::string workload;
    /** The twin each session, request and trace runs on. */
    std::string ini;
    /** Grid and worker count of the sweep probe. */
    std::vector<GridPoint> grid;
    size_t sweep_workers = 1;
    /** Clients of the service probe. */
    size_t connections = 1;
    /** Clear the look-up cache before each system build. */
    bool cold_lookup = false;
};

/** Measure every per-layer metric on @p spec's inputs. */
void profileLayers(const LayerSpec &spec, const Options &opt,
                   const Golden &golden, Outcome &out);

} // namespace h2pbench

#endif // H2PBENCH_TWIN_H_
