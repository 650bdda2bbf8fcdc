/**
 * @file
 * The traced run: every per-layer metric, measured on one workload's
 * own inputs with spans the benchmark writes around public calls.
 *
 * Sessions are profiled in pairs of passes on fresh systems: an
 * untraced pass (plain stepping, the reference digest and run time)
 * and a traced pass, whose decide stage is the factory pipeline
 * wrapped in a timing stage and whose every step is followed by an
 * evaluate replay. The difference of the two passes' run times is the
 * tracing overhead; the traced pass must reproduce the untraced
 * digest.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "control/control_stage.h"
#include "core/h2p_system.h"
#include "core/sweep_engine.h"
#include "sched/cooling_optimizer.h"
#include "sched/lookup_cache.h"
#include "service/protocol.h"
#include "thermal/teg.h"
#include "twin.h"

namespace h2pbench {

namespace core = h2p::core;
namespace svc = h2p::service;
using h2p::sched::Policy;

namespace {

/**
 * Tolerances of the accounting checks. A traced step is the decide
 * stage plus the datacenter evaluation plus engine bookkeeping
 * (recording, accumulation, shaping copies); the decide span and the
 * replayed evaluation must cover it to within kStepTolerance. A
 * request's broker time, replayed in-process, may exceed its
 * client-observed median by at most kRequestTolerance; a verb with
 * fewer than kRequestMinSamples on either side (the fleet's one or two
 * second-long opens) is too noisy to hold to that and is not checked.
 */
constexpr double kStepTolerance = 0.25;
constexpr double kRequestTolerance = 0.10;
constexpr size_t kRequestMinSamples = 5;

/** Times the wrapped factory pipeline as a child span of the step. */
class TimedDecide final : public h2p::control::ControlStage
{
  public:
    TimedDecide(std::unique_ptr<h2p::control::ControlPipeline> inner,
                SpanLog &log, const int64_t &step_span,
                const uint64_t &run)
        : inner_(std::move(inner)), log_(log), step_span_(step_span),
          run_(run)
    {
    }

    const char *name() const override { return "bench.timed_decide"; }

    void apply(const h2p::control::ControlContext &ctx,
               h2p::sched::ScheduleDecision &decision) override
    {
        const int64_t id = log_.begin("control.decide", step_span_, run_);
        inner_->run(ctx, decision);
        log_.end(id);
    }

    void observe(const h2p::control::ControlContext &ctx,
                 const h2p::cluster::DatacenterState &state) override
    {
        inner_->observe(ctx, state);
    }

    void reset() override { inner_->reset(); }

  private:
    std::unique_ptr<h2p::control::ControlPipeline> inner_;
    SpanLog &log_;
    const int64_t &step_span_;
    const uint64_t &run_;
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameVector(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/** Bit-identity of two evaluations, totals down to per-server lanes. */
bool
sameState(const h2p::cluster::DatacenterState &a,
          const h2p::cluster::DatacenterState &b)
{
    if (!sameBits(a.cpu_power_w, b.cpu_power_w) ||
        !sameBits(a.teg_power_w, b.teg_power_w) ||
        !sameBits(a.heat_w, b.heat_w) ||
        !sameBits(a.pump_power_w, b.pump_power_w) ||
        !sameBits(a.plant_power_w, b.plant_power_w) ||
        a.all_safe != b.all_safe ||
        a.circulations.size() != b.circulations.size())
        return false;
    for (size_t i = 0; i < a.circulations.size(); ++i) {
        const auto &x = a.circulations[i];
        const auto &y = b.circulations[i];
        if (!sameBits(x.cpu_power_w, y.cpu_power_w) ||
            !sameBits(x.teg_power_w, y.teg_power_w) ||
            !sameBits(x.return_c, y.return_c) ||
            !sameBits(x.max_die_c, y.max_die_c) ||
            !sameBits(x.pump_power_w, y.pump_power_w) ||
            !sameVector(x.servers.die_temp_c, y.servers.die_temp_c) ||
            !sameVector(x.servers.teg_power_w, y.servers.teg_power_w))
            return false;
    }
    return true;
}

/** Per-circulation planning utilization: the slice max (Step 1). */
void
appendPlanUtils(const h2p::cluster::Datacenter &dc,
                const h2p::sched::ScheduleDecision &decision,
                std::vector<double> &plan,
                std::vector<h2p::cluster::CoolingSetting> &chosen)
{
    size_t offset = 0;
    for (size_t c = 0; c < dc.numCirculations(); ++c) {
        const size_t n = dc.circulationSize(c);
        const auto first = decision.utils.begin() +
                           static_cast<std::ptrdiff_t>(offset);
        plan.push_back(*std::max_element(
            first, first + static_cast<std::ptrdiff_t>(n)));
        chosen.push_back(decision.settings[c]);
        offset += n;
    }
}

struct SessionProfile
{
    /** Per pass: the mean of its two policy runs (see runPaper). */
    std::vector<double> untraced_run_ms, traced_run_ms;
    std::vector<double> decide_us, step_self_us, evaluate_us, finish_ms,
        choose_us;
    size_t hits = 0, misses = 0;
    double sum_step_ns = 0, sum_decide_ns = 0, sum_evaluate_ns = 0;
    size_t servers = 0;
};

using Digests = std::map<Policy, std::string>;

/** Both policies on a fresh system, stepped plainly. */
Digests
untracedPass(const LayerSpec &spec, const TwinInput &in,
             const h2p::workload::UtilizationTrace &trace,
             SessionProfile &prof)
{
    Digests digests;
    if (spec.cold_lookup)
        h2p::sched::LookupSpaceCache::instance().clear();
    core::H2PSystem system(in.config);
    double run_ms = 0;
    for (Policy p : policies()) {
        const auto t0 = Clock::now();
        core::SimSession s = system.startSession(trace, p);
        s.runToCompletion();
        core::RunResult r = s.finish();
        run_ms += secondsSince(t0) * 1e3;
        digests[p] = recorderDigest(*r.recorder);
    }
    prof.untraced_run_ms.push_back(run_ms /
                                   static_cast<double>(policies().size()));
    return digests;
}

/**
 * Both policies on a fresh system with the timing stage installed,
 * an evaluate replay after every step, and the planning utilizations
 * replayed on a fresh optimizer at the end.
 */
Digests
tracedPass(const LayerSpec &spec, const TwinInput &in,
           const h2p::workload::UtilizationTrace &trace, uint64_t &run_id,
           SessionProfile &prof, Checks &checks, SpanLog &log)
{
    Digests digests;
    if (spec.cold_lookup)
        h2p::sched::LookupSpaceCache::instance().clear();
    core::H2PSystem system(in.config);
    const h2p::cluster::Datacenter &dc = system.datacenter();
    prof.servers = dc.numServers();
    std::vector<double> plan;
    std::vector<h2p::cluster::CoolingSetting> chosen;
    int64_t step_span = -1;
    int64_t pass_ns = 0;
    for (Policy p : policies()) {
        ++run_id;
        const int64_t start0 = nowNs();
        core::SimSession s = system.startSession(trace, p);
        s.setPipeline([&] {
            auto outer = std::make_unique<h2p::control::ControlPipeline>(
                "bench.traced");
            outer->add(std::make_unique<TimedDecide>(
                system.pipelines().make(p), log, step_span, run_id));
            return outer;
        }());
        int64_t run_ns = nowNs() - start0;
        while (!s.done()) {
            step_span = log.begin("core.step", -1, run_id);
            s.step();
            log.end(step_span);
            const Span &st = log.spans()[static_cast<size_t>(step_span)];
            const Span &dec = log.spans().back();
            const int64_t step_ns = st.end_ns - st.start_ns;
            const int64_t dec_ns = dec.end_ns - dec.start_ns;
            run_ns += step_ns;
            prof.sum_step_ns += static_cast<double>(step_ns);
            prof.sum_decide_ns += static_cast<double>(dec_ns);
            prof.decide_us.push_back(static_cast<double>(dec_ns) / 1e3);
            prof.step_self_us.push_back(
                static_cast<double>(step_ns - dec_ns) / 1e3);

            // The engine evaluates the decision's (possibly balanced)
            // utilizations, not the requested lastUtils().
            const h2p::sched::ScheduleDecision &decision = s.lastDecision();
            const int64_t ev = log.begin("cluster.evaluate", -1, run_id);
            const h2p::cluster::DatacenterState replay =
                dc.evaluate(decision.utils, decision.settings);
            log.end(ev);
            const Span &evs = log.spans()[static_cast<size_t>(ev)];
            const int64_t ev_ns = evs.end_ns - evs.start_ns;
            prof.sum_evaluate_ns += static_cast<double>(ev_ns);
            prof.evaluate_us.push_back(static_cast<double>(ev_ns) / 1e3);
            checks.expect(sameState(replay, s.lastState()),
                          "evaluate replay differs from the step's state");
            appendPlanUtils(dc, s.lastDecision(), plan, chosen);
        }
        const int64_t fin = log.begin("core.finish", -1, run_id);
        core::RunResult r = s.finish();
        log.end(fin);
        const Span &fs = log.spans()[static_cast<size_t>(fin)];
        run_ns += fs.end_ns - fs.start_ns;
        prof.finish_ms.push_back(
            static_cast<double>(fs.end_ns - fs.start_ns) / 1e6);
        pass_ns += run_ns;
        digests[p] = recorderDigest(*r.recorder);
    }
    prof.traced_run_ms.push_back(static_cast<double>(pass_ns) / 1e6 /
                                 static_cast<double>(policies().size()));

    // Replay the planning utilizations on a fresh, cold optimizer built
    // exactly as the system builds its own.
    const h2p::thermal::TegModule teg(
        in.config.datacenter.server.tegs_per_server,
        in.config.datacenter.server.teg);
    h2p::sched::OptimizerParams params = in.config.optimizer;
    params.cold_source_c = in.config.datacenter.cold_source_c;
    params.cache_util_quantum = in.config.perf.optimizer_cache_quantum;
    const h2p::sched::CoolingOptimizer fresh(system.lookupSpace(), teg,
                                             params);
    const int64_t cs = log.begin("sched.choose_replay", -1, run_id);
    bool same = true;
    for (size_t i = 0; i < plan.size(); ++i) {
        const auto t0 = Clock::now();
        const h2p::sched::OptimizerResult res = fresh.choose(plan[i]);
        prof.choose_us.push_back(secondsSince(t0) * 1e6);
        same = same && sameBits(res.setting.t_in_c, chosen[i].t_in_c) &&
               sameBits(res.setting.flow_lph, chosen[i].flow_lph);
    }
    log.end(cs);
    checks.expect(same, "optimizer replay chose another setting");
    checks.expect(fresh.cacheHits() == system.optimizer().cacheHits() &&
                      fresh.cacheMisses() ==
                          system.optimizer().cacheMisses(),
                  "optimizer replay hit/miss counts differ from the "
                  "system's counters");
    prof.hits += fresh.cacheHits();
    prof.misses += fresh.cacheMisses();
    return digests;
}

/**
 * One untraced and one traced pass, in alternating order so neither
 * side always runs on a warmer machine. The traced pass must reproduce
 * the untraced output, which must match the golden digests.
 */
void
profilePasses(const LayerSpec &spec, const TwinInput &in,
              const h2p::workload::UtilizationTrace &trace,
              const Golden &golden, uint64_t seed, size_t pass,
              uint64_t &run_id, SessionProfile &prof, Checks &checks,
              SpanLog &log)
{
    Digests plain, traced;
    if (pass % 2 == 0) {
        plain = untracedPass(spec, in, trace, prof);
        traced = tracedPass(spec, in, trace, run_id, prof, checks, log);
    } else {
        traced = tracedPass(spec, in, trace, run_id, prof, checks, log);
        plain = untracedPass(spec, in, trace, prof);
    }
    // The fleet's goldens are keyed by grid point; its twin is checked
    // against the untraced pass only.
    const bool has_golden = spec.workload != "fleet-sweep";
    for (Policy p : policies()) {
        std::string why;
        checks.expect(!has_golden ||
                          digestMatches(golden, seed, "paper",
                                        policyName(p), plain[p], "", &why),
                      why);
        checks.expect(traced[p] == plain[p],
                      std::string("traced ") + policyName(p) +
                          " run digest differs from the untraced run");
    }
}

double
medianOf(const std::vector<double> &v)
{
    return quantile(v, 50.0);
}

} // namespace

void
profileLayers(const LayerSpec &spec, const Options &opt,
              const Golden &golden, Outcome &out)
{
    Report &rep = out.report;
    Checks &checks = out.checks;
    SpanLog &log = out.spans;
    const double budget = opt.seconds;
    const TwinInput in = parseTwin(spec.ini);
    uint64_t run_id = 0;

    // workload: trace generation.
    std::vector<double> gen_ms;
    h2p::workload::UtilizationTrace trace = core::makeTrace(in.trace);
    {
        const auto t_phase = Clock::now();
        while (gen_ms.size() < 3 || secondsSince(t_phase) < 0.1 * budget) {
            const int64_t s = log.begin("workload.make_trace", -1, ++run_id);
            trace = core::makeTrace(in.trace);
            log.end(s);
            const Span &sp = log.spans().back();
            gen_ms.push_back(static_cast<double>(sp.end_ns - sp.start_ns) /
                             1e6);
        }
    }
    const double samples = static_cast<double>(trace.numSteps()) *
                           static_cast<double>(trace.numServers());
    rep.add("workload.trace_gen_ms", medianOf(gen_ms), "ms", gen_ms.size());
    rep.add("workload.ns_per_sample", medianOf(gen_ms) * 1e6 / samples,
            "ns", gen_ms.size());

    // sched: a cold look-up space acquire.
    std::vector<double> acquire_ms;
    for (int i = 0; i < 5; ++i) {
        h2p::sched::LookupSpaceCache &cache =
            h2p::sched::LookupSpaceCache::instance();
        cache.clear();
        const int64_t s = log.begin("sched.lookup_acquire", -1, ++run_id);
        cache.acquire(in.config.datacenter.server, in.config.lookup);
        log.end(s);
        const Span &sp = log.spans().back();
        acquire_ms.push_back(static_cast<double>(sp.end_ns - sp.start_ns) /
                             1e6);
        checks.expect(cache.builds() == 1,
                      "cold look-up acquire did not build exactly once");
    }
    rep.add("sched.lookup_acquire_ms", medianOf(acquire_ms), "ms",
            acquire_ms.size());

    // core / control / cluster / sched: traced session passes. Enough
    // passes for a p99 of the decide span (1000 steps or more).
    SessionProfile prof;
    {
        const auto t_phase = Clock::now();
        for (size_t pass = 0; prof.decide_us.size() < 1000 ||
                              secondsSince(t_phase) < 0.35 * budget;
             ++pass)
            profilePasses(spec, in, trace, golden, opt.seed, pass, run_id,
                          prof, checks, log);
    }
    rep.addPercentile("sched.choose_us.p50", prof.choose_us, 50, "us");
    rep.addPercentile("sched.choose_us.p99", prof.choose_us, 99, "us");
    rep.add("sched.cache_hit_ratio",
            static_cast<double>(prof.hits) /
                static_cast<double>(std::max<size_t>(1, prof.hits +
                                                            prof.misses)),
            "ratio", prof.hits + prof.misses,
            std::to_string(prof.hits) + " hits / " +
                std::to_string(prof.misses) + " misses");
    rep.addPercentile("control.decide_us.p50", prof.decide_us, 50, "us");
    rep.addPercentile("control.decide_us.p99", prof.decide_us, 99, "us");
    const double eval_us = mean(prof.evaluate_us);
    rep.add("cluster.evaluate_us", eval_us, "us", prof.evaluate_us.size());
    rep.add("cluster.ns_per_server",
            eval_us * 1e3 / static_cast<double>(prof.servers), "ns",
            prof.evaluate_us.size());
    rep.add("core.step_self_us", mean(prof.step_self_us), "us",
            prof.step_self_us.size());
    rep.add("core.finish_ms", medianOf(prof.finish_ms), "ms",
            prof.finish_ms.size());

    // Where a step's time goes, and whether the spans account for it.
    const double decide_share = prof.sum_decide_ns / prof.sum_step_ns;
    const double evaluate_share = prof.sum_evaluate_ns / prof.sum_step_ns;
    const double accounted = decide_share + evaluate_share;
    rep.add("share.control.decide", decide_share, "ratio",
            prof.decide_us.size(), "of core.step time");
    rep.add("share.cluster.evaluate", evaluate_share, "ratio",
            prof.evaluate_us.size(), "replayed, of core.step time");
    rep.add("share.accounted", accounted, "ratio", prof.decide_us.size(),
            "decide + evaluate; must be within 1 +/- 0.25");
    checks.expect(std::fabs(accounted - 1.0) <= kStepTolerance,
                  "layer self-times do not account for core.step");
    {
        // Self-time subtraction over the recorded spans must agree with
        // the per-step arithmetic above.
        const std::vector<int64_t> self = selfTimesNs(log.spans());
        double step_self = 0;
        for (size_t i = 0; i < self.size(); ++i)
            if (std::strcmp(log.spans()[i].name, "core.step") == 0)
                step_self += static_cast<double>(self[i]);
        checks.expect(std::fabs(step_self - (prof.sum_step_ns -
                                             prof.sum_decide_ns)) <=
                          1e-6 * prof.sum_step_ns,
                      "span self-times disagree with step - decide");
    }

    // core: the sweep engine on this workload's grid.
    std::vector<double> point_s, busy;
    size_t built = 0, retries = 0, quarantined = 0;
    {
        const core::TraceRequest req = parseTwin(spec.grid.front().ini).trace;
        const h2p::workload::UtilizationTrace sweep_trace =
            core::makeTrace(req);
        const std::vector<core::SweepPoint> points =
            sweepPoints(spec.grid, sweep_trace);
        const auto t_phase = Clock::now();
        while (busy.empty() || secondsSince(t_phase) < 0.15 * budget) {
            h2p::sched::LookupSpaceCache &cache =
                h2p::sched::LookupSpaceCache::instance();
            cache.clear();
            core::SweepOptions so;
            so.workers = spec.sweep_workers;
            const int64_t s = log.begin("core.sweep", -1, ++run_id);
            const core::SweepResult res = core::SweepEngine(so).run(points);
            log.end(s);
            size_t completed = 0, quarantined_here = 0, retried = 0;
            double busy_s = 0;
            for (const core::SweepPointResult &p : res.points) {
                completed += p.status == core::PointStatus::Completed;
                quarantined_here += p.status == core::PointStatus::Quarantined;
                retried += p.attempts > 0 ? p.attempts - 1 : 0;
                busy_s += p.duration_s;
                point_s.push_back(p.duration_s);
                std::string why;
                checks.expect(
                    p.status == core::PointStatus::Completed &&
                        digestMatches(golden, opt.seed,
                                      spec.workload == "fleet-sweep"
                                          ? "fleet-sweep"
                                          : "paper",
                                      p.label,
                                      recorderDigest(*p.recorder), "",
                                      &why),
                    "sweep point " + p.label + ": " + why);
            }
            checks.expect(res.runs_completed == completed &&
                              res.quarantined == quarantined_here &&
                              res.retries == retried &&
                              res.lookup_spaces_built == cache.builds(),
                          "SweepResult counts differ from the points");
            busy.push_back(busy_s / (static_cast<double>(res.workers) *
                                     res.wall_s));
            built += res.lookup_spaces_built;
            retries += res.retries;
            quarantined += res.quarantined;
        }
    }
    rep.addPercentile("core.sweep_point_s.p50", point_s, 50, "s");
    rep.add("core.sweep_busy_frac", medianOf(busy), "ratio", busy.size());
    rep.add("core.lookup_spaces_built", static_cast<double>(built),
            "count", busy.size());
    rep.add("core.sweep_retries", static_cast<double>(retries), "count",
            busy.size());
    rep.add("core.sweep_quarantined", static_cast<double>(quarantined),
            "count", busy.size());

    // service: the broker in-process, then the same lifetime over the
    // socket, then the codec over the captured frames.
    std::map<Policy, core::RunSummary> reference;
    for (Policy p : policies())
        reference[p] = referenceSummary(spec.ini, p);
    std::map<std::string, std::vector<double>> broker_us;
    std::vector<std::string> payloads;
    std::vector<svc::Response> responses;
    {
        const auto t_phase = Clock::now();
        size_t round = 0;
        while (round < policies().size() ||
               secondsSince(t_phase) < 0.1 * budget) {
            const Policy p = policies()[round % policies().size()];
            BrokerReplay r = brokerReplay(spec.ini, p, checks);
            std::string why;
            checks.expect(summaryMatches(r.summary, reference[p], &why),
                          "broker replay: " + why);
            for (auto &[verb, v] : r.verb_us)
                broker_us[verb].insert(broker_us[verb].end(), v.begin(),
                                       v.end());
            if (round < policies().size()) {
                payloads.insert(payloads.end(), r.request_payloads.begin(),
                                r.request_payloads.end());
                responses.insert(responses.end(), r.responses.begin(),
                                 r.responses.end());
            }
            ++round;
        }
    }

    LoopSpec loop;
    loop.inis = {spec.ini};
    loop.trace_seeds = {opt.seed};
    loop.connections = spec.connections;
    loop.seconds = 0.2 * budget;
    loop.twins_per_client = spec.workload == "fleet-sweep" ? 1 : 0;
    loop.socket_path = opt.out_dir + "/trace-" +
                       std::to_string(static_cast<long>(::getpid())) +
                       ".sock";
    for (Policy p : policies())
        loop.reference[{0, p}] = reference[p];
    if (spec.workload == "fleet-sweep")
        loop.golden_workload.clear();
    loop.trace = true;
    LoopResult lr = closedLoop(loop, golden);
    checks.merge(lr.checks);
    log.absorb(lr.spans);

    for (const std::string &verb : clientVerbs()) {
        const double broker = medianOf(broker_us[verb]);
        const double client = medianOf(lr.verb_us[verb]);
        const bool checked =
            std::min(broker_us[verb].size(), lr.verb_us[verb].size()) >=
            kRequestMinSamples;
        rep.add("service.broker_us." + verb, broker, "us",
                broker_us[verb].size());
        rep.add("service.transport_us." + verb, client - broker, "us",
                lr.verb_us[verb].size(),
                "client p50 " + std::to_string(client) + " us" +
                    (checked ? "" : "; too few samples to check"));
        if (checked)
            checks.expect(broker <= client * (1.0 + kRequestTolerance),
                          "broker time exceeds the client-observed " +
                              verb + " latency");
    }

    std::vector<std::string> frames;
    for (const std::string &p : payloads)
        frames.push_back(svc::encodeFrame(p));
    std::vector<double> codec_ns;
    {
        const auto t_phase = Clock::now();
        size_t decoded = 0;
        while (codec_ns.size() < 3 || secondsSince(t_phase) < 0.05 * budget) {
            svc::FrameDecoder decoder;
            std::string payload;
            const auto t0 = Clock::now();
            for (const std::string &f : frames) {
                decoder.feed(f.data(), f.size());
                while (decoder.next(payload)) {
                    svc::Request::parse(payload);
                    ++decoded;
                }
            }
            for (const svc::Response &r : responses)
                payload = r.serialize();
            codec_ns.push_back(secondsSince(t0) * 1e9 /
                               static_cast<double>(frames.size() +
                                                   responses.size()));
        }
        checks.expect(decoded == frames.size() * codec_ns.size(),
                      "frame decoder lost frames");
    }
    rep.add("service.codec_ns", medianOf(codec_ns), "ns", codec_ns.size(),
            "per frame, over " + std::to_string(frames.size()) +
                " requests + " + std::to_string(responses.size()) +
                " responses");

    rep.add("bench.trace_overhead_pct",
            (medianOf(prof.traced_run_ms) / medianOf(prof.untraced_run_ms) -
             1.0) * 100.0,
            "%", prof.traced_run_ms.size(),
            "traced run_ms " + std::to_string(medianOf(prof.traced_run_ms)) +
                " vs untraced " +
                std::to_string(medianOf(prof.untraced_run_ms)));
}

} // namespace h2pbench
