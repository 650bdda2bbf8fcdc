/**
 * @file
 * Workload `paper`: the paper's evaluation as an experiment_runner
 * process runs it. Every iteration starts cold (empty look-up cache,
 * fresh system and decision cache), generates the drastic trace from
 * the paper.ini text, builds an H2PSystem and steps a session to
 * completion for TEG_Original and then TEG_LoadBalance, on one thread.
 * The cold decision cache makes the cooling decision most of a step.
 *
 * The second run of an iteration starts with the decision cache the
 * first one filled, so the two run times differ by about 2x by design;
 * an iteration's run_ms is their mean, and a round reports the median
 * over its iterations, not a median over a two-humped set of runs.
 */

#include "core/h2p_system.h"
#include "sched/lookup_cache.h"
#include "twin.h"

namespace h2pbench {

using h2p::sched::Policy;

Outcome
runPaper(const Options &opt, const Golden &golden)
{
    Outcome out;
    if (opt.trace) {
        const std::string ini = paperIni(opt.seed);
        profileLayers(LayerSpec{"paper", ini, policyGrid(ini), 1, 1, true},
                      opt, golden, out);
        return out;
    }

    Rounds rounds;
    std::map<std::pair<size_t, Policy>, std::string> first_digest;
    const std::vector<int> cpus = usableCpus();
    const auto t_start = Clock::now();
    for (size_t round = 0;
         round < 4 || secondsSince(t_start) < opt.seconds; ++round) {
        // A round runs every trace once (4,608 steps), so all rounds
        // measure the same work, on the next CPU in turn.
        const PinThread pin({cpus[round % cpus.size()]});
        std::vector<double> setup_s, run_ms, step_us, runs_per_s;
        for (size_t j = 0; j < kPaperTraces; ++j) {
            const uint64_t trace_seed = traceSeed(opt.seed, j);
            const std::string ini = paperIni(trace_seed);
            h2p::sched::LookupSpaceCache::instance().clear();
            const auto t0 = Clock::now();
            const TwinInput in = parseTwin(ini);
            const h2p::workload::UtilizationTrace trace =
                h2p::core::makeTrace(in.trace);
            const h2p::core::H2PSystem system(in.config);
            const double setup = secondsSince(t0);
            setup_s.push_back(setup);
            double runs = 0;

            for (Policy p : policies()) {
                const auto r0 = Clock::now();
                h2p::core::SimSession s = system.startSession(trace, p);
                while (!s.done()) {
                    const auto a = Clock::now();
                    s.step();
                    step_us.push_back(secondsSince(a) * 1e6);
                }
                const h2p::core::RunResult r = s.finish();
                runs += secondsSince(r0);

                const std::string digest = recorderDigest(*r.recorder);
                std::string &first = first_digest[{j, p}];
                if (first.empty())
                    first = digest;
                std::string why;
                out.checks.expect(digestMatches(golden, trace_seed, "paper",
                                                policyName(p), digest, first,
                                                &why),
                                  why);
            }
            const double n = static_cast<double>(policies().size());
            run_ms.push_back(runs / n * 1e3);
            runs_per_s.push_back(n / (setup + runs));
        }
        rounds.addMedian("setup_s", setup_s);
        rounds.addMedian("run_ms", run_ms);
        rounds.addMedian("runs_per_s", runs_per_s);
        rounds.addPercentile("step_us.p50", step_us, 50);
        rounds.addPercentile("step_us.p99", step_us, 99);
    }

    Report &rep = out.report;
    rounds.report(rep, "setup_s", "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB", 1);
    rounds.report(rep, "run_ms", "ms");
    rounds.report(rep, "runs_per_s", "1/s");
    rounds.report(rep, "step_us.p50", "us");
    rounds.report(rep, "step_us.p99", "us");
    return out;
}

} // namespace h2pbench
