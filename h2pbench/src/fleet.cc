/**
 * @file
 * Workload `fleet-sweep`: a design-space sweep on SweepEngine with two
 * workers over 16,384 servers in 16 circulations. A low-variance
 * common trace and few circulations keep the decision cache hot, so
 * the datacenter kernel dominates a step and trace generation
 * dominates set-up. Each iteration also replays one grid point on a
 * plain session on this thread: that replay times the steps (step_us)
 * and must reproduce the sweep's output bit for bit.
 *
 * Grid points differ in cost (T_safe and the policy change how often
 * the decision cache hits), so a sweep's run_ms is its mean point
 * duration rather than a median over unlike points.
 */

#include <optional>

#include "core/h2p_system.h"
#include "core/sweep_engine.h"
#include "sched/lookup_cache.h"
#include "twin.h"

namespace h2pbench {

namespace {

/** Sweep workers, set explicitly: the host must not change the work. */
constexpr size_t kWorkers = 2;

/** Grid index of the replayed point: t63-c15-TEG_Original. */
constexpr size_t kReplayPoint = 4;

} // namespace

Outcome
runFleet(const Options &opt, const Golden &golden)
{
    Outcome out;
    out.workers = kWorkers;
    if (opt.trace) {
        const std::vector<GridPoint> grid = fleetGrid(opt.seed);
        profileLayers(LayerSpec{"fleet-sweep", grid.front().ini, grid,
                                kWorkers, 1, false},
                      opt, golden, out);
        return out;
    }

    Rounds rounds;
    std::map<std::pair<size_t, size_t>, std::string> first_digest;
    const std::vector<int> cpus = usableCpus();
    const auto t_start = Clock::now();
    for (size_t round = 0;
         round < 3 || secondsSince(t_start) < opt.seconds; ++round) {
        // A round sweeps every trace once, so all rounds measure the
        // same work, and its replays give 1,152 steps for a p99. Its
        // single-threaded set-up and replays run on the next CPU in
        // turn, the sweep's two workers on that CPU and the one after.
        const std::vector<int> one = {cpus[round % cpus.size()]};
        const std::vector<int> pair = {one[0],
                                       cpus[(round + 1) % cpus.size()]};
        std::vector<double> setup_s, run_ms, step_us, runs_per_s;
        for (size_t j = 0; j < kFleetTraces; ++j) {
            std::optional<PinThread> pin(std::in_place, one);
            const uint64_t trace_seed = traceSeed(opt.seed, j);
            const std::vector<GridPoint> grid = fleetGrid(trace_seed);
            h2p::sched::LookupSpaceCache::instance().clear();
            const auto t0 = Clock::now();
            const h2p::workload::UtilizationTrace trace =
                h2p::core::makeTrace(parseTwin(grid.front().ini).trace);
            const std::vector<h2p::core::SweepPoint> points =
                sweepPoints(grid, trace);
            setup_s.push_back(secondsSince(t0));

            pin.emplace(pair);
            h2p::core::SweepOptions so;
            so.workers = kWorkers;
            const h2p::core::SweepResult res =
                h2p::core::SweepEngine(so).run(points);
            runs_per_s.push_back(static_cast<double>(res.runs_completed) /
                                 res.wall_s);

            std::vector<std::string> digest(grid.size());
            double point_s = 0;
            for (size_t i = 0; i < res.points.size(); ++i) {
                const h2p::core::SweepPointResult &p = res.points[i];
                point_s += p.duration_s;
                if (!out.checks.expect(
                        p.status == h2p::core::PointStatus::Completed,
                        "sweep point " + p.label + " did not complete: " +
                            p.failure.message))
                    continue;
                digest[i] = recorderDigest(*p.recorder);
                std::string &first = first_digest[{j, i}];
                if (first.empty())
                    first = digest[i];
                std::string why;
                out.checks.expect(digestMatches(golden, trace_seed,
                                                "fleet-sweep", p.label,
                                                digest[i], first, &why),
                                  why);
            }
            run_ms.push_back(point_s * 1e3 /
                             static_cast<double>(points.size()));

            // The serial replay: always the same point, so the step
            // distribution does not depend on how many sweeps fit.
            pin.emplace(one);
            const h2p::core::SweepPoint &replayed = points[kReplayPoint];
            const h2p::core::H2PSystem system(replayed.config);
            h2p::core::SimSession s =
                system.startSession(trace, replayed.policy);
            while (!s.done()) {
                const auto a = Clock::now();
                s.step();
                step_us.push_back(secondsSince(a) * 1e6);
            }
            const std::string replay = recorderDigest(*s.finish().recorder);
            out.checks.expect(replay == digest[kReplayPoint],
                              "serial replay of " + replayed.label +
                                  " differs from its sweep result");
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
