#include "core/sweep_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>

#include "core/h2p_system.h"
#include "core/sweep_journal.h"
#include "sched/lookup_cache.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace h2p {
namespace core {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Map the in-flight exception to the failure taxonomy. RunError
 * carries its classification; a plain h2p::Error at this boundary is
 * a configuration/input problem (construction or validation threw
 * before or after the step loop); everything else — bad_alloc,
 * foreign std::exception subclasses, non-standard throws from custom
 * controllers — is Internal, so a misbehaving point is reported with
 * context instead of tearing the sweep down.
 */
RunFailure
classifyCurrentException()
{
    RunFailure f;
    try {
        throw;
    } catch (const RunError &e) {
        return e.failure();
    } catch (const Error &e) {
        f.kind = FailureKind::ConfigError;
        f.message = e.what();
    } catch (const std::bad_alloc &) {
        f.kind = FailureKind::Internal;
        f.message = "out of memory (std::bad_alloc)";
    } catch (const std::exception &e) {
        f.kind = FailureKind::Internal;
        f.message = e.what();
    } catch (...) {
        f.kind = FailureKind::Internal;
        f.message = "non-standard exception";
    }
    return f;
}

} // namespace

void
SweepEngine::forEachOrdered(size_t n, size_t workers,
                            const std::function<void(size_t)> &compute,
                            const std::function<void(size_t)> &emit)
{
    if (n == 0)
        return;
    if (workers == 0)
        workers = util::hardwareThreads();
    workers = std::min(workers, n);

    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i) {
            compute(i);
            if (emit)
                emit(i);
        }
        return;
    }

    util::ThreadPool pool(workers);
    if (!emit) {
        pool.parallelForDynamic(n, compute);
        return;
    }

    // Streaming with deterministic order: each worker marks its index
    // done, then drains the contiguous completed prefix under the
    // lock. Whichever worker happens to extend the prefix emits it,
    // so emission order is grid order no matter the completion order.
    std::mutex mutex;
    std::vector<char> done(n, 0);
    size_t next_emit = 0;
    pool.parallelForDynamic(n, [&](size_t i) {
        compute(i);
        std::lock_guard<std::mutex> lock(mutex);
        done[i] = 1;
        while (next_emit < n && done[next_emit] != 0) {
            emit(next_emit);
            ++next_emit;
        }
    });
}

SweepResult
SweepEngine::run(const std::vector<SweepPoint> &grid,
                 const ResultCallback &on_result) const
{
    return runSupervised(grid, on_result, /*resuming=*/false);
}

SweepResult
SweepEngine::resume(const std::vector<SweepPoint> &grid,
                    const ResultCallback &on_result) const
{
    expect(!options_.journal_path.empty(),
           "sweep resume requires SweepOptions::journal_path");
    expect(SweepJournal::exists(options_.journal_path),
           "sweep journal `", options_.journal_path, "' does not exist");
    return runSupervised(grid, on_result, /*resuming=*/true);
}

SweepResult
SweepEngine::runSupervised(const std::vector<SweepPoint> &grid,
                           const ResultCallback &on_result,
                           bool resuming) const
{
    cancel_.reset();
    // Either latch stops the sweep: the engine's own token
    // (requestCancel) or the caller-provided external one (typically
    // the process signal token).
    auto cancel_requested = [this] {
        return cancel_.cancelRequested() ||
               (options_.cancel != nullptr &&
                options_.cancel->cancelRequested());
    };

    SweepResult result;
    const size_t n = grid.size();

    // Split the worker budget: enough points saturate the budget at
    // one worker per run (serial runs, maximal batch throughput);
    // a grid smaller than the budget hands the leftover workers to
    // each run's circulation fan-out, still subject to that run's own
    // oversubscription guard.
    const size_t requested = options_.workers != 0
                                 ? options_.workers
                                 : util::hardwareThreads();
    result.workers = std::max<size_t>(
        1, std::min(requested, std::max<size_t>(1, n)));
    result.threads_per_run =
        n > 0 ? std::max<size_t>(1, requested / n) : 1;
    result.points.resize(n);

    for (size_t i = 0; i < n; ++i)
        expect(grid[i].trace != nullptr, "sweep point ", i, " (",
               grid[i].label, ") has no trace");

    // Crash-safe journal: fresh manifest on run(), load + append on
    // resume(). The fingerprint pins the journal to this exact grid.
    std::unique_ptr<SweepJournal> journal;
    std::map<size_t, JournalPointRecord> restored;
    if (!options_.journal_path.empty()) {
        const SweepJournal::GridFingerprints fp =
            SweepJournal::gridFingerprints(grid);
        if (resuming) {
            SweepJournal::Loaded loaded =
                SweepJournal::load(options_.journal_path);
            expect(loaded.num_points == n, "sweep journal `",
                   options_.journal_path, "' records ",
                   loaded.num_points, " points but the grid has ", n);
            expect(loaded.fingerprint == fp.combined, "sweep journal `",
                   options_.journal_path,
                   "' was written by a different sweep: ",
                   SweepJournal::describeMismatch(loaded, fp));
            restored = std::move(loaded.records);
            journal = std::make_unique<SweepJournal>(
                SweepJournal::openAppend(options_.journal_path));
        } else {
            journal = std::make_unique<SweepJournal>(
                SweepJournal::create(options_.journal_path, n, fp));
        }
    }

    obs::Observability *obs = options_.obs;
    obs::Counter runs_counter;
    obs::Counter retries_counter;
    obs::Counter quarantined_counter;
    obs::Counter timeouts_counter;
    obs::HistogramMetric run_ms;
    obs::TraceSpan sweep_span(
        obs != nullptr ? &obs->spans() : nullptr,
        obs != nullptr ? obs->spans().id("sweep")
                       : obs::SpanRegistry::SpanId{});
    if (obs != nullptr) {
        runs_counter = obs->metrics().counter("sweep.runs");
        retries_counter = obs->metrics().counter("sweep.retries");
        quarantined_counter =
            obs->metrics().counter("sweep.quarantined");
        timeouts_counter = obs->metrics().counter("sweep.timeouts");
        run_ms =
            obs->metrics().histogram("sweep.run_ms", 0.0, 60e3, 60);
        obs->metrics()
            .gauge("sweep.workers")
            .set(static_cast<double>(result.workers));
    }

    const uint64_t builds_before =
        sched::LookupSpaceCache::instance().builds();
    const auto sweep_t0 = std::chrono::steady_clock::now();

    // Abort mode: the lowest failing index wins so the surfaced error
    // is deterministic under any completion order.
    std::mutex error_mutex;
    size_t error_index = std::numeric_limits<size_t>::max();
    std::string error_what;
    std::atomic<bool> failed{false};

    const size_t max_attempts = std::max<size_t>(1, options_.max_attempts);

    auto compute = [&](size_t i) {
        SweepPointResult &slot = result.points[i];
        slot.index = i;
        slot.label = grid[i].label;
        slot.policy = grid[i].policy;

        auto rit = restored.find(i);
        if (rit != restored.end()) {
            // Journaled on a previous attempt of this sweep: restore
            // the finished result verbatim, bit for bit.
            const JournalPointRecord &rec = rit->second;
            slot.status = rec.status;
            slot.completed = rec.status == PointStatus::Completed;
            slot.attempts = rec.attempts;
            slot.duration_s = rec.duration_s;
            slot.restored = true;
            if (rec.status == PointStatus::Completed)
                slot.summary = rec.summary;
            else
                slot.failure = rec.failure;
            return;
        }

        if (cancel_requested() ||
            (options_.abort_on_failure &&
             failed.load(std::memory_order_relaxed)))
            return; // Stays Skipped.

        for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
            slot.attempts = attempt;
            try {
                // Per-point system: the cooling optimizer's decision
                // cache is mutable and not thread-safe, so runs never
                // share one. The expensive immutable parts are shared
                // underneath (LookupSpaceCache, borrowed traces).
                H2PConfig config = grid[i].config;
                config.perf.threads = result.threads_per_run;
                const auto t0 = std::chrono::steady_clock::now();
                H2PSystem system(config);
                SimSession session =
                    system.startSession(*grid[i].trace, grid[i].policy);
                if (grid[i].make_controller)
                    session.setController(grid[i].make_controller());
                RunGuard guard;
                guard.cancel = &cancel_;
                guard.cancel_alt = options_.cancel;
                guard.deadline_s = grid[i].deadline_s > 0.0
                                       ? grid[i].deadline_s
                                       : options_.point_deadline_s;
                guard.step_budget = grid[i].step_budget > 0
                                        ? grid[i].step_budget
                                        : options_.point_step_budget;
                session.setGuard(guard);
                session.runToCompletion();
                RunResult run = session.finish();
                slot.duration_s = secondsSince(t0);
                slot.summary = run.summary;
                if (options_.keep_recorders)
                    slot.recorder = run.recorder;
                slot.status = PointStatus::Completed;
                slot.completed = true;
                runs_counter.add();
                run_ms.observe(slot.duration_s * 1e3);
                return;
            } catch (...) {
                RunFailure f = classifyCurrentException();
                if (f.kind == FailureKind::Cancelled) {
                    // Cancellation is not a failure: the point simply
                    // did not run. Partial state is discarded; resume
                    // re-runs it from scratch.
                    slot.status = PointStatus::Skipped;
                    return;
                }
                if (attempt < max_attempts && isRetryable(f.kind))
                    continue;
                slot.status = PointStatus::Quarantined;
                slot.failure = std::move(f);
                if (options_.abort_on_failure) {
                    failed.store(true, std::memory_order_relaxed);
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (i < error_index) {
                        error_index = i;
                        error_what = slot.failure.message;
                    }
                }
                return;
            }
        }
    };

    // The emit path is serialized and fires in grid order, which
    // makes it the natural home for everything order-sensitive:
    // journal appends (durable before delivery), quarantine events
    // and the streaming callback.
    bool delivery_stopped = false;
    const auto emit = [&](size_t i) {
        SweepPointResult &slot = result.points[i];
        // The cancel instant ends the delivered and journaled
        // prefix: a point that finished in flight after it is
        // discarded as if it never ran (a resume recomputes it),
        // so the stream, the journal and the result agree under
        // any worker count and completion order. Restored points
        // stay; the journal already holds them.
        if (cancel_requested() && !slot.restored) {
            SweepPointResult skipped;
            skipped.index = slot.index;
            skipped.label = std::move(slot.label);
            skipped.policy = slot.policy;
            slot = std::move(skipped);
        }
        if (slot.status == PointStatus::Skipped) {
            // Delivery is a contiguous grid prefix: nothing after
            // a skipped point is streamed.
            delivery_stopped = true;
            return;
        }
        if (slot.status == PointStatus::Quarantined &&
            !slot.restored) {
            quarantined_counter.add();
            retries_counter.add(slot.attempts - 1);
            if (slot.failure.kind == FailureKind::Timeout)
                timeouts_counter.add();
            if (obs != nullptr)
                obs->events().append(
                    0.0,
                    slot.failure.step == RunFailure::kNoStep
                        ? -1
                        : static_cast<long>(slot.failure.step),
                    "sweep.quarantine",
                    slot.label.empty()
                        ? "point " + std::to_string(i)
                        : slot.label,
                    slot.failure.describe());
        } else if (slot.status == PointStatus::Completed &&
                   !slot.restored) {
            retries_counter.add(slot.attempts - 1);
        }
        if (journal != nullptr && !slot.restored) {
            JournalPointRecord rec;
            rec.index = i;
            rec.status = slot.status;
            rec.attempts = slot.attempts;
            rec.label = slot.label;
            rec.policy = slot.policy;
            rec.duration_s = slot.duration_s;
            if (slot.status == PointStatus::Completed)
                rec.summary = slot.summary;
            else
                rec.failure = slot.failure;
            journal->append(rec);
        }
        // Abort mode keeps the legacy contract: the callback only
        // ever sees completed points; the failure surfaces as the
        // thrown error below.
        const bool deliver =
            slot.completed || (slot.status == PointStatus::Quarantined &&
                               !options_.abort_on_failure);
        if (on_result && deliver && !delivery_stopped)
            on_result(slot);
    };

    forEachOrdered(n, result.workers, compute, emit);

    result.wall_s = secondsSince(sweep_t0);
    result.lookup_spaces_built =
        sched::LookupSpaceCache::instance().builds() - builds_before;
    result.cancelled = cancel_requested();
    for (const SweepPointResult &p : result.points) {
        if (p.completed)
            ++result.runs_completed;
        if (p.status == PointStatus::Quarantined)
            ++result.quarantined;
        if (p.restored)
            ++result.points_restored;
        if (!p.restored && p.attempts > 1)
            result.retries += p.attempts - 1;
    }
    if (journal != nullptr)
        journal->close();
    sweep_span.stop();

    if (error_index != std::numeric_limits<size_t>::max())
        fatal("sweep point ", error_index, " (",
              grid[error_index].label.empty()
                  ? "unlabeled"
                  : grid[error_index].label,
              ", policy ", sched::toString(grid[error_index].policy),
              ", ", grid[error_index].config.datacenter.num_servers,
              " servers) failed: ", error_what);
    return result;
}

} // namespace core
} // namespace h2p
