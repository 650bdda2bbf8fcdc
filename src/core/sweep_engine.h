/**
 * @file
 * Batched sweep execution: supervised run-level parallelism over
 * independent simulations.
 *
 * Ablations and design-space studies run the same simulation dozens
 * of times with small configuration deltas. Each run is serial-ish
 * and independent, so the batch — not the step loop — is the natural
 * unit of parallelism: whole runs are claimed dynamically by sweep
 * workers (runs differ wildly in cost; static partitioning would
 * leave workers idle), while heavyweight immutable inputs are shared
 * instead of rebuilt — traces by reference, look-up tables through
 * sched::LookupSpaceCache.
 *
 * Supervision contract: every point runs under a classified failure
 * taxonomy (util/error.h FailureKind). A failing point is retried
 * (bounded, retryable kinds only) and then *quarantined* — its result
 * slot carries the structured failure while the rest of the sweep
 * runs to completion; SweepOptions::abort_on_failure restores the old
 * first-failure-aborts contract. Per-point wall-clock deadlines and
 * step budgets are enforced cooperatively at step boundaries, and a
 * cancellation request stops in-flight runs at their next step, not
 * just pending ones.
 *
 * Determinism contract: every run executes exactly the code path of a
 * standalone serial H2PSystem::run(), results land in per-index slots
 * and the streaming callback fires in grid order (held back until the
 * contiguous prefix is complete), so a sweep's output is bit-identical
 * at any worker count — including 1.
 *
 * Crash safety: with SweepOptions::journal_path set, finished points
 * are durably journaled (see core/sweep_journal.h) before their
 * results are delivered, and resume() continues an interrupted sweep
 * by restoring journaled points verbatim — the resumed sweep's
 * delivered output is byte-identical to an uninterrupted one.
 */

#ifndef H2P_CORE_SWEEP_ENGINE_H_
#define H2P_CORE_SWEEP_ENGINE_H_

#include <functional>
#include <vector>

#include "core/sweep_types.h"
#include "util/cancellation.h"

namespace h2p {
namespace core {

/**
 * Executes a grid of independent runs, in parallel, deterministically.
 *
 * One engine may execute several sweeps (serially); the options are
 * fixed at construction. Thread-safe only in the sense run() supports
 * requestCancel() from another thread (or from the callback).
 */
class SweepEngine
{
  public:
    /**
     * Streaming result sink: invoked once per finished point
     * (Completed or Quarantined — check SweepPointResult::status;
     * Skipped points are not delivered), in grid order, serialized
     * (never concurrently). Point i's callback fires as soon as
     * points 0..i have all finished, independent of the order the
     * workers finish them in. Under a journal, the point's record is
     * durable before the callback sees it. Under cancellation the
     * cancel instant ends the prefix: a point whose turn comes after
     * it is discarded (status Skipped, not journaled, not streamed)
     * even if it finished in flight, so the delivered stream, the
     * journal and the result hold the same contiguous grid prefix.
     */
    using ResultCallback =
        std::function<void(const SweepPointResult &)>;

    explicit SweepEngine(SweepOptions options = SweepOptions{})
        : options_(options)
    {
    }

    /**
     * Run every point of @p grid and return the results in grid
     * order. Each point simulates on its own H2PSystem (the cooling
     * optimizer's decision cache is not thread-safe, so systems are
     * never shared across workers) built from shared immutable parts.
     *
     * A failing point is retried per SweepOptions::max_attempts
     * (retryable kinds only) and then quarantined: its slot carries
     * the classified RunFailure, the sweep runs on. With
     * SweepOptions::abort_on_failure the first failing point (lowest
     * grid index, for determinism) instead aborts the sweep with the
     * legacy "sweep point N (...) failed" error after in-flight
     * points drain.
     *
     * With SweepOptions::journal_path set, starts a fresh journal
     * (truncating any previous file) and appends each finished
     * point's record durably before delivering it.
     *
     * @param on_result Optional streaming sink; see ResultCallback.
     */
    SweepResult run(const std::vector<SweepPoint> &grid,
                    const ResultCallback &on_result = nullptr) const;

    /**
     * Continue an interrupted journaled sweep: load the journal at
     * SweepOptions::journal_path (which must be set and exist),
     * verify it matches @p grid (size + fingerprint), restore every
     * journaled point's result verbatim — bit-identical summaries,
     * no recomputation, recorder left null, `restored` flagged — and
     * compute only the missing points, appending their records to the
     * same journal. The callback still fires for every finished
     * point in grid order (restored ones replay), so downstream
     * output is byte-identical to an uninterrupted run().
     */
    SweepResult resume(const std::vector<SweepPoint> &grid,
                       const ResultCallback &on_result = nullptr) const;

    /**
     * Ask a run() in progress to stop early: points not yet started
     * are skipped, in-flight ones stop at their next step boundary
     * (status Skipped in both cases — partial state is discarded),
     * and run() returns the partial result with
     * SweepResult::cancelled set. Callable from the result callback
     * or any thread; resets on the next run()/resume().
     */
    void requestCancel() const { cancel_.requestCancel(); }

    /**
     * Deterministic ordered parallel map, the primitive under run():
     * @p compute runs for every index in [0, n) across @p workers
     * threads (0 = auto; dynamically chunked), and @p emit — when
     * non-null — fires serialized in index order as the completed
     * prefix grows. With one worker (or n <= 1) everything runs on
     * the calling thread in index order; results must not depend on
     * the worker count, and for pure per-index computations they
     * cannot.
     *
     * A @p compute that throws stops further emission at its index;
     * the lowest-index exception is rethrown after in-flight indices
     * drain.
     */
    static void forEachOrdered(
        size_t n, size_t workers,
        const std::function<void(size_t)> &compute,
        const std::function<void(size_t)> &emit);

    const SweepOptions &options() const { return options_; }

  private:
    SweepResult runSupervised(const std::vector<SweepPoint> &grid,
                              const ResultCallback &on_result,
                              bool resuming) const;

    SweepOptions options_;
    mutable util::CancelToken cancel_;
};

} // namespace core
} // namespace h2p

#endif // H2P_CORE_SWEEP_ENGINE_H_
