/**
 * @file
 * Crash-safe sweep journal: an append-only JSONL record of a sweep's
 * progress.
 *
 * A journaled sweep writes one manifest line (grid size + grid
 * digests, see gridFingerprints()) when it starts, then one record
 * per *finished* point — completed with its full bit-exact summary, or quarantined
 * with its classified failure — each flushed and fsync'd before the
 * point's result is delivered downstream. After a crash (including
 * SIGKILL) SweepEngine::resume() loads the journal, restores the
 * finished points verbatim and computes only the rest, so the resumed
 * sweep's output is byte-identical to an uninterrupted one.
 *
 * Durability model: appends cannot use temp+rename (that would
 * rewrite the whole file per point), so each record is a single
 * write + fflush + fsync. A crash can therefore leave at most one
 * torn *final* line, which load() tolerates by dropping it; a corrupt
 * record anywhere else is real damage and raises h2p::Error. All
 * doubles are encoded as 64-bit hex bit patterns, making restore
 * bit-exact by construction.
 */

#ifndef H2P_CORE_SWEEP_JOURNAL_H_
#define H2P_CORE_SWEEP_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "core/sweep_types.h"

namespace h2p {
namespace core {

/** One journaled per-point record (Completed or Quarantined only —
 * Skipped points are never journaled and re-run on resume). */
struct JournalPointRecord
{
    size_t index = 0;
    PointStatus status = PointStatus::Completed;
    size_t attempts = 0;
    std::string label;
    sched::Policy policy = sched::Policy::TegOriginal;
    /** Wall time of the original run, seconds (bit-exact). */
    double duration_s = 0.0;
    /** Valid when status == Completed. */
    RunSummary summary;
    /** Valid when status == Quarantined. */
    RunFailure failure;
};

/**
 * Writer/reader of the sweep journal file. Writer instances own a
 * FILE handle; move-only. All methods throw h2p::Error on I/O
 * failure.
 */
class SweepJournal
{
  public:
    /**
     * Per-input digests of a sweep grid, stored in the manifest so a
     * resume against the wrong inputs can say *which* of them
     * diverged, down to the configuration key.
     */
    struct GridFingerprints
    {
        /** Grid shape: size, point labels and policies. */
        uint64_t shape = 0;
        /** Driving traces (workload::UtilizationTrace fingerprints). */
        uint64_t trace = 0;
        /** Per-point supervision overrides (deadline, step budget). */
        uint64_t guard = 0;
        /**
         * One digest per configDigests() field, each hashing that
         * field of every point in grid order.
         */
        std::vector<FieldDigest> config;
    };

    /** Journal contents as loaded from disk. */
    struct Loaded
    {
        /** Grid size recorded in the manifest. */
        size_t num_points = 0;
        /** Grid digests recorded in the manifest. */
        GridFingerprints fingerprints;
        /** Finished points by grid index (duplicates: last wins). */
        std::map<size_t, JournalPointRecord> records;
    };

    SweepJournal(SweepJournal &&other) noexcept;
    SweepJournal &operator=(SweepJournal &&other) noexcept;
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;
    ~SweepJournal();

    /**
     * Start a fresh journal at @p path (truncating any previous one)
     * and durably write its manifest line.
     */
    static SweepJournal create(const std::string &path, size_t num_points,
                               const GridFingerprints &fingerprints);

    /**
     * Re-open an existing journal for appending (resume). The caller
     * has already load()ed and validated it.
     */
    static SweepJournal openAppend(const std::string &path);

    /** Durably append one finished-point record (write+flush+fsync). */
    void append(const JournalPointRecord &record);

    /** Flush and close the handle early (the destructor also does). */
    void close();

    /**
     * Parse a journal written by create()/append(). Tolerates exactly
     * one torn trailing line (a crash mid-append); any other
     * malformed content, or a manifest from an older format version,
     * raises h2p::Error naming the line.
     */
    static Loaded load(const std::string &path);

    /** True when @p path exists and is readable. */
    static bool exists(const std::string &path);

    /**
     * Deterministic digests of a sweep grid, embedded in the manifest
     * so resume() rejects a journal from a different sweep: the grid
     * shape, the traces, the supervision overrides and every
     * result-relevant configuration field of every point.
     */
    static GridFingerprints
    gridFingerprints(const std::vector<SweepPoint> &grid);

    /**
     * Human-readable diagnosis of a manifest mismatch: names which
     * sweep inputs diverged (grid shape, traces, supervision
     * overrides) and every differing configuration key. Empty when
     * @p journaled and @p expected match.
     */
    static std::string describeMismatch(const GridFingerprints &journaled,
                                        const GridFingerprints &expected);

  private:
    SweepJournal() = default;

    /** Open @p path truncating and durably write @p manifest. */
    static SweepJournal createWithManifest(const std::string &path,
                                           const std::string &manifest);

    std::FILE *file_ = nullptr;
    std::string path_;
};

} // namespace core
} // namespace h2p

#endif // H2P_CORE_SWEEP_JOURNAL_H_
