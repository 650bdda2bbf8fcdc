/**
 * @file
 * Shared pieces of the H2P twin benchmark: timing and percentile
 * helpers, the metric report, output digests and golden files,
 * in-memory spans, the host fingerprint and the workload entry
 * points.
 *
 * The benchmark drives the twin only through its public API
 * (core::configFromIni/makeTrace, H2PSystem/SimSession, SweepEngine,
 * service::Server/SessionBroker and the protocol codec) and writes its
 * own spans around those calls; nothing here reaches into the
 * program's internals.
 */

#ifndef H2PBENCH_BENCH_H_
#define H2PBENCH_BENCH_H_

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/run_types.h"
#include "sim/recorder.h"

namespace h2pbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nanoseconds since a process-wide epoch (span timestamps). */
int64_t nowNs();

// ---------------------------------------------------------------- stats

/**
 * The highest percentile of the ladder {50, 90, 99, 99.9} that has at
 * least 10 of @p n samples beyond it; 0 when not even the median has.
 */
double tailPercentile(size_t n);

/** Nearest-rank quantile (p in [0, 100]) of @p samples; 0 if empty. */
double quantile(std::vector<double> samples, double p);

/**
 * @p p, or the tail percentile the sample count supports when that is
 * lower — a p99 over 300 samples would be a guess.
 */
double supportedPercentile(size_t n, double p);

double mean(const std::vector<double> &samples);

// --------------------------------------------------------------- report

/** One reported number: value, unit, and the samples behind it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
    /** Free-form qualifier for the table (e.g. "p90 of 412"). */
    std::string note;
};

/** Ordered metric collection printed as a table and a JSON object. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit, size_t samples,
             const std::string &note = std::string());

    /**
     * Percentile @p p of @p samples under @p name; the note records
     * the percentile actually used when the count cannot support p.
     */
    void addPercentile(const std::string &name,
                       const std::vector<double> &samples, double p,
                       const std::string &unit);

    const Metric *find(const std::string &name) const;
    const std::vector<Metric> &metrics() const { return metrics_; }

    /** Human-readable table, one metric per line. */
    std::string table() const;

  private:
    std::vector<Metric> metrics_;
};

/**
 * A run is cut into rounds spread over its whole length, each doing the
 * same work. Each round yields one value per metric (a median or a
 * percentile of its samples) and the run reports the best round: the
 * lowest value, or the highest for rates (unit 1/s). Load from outside
 * the benchmark only ever adds time, so the least disturbed round is
 * the steadiest estimate of what the code costs; the table also prints
 * the median and range over rounds.
 */
class Rounds
{
  public:
    /** This round's value of @p name, from @p samples observations. */
    void add(const std::string &name, double value, size_t samples);

    /** This round's median of @p samples. */
    void addMedian(const std::string &name,
                   const std::vector<double> &samples);

    /** This round's percentile @p p of @p samples (see supportedPercentile). */
    void addPercentile(const std::string &name,
                       const std::vector<double> &samples, double p);

    /** The best round's value of @p name into @p rep. */
    void report(Report &rep, const std::string &name,
                const std::string &unit) const;

  private:
    struct Series
    {
        std::vector<double> values;
        size_t samples = 0;
        /** Lowest percentile a round could support, when reduced. */
        double reduced_to = 0.0;
    };
    std::map<std::string, Series> series_;
};

// ---------------------------------------------------- correctness gate

/**
 * Operation accounting. Every operation the benchmark attempts is
 * counted; failures (error responses, refused connects, quarantined
 * points, digest mismatches, failed cross-checks) are counted and
 * described.
 */
class Checks
{
  public:
    /** Count one attempted operation that @p ok says succeeded. */
    bool expect(bool ok, const std::string &what);

    /** Count @p n attempted operations that all succeeded. */
    void succeeded(size_t n) { attempted_ += n; }

    size_t attempted() const { return attempted_; }
    size_t failed() const { return failed_; }
    double errorRate() const;
    const std::vector<std::string> &problems() const { return problems_; }

    void merge(const Checks &other);

  private:
    size_t attempted_ = 0;
    size_t failed_ = 0;
    /** First few failure descriptions (bounded). */
    std::vector<std::string> problems_;
};

/** 64-bit FNV-1a over @p bytes. */
uint64_t fnv1a(std::string_view bytes);

/** 16 lowercase hex digits. */
std::string hex64(uint64_t v);

/** The recorder's JSONL export (the experiment_runner --jsonl bytes). */
std::string recorderJsonl(const h2p::sim::Recorder &recorder);

/** hex64(fnv1a(...)) of the recorder's JSONL export. */
std::string recorderDigest(const h2p::sim::Recorder &recorder);

/**
 * Golden output digests recorded from a known-good build, one line per
 * output: "<seed> <workload> <key> <digest>". Seeds without an entry
 * are checked by the in-run cross-checks alone.
 */
class Golden
{
  public:
    /** Load @p path; a missing file leaves the set empty. */
    void load(const std::string &path);
    void parse(const std::string &text);

    /** The recorded digest, or an empty string when none is. */
    std::string find(uint64_t seed, const std::string &workload,
                     const std::string &key) const;

    /** Entries recorded for (seed, workload). */
    size_t count(uint64_t seed, const std::string &workload) const;

  private:
    std::map<std::string, std::string> entries_;
};

/**
 * Digest comparison shared by every workload: @p actual must equal the
 * golden digest when one is recorded for the key, and must equal
 * @p reference (the same output computed another way or earlier in
 * the run) when that is non-empty.
 */
bool digestMatches(const Golden &golden, uint64_t seed,
                   const std::string &workload, const std::string &key,
                   const std::string &actual,
                   const std::string &reference, std::string *why);

// ---------------------------------------------------------------- spans

/** One timed interval written by the benchmark around a twin call. */
struct Span
{
    const char *name = "";
    /** Index of the causing span in the same log; -1 for a root. */
    int64_t parent = -1;
    /** Run or request id shared by the spans of one unit of work. */
    uint64_t run = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
};

/**
 * Spans kept in memory (one log per thread) and written out at exit.
 */
class SpanLog
{
  public:
    /** Open a span now; returns its id. */
    int64_t begin(const char *name, int64_t parent, uint64_t run);
    void end(int64_t id);
    /** Record a finished span. */
    int64_t add(const char *name, int64_t parent, uint64_t run,
                int64_t start_ns, int64_t end_ns);

    /** Append @p other's spans, re-basing their ids. */
    void absorb(const SpanLog &other);

    const std::vector<Span> &spans() const { return spans_; }

    /** One JSON object per span. */
    std::string jsonl() const;

  private:
    std::vector<Span> spans_;
};

/**
 * Self time of every span, ns: its duration minus the part of it that
 * the union of its direct children's intervals covers.
 */
std::vector<int64_t> selfTimesNs(const std::vector<Span> &spans);

// ----------------------------------------------------------------- host

/** The CPUs in this process's affinity mask (sched_getaffinity). */
std::vector<int> usableCpus();

/**
 * Pins the calling thread to a set of CPUs while alive and restores its
 * previous mask after; threads started meanwhile inherit the set. The
 * rounds of a run rotate through the usable CPUs: on a shared host one
 * CPU can run far slower than another for minutes, and the best round
 * should not depend on where the scheduler happened to put a thread.
 */
class PinThread
{
  public:
    explicit PinThread(const std::vector<int> &cpus);
    ~PinThread();
    PinThread(const PinThread &) = delete;
    PinThread &operator=(const PinThread &) = delete;

  private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

/** Where and how the numbers were produced. */
struct HostInfo
{
    /** Cores in this process's affinity mask (sched_getaffinity). */
    size_t usable_cores = 1;
    std::string cpu_model;
    std::string compiler;
    std::string build_type;
    std::string git_sha;
    std::string source_digest;
};

HostInfo probeHost(const std::string &git_sha,
                   const std::string &source_digest);

/** The fingerprint as JSON, with the concurrency actually used. */
std::string hostJson(const HostInfo &host, size_t workers,
                     size_t connections);

/** Peak resident set of this process, MB. */
double peakRssMb();

// ------------------------------------------------------------ workloads

/** Command-line settings of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 2020;
    double seconds = 10.0;
    bool trace = false;
    std::string golden_path;
    /** Directory for the result file, the span log and sockets. */
    std::string out_dir;
};

/** What one workload run produced. */
struct Outcome
{
    Report report;
    Checks checks;
    SpanLog spans;
    size_t workers = 1;
    size_t connections = 0;
};

/**
 * Trace seeds a run rotates through: the run's own seed (j = 0) and
 * more derived from it. A run's figures average over several traces,
 * so one unusual trace does not decide them; the same run seed always
 * gives the same traces.
 */
uint64_t traceSeed(uint64_t seed, size_t j);

/** Traces a `paper` or `daemon` run cycles through. */
constexpr size_t kPaperTraces = 16;

/** Traces a `fleet-sweep` run cycles through (one per sweep). */
constexpr size_t kFleetTraces = 4;

/** The examples/configs/paper.ini evaluation with the trace seed set. */
std::string paperIni(uint64_t seed);

/**
 * The fleet used by the sweep: 16,384 servers in 16 circulations of
 * 1,024 on a common-profile trace, serial circulation evaluation.
 */
std::string fleetIni(uint64_t seed);

/** Replace (or add) `key = value` inside [section] of INI text. */
std::string iniSet(const std::string &ini, const std::string &section,
                   const std::string &key, const std::string &value);

/** The two scheduling policies the paper compares. */
const std::vector<h2p::sched::Policy> &policies();
const char *policyName(h2p::sched::Policy policy);

Outcome runPaper(const Options &opt, const Golden &golden);
Outcome runFleet(const Options &opt, const Golden &golden);
Outcome runDaemon(const Options &opt, const Golden &golden);

/**
 * Golden lines ("<seed> <workload> <key> <digest>") for @p seed: both
 * paper policy runs, every fleet-sweep point and both daemon close
 * summaries.
 */
std::string recordGolden(uint64_t seed);

} // namespace h2pbench

#endif // H2PBENCH_BENCH_H_
