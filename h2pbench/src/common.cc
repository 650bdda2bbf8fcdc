#include "bench.h"

#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif


namespace h2pbench {

int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

// ---------------------------------------------------------------- stats

namespace {

/** Nearest rank (1-based) of per-mille percentile @p pm over n. */
size_t
rankPerMille(size_t n, size_t pm)
{
    return std::max<size_t>(1, (pm * n + 999) / 1000);
}

} // namespace

double
tailPercentile(size_t n)
{
    for (size_t pm : {999u, 990u, 900u, 500u})
        if (n >= rankPerMille(n, pm) + 10)
            return static_cast<double>(pm) / 10.0;
    return 0.0;
}

double
quantile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t pm = static_cast<size_t>(std::llround(p * 10.0));
    const size_t rank =
        std::min(samples.size(), rankPerMille(samples.size(), pm));
    return samples[rank - 1];
}

double
supportedPercentile(size_t n, double p)
{
    const double tail = tailPercentile(n);
    if (tail == 0.0)
        return 50.0;
    return std::min(p, tail);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    return sum / static_cast<double>(samples.size());
}

// --------------------------------------------------------------- report

void
Report::add(const std::string &name, double value, const std::string &unit,
            size_t samples, const std::string &note)
{
    metrics_.push_back(Metric{name, value, unit, samples, note});
}

void
Report::addPercentile(const std::string &name,
                      const std::vector<double> &samples, double p,
                      const std::string &unit)
{
    const double used = supportedPercentile(samples.size(), p);
    std::string note;
    if (used < p) {
        std::ostringstream os;
        os << "p" << used << " (too few samples for p" << p << ")";
        note = os.str();
    }
    add(name, quantile(samples, used), unit, samples.size(), note);
}

const Metric *
Report::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

std::string
Report::table() const
{
    std::ostringstream os;
    os << std::left << std::setw(28) << "metric" << std::right
       << std::setw(16) << "value" << "  " << std::left << std::setw(7)
       << "unit" << std::right << std::setw(9) << "samples" << "\n";
    for (const Metric &m : metrics_) {
        std::ostringstream value;
        value << std::setprecision(6) << m.value;
        os << std::left << std::setw(28) << m.name << std::right
           << std::setw(16) << value.str() << "  " << std::left
           << std::setw(7) << m.unit << std::right << std::setw(9)
           << m.samples;
        if (!m.note.empty())
            os << "  " << m.note;
        os << "\n";
    }
    return os.str();
}

void
Rounds::add(const std::string &name, double value, size_t samples)
{
    Series &s = series_[name];
    s.values.push_back(value);
    s.samples += samples;
}

void
Rounds::addMedian(const std::string &name, const std::vector<double> &samples)
{
    add(name, quantile(samples, 50), samples.size());
}

void
Rounds::addPercentile(const std::string &name,
                      const std::vector<double> &samples, double p)
{
    const double used = supportedPercentile(samples.size(), p);
    add(name, quantile(samples, used), samples.size());
    Series &s = series_[name];
    if (used < p && (s.reduced_to == 0.0 || used < s.reduced_to))
        s.reduced_to = used;
}

void
Rounds::report(Report &rep, const std::string &name,
               const std::string &unit) const
{
    const Series &s = series_.at(name);
    const auto [lo, hi] =
        std::minmax_element(s.values.begin(), s.values.end());
    const double best = unit == "1/s" ? *hi : *lo;
    std::ostringstream note;
    note << "best of " << s.values.size() << " rounds; median "
         << quantile(s.values, 50) << ", range " << *lo << " .. " << *hi;
    if (s.reduced_to > 0.0)
        note << "; p" << s.reduced_to << " in some rounds (too few samples)";
    rep.add(name, best, unit, s.samples, note.str());
}

// ---------------------------------------------------- correctness gate

bool
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (problems_.size() < 16)
            problems_.push_back(what);
    }
    return ok;
}

double
Checks::errorRate() const
{
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
}

void
Checks::merge(const Checks &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const std::string &p : other.problems_)
        if (problems_.size() < 16)
            problems_.push_back(p);
}

uint64_t
fnv1a(std::string_view bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
recorderJsonl(const h2p::sim::Recorder &recorder)
{
    std::ostringstream os;
    recorder.writeJsonl(os);
    return os.str();
}

std::string
recorderDigest(const h2p::sim::Recorder &recorder)
{
    return hex64(fnv1a(recorderJsonl(recorder)));
}

void
Golden::load(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return;
    std::ostringstream os;
    os << is.rdbuf();
    parse(os.str());
}

void
Golden::parse(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string seed, workload, key, digest;
        if (ls >> seed >> workload >> key >> digest)
            entries_[seed + " " + workload + " " + key] = digest;
    }
}

std::string
Golden::find(uint64_t seed, const std::string &workload,
             const std::string &key) const
{
    auto it =
        entries_.find(std::to_string(seed) + " " + workload + " " + key);
    return it == entries_.end() ? std::string() : it->second;
}

size_t
Golden::count(uint64_t seed, const std::string &workload) const
{
    const std::string prefix =
        std::to_string(seed) + " " + workload + " ";
    size_t n = 0;
    for (auto it = entries_.lower_bound(prefix);
         it != entries_.end() && it->first.rfind(prefix, 0) == 0; ++it)
        ++n;
    return n;
}

bool
digestMatches(const Golden &golden, uint64_t seed,
              const std::string &workload, const std::string &key,
              const std::string &actual, const std::string &reference,
              std::string *why)
{
    const std::string want = golden.find(seed, workload, key);
    if (!want.empty() && want != actual) {
        if (why != nullptr)
            *why = workload + " " + key + ": digest " + actual +
                   " differs from golden " + want;
        return false;
    }
    if (!reference.empty() && reference != actual) {
        if (why != nullptr)
            *why = workload + " " + key + ": digest " + actual +
                   " differs from in-run reference " + reference;
        return false;
    }
    return true;
}

// ---------------------------------------------------------------- spans

int64_t
SpanLog::begin(const char *name, int64_t parent, uint64_t run)
{
    return add(name, parent, run, nowNs(), 0);
}

void
SpanLog::end(int64_t id)
{
    spans_[static_cast<size_t>(id)].end_ns = nowNs();
}

int64_t
SpanLog::add(const char *name, int64_t parent, uint64_t run,
             int64_t start_ns, int64_t end_ns)
{
    spans_.push_back(Span{name, parent, run, start_ns, end_ns});
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
SpanLog::absorb(const SpanLog &other)
{
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        spans_.push_back(s);
    }
}

std::string
SpanLog::jsonl() const
{
    std::ostringstream os;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"parent\":" << s.parent << ",\"run\":" << s.run
           << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
           << "}\n";
    }
    return os.str();
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<size_t>(spans[i].parent)].push_back(i);

    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Clip the children to the parent and merge overlaps, so time
        // two concurrent children share is subtracted once.
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (size_t c : children[i]) {
            const int64_t a = std::max(s.start_ns, spans[c].start_ns);
            const int64_t b = std::min(s.end_ns, spans[c].end_ns);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, cur_a = 0, cur_b = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

// ----------------------------------------------------------------- host

namespace {

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
        s = s.c_str();
        const size_t a = s.find_first_not_of(' ');
        const size_t b = s.find_last_not_of(' ');
        if (a != std::string::npos)
            return s.substr(a, b - a + 1);
    }
#endif
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

std::vector<int>
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    if (cpus.empty())
        cpus.push_back(0); // Unknown mask: PinThread then fails softly.
    return cpus;
}

PinThread::PinThread(const std::vector<int> &cpus)
{
    if (pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

PinThread::~PinThread()
{
    if (pinned_)
        pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
}

HostInfo
probeHost(const std::string &git_sha, const std::string &source_digest)
{
    HostInfo h;
    h.usable_cores = std::max<size_t>(1, usableCpus().size());
    h.cpu_model = cpuModel();
#if defined(__clang__)
    h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    h.compiler = std::string("gcc ") + __VERSION__;
#else
    h.compiler = "unknown";
#endif
#ifdef H2PBENCH_BUILD_TYPE
    h.build_type = H2PBENCH_BUILD_TYPE;
#endif
    h.git_sha = git_sha.empty() ? "none" : git_sha;
    h.source_digest = source_digest.empty() ? "none" : source_digest;
    return h;
}

std::string
hostJson(const HostInfo &host, size_t workers, size_t connections)
{
    std::ostringstream os;
    os << "{\"usable_cores\":" << host.usable_cores
       << ",\"cpu_model\":" << jsonString(host.cpu_model)
       << ",\"compiler\":" << jsonString(host.compiler)
       << ",\"build_type\":" << jsonString(host.build_type)
       << ",\"git_sha\":" << jsonString(host.git_sha)
       << ",\"source_digest\":" << jsonString(host.source_digest)
       << ",\"workers\":" << workers << ",\"connections\":" << connections
       << "}";
    return os.str();
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------ workloads

namespace {

// The text of examples/configs/paper.ini (Sec. V-C), kept here so the
// benchmark's input does not drift when the example changes.
constexpr const char *kPaperIni = R"([datacenter]
num_servers = 1000
servers_per_circulation = 50
cold_source_c = 20

[server]
tegs_per_server = 12

[teg]
voc_slope = 0.0448
voc_offset = -0.0051
resistance_ohm = 2.0

[optimizer]
t_safe_c = 63
band_c = 1

[trace]
profile = drastic
seed = 2020
)";

} // namespace

std::string
iniSet(const std::string &ini, const std::string &section,
       const std::string &key, const std::string &value)
{
    std::istringstream is(ini);
    std::ostringstream os;
    std::string line, current;
    bool done = false;
    const auto keyOf = [](const std::string &l) {
        const size_t eq = l.find('=');
        if (eq == std::string::npos)
            return std::string();
        std::string k = l.substr(0, eq);
        k.erase(k.find_last_not_of(" \t") + 1);
        k.erase(0, k.find_first_not_of(" \t"));
        return k;
    };
    while (std::getline(is, line)) {
        if (!line.empty() && line[0] == '[') {
            if (current == section && !done) {
                os << key << " = " << value << "\n";
                done = true;
            }
            current = line.substr(1, line.find(']') - 1);
        } else if (current == section && !done && keyOf(line) == key) {
            os << key << " = " << value << "\n";
            done = true;
            continue;
        }
        os << line << "\n";
    }
    // A key missing from a section that is not last was inserted at
    // the next header, so only the last section or a new one remain.
    if (!done) {
        if (current != section)
            os << "\n[" << section << "]\n";
        os << key << " = " << value << "\n";
    }
    return os.str();
}

uint64_t
traceSeed(uint64_t seed, size_t j)
{
    return seed + static_cast<uint64_t>(j) * 1000003u;
}

std::string
paperIni(uint64_t seed)
{
    return iniSet(kPaperIni, "trace", "seed", std::to_string(seed));
}

std::string
fleetIni(uint64_t seed)
{
    std::string ini = paperIni(seed);
    ini = iniSet(ini, "datacenter", "num_servers", "16384");
    ini = iniSet(ini, "datacenter", "servers_per_circulation", "1024");
    ini = iniSet(ini, "trace", "profile", "common");
    ini = iniSet(ini, "trace", "servers", "16384");
    ini = iniSet(ini, "perf", "threads", "1");
    return ini;
}

const std::vector<h2p::sched::Policy> &
policies()
{
    static const std::vector<h2p::sched::Policy> kPolicies = {
        h2p::sched::Policy::TegOriginal,
        h2p::sched::Policy::TegLoadBalance};
    return kPolicies;
}

const char *
policyName(h2p::sched::Policy policy)
{
    return policy == h2p::sched::Policy::TegOriginal ? "TEG_Original"
                                                     : "TEG_LoadBalance";
}

} // namespace h2pbench
