/**
 * @file
 * h2pbench: run one workload of the H2P twin benchmark.
 *
 *   h2pbench --workload paper|fleet-sweep|daemon --seed N --seconds S
 *            --trace 0|1 [--golden FILE] [--out-dir DIR]
 *            [--git-sha SHA] [--source-digest HEX]
 *   h2pbench --record-golden --seed N
 *
 * Prints the host fingerprint, a table of every metric with its unit
 * and sample count, and as the last line one JSON object with the
 * keys correct, attempted, failed and metrics (every metric the run
 * produced). Exits 1 when any output failed its check, 2 on bad usage.
 * The run's result and, with --trace 1, its spans are also written
 * under --out-dir.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/h2p_system.h"
#include "core/sweep_engine.h"
#include "twin.h"

namespace h2pbench {

std::string
recordGolden(uint64_t seed)
{
    std::ostringstream os;
    Checks checks;
    for (size_t j = 0; j < kPaperTraces; ++j) {
        const uint64_t trace_seed = traceSeed(seed, j);
        const std::string ini = paperIni(trace_seed);
        const TwinInput in = parseTwin(ini);
        const h2p::workload::UtilizationTrace trace =
            h2p::core::makeTrace(in.trace);
        const h2p::core::H2PSystem system(in.config);
        for (h2p::sched::Policy p : policies())
            os << trace_seed << " paper " << policyName(p) << " "
               << recorderDigest(*system.run(trace, p).recorder) << "\n";
        for (h2p::sched::Policy p : policies())
            os << trace_seed << " daemon " << policyName(p) << " "
               << hex64(fnv1a(brokerReplay(ini, p, checks).summary))
               << "\n";
    }
    for (size_t j = 0; j < kFleetTraces; ++j) {
        const uint64_t trace_seed = traceSeed(seed, j);
        const std::vector<GridPoint> grid = fleetGrid(trace_seed);
        const h2p::workload::UtilizationTrace trace =
            h2p::core::makeTrace(parseTwin(grid.front().ini).trace);
        h2p::core::SweepOptions so;
        so.workers = 2;
        const h2p::core::SweepResult res =
            h2p::core::SweepEngine(so).run(sweepPoints(grid, trace));
        for (const h2p::core::SweepPointResult &p : res.points)
            if (checks.expect(p.status == h2p::core::PointStatus::Completed,
                              p.label))
                os << trace_seed << " fleet-sweep " << p.label << " "
                   << recorderDigest(*p.recorder) << "\n";
    }
    if (checks.failed() > 0)
        throw std::runtime_error("golden recording failed: " +
                                 checks.problems().front());
    return os.str();
}

namespace {

void
usage()
{
    std::cerr << "usage: h2pbench --workload paper|fleet-sweep|daemon "
                 "[--seed N] [--seconds S] [--trace 0|1] [--golden FILE] "
                 "[--out-dir DIR] [--git-sha SHA] [--source-digest HEX]\n"
                 "       h2pbench --record-golden --seed N\n";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
resultJson(const Outcome &out, bool correct)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.checks.attempted()
       << ", \"failed\": " << out.checks.failed() << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : out.report.metrics()) {
        os << (first ? "" : ", ") << "\"" << m.name
           << "\": {\"value\": " << jsonNumber(m.value) << ", \"unit\": \""
           << m.unit << "\", \"samples\": " << m.samples << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

bool
parseUnsigned(const char *s, uint64_t &out)
{
    char *end = nullptr;
    if (*s == '\0' || *s == '-')
        return false;
    out = std::strtoull(s, &end, 10);
    return *end == '\0';
}

} // namespace

} // namespace h2pbench

int
main(int argc, char **argv)
{
    using namespace h2pbench;
    Options opt;
    opt.out_dir = ".bench_build/h2pbench/out";
    std::string git_sha, source_digest;
    bool record = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        uint64_t n = 0;
        if (arg == "--record-golden") {
            record = true;
        } else if (!has_value) {
            usage();
            return 2;
        } else if (arg == "--workload") {
            opt.workload = argv[++i];
        } else if (arg == "--seed") {
            if (!parseUnsigned(argv[++i], opt.seed)) {
                usage();
                return 2;
            }
        } else if (arg == "--seconds") {
            opt.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace") {
            if (!parseUnsigned(argv[++i], n) || n > 1) {
                usage();
                return 2;
            }
            opt.trace = n == 1;
        } else if (arg == "--golden") {
            opt.golden_path = argv[++i];
        } else if (arg == "--out-dir") {
            opt.out_dir = argv[++i];
        } else if (arg == "--git-sha") {
            git_sha = argv[++i];
        } else if (arg == "--source-digest") {
            source_digest = argv[++i];
        } else {
            usage();
            return 2;
        }
    }

    try {
        if (record) {
            std::cout << recordGolden(opt.seed);
            return 0;
        }
        if (!(opt.seconds > 0.0) || opt.seconds > 600.0) {
            usage();
            return 2;
        }
        Outcome (*run)(const Options &, const Golden &) = nullptr;
        if (opt.workload == "paper")
            run = runPaper;
        else if (opt.workload == "fleet-sweep")
            run = runFleet;
        else if (opt.workload == "daemon")
            run = runDaemon;
        if (run == nullptr) {
            usage();
            return 2;
        }
        std::filesystem::create_directories(opt.out_dir);

        Golden golden;
        golden.load(opt.golden_path);
        const HostInfo host = probeHost(git_sha, source_digest);

        Outcome out = run(opt, golden);
        out.report.add("error_rate", out.checks.errorRate(), "ratio",
                       out.checks.attempted(),
                       std::to_string(out.checks.failed()) + " of " +
                           std::to_string(out.checks.attempted()) +
                           " operations failed");
        bool correct = out.checks.failed() == 0 && out.checks.attempted() > 0;
        for (const Metric &m : out.report.metrics())
            correct = correct && std::isfinite(m.value);

        const std::string fingerprint =
            hostJson(host, out.workers, out.connections);
        std::cout << "# h2pbench workload=" << opt.workload
                  << " seed=" << opt.seed << " seconds=" << opt.seconds
                  << " trace=" << (opt.trace ? 1 : 0) << " golden="
                  << (golden.count(opt.seed, opt.workload) > 0 ? "recorded"
                                                               : "none")
                  << "\n# host " << fingerprint << "\n"
                  << out.report.table();
        for (const std::string &p : out.checks.problems())
            std::cout << "# FAILED: " << p << "\n";

        const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed) + "-trace" +
                                 (opt.trace ? "1" : "0");
        const std::string result = resultJson(out, correct);
        std::ofstream(stem + ".json")
            << "{\"host\": " << fingerprint << ", \"workload\": \""
            << opt.workload << "\", \"seed\": " << opt.seed
            << ", \"result\": " << result << "}\n";
        if (opt.trace)
            std::ofstream(stem + ".spans.jsonl") << out.spans.jsonl();

        std::cout << result << std::endl;
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "h2pbench: " << e.what() << "\n";
        return 1;
    }
}
