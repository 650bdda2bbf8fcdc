// Self-tests of the benchmark's own helpers: the percentile rule,
// self-time subtraction, digest comparison and closed-loop error
// accounting.

#include <unistd.h>

#include <gtest/gtest.h>

#include "twin.h"

namespace h2pbench {
namespace {

TEST(Percentile, HighestWithTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(19), 0.0);
    EXPECT_EQ(tailPercentile(20), 50.0);
    EXPECT_EQ(tailPercentile(99), 50.0);
    EXPECT_EQ(tailPercentile(100), 90.0);
    EXPECT_EQ(tailPercentile(999), 90.0);
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(9999), 99.0);
    EXPECT_EQ(tailPercentile(10000), 99.9);
    EXPECT_EQ(supportedPercentile(500, 99.0), 90.0);
    EXPECT_EQ(supportedPercentile(5000, 90.0), 90.0);
    EXPECT_EQ(supportedPercentile(5, 99.0), 50.0);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(quantile(v, 50), 50.0);
    EXPECT_EQ(quantile(v, 90), 90.0);
    EXPECT_EQ(quantile(v, 99), 99.0);
    EXPECT_EQ(quantile({7.0}, 99), 7.0);
    EXPECT_EQ(quantile({}, 50), 0.0);

    Report r;
    r.addPercentile("x.p99", v, 99, "us");
    EXPECT_EQ(r.find("x.p99")->value, 90.0) << "100 samples support p90";
    EXPECT_NE(r.find("x.p99")->note.find("p90"), std::string::npos);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    SpanLog log;
    const int64_t root = log.add("root", -1, 1, 0, 100);
    log.add("a", root, 1, 10, 30);
    log.add("b", root, 1, 20, 50); // overlaps a
    const int64_t c = log.add("c", root, 1, 80, 120); // runs past root
    log.add("d", c, 1, 90, 95);
    const std::vector<int64_t> self = selfTimesNs(log.spans());
    EXPECT_EQ(self[0], 100 - 40 - 20);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 40 - 5);
    EXPECT_EQ(self[4], 5);
}

TEST(Spans, AbsorbRebasesParents)
{
    SpanLog a, b;
    a.add("x", -1, 1, 0, 10);
    const int64_t p = b.add("y", -1, 2, 0, 10);
    b.add("z", p, 2, 1, 2);
    a.absorb(b);
    ASSERT_EQ(a.spans().size(), 3u);
    EXPECT_EQ(a.spans()[1].parent, -1);
    EXPECT_EQ(a.spans()[2].parent, 1);
}

TEST(Digest, GoldenAndReferenceComparison)
{
    Golden g;
    g.parse("# comment\n2020 paper TEG_Original 00000000000000aa\n"
            "2020 paper TEG_LoadBalance 00000000000000bb\n");
    EXPECT_EQ(g.count(2020, "paper"), 2u);
    EXPECT_EQ(g.count(7, "paper"), 0u);
    std::string why;
    EXPECT_TRUE(digestMatches(g, 2020, "paper", "TEG_Original",
                              "00000000000000aa", "", &why));
    EXPECT_FALSE(digestMatches(g, 2020, "paper", "TEG_Original",
                               "00000000000000ab", "", &why));
    EXPECT_NE(why.find("golden"), std::string::npos);
    // No golden for seed 7: only the in-run reference applies.
    EXPECT_TRUE(digestMatches(g, 7, "paper", "TEG_Original", "x", "", &why));
    EXPECT_TRUE(digestMatches(g, 7, "paper", "TEG_Original", "x", "x", &why));
    EXPECT_FALSE(
        digestMatches(g, 7, "paper", "TEG_Original", "x", "y", &why));
    EXPECT_NE(why.find("reference"), std::string::npos);
    EXPECT_EQ(hex64(fnv1a("")), "cbf29ce484222325");
    EXPECT_EQ(hex64(fnv1a("a")), "af63dc4c8601ec8c");
}

TEST(Ini, SetReplacesOrAppends)
{
    const std::string ini = paperIni(7);
    EXPECT_NE(ini.find("seed = 7\n"), std::string::npos);
    EXPECT_EQ(ini.find("seed = 2020"), std::string::npos);
    const std::string fleet = fleetIni(7);
    EXPECT_NE(fleet.find("num_servers = 16384\n"), std::string::npos);
    EXPECT_NE(fleet.find("servers = 16384\n"), std::string::npos);
    EXPECT_NE(fleet.find("[perf]\nthreads = 1\n"), std::string::npos);
    const TwinInput in = parseTwin(fleet);
    EXPECT_EQ(in.config.datacenter.num_servers, 16384u);
    EXPECT_EQ(in.trace.servers, 16384u);
    EXPECT_EQ(fleetGrid(7).size(), 12u);
}

std::string
socketPath(const char *tag)
{
    return "h2pbench-selftest-" + std::to_string(::getpid()) + "-" + tag +
           ".sock";
}

TEST(ClosedLoop, RefusedConnectCountsAsFailure)
{
    LoopSpec spec;
    spec.inis = {paperIni(1)};
    spec.trace_seeds = {1};
    spec.connections = 3;
    spec.twins_per_client = 1;
    spec.socket_path = socketPath("refused"); // nothing listens here
    const LoopResult r = runClients(spec, Golden{});
    EXPECT_EQ(r.checks.attempted(), 3u);
    EXPECT_EQ(r.checks.failed(), 3u);
    EXPECT_EQ(r.requests, 0u);
}

TEST(ClosedLoop, ErrorResponseCountsAsFailure)
{
    LoopSpec spec;
    spec.inis = {iniSet(paperIni(1), "datacenter", "num_servers", "0")};
    spec.trace_seeds = {1};
    spec.connections = 2;
    spec.twins_per_client = 1;
    spec.socket_path = socketPath("error");
    const LoopResult r = closedLoop(spec, Golden{});
    // Per client: the connect succeeds, the open is refused. The stats
    // cross-check still agrees (2 requests + stats).
    EXPECT_EQ(r.requests, 2u);
    EXPECT_EQ(r.checks.failed(), 2u);
    EXPECT_EQ(r.checks.attempted(), 2u + 2u + 1u);
    EXPECT_EQ(r.stats_requests, 3u);
}

TEST(ClosedLoop, OneTwinMatchesTheInProcessRun)
{
    LoopSpec spec;
    spec.inis = {paperIni(3)};
    spec.trace_seeds = {3};
    spec.connections = 2;
    spec.twins_per_client = 1;
    spec.socket_path = socketPath("twin");
    for (h2p::sched::Policy p : policies())
        spec.reference[{0, p}] = referenceSummary(spec.inis[0], p);
    const LoopResult r = closedLoop(spec, Golden{});
    EXPECT_EQ(r.checks.failed(), 0u) << r.checks.problems().front();
    EXPECT_EQ(r.twins, 2u);
    EXPECT_EQ(r.requests, 2u * (2u + 2u * 144u));

    // A tampered reference is caught.
    spec.reference[{0, h2p::sched::Policy::TegOriginal}].pre += 1e-12;
    const LoopResult bad = closedLoop(spec, Golden{});
    EXPECT_EQ(bad.checks.failed(), 1u);
}

} // namespace
} // namespace h2pbench
