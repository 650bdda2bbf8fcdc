/**
 * @file
 * Bit-exact golden of the cooling optimizer's exact (uncached)
 * decisions.
 *
 * tests/data/optimizer_decisions.golden holds, per block, an FNV-1a 64
 * digest over the exact bit patterns of every field of every decision
 * — setting (flow, inlet), teg_power_w, t_cpu_c, candidates (|A|) and
 * fallback — over a dense planning-utilization set: u = k/1024, every
 * utilization grid node and its neighbours one ulp either side, and
 * the interval ends. Blocks cover choose() for every (T_safe, band,
 * cold source) in the grid below, and coldestFallback() per cold
 * source. choose(u, T_safe) through the override must land on the
 * same digest as an optimizer configured with that T_safe.
 *
 * Any change to the search, the look-up table or the interpolation
 * arithmetic that moves a single bit of a decision fails here. To
 * re-record after an intended behaviour change, run the test with
 * H2P_UPDATE_GOLDEN=1 and commit the rewritten file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/server.h"
#include "sched/cooling_optimizer.h"
#include "sched/lookup_space.h"
#include "thermal/teg.h"
#include "util/hash.h"
#include "util/interpolate.h"

namespace h2p {
namespace sched {
namespace {

const char *const kGoldenPath = H2P_TEST_DATA_DIR
    "/optimizer_decisions.golden";

constexpr double kTSafe[] = {57.0, 60.0, 62.0, 63.0, 66.0, 69.0};
constexpr double kBand[] = {0.0, 0.5, 1.0, 2.0};
constexpr double kColdSource[] = {15.0, 20.0, 25.0};

/** Planning utilizations: k/1024, each grid node +-1 ulp, 0 and 1. */
std::vector<double>
planningUtils(const LookupSpaceParams &params)
{
    std::vector<double> us;
    for (int k = 0; k <= 1024; ++k)
        us.push_back(static_cast<double>(k) / 1024.0);
    GridAxis axis(0.0, 1.0, params.util_points);
    for (size_t i = 0; i < axis.count(); ++i) {
        double node = axis.coord(i);
        for (double u : {std::nextafter(node, -1.0), node,
                         std::nextafter(node, 2.0)}) {
            if (u >= 0.0 && u <= 1.0)
                us.push_back(u);
        }
    }
    us.push_back(0.0);
    us.push_back(1.0);
    std::sort(us.begin(), us.end());
    us.erase(std::unique(us.begin(), us.end()), us.end());
    return us;
}

void
feed(util::Fnv1a &h, double u, const OptimizerResult &r)
{
    h.f64(u);
    h.f64(r.setting.flow_lph);
    h.f64(r.setting.t_in_c);
    h.f64(r.teg_power_w);
    h.f64(r.t_cpu_c);
    h.size(r.candidates);
    h.boolean(r.fallback);
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct OptimizerGolden : ::testing::Test
{
    OptimizerGolden()
        : space(server), teg(12), us(planningUtils(space.params()))
    {
    }

    /** One choose() block line: config, counts and digest. */
    template <typename Choose>
    std::string chooseBlock(double t_safe, double band, double cold,
                            Choose &&choose) const
    {
        util::Fnv1a h;
        size_t in_band = 0;
        for (double u : us) {
            OptimizerResult r = choose(u);
            in_band += r.fallback ? 0 : 1;
            feed(h, u, r);
        }
        std::ostringstream os;
        os << "choose t_safe=" << t_safe << " band=" << band
           << " cold=" << cold << " n=" << us.size()
           << " in_band=" << in_band << " " << hex(h.digest());
        return os.str();
    }

    cluster::Server server;
    LookupSpace space;
    thermal::TegModule teg;
    std::vector<double> us;
};

std::vector<std::string>
readGolden()
{
    std::vector<std::string> lines;
    std::ifstream in(kGoldenPath);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    }
    return lines;
}

TEST_F(OptimizerGolden, ExactDecisionsMatchGoldenBitForBit)
{
    std::vector<std::string> got;
    for (double cold : kColdSource) {
        for (double t_safe : kTSafe) {
            for (double band : kBand) {
                OptimizerParams p;
                p.t_safe_c = t_safe;
                p.band_c = band;
                p.cold_source_c = cold;
                CoolingOptimizer opt(space, teg, p);
                got.push_back(chooseBlock(
                    t_safe, band, cold,
                    [&](double u) { return opt.choose(u); }));
            }
        }
        OptimizerParams p;
        p.cold_source_c = cold;
        CoolingOptimizer opt(space, teg, p);
        util::Fnv1a h;
        for (double u : us)
            feed(h, u, opt.coldestFallback(u));
        std::ostringstream os;
        os << "coldest cold=" << cold << " n=" << us.size() << " "
           << hex(h.digest());
        got.push_back(os.str());
    }

    if (std::getenv("H2P_UPDATE_GOLDEN")) {
        std::ofstream out(kGoldenPath);
        out << "# Exact CoolingOptimizer decisions on the default server"
               " and 12-TEG module:\n"
               "# FNV-1a 64 over the bits of (u, flow, t_in, teg_power_w,"
               " t_cpu_c, candidates,\n"
               "# fallback) for every planning utilization of the block."
               " Written by\n"
               "# optimizer_golden_test with H2P_UPDATE_GOLDEN=1.\n";
        for (const std::string &line : got)
            out << line << "\n";
    }

    std::vector<std::string> want = readGolden();
    ASSERT_EQ(want.size(), got.size()) << "cannot read " << kGoldenPath;
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]);
}

TEST_F(OptimizerGolden, TsafeOverrideMatchesConfiguredTsafe)
{
    // choose(u, T_safe) on an optimizer configured for another T_safe
    // must reproduce the golden line of the configured optimizer.
    std::vector<std::string> want = readGolden();
    for (double cold : kColdSource) {
        for (double band : kBand) {
            OptimizerParams p;
            p.t_safe_c = 70.0;
            p.band_c = band;
            p.cold_source_c = cold;
            CoolingOptimizer opt(space, teg, p);
            for (double t_safe : kTSafe) {
                std::string line = chooseBlock(
                    t_safe, band, cold,
                    [&](double u) { return opt.choose(u, t_safe); });
                EXPECT_NE(std::find(want.begin(), want.end(), line),
                          want.end())
                    << line;
            }
        }
    }
}

} // namespace
} // namespace sched
} // namespace h2p
