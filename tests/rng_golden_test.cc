/**
 * @file
 * Bit-exact golden of the seeded random streams and of the synthetic
 * utilization traces built on them.
 *
 * tests/data/rng_streams.golden holds FNV-1a 64 digests over the exact
 * bit patterns of:
 *   - 10,000 outputs of each Rng sampler (uniform, uniformInt, normal,
 *     truncNormal, exponential, poisson, bernoulli), each from a fresh
 *     stream, for seeds {0, 1, 2020, 2^64-1} and for forks 1..8 of
 *     seed 2020. Draw i uses parameter set i mod k of the sampler's
 *     table, so one line covers several shapes (including the
 *     truncNormal clamp fallback and poisson's two algorithms);
 *   - UtilizationTrace::fingerprint() of generateProfile() for every
 *     profile x seeds {2020, 7} x servers {1, 50, profile default}.
 *
 * The engine is also checked live against std::mt19937_64, and (with
 * libstdc++) the inline samplers against fresh std distributions.
 *
 * These bits feed the committed CSVs, the benchmark digests and the
 * trace fingerprints stored in checkpoints and journals, so any change
 * to the engine, the canonical-double conversion or a sampler's
 * arithmetic fails here. To re-record after an intended change of the
 * stream, run the test with H2P_UPDATE_GOLDEN=1 and commit the
 * rewritten file.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "util/hash.h"
#include "util/random.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace {

const char *const kGoldenPath = H2P_TEST_DATA_DIR "/rng_streams.golden";

constexpr size_t kDraws = 10000;
constexpr uint64_t kSeeds[] = {0, 1, 2020, ~uint64_t{0}};
constexpr uint64_t kForkParent = 2020;
constexpr uint64_t kForks = 8;

/** One sampler: draw i of a stream, fed into the digest by bits. */
struct Sampler
{
    const char *name;
    std::function<void(Rng &, size_t, util::Fnv1a &)> draw;
};

std::vector<Sampler>
samplers()
{
    return {
        {"uniform",
         [](Rng &r, size_t i, util::Fnv1a &h) {
             static constexpr double kLo[] = {0.0, -2.5, 0.0, 0.7};
             static constexpr double kHi[] = {1.0, 7.0, 2.0 * M_PI, 1.3};
             h.f64(r.uniform(kLo[i % 4], kHi[i % 4]));
         }},
        {"uniformInt",
         [](Rng &r, size_t i, util::Fnv1a &h) {
             static constexpr int kLo[] = {0, -3, 0, 5};
             static constexpr int kHi[] = {1, 1000, 2147483647, 5};
             int v = r.uniformInt(kLo[i % 4], kHi[i % 4]);
             h.u64(static_cast<uint64_t>(static_cast<int64_t>(v)));
         }},
        {"normal",
         [](Rng &r, size_t i, util::Fnv1a &h) {
             static constexpr double kMu[] = {0.0, 1.5, 0.0, -4.0};
             static constexpr double kSigma[] = {1.0, 2.0, 0.15, 0.0};
             h.f64(r.normal(kMu[i % 4], kSigma[i % 4]));
         }},
        {"truncNormal",
         [](Rng &r, size_t i, util::Fnv1a &h) {
             // The last set almost never lands in [5, 6]: it exercises
             // the 64-rejection clamp fallback.
             static constexpr double kMu[] = {0.22, 0.27, 0.0};
             static constexpr double kSigma[] = {0.055, 0.0675, 1.0};
             static constexpr double kLo[] = {0.02, 0.02, 5.0};
             static constexpr double kHi[] = {0.9, 0.9, 6.0};
             size_t k = i % 3;
             h.f64(r.truncNormal(kMu[k], kSigma[k], kLo[k], kHi[k]));
         }},
        {"exponential",
         [](Rng &r, size_t i, util::Fnv1a &h) {
             static constexpr double kRate[] = {1.0, 1.0 / 2400.0, 50.0};
             h.f64(r.exponential(kRate[i % 3]));
         }},
        {"poisson",
         [](Rng &r, size_t i, util::Fnv1a &h) {
             // Means below and above 12 take libstdc++'s two branches.
             static constexpr double kMean[] = {0.0, 0.5, 3.0, 12.0, 40.0};
             h.u64(static_cast<uint64_t>(r.poisson(kMean[i % 5])));
         }},
        {"bernoulli",
         [](Rng &r, size_t i, util::Fnv1a &h) {
             static constexpr double kP[] = {0.0, 0.1, 0.5, 1.0, 0.0125};
             h.boolean(r.bernoulli(kP[i % 5]));
         }},
    };
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
streamLine(const std::string &label, Rng rng, const Sampler &s)
{
    util::Fnv1a h;
    for (size_t i = 0; i < kDraws; ++i)
        s.draw(rng, i, h);
    std::ostringstream os;
    os << label << " " << s.name << " n=" << kDraws << " "
       << hex(h.digest());
    return os.str();
}

std::vector<std::string>
computeLines()
{
    std::vector<std::string> lines;
    const std::vector<Sampler> all = samplers();
    for (uint64_t seed : kSeeds)
        for (const Sampler &s : all)
            lines.push_back(streamLine("seed=" + std::to_string(seed),
                                       Rng(seed), s));
    const Rng parent(kForkParent);
    for (uint64_t id = 1; id <= kForks; ++id)
        for (const Sampler &s : all)
            lines.push_back(streamLine(
                "seed=" + std::to_string(kForkParent) +
                    " fork=" + std::to_string(id),
                parent.fork(id), s));

    using workload::TraceProfile;
    for (TraceProfile p : {TraceProfile::Drastic, TraceProfile::Irregular,
                           TraceProfile::Common}) {
        for (uint64_t seed : {uint64_t{2020}, uint64_t{7}}) {
            for (size_t servers : {size_t{1}, size_t{50}, size_t{0}}) {
                workload::UtilizationTrace trace =
                    workload::TraceGenerator(seed).generateProfile(p,
                                                                   servers);
                std::ostringstream os;
                os << "trace " << workload::toString(p)
                   << " seed=" << seed
                   << " servers=" << trace.numServers()
                   << " steps=" << trace.numSteps() << " "
                   << hex(trace.fingerprint());
                lines.push_back(os.str());
            }
        }
    }
    return lines;
}

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

TEST(RngGolden, StreamsAndTracesMatchGoldenBitForBit)
{
    std::vector<std::string> got = computeLines();

    if (std::getenv("H2P_UPDATE_GOLDEN")) {
        std::ofstream out(kGoldenPath);
        out << "# Seeded Rng streams and synthetic traces: FNV-1a 64 over"
               " the bits of 10,000\n"
               "# draws per sampler and stream, and trace fingerprints."
               " Written by\n"
               "# rng_golden_test with H2P_UPDATE_GOLDEN=1.\n";
        for (const std::string &line : got)
            out << line << "\n";
    }

    std::vector<std::string> want = readGolden();
    ASSERT_EQ(want.size(), got.size()) << "cannot read " << kGoldenPath;
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]);
}

TEST(RngGolden, EngineMatchesStdMt19937_64)
{
    // [rand.predef]: the 10000th output of a default-seeded
    // mt19937_64 is 9981545732273789042.
    Mt19937_64 standard(5489u);
    for (int i = 1; i < 10000; ++i)
        standard();
    EXPECT_EQ(standard(), 9981545732273789042ull);

    // Live against the library engine over four full refills.
    for (uint64_t seed : kSeeds) {
        Mt19937_64 ours(seed);
        std::mt19937_64 ref(seed);
        for (size_t i = 0; i < 4 * Mt19937_64::kStateSize; ++i)
            ASSERT_EQ(ours(), ref()) << "seed " << seed << " draw " << i;
    }
}

#if defined(__GLIBCXX__)
TEST(RngGolden, SamplersMatchFreshLibstdcxxDistributions)
{
    // The inline samplers restate libstdc++'s arithmetic; with that
    // library they must agree with a fresh distribution per draw.
    for (uint64_t seed : kSeeds) {
        Rng ours(seed);
        std::mt19937_64 ref(seed);
        for (size_t i = 0; i < 4 * Mt19937_64::kStateSize; ++i) {
            switch (i % 4) {
              case 0:
                ASSERT_EQ(ours.uniform(-2.5, 7.0),
                          std::uniform_real_distribution<double>(
                              -2.5, 7.0)(ref));
                break;
              case 1:
                ASSERT_EQ(ours.normal(1.5, 2.0),
                          std::normal_distribution<double>(1.5, 2.0)(ref));
                break;
              case 2:
                ASSERT_EQ(ours.exponential(0.25),
                          std::exponential_distribution<double>(0.25)(ref));
                break;
              default:
                ASSERT_EQ(ours.bernoulli(0.3),
                          std::bernoulli_distribution(0.3)(ref));
                break;
            }
        }
    }
}
#endif

} // namespace
} // namespace h2p
