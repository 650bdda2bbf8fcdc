/**
 * @file
 * Seeded random number generation for reproducible simulations.
 *
 * Every stochastic H2P component takes an explicit Rng (or a seed) so
 * that a whole experiment is reproducible from a single 64-bit seed.
 *
 * The stream is part of the results: traces, figure CSVs and the trace
 * fingerprints in checkpoints and journals depend on every bit. It is
 * defined as std::mt19937_64's output fed through libstdc++ 12's
 * distribution arithmetic. Both are spelled out here, except for
 * uniformInt and poisson, which keep the std distributions, so the
 * other samplers' bits do not depend on the standard library the twin
 * is built with (see DESIGN.md, "Seeded RNG").
 * tests/data/rng_streams.golden pins them.
 */

#ifndef H2P_UTIL_RANDOM_H_
#define H2P_UTIL_RANDOM_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/error.h"

namespace h2p {

/**
 * MT19937-64 with exactly std::mt19937_64's output sequence (same
 * seeding recurrence, twist and tempering constants). The state is
 * twisted all 312 words at a time, branch-free, and the whole block is
 * tempered into an output buffer, so a draw is a load and an index
 * bump. Satisfies UniformRandomBitGenerator for the std distributions.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    static constexpr size_t kStateSize = 312;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Seed as std::mt19937_64(seed) does. */
    explicit Mt19937_64(uint64_t seed);

    result_type operator()()
    {
        if (next_ == kStateSize)
            refill();
        return out_[next_++];
    }

  private:
    /** Twist the whole state and temper it into out_. */
    void refill();

    uint64_t state_[kStateSize];
    uint64_t out_[kStateSize];
    size_t next_ = 0;
};

/**
 * Seeded stream with the distributions the simulator needs. Copyable
 * so that sub-streams can be forked deterministically.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (default: fixed seed for tests). */
    explicit Rng(uint64_t seed = 0x48325032u)
        : engine_(seed), seed_(seed)
    {
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0)
    {
        H2P_ASSERT(lo <= hi, "uniform bounds inverted");
        return canonical() * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi] (inclusive). */
    int uniformInt(int lo, int hi);

    /**
     * Normal deviate with mean @p mu and std dev @p sigma: Marsaglia's
     * polar method as a fresh std::normal_distribution evaluates it.
     * The second deviate of the pair (x * mult) is discarded.
     */
    double normal(double mu, double sigma)
    {
        H2P_ASSERT(sigma >= 0.0, "negative sigma");
        double x, y, r2;
        do {
            x = 2.0 * canonical() - 1.0;
            y = 2.0 * canonical() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        const double mult = std::sqrt(-2 * std::log(r2) / r2);
        return y * mult * sigma + mu;
    }

    /**
     * Normal deviate truncated (by resampling) to [lo, hi].
     * Falls back to clamping after 64 rejected draws.
     */
    double truncNormal(double mu, double sigma, double lo, double hi);

    /** Exponential deviate with given rate (events per unit time). */
    double exponential(double rate)
    {
        H2P_ASSERT(rate > 0.0, "non-positive rate");
        return -std::log(1.0 - canonical()) / rate;
    }

    /** Poisson count with given mean. */
    int poisson(double mean);

    /** Bernoulli trial with success probability @p p. */
    bool bernoulli(double p)
    {
        H2P_ASSERT(p >= 0.0 && p <= 1.0, "probability out of range");
        return canonical() < p;
    }

    /**
     * Fork a deterministic sub-stream; the i-th fork of a given Rng is
     * always the same, independent of draws made on the parent.
     */
    Rng fork(uint64_t stream_id) const;

  private:
    /**
     * The next draw as a double in [0, 1): round-to-nearest-even of
     * v / 2^64, clamped below 1, as std::generate_canonical<double, 53>
     * computes it on a 64-bit engine. Splitting v into two exact 32-bit
     * halves leaves one rounding (the sum) and no branch on the top
     * bit, which the plain uint64 -> double conversion takes.
     */
    double canonical()
    {
        const uint64_t v = engine_();
        const double c = (static_cast<double>(v >> 32) * 0x1p32 +
                          static_cast<double>(static_cast<uint32_t>(v))) *
                         0x1p-64;
        return std::min(c, 1.0 - 0x1p-53);
    }

    Mt19937_64 engine_;
    uint64_t seed_ = 0;
};

} // namespace h2p

#endif // H2P_UTIL_RANDOM_H_
