#include "util/random.h"

#include <random>

namespace h2p {

namespace {

// MT19937-64 parameters (Nishimura 2000), as in std::mt19937_64.
constexpr size_t kShift = 156; // m
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31; // r = 31
constexpr uint64_t kLowerMask = ~kUpperMask;
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr uint64_t kInitMult = 6364136223846793005ull; // f

/** One twisted word: the conditional xor of A as a mask, no branch. */
inline uint64_t
twist(uint64_t far, uint64_t hi, uint64_t lo)
{
    const uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

} // namespace

Mt19937_64::Mt19937_64(uint64_t seed)
{
    state_[0] = seed;
    for (size_t i = 1; i < kStateSize; ++i) {
        const uint64_t x = state_[i - 1];
        state_[i] = kInitMult * (x ^ (x >> 62)) + i;
    }
    refill();
}

void
Mt19937_64::refill()
{
    constexpr size_t n = kStateSize;
    for (size_t k = 0; k < n - kShift; ++k)
        state_[k] = twist(state_[k + kShift], state_[k], state_[k + 1]);
    for (size_t k = n - kShift; k < n - 1; ++k)
        state_[k] =
            twist(state_[k + kShift - n], state_[k], state_[k + 1]);
    state_[n - 1] = twist(state_[kShift - 1], state_[n - 1], state_[0]);

    for (size_t k = 0; k < n; ++k) {
        uint64_t z = state_[k];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        z ^= z >> 43;
        out_[k] = z;
    }
    next_ = 0;
}

int
Rng::uniformInt(int lo, int hi)
{
    H2P_ASSERT(lo <= hi, "uniformInt bounds inverted");
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(engine_);
}

double
Rng::truncNormal(double mu, double sigma, double lo, double hi)
{
    H2P_ASSERT(lo <= hi, "truncNormal bounds inverted");
    for (int i = 0; i < 64; ++i) {
        double x = normal(mu, sigma);
        if (x >= lo && x <= hi)
            return x;
    }
    return std::clamp(mu, lo, hi);
}

int
Rng::poisson(double mean)
{
    H2P_ASSERT(mean >= 0.0, "negative mean");
    if (mean == 0.0)
        return 0;
    std::poisson_distribution<int> dist(mean);
    return dist(engine_);
}

Rng
Rng::fork(uint64_t stream_id) const
{
    // Derive a child seed by mixing the parent's *seed* (not its
    // evolving engine state) with the stream id via the splitmix64
    // finalizer: the i-th fork is stable no matter how many draws the
    // parent has made.
    uint64_t z = seed_ ^ (stream_id + 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z = z ^ (z >> 31);
    return Rng(z);
}

} // namespace h2p
