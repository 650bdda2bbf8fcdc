#include "sched/cooling_optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/error.h"

namespace h2p {
namespace sched {

namespace {

// Bound on memoized decisions: 2048 utilization buckets per distinct
// T_safe would need several overrides to reach this; past it the cache
// is simply dropped and rebuilt.
constexpr size_t kMaxCacheEntries = 1 << 16;

uint64_t
doubleBits(double x)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(x));
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

/**
 * First index in [lo, hi) where @p holds fails, for a predicate that
 * holds on a prefix of the range and fails on the rest.
 */
template <typename Pred>
size_t
firstFailing(size_t lo, size_t hi, Pred &&holds)
{
    while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (holds(mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

} // namespace

CoolingOptimizer::CoolingOptimizer(const LookupSpace &space,
                                   const thermal::TegModule &teg,
                                   const OptimizerParams &params)
    : space_(space), params_(params)
{
    expect(params.band_c >= 0.0, "band width must be non-negative");
    expect(params.t_safe_c > params.cold_source_c,
           "T_safe must exceed the cold-source temperature");
    expect(params.cache_util_quantum >= 0.0,
           "cache quantum must be non-negative");
    const SliceRows rows = space.sliceRows(0.0);
    teg_flow_.reserve(rows.flowCount());
    for (size_t j = 0; j < rows.flowCount(); ++j)
        teg_flow_.push_back(teg.stepCoefficients(rows.flow(j)));
}

void
CoolingOptimizer::setTSafe(double t_safe_c)
{
    expect(t_safe_c > params_.cold_source_c,
           "T_safe must exceed the cold-source temperature");
    params_.t_safe_c = t_safe_c;
    clearCache();
}

void
CoolingOptimizer::setBand(double band_c)
{
    expect(band_c >= 0.0, "band width must be non-negative");
    params_.band_c = band_c;
    clearCache();
}

void
CoolingOptimizer::setColdSource(double cold_source_c)
{
    expect(params_.t_safe_c > cold_source_c,
           "T_safe must exceed the cold-source temperature");
    params_.cold_source_c = cold_source_c;
    clearCache();
}

std::vector<LookupPoint>
CoolingOptimizer::candidateSet(double plan_util) const
{
    std::vector<LookupPoint> in_band;
    space_.forEachInSlice(plan_util, [&](const LookupPoint &p) {
        if (std::abs(p.t_cpu_c - params_.t_safe_c) <= params_.band_c)
            in_band.push_back(p);
    });
    return in_band;
}

OptimizerResult
CoolingOptimizer::choose(double plan_util) const
{
    return choose(plan_util, params_.t_safe_c);
}

OptimizerResult
CoolingOptimizer::choose(double plan_util, double t_safe_c) const
{
    expect(plan_util >= 0.0 && plan_util <= 1.0,
           "planning utilization must be in [0, 1]");
    expect(t_safe_c > params_.cold_source_c,
           "T_safe must exceed the cold-source temperature");

    const double q = params_.cache_util_quantum;
    if (q <= 0.0)
        return search(plan_util, t_safe_c);

    const int64_t bucket =
        static_cast<int64_t>(std::llround(plan_util / q));
    CacheKey key{bucket, doubleBits(t_safe_c)};
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        ++cache_hits_;
        return it->second;
    }
    ++cache_misses_;
    if (cache_.size() >= kMaxCacheEntries)
        cache_.clear();
    double quantized =
        std::clamp(static_cast<double>(bucket) * q, 0.0, 1.0);
    OptimizerResult res = search(quantized, t_safe_c);
    cache_.emplace(key, res);
    return res;
}

OptimizerResult
CoolingOptimizer::search(double plan_util, double t_safe_c) const
{
    const SliceRows rows = space_.sliceRows(plan_util);
    const size_t nf = rows.flowCount(), nt = rows.tinCount();
    const double band = params_.band_c;

    OptimizerResult best;
    bool found = false;
    auto consider = [&](size_t j, size_t k, double t_cpu) {
        double power = tegPower(j, rows.outletTemp(j, k));
        if (!found || power > best.teg_power_w) {
            found = true;
            best.setting.t_in_c = rows.tin(k);
            best.setting.flow_lph = rows.flow(j);
            best.teg_power_w = power;
            best.t_cpu_c = t_cpu;
        }
    };

    // Step 2+3: maximize TEG power on the A = U ∩ X intersection. In a
    // monotone column the points below the band form a prefix and the
    // band follows it, so bisection brackets [lo, hi) with the very
    // predicate the scan applies.
    auto in_band = [&](double t) { return std::abs(t - t_safe_c) <= band; };
    size_t candidates = 0;
    for (size_t j = 0; j < nf; ++j) {
        size_t lo = 0, hi = nt;
        if (rows.cpuMonotone(j)) {
            lo = firstFailing(0, nt, [&](size_t k) {
                double t = rows.cpuTemp(j, k);
                return !in_band(t) && t < t_safe_c;
            });
            hi = firstFailing(lo, nt, [&](size_t k) {
                return in_band(rows.cpuTemp(j, k));
            });
        }
        for (size_t k = lo; k < hi; ++k) {
            double t = rows.cpuTemp(j, k);
            if (in_band(t)) {
                ++candidates;
                consider(j, k, t);
            }
        }
    }
    best.candidates = candidates;
    if (found)
        return best;

    // Fallback 1: the band is empty; use any *safe* point (at or
    // below T_safe + band) with the highest TEG power. This happens
    // when even the warmest setting leaves the CPU cold (low load) —
    // then the warmest inlet wins — or when the grid skips the band.
    // Safe points are a prefix of each monotone column.
    best.fallback = true;
    const double limit = t_safe_c + band;
    for (size_t j = 0; j < nf; ++j) {
        size_t end = nt;
        if (rows.cpuMonotone(j)) {
            end = firstFailing(0, nt, [&](size_t k) {
                return rows.cpuTemp(j, k) <= limit;
            });
        }
        for (size_t k = 0; k < end; ++k) {
            double t = rows.cpuTemp(j, k);
            if (t <= limit)
                consider(j, k, t);
        }
    }
    if (found)
        return best;

    // Fallback 2: nothing is safe (extreme load); apply maximum
    // cooling: coldest inlet at the highest flow.
    return coldestFallback(plan_util);
}

OptimizerResult
CoolingOptimizer::coldestFallback(double plan_util) const
{
    expect(plan_util >= 0.0 && plan_util <= 1.0,
           "planning utilization must be in [0, 1]");
    const SliceRows rows = space_.sliceRows(plan_util);
    size_t cj = 0, ck = 0;
    double coldest = 0.0;
    bool have = false;
    for (size_t j = 0; j < rows.flowCount(); ++j) {
        // A monotone column is coldest at its first inlet, and later
        // equal temperatures lose the strict comparison anyway.
        const size_t end = rows.cpuMonotone(j) ? 1 : rows.tinCount();
        for (size_t k = 0; k < end; ++k) {
            double t = rows.cpuTemp(j, k);
            if (!have || t < coldest) {
                cj = j;
                ck = k;
                coldest = t;
                have = true;
            }
        }
    }
    H2P_ASSERT(have, "look-up space produced an empty slice");
    OptimizerResult best;
    best.fallback = true;
    best.setting.t_in_c = rows.tin(ck);
    best.setting.flow_lph = rows.flow(cj);
    best.teg_power_w = tegPower(cj, rows.outletTemp(cj, ck));
    best.t_cpu_c = coldest;
    return best;
}

} // namespace sched
} // namespace h2p
