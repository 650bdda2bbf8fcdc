/**
 * @file
 * Cooling-setting optimizer (Sec. V-B, Steps 1-3 and Fig. 13).
 *
 * Every scheduling interval the controller picks {flow rate, inlet
 * temperature} for a circulation:
 *
 *  Step 1: take the planning utilization (U_max of the circulation,
 *          or U_avg under workload balancing) — the plane U.
 *  Step 2: collect look-up points whose CPU temperature falls inside
 *          [T_safe - band, T_safe + band] — the space X.
 *  Step 3: on the intersection A = U ∩ X, evaluate the TEG module
 *          power under every candidate setting and keep the maximum.
 *
 * When the band is empty (workload too hot or too cold for any
 * setting to land exactly at T_safe), the optimizer falls back to the
 * safe candidate with the highest TEG power, and finally to the
 * coldest setting available.
 *
 * The search reads the look-up space's slice table: at the planning
 * utilization the (flow, inlet) grid is the blend of two precomputed
 * rows (LookupSpace::sliceRows), bit-identical to trilinear point
 * queries. Where the space verified a flow column's T_cpu to be
 * non-decreasing in inlet temperature, fl(T_cpu - T_safe) is too, so
 * the band |T_cpu - T_safe| <= band is one contiguous run of inlets:
 * two bisections with that same predicate bracket it. Only bracketed
 * points get their outlet temperature blended and their TEG power
 * evaluated, from per-flow TEG coefficients hoisted at construction.
 * A column that fails the check is scanned point by point. Points are
 * visited in the full scan's order — flow-major, then inlet ascending
 * — and replace the incumbent only on strictly higher power, so the
 * chosen setting on ties, |A| and the fallback flag are exactly those
 * of scanning every point. Fallback 1 visits the safe prefix
 * (T_cpu <= T_safe + band) of each monotone column; Fallback 2 reads
 * only the first, coldest, inlet of each monotone column.
 *
 * An exact decision costs about 0.5 us (BM_OptimizerChoose, Release,
 * shared 4-vCPU x86-64 host; the former full-slice trilinear scan took
 * ~30 us there), so repeated calls need no memo. The optional decision cache remains for now
 * because the benchmark harness still reports its hit/miss counters:
 * planning utilizations are quantized to cache_util_quantum and the
 * chosen setting per (quantized util, T_safe) pair is memoized. It is
 * an approximation knob, not pure memoization — with it enabled the
 * optimizer plans at the quantized utilization — so it defaults off
 * and the system enables it through [perf] optimizer_cache_quantum.
 */

#ifndef H2P_SCHED_COOLING_OPTIMIZER_H_
#define H2P_SCHED_COOLING_OPTIMIZER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/circulation.h"
#include "sched/lookup_space.h"
#include "thermal/teg.h"

namespace h2p {
namespace sched {

/** Optimizer configuration. */
struct OptimizerParams
{
    /**
     * CPU safe operating temperature, C. The paper pre-defines it as
     * ~80 % of the vendor maximum (78.9 C -> 63); Fig. 13's worked
     * example uses 62.
     */
    double t_safe_c = 63.0;
    /** Half-width of the acceptance band around T_safe, C. */
    double band_c = 1.0;
    /** Natural-water cold-loop temperature for the TEGs, C. */
    double cold_source_c = 20.0;
    /**
     * Planning-utilization quantum of the decision cache; 0 disables
     * caching (every choose() searches the grid at the exact
     * utilization). With a quantum q, choose() plans at the nearest
     * multiple of q and memoizes the decision per (quantized util,
     * T_safe). 1e-3 shifts the planned die temperature by well under
     * the acceptance band and makes repeated scheduler calls O(1).
     */
    double cache_util_quantum = 0.0;
};

/** The chosen setting plus diagnostic detail. */
struct OptimizerResult
{
    cluster::CoolingSetting setting;
    /** Predicted TEG module power at the chosen setting, W. */
    double teg_power_w = 0.0;
    /** Predicted CPU temperature at the planning utilization, C. */
    double t_cpu_c = 0.0;
    /** Number of candidate points in the band (|A|). */
    size_t candidates = 0;
    /** True when the fallback path was taken (empty band). */
    bool fallback = false;
};

/**
 * Grid-search cooling controller over a LookupSpace.
 *
 * Not thread-safe when the decision cache is enabled: choose() then
 * mutates the cache. The simulator calls it from the (serial)
 * scheduler only; parallelism lives below, in Datacenter::evaluate.
 */
class CoolingOptimizer
{
  public:
    /**
     * @param space Look-up space of the server model (not owned; must
     *        outlive the optimizer).
     * @param teg TEG module at each server outlet (read at
     *        construction only).
     */
    CoolingOptimizer(const LookupSpace &space,
                     const thermal::TegModule &teg,
                     const OptimizerParams &params = {});

    /**
     * Choose the cooling setting for a circulation whose planning
     * utilization is @p plan_util (Steps 1-3).
     */
    OptimizerResult choose(double plan_util) const;

    /**
     * Same, planning against an overridden safe temperature instead
     * of params().t_safe_c. Degraded-mode control widens its margin
     * by planning at T_safe - margin (sched/safe_mode.h).
     */
    OptimizerResult choose(double plan_util, double t_safe_c) const;

    /**
     * The maximum-cooling fallback: of the slice at @p plan_util, the
     * candidate with the lowest predicted CPU temperature — which on
     * the monotone lookup grid is the coldest inlet (tin_min) at the
     * highest flow (flow_max). This is the setting Fallback 2 of
     * choose() applies when nothing is safe, and the setting
     * degraded-mode control applies when it stops trusting its
     * sensors. The result always has fallback == true.
     */
    OptimizerResult coldestFallback(double plan_util) const;

    /**
     * The candidate set A for @p plan_util (exposed for the Fig. 13
     * bench): look-up points within the T_safe band.
     */
    std::vector<LookupPoint> candidateSet(double plan_util) const;

    /** Decisions served from the cache so far. */
    size_t cacheHits() const { return cache_hits_; }

    /** Decisions that had to run the full grid search (cache on). */
    size_t cacheMisses() const { return cache_misses_; }

    /** Entries currently memoized. */
    size_t cacheSize() const { return cache_.size(); }

    /** Drop every memoized decision (the next calls search again). */
    void clearCache() const { cache_.clear(); }

    const OptimizerParams &params() const { return params_; }

    // Runtime re-tuning. band_c and cold_source_c are key-relevant
    // state that is *not* part of the cache key (the key is only the
    // quantized utilization and T_safe), so changing any of them
    // through these setters drops every memoized decision; mutating
    // them behind the optimizer's back would serve stale settings.

    /** Change the safe operating temperature; clears the cache. */
    void setTSafe(double t_safe_c);

    /** Change the acceptance band half-width; clears the cache. */
    void setBand(double band_c);

    /** Change the cold-source temperature; clears the cache. */
    void setColdSource(double cold_source_c);

  private:
    /** Cache key: quantized-utilization bucket x exact T_safe bits. */
    struct CacheKey
    {
        int64_t util_bucket;
        uint64_t t_safe_bits;
        bool operator==(const CacheKey &o) const
        {
            return util_bucket == o.util_bucket &&
                   t_safe_bits == o.t_safe_bits;
        }
    };
    struct CacheKeyHash
    {
        size_t operator()(const CacheKey &k) const
        {
            uint64_t h = static_cast<uint64_t>(k.util_bucket) *
                         0x9e3779b97f4a7c15ull;
            h ^= k.t_safe_bits + 0x9e3779b97f4a7c15ull + (h << 6) +
                 (h >> 2);
            return static_cast<size_t>(h);
        }
    };

    /** The uncached three-tier grid search. */
    OptimizerResult search(double plan_util, double t_safe_c) const;

    /** TEG power at flow node @p j with outlet temperature @p t_out. */
    double tegPower(size_t j, double t_out_c) const
    {
        return teg_flow_[j].powerFromTemps(t_out_c,
                                           params_.cold_source_c);
    }

    const LookupSpace &space_;
    OptimizerParams params_;
    /** TEG coefficients per flow node of the look-up space. */
    std::vector<thermal::TegStepCoefficients> teg_flow_;

    mutable std::unordered_map<CacheKey, OptimizerResult, CacheKeyHash>
        cache_;
    mutable size_t cache_hits_ = 0;
    mutable size_t cache_misses_ = 0;
};

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_COOLING_OPTIMIZER_H_
