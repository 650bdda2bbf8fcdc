/**
 * @file
 * The 3-D cooling look-up space (Fig. 12).
 *
 * Sec. V-B fits the discrete measurements of CPU temperature over
 * (utilization, flow rate, inlet temperature) into a continuous space
 * "which can function as a look-up space in practical use". This class
 * builds exactly that: it samples the calibrated server models onto a
 * regular 3-D grid and answers interpolated queries for the CPU
 * temperature and the outlet water temperature.
 */

#ifndef H2P_SCHED_LOOKUP_SPACE_H_
#define H2P_SCHED_LOOKUP_SPACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/server.h"
#include "util/interpolate.h"

namespace h2p {
namespace sched {

/** Grid extents of the look-up space. */
struct LookupSpaceParams
{
    /** Utilization axis: [0, 1]. */
    size_t util_points = 21;
    /**
     * Flow axis range, L/H. The evaluation space tops out at 100 L/H
     * (beyond which extra flow buys almost no CPU cooling, Fig. 11,
     * while pump power grows cubically).
     */
    double flow_min_lph = 10.0;
    double flow_max_lph = 100.0;
    size_t flow_points = 19;
    /** Inlet-temperature axis range, C. */
    double tin_min_c = 20.0;
    double tin_max_c = 55.0;
    size_t tin_points = 36;
};

/** One grid point of the look-up space. */
struct LookupPoint
{
    double util = 0.0;
    double flow_lph = 0.0;
    double t_in_c = 0.0;
    double t_cpu_c = 0.0;
    double t_out_c = 0.0;
};

/**
 * The slice u = const of the look-up space as a blend of the two
 * precomputed table rows that bracket u (see LookupSpace::sliceRows).
 * Grid point (j, k) is flow node j and inlet node k; every value is
 * bit-identical to the trilinear point query at (u, flow(j), tin(k)).
 * A view: valid while the LookupSpace lives.
 */
class SliceRows
{
  public:
    size_t flowCount() const { return nf_; }
    size_t tinCount() const { return nt_; }

    /** Flow coordinate of node @p j, L/H. */
    double flow(size_t j) const { return flows_[j]; }

    /** Inlet-temperature coordinate of node @p k, C. */
    double tin(size_t k) const { return tins_[k]; }

    /** Interpolated CPU temperature at grid point (@p j, @p k), C. */
    double cpuTemp(size_t j, size_t k) const
    {
        const size_t jk = j * nt_ + k;
        return blend(cpu_lo_[jk], cpu_hi_[jk], tx_);
    }

    /** Interpolated outlet temperature at grid point (@p j, @p k), C. */
    double outletTemp(size_t j, size_t k) const
    {
        const size_t jk = j * nt_ + k;
        return blend(out_lo_[jk], out_hi_[jk], tx_);
    }

    /**
     * True when cpuTemp(j, k) is finite and non-decreasing in k. Both
     * bracketing rows being so is enough: the blend's products and sum
     * round monotonically, so the blended column keeps the order.
     */
    bool cpuMonotone(size_t j) const
    {
        return mono_lo_[j] != 0 && mono_hi_[j] != 0;
    }

  private:
    friend class LookupSpace;

    const double *flows_ = nullptr;
    const double *tins_ = nullptr;
    const double *cpu_lo_ = nullptr;
    const double *cpu_hi_ = nullptr;
    const double *out_lo_ = nullptr;
    const double *out_hi_ = nullptr;
    const uint8_t *mono_lo_ = nullptr;
    const uint8_t *mono_hi_ = nullptr;
    size_t nf_ = 0;
    size_t nt_ = 0;
    double tx_ = 0.0;
};

/**
 * Interpolated (u, f, T_in) -> (T_CPU, T_out) space sampled from a
 * server model.
 *
 * Besides the trilinear grids behind the point queries, construction
 * precomputes a slice table: for every utilization node i and every
 * (flow, inlet) grid point, the plane value (z- then y-blend) of both
 * grids, stored row-major [i][flow][inlet]. A slice at any u is then
 * the blend of rows i and i + 1 with u's weight — the exact final step
 * of the trilinear query — so slice queries cost one blend per point
 * instead of a full trilinear interpolation. Each T_cpu column is also
 * checked, once, for being non-decreasing in inlet temperature, which
 * is what lets the optimizer bisect it.
 */
class LookupSpace
{
  public:
    /**
     * Sample @p server onto the grid described by @p params.
     */
    explicit LookupSpace(const cluster::Server &server,
                         const LookupSpaceParams &params = {});

    /** Interpolated CPU temperature, C. */
    double cpuTemp(double util, double flow_lph, double t_in_c) const;

    /** Interpolated outlet water temperature, C. */
    double outletTemp(double util, double flow_lph, double t_in_c) const;

    /** The grid parameters. */
    const LookupSpaceParams &params() const { return params_; }

    /** The slice u = @p util as two table rows and a blend weight. */
    SliceRows sliceRows(double util) const;

    /**
     * Enumerate all grid points on the slice u = @p util (Fig. 13's
     * plane U), with their interpolated temperatures.
     */
    std::vector<LookupPoint> slice(double util) const;

    /**
     * Visit every grid point of the slice u = @p util in the fixed
     * (flow-major, then inlet temperature ascending) order without
     * materializing a vector. @p util is located once; each point is
     * one blend of two table rows per temperature, bit-identical to
     * cpuTemp()/outletTemp() at the point's coordinates. @p fn receives
     * each LookupPoint by const reference, valid only during the call.
     */
    template <typename Fn>
    void forEachInSlice(double util, Fn &&fn) const
    {
        const SliceRows rows = sliceRows(util);
        LookupPoint p;
        p.util = util;
        for (size_t j = 0; j < rows.flowCount(); ++j) {
            p.flow_lph = rows.flow(j);
            for (size_t k = 0; k < rows.tinCount(); ++k) {
                p.t_in_c = rows.tin(k);
                p.t_cpu_c = rows.cpuTemp(j, k);
                p.t_out_c = rows.outletTemp(j, k);
                fn(static_cast<const LookupPoint &>(p));
            }
        }
    }

    /** Total number of grid points. */
    size_t numPoints() const;

  private:
    LookupSpaceParams params_;
    std::unique_ptr<LinearGrid3D> t_cpu_;
    std::unique_ptr<LinearGrid3D> t_out_;
    /** Flow and inlet node coordinates. */
    std::vector<double> flows_;
    std::vector<double> tins_;
    /** Plane values [util node][flow node][inlet node]. */
    std::vector<double> cpu_rows_;
    std::vector<double> out_rows_;
    /** [util node][flow node]: T_cpu row finite and non-decreasing. */
    std::vector<uint8_t> cpu_monotone_;
};

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_LOOKUP_SPACE_H_
