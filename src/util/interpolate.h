/**
 * @file
 * Interpolation over regular grids.
 *
 * Sec. V-B of the paper fits its discrete (utilization, flow rate, inlet
 * temperature) -> CPU-temperature measurements into a continuous
 * "look-up space". These classes provide the 1-D/2-D/3-D regular-grid
 * interpolators that back that space.
 */

#ifndef H2P_UTIL_INTERPOLATE_H_
#define H2P_UTIL_INTERPOLATE_H_

#include <cstddef>
#include <vector>

namespace h2p {

/**
 * Linear blend `a * (1 - t) + b * t`: the one interpolation step every
 * grid below is built from. Tables that precompute partial blends must
 * finish with this exact expression to stay bit-identical to the
 * point queries.
 */
inline double
blend(double a, double b, double t)
{
    return a * (1 - t) + b * t;
}

/**
 * One axis of a regular grid: `count` samples evenly spaced on
 * [lo, hi]. Provides clamped fractional indexing for interpolation.
 */
class GridAxis
{
  public:
    /**
     * @param lo Lowest coordinate.
     * @param hi Highest coordinate (must exceed @p lo).
     * @param count Number of samples (>= 2).
     */
    GridAxis(double lo, double hi, size_t count);

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    size_t count() const { return count_; }

    /** Coordinate of sample @p i. */
    double coord(size_t i) const;

    /**
     * Clamped fractional position of @p x: returns the base index and
     * the interpolation weight in [0, 1] toward the next sample.
     */
    void locate(double x, size_t &idx, double &frac) const;

  private:
    double lo_;
    double hi_;
    size_t count_;
    double step_;
};

/** Piecewise-linear function on a regular 1-D grid. */
class LinearGrid1D
{
  public:
    LinearGrid1D(GridAxis axis, std::vector<double> values);

    /** Clamped linear interpolation at @p x. */
    double operator()(double x) const;

    const GridAxis &axis() const { return axis_; }

  private:
    GridAxis axis_;
    std::vector<double> values_;
};

/** Bilinear interpolation on a regular 2-D grid (row-major values). */
class LinearGrid2D
{
  public:
    LinearGrid2D(GridAxis x, GridAxis y, std::vector<double> values);

    /** Clamped bilinear interpolation at (@p x, @p y). */
    double operator()(double x, double y) const;

  private:
    double at(size_t i, size_t j) const;

    GridAxis x_;
    GridAxis y_;
    std::vector<double> values_;
};

/**
 * Trilinear interpolation on a regular 3-D grid. Values are stored with
 * x as the slowest axis and z as the fastest: index = (i*ny + j)*nz + k.
 */
class LinearGrid3D
{
  public:
    LinearGrid3D(GridAxis x, GridAxis y, GridAxis z,
                 std::vector<double> values);

    /**
     * Clamped trilinear interpolation at (@p x, @p y, @p z): exactly
     * `blend(planeValue(i, ...), planeValue(i + 1, ...), tx)` with
     * (i, tx), (j, ty), (k, tz) located on the three axes.
     */
    double operator()(double x, double y, double z) const;

    /**
     * Bilinear value on x-plane @p i at a located (y, z) position —
     * the z-blend then the y-blend of operator(). (@p j, @p ty) and
     * (@p k, @p tz) come from yAxis().locate() and zAxis().locate(),
     * so a caller can locate once and sweep every plane.
     */
    double planeValue(size_t i, size_t j, double ty, size_t k,
                      double tz) const
    {
        double c0 = blend(at(i, j, k), at(i, j, k + 1), tz);
        double c1 = blend(at(i, j + 1, k), at(i, j + 1, k + 1), tz);
        return blend(c0, c1, ty);
    }

    const GridAxis &xAxis() const { return x_; }
    const GridAxis &yAxis() const { return y_; }
    const GridAxis &zAxis() const { return z_; }

  private:
    double at(size_t i, size_t j, size_t k) const
    {
        return values_[(i * y_.count() + j) * z_.count() + k];
    }

    GridAxis x_;
    GridAxis y_;
    GridAxis z_;
    std::vector<double> values_;
};

} // namespace h2p

#endif // H2P_UTIL_INTERPOLATE_H_
