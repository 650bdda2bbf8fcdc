#include "util/interpolate.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace h2p {

GridAxis::GridAxis(double lo, double hi, size_t count)
    : lo_(lo), hi_(hi), count_(count),
      step_((hi - lo) / static_cast<double>(count - 1))
{
    expect(count >= 2, "grid axis needs at least 2 samples");
    expect(hi > lo, "grid axis upper bound must exceed lower bound");
}

double
GridAxis::coord(size_t i) const
{
    H2P_ASSERT(i < count_, "axis index out of range");
    return lo_ + step_ * static_cast<double>(i);
}

void
GridAxis::locate(double x, size_t &idx, double &frac) const
{
    double t = (x - lo_) / step_;
    if (t <= 0.0) {
        idx = 0;
        frac = 0.0;
        return;
    }
    if (t >= static_cast<double>(count_ - 1)) {
        idx = count_ - 2;
        frac = 1.0;
        return;
    }
    idx = static_cast<size_t>(t);
    frac = t - static_cast<double>(idx);
}

LinearGrid1D::LinearGrid1D(GridAxis axis, std::vector<double> values)
    : axis_(axis), values_(std::move(values))
{
    expect(values_.size() == axis_.count(),
           "1-D grid expects ", axis_.count(), " values, got ",
           values_.size());
}

double
LinearGrid1D::operator()(double x) const
{
    size_t i;
    double t;
    axis_.locate(x, i, t);
    return blend(values_[i], values_[i + 1], t);
}

LinearGrid2D::LinearGrid2D(GridAxis x, GridAxis y,
                           std::vector<double> values)
    : x_(x), y_(y), values_(std::move(values))
{
    expect(values_.size() == x_.count() * y_.count(),
           "2-D grid expects ", x_.count() * y_.count(), " values, got ",
           values_.size());
}

double
LinearGrid2D::at(size_t i, size_t j) const
{
    return values_[i * y_.count() + j];
}

double
LinearGrid2D::operator()(double x, double y) const
{
    size_t i, j;
    double tx, ty;
    x_.locate(x, i, tx);
    y_.locate(y, j, ty);
    double v00 = at(i, j), v01 = at(i, j + 1);
    double v10 = at(i + 1, j), v11 = at(i + 1, j + 1);
    return blend(blend(v00, v01, ty), blend(v10, v11, ty), tx);
}

LinearGrid3D::LinearGrid3D(GridAxis x, GridAxis y, GridAxis z,
                           std::vector<double> values)
    : x_(x), y_(y), z_(z), values_(std::move(values))
{
    expect(values_.size() == x_.count() * y_.count() * z_.count(),
           "3-D grid expects ", x_.count() * y_.count() * z_.count(),
           " values, got ", values_.size());
}

double
LinearGrid3D::operator()(double x, double y, double z) const
{
    size_t i, j, k;
    double tx, ty, tz;
    x_.locate(x, i, tx);
    y_.locate(y, j, ty);
    z_.locate(z, k, tz);
    return blend(planeValue(i, j, ty, k, tz),
                 planeValue(i + 1, j, ty, k, tz), tx);
}

} // namespace h2p
