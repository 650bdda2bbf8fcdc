#include "sched/lookup_space.h"

#include <cmath>

#include "util/error.h"

namespace h2p {
namespace sched {

LookupSpace::LookupSpace(const cluster::Server &server,
                         const LookupSpaceParams &params)
    : params_(params)
{
    expect(params.util_points >= 2 && params.flow_points >= 2 &&
               params.tin_points >= 2,
           "each look-up axis needs at least 2 samples");
    expect(params.flow_min_lph > 0.0, "flow axis must be positive");
    expect(params.flow_max_lph > params.flow_min_lph &&
               params.tin_max_c > params.tin_min_c,
           "look-up axis bounds inverted");

    GridAxis au(0.0, 1.0, params.util_points);
    GridAxis af(params.flow_min_lph, params.flow_max_lph,
                params.flow_points);
    GridAxis at(params.tin_min_c, params.tin_max_c, params.tin_points);

    std::vector<double> cpu_vals;
    std::vector<double> out_vals;
    cpu_vals.reserve(au.count() * af.count() * at.count());
    out_vals.reserve(cpu_vals.capacity());

    // The plate coefficients depend on flow alone: derive them once per
    // flow node rather than at every grid point.
    const auto &power = server.powerModel();
    const auto &thermal = server.thermalModel();
    std::vector<thermal::CpuStepCoefficients> plate(af.count());
    for (size_t j = 0; j < af.count(); ++j)
        plate[j] = thermal.stepCoefficients(af.coord(j));
    for (size_t i = 0; i < au.count(); ++i) {
        double p_dyn = power.power(au.coord(i));
        for (size_t j = 0; j < af.count(); ++j) {
            for (size_t k = 0; k < at.count(); ++k) {
                double t_in = at.coord(k);
                cpu_vals.push_back(
                    thermal.dieTemperature(plate[j], p_dyn, t_in));
                out_vals.push_back(
                    thermal.outletTemperature(plate[j], p_dyn, t_in));
            }
        }
    }
    t_cpu_ = std::make_unique<LinearGrid3D>(au, af, at,
                                            std::move(cpu_vals));
    t_out_ = std::make_unique<LinearGrid3D>(au, af, at,
                                            std::move(out_vals));

    // The slice table. Locate every flow and inlet coordinate once, as
    // the point query would; each utilization plane is then two
    // blends per point and temperature.
    const size_t nu = au.count(), nf = af.count(), nt = at.count();
    std::vector<size_t> fj(nf), tk(nt);
    std::vector<double> fw(nf), tw(nt);
    flows_.resize(nf);
    tins_.resize(nt);
    for (size_t j = 0; j < nf; ++j) {
        flows_[j] = af.coord(j);
        af.locate(flows_[j], fj[j], fw[j]);
    }
    for (size_t k = 0; k < nt; ++k) {
        tins_[k] = at.coord(k);
        at.locate(tins_[k], tk[k], tw[k]);
    }
    cpu_rows_.resize(nu * nf * nt);
    out_rows_.resize(nu * nf * nt);
    cpu_monotone_.resize(nu * nf);
    for (size_t i = 0; i < nu; ++i) {
        for (size_t j = 0; j < nf; ++j) {
            double *cpu = &cpu_rows_[(i * nf + j) * nt];
            double *out = &out_rows_[(i * nf + j) * nt];
            bool monotone = true;
            for (size_t k = 0; k < nt; ++k) {
                cpu[k] = t_cpu_->planeValue(i, fj[j], fw[j], tk[k], tw[k]);
                out[k] = t_out_->planeValue(i, fj[j], fw[j], tk[k], tw[k]);
                monotone = monotone && std::isfinite(cpu[k]) &&
                           (k == 0 || cpu[k - 1] <= cpu[k]);
            }
            cpu_monotone_[i * nf + j] = monotone ? 1 : 0;
        }
    }
}

SliceRows
LookupSpace::sliceRows(double util) const
{
    const size_t nf = flows_.size(), nt = tins_.size();
    size_t i = 0;
    SliceRows r;
    t_cpu_->xAxis().locate(util, i, r.tx_);
    r.flows_ = flows_.data();
    r.tins_ = tins_.data();
    r.cpu_lo_ = &cpu_rows_[i * nf * nt];
    r.cpu_hi_ = r.cpu_lo_ + nf * nt;
    r.out_lo_ = &out_rows_[i * nf * nt];
    r.out_hi_ = r.out_lo_ + nf * nt;
    r.mono_lo_ = &cpu_monotone_[i * nf];
    r.mono_hi_ = r.mono_lo_ + nf;
    r.nf_ = nf;
    r.nt_ = nt;
    return r;
}

double
LookupSpace::cpuTemp(double util, double flow_lph, double t_in_c) const
{
    return (*t_cpu_)(util, flow_lph, t_in_c);
}

double
LookupSpace::outletTemp(double util, double flow_lph, double t_in_c) const
{
    return (*t_out_)(util, flow_lph, t_in_c);
}

std::vector<LookupPoint>
LookupSpace::slice(double util) const
{
    std::vector<LookupPoint> points;
    points.reserve(flows_.size() * tins_.size());
    forEachInSlice(util,
                   [&](const LookupPoint &p) { points.push_back(p); });
    return points;
}

size_t
LookupSpace::numPoints() const
{
    return params_.util_points * params_.flow_points * params_.tin_points;
}

} // namespace sched
} // namespace h2p
