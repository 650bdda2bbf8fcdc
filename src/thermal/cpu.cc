#include "thermal/cpu.h"

#include <algorithm>

#include "util/error.h"
#include "util/units.h"

namespace h2p {
namespace thermal {

CpuThermalModel::CpuThermalModel(const CpuThermalParams &params)
    : params_(params), plate_(params.plate)
{
    expect(params.gamma_slope >= 0.0, "gamma_slope must be non-negative");
    expect(params.leak_gamma >= 0.0, "leak_gamma must be non-negative");
    expect(params.parasitic_w >= 0.0, "parasitic_w must be non-negative");
}

double
CpuThermalModel::plateResistance(double flow_lph,
                                 double fouling_kpw) const
{
    expect(fouling_kpw >= 0.0, "fouling resistance must be non-negative");
    return plate_.resistance(flow_lph) + fouling_kpw;
}

double
CpuThermalModel::coolantSlope(double flow_lph, double fouling_kpw) const
{
    return 1.0 +
           params_.gamma_slope * plateResistance(flow_lph, fouling_kpw);
}

CpuStepCoefficients
CpuThermalModel::stepCoefficients(double flow_lph) const
{
    CpuStepCoefficients c;
    c.plate_r_kpw = plateResistance(flow_lph);
    c.slope_k = coolantSlope(flow_lph);
    c.cap_rate_w_per_k = units::streamCapacitanceRate(flow_lph);
    return c;
}

double
CpuThermalModel::dieTemperature(double p_dyn_w, double flow_lph,
                                double t_in_c, double fouling_kpw) const
{
    expect(p_dyn_w >= 0.0, "dynamic power must be non-negative");
    double k = coolantSlope(flow_lph, fouling_kpw);
    double r = plateResistance(flow_lph, fouling_kpw);
    return k * t_in_c + p_dyn_w * r;
}

double
CpuThermalModel::dieTemperature(const CpuStepCoefficients &c,
                                double p_dyn_w, double t_in_c) const
{
    expect(p_dyn_w >= 0.0, "dynamic power must be non-negative");
    return c.slope_k * t_in_c + p_dyn_w * c.plate_r_kpw;
}

double
CpuThermalModel::heatFromDie(double p_dyn_w, double t_die) const
{
    double leak =
        std::max(0.0, params_.leak_gamma * (t_die - params_.leak_ref_c));
    return p_dyn_w + leak + params_.parasitic_w;
}

double
CpuThermalModel::heatToCoolant(double p_dyn_w, double flow_lph,
                               double t_in_c, double fouling_kpw) const
{
    return heatFromDie(p_dyn_w, dieTemperature(p_dyn_w, flow_lph, t_in_c,
                                               fouling_kpw));
}

double
CpuThermalModel::outletDelta(double p_dyn_w, double flow_lph,
                             double t_in_c, double fouling_kpw) const
{
    double cap_rate = units::streamCapacitanceRate(flow_lph);
    return heatToCoolant(p_dyn_w, flow_lph, t_in_c, fouling_kpw) /
           cap_rate;
}

double
CpuThermalModel::outletTemperature(double p_dyn_w, double flow_lph,
                                   double t_in_c,
                                   double fouling_kpw) const
{
    return t_in_c + outletDelta(p_dyn_w, flow_lph, t_in_c, fouling_kpw);
}

double
CpuThermalModel::outletTemperature(const CpuStepCoefficients &c,
                                   double p_dyn_w, double t_in_c) const
{
    double t_die = dieTemperature(c, p_dyn_w, t_in_c);
    return t_in_c + heatFromDie(p_dyn_w, t_die) / c.cap_rate_w_per_k;
}

bool
CpuThermalModel::isSafe(double p_dyn_w, double flow_lph,
                        double t_in_c) const
{
    return dieTemperature(p_dyn_w, flow_lph, t_in_c) <=
           params_.max_operating_c;
}

double
CpuThermalModel::maxSafeInlet(double p_dyn_w, double flow_lph,
                              double t_limit_c) const
{
    double k = coolantSlope(flow_lph);
    double r = plateResistance(flow_lph);
    return (t_limit_c - p_dyn_w * r) / k;
}

} // namespace thermal
} // namespace h2p
