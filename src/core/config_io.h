/**
 * @file
 * Binding between INI configuration files and H2PConfig.
 *
 * Every INI key is one row of a field table: H2P_CONFIG_FIELDS for
 * H2PConfig, H2P_TRACE_FIELDS for the [trace] section. A row names
 * the section, the key, the member it binds and a one-line doc, and
 * drives everything the key takes part in: the parse in
 * configFromIni()/traceRequestFromIni(), the unknown-key warning, the
 * key reference (configKeyReference(), printed by
 * `experiment_runner --help`) and the per-field digests that
 * checkpoints and sweep journals compare on resume (configDigests()).
 * Defaults stay in the parameter structs; a key absent from the INI
 * leaves its member untouched.
 *
 * Unknown sections or keys produce a warning through the global
 * logger (they used to be silently ignored, hiding typos).
 */

#ifndef H2P_CORE_CONFIG_IO_H_
#define H2P_CORE_CONFIG_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/h2p_system.h"
#include "sim/config.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace core {

/**
 * The H2PConfig field table. R(section, key, member, doc) is a
 * result-relevant field; N(...) is result_neutral: it never changes a
 * simulated value (threading degree, observability), so resume checks
 * do not compare it.
 */
#define H2P_CONFIG_FIELDS(R, N)                                             \
    R(datacenter, num_servers, datacenter.num_servers,                      \
      "total number of servers")                                            \
    R(datacenter, servers_per_circulation,                                  \
      datacenter.servers_per_circulation, "servers per water circulation") \
    R(datacenter, cold_source_c, datacenter.cold_source_c,                  \
      "natural-water cold-loop temperature for the TEGs, C")                \
    R(server, tegs_per_server, datacenter.server.tegs_per_server,           \
      "TEGs in series at each server's outlet")                             \
    R(teg, voc_slope, datacenter.server.teg.voc_slope,                      \
      "open-circuit voltage slope per device, V/K")                         \
    R(teg, voc_offset, datacenter.server.teg.voc_offset,                    \
      "open-circuit voltage offset per device, V")                          \
    R(teg, resistance_ohm, datacenter.server.teg.resistance_ohm,            \
      "internal electrical resistance, ohm")                                \
    R(teg, thermal_resistance_kpw,                                          \
      datacenter.server.teg.thermal_resistance_kpw,                         \
      "junction-to-junction thermal resistance, K/W")                       \
    R(thermal, gamma_slope, datacenter.server.thermal.gamma_slope,          \
      "die-temperature slope sensitivity to cold-plate resistance")         \
    R(thermal, leak_gamma, datacenter.server.thermal.leak_gamma,            \
      "leakage conductance into the coolant, W/K")                          \
    R(thermal, parasitic_w, datacenter.server.thermal.parasitic_w,          \
      "parasitic board heat picked up by the loop, W")                      \
    R(thermal, max_operating_c, datacenter.server.thermal.max_operating_c,  \
      "vendor maximum die temperature, C")                                  \
    R(optimizer, t_safe_c, optimizer.t_safe_c,                              \
      "CPU safe operating temperature, C")                                  \
    R(optimizer, band_c, optimizer.band_c,                                  \
      "half-width of the acceptance band around t_safe_c, C")               \
    R(lookup, flow_min_lph, lookup.flow_min_lph,                            \
      "lowest flow of the lookup space, L/H")                               \
    R(lookup, flow_max_lph, lookup.flow_max_lph,                            \
      "highest flow of the lookup space, L/H")                              \
    R(lookup, flow_points, lookup.flow_points, "flow-axis grid points")     \
    R(lookup, tin_min_c, lookup.tin_min_c,                                  \
      "lowest inlet temperature of the lookup space, C")                    \
    R(lookup, tin_max_c, lookup.tin_max_c,                                  \
      "highest inlet temperature of the lookup space, C")                   \
    R(lookup, tin_points, lookup.tin_points,                                \
      "inlet-temperature-axis grid points")                                 \
    R(lookup, util_points, lookup.util_points,                              \
      "utilization-axis grid points")                                       \
    R(plant, wet_bulb_c, datacenter.plant.wet_bulb_c,                       \
      "ambient wet-bulb temperature, C")                                    \
    R(plant, cop, datacenter.plant.chiller.cop,                             \
      "chiller coefficient of performance")                                 \
    R(plant, tower_approach_c, datacenter.plant.tower.approach_c,           \
      "cooling-tower approach to the wet bulb, C")                          \
    R(plant, cdu_approach_c, datacenter.plant.cdu_approach_c,               \
      "CDU exchanger approach, C")                                          \
    R(fault, seed, faults.seed, "fault timeline seed")                      \
    R(fault, pump_degrade_per_circ_year, faults.pump_degrade_per_circ_year, \
      "pump degradations per circulation-year")                             \
    R(fault, pump_fail_per_circ_year, faults.pump_fail_per_circ_year,       \
      "pump failures per circulation-year")                                 \
    R(fault, teg_open_per_server_year, faults.teg_open_per_server_year,     \
      "TEG open circuits per server-year")                                  \
    R(fault, teg_short_per_server_year, faults.teg_short_per_server_year,   \
      "TEG shorts per server-year")                                         \
    R(fault, chiller_outages_per_year, faults.chiller_outages_per_year,     \
      "chiller outages per year")                                           \
    R(fault, tower_outages_per_year, faults.tower_outages_per_year,         \
      "cooling-tower outages per year")                                     \
    R(fault, die_sensor_faults_per_circ_year,                               \
      faults.die_sensor_faults_per_circ_year,                               \
      "die-sensor faults per circulation-year")                             \
    R(fault, flow_sensor_faults_per_circ_year,                              \
      faults.flow_sensor_faults_per_circ_year,                              \
      "flow-sensor faults per circulation-year")                            \
    R(fault, fouling_kpw_per_year, faults.fouling_kpw_per_year,             \
      "cold-plate fouling growth on every server, K/W per year")            \
    R(fault, outage_duration_hours, faults.outage_duration_hours,           \
      "mean plant-outage length, hours")                                    \
    R(fault, sensor_fault_duration_hours,                                   \
      faults.sensor_fault_duration_hours, "mean sensor-fault length, hours") \
    R(fault, sensor_drift_c_per_hour, faults.sensor_drift_c_per_hour,       \
      "scale of sampled die-sensor drift rates, C/h")                       \
    R(fault, pump_degraded_flow_factor, faults.pump_degraded_flow_factor,   \
      "mean delivered-flow fraction of a degraded pump")                    \
    R(safe_mode, enabled, safe_mode.enabled,                                \
      "degraded-mode control on (0|1)")                                     \
    R(safe_mode, margin_c, safe_mode.margin_c,                              \
      "extra t_safe_c margin when a reading is suspect, C")                 \
    R(safe_mode, min_plausible_c, safe_mode.min_plausible_c,                \
      "lowest plausible die reading, C")                                    \
    R(safe_mode, max_plausible_c, safe_mode.max_plausible_c,                \
      "highest plausible die reading, C")                                   \
    R(safe_mode, max_rate_c_per_s, safe_mode.max_rate_c_per_s,              \
      "fastest plausible die-temperature change, C/s")                      \
    R(safe_mode, flow_tolerance, safe_mode.flow_tolerance,                  \
      "relative delivered-vs-commanded flow mismatch tolerated")            \
    R(safe_mode, hold_steps, safe_mode.hold_steps,                          \
      "intervals a trigger holds after its condition clears")               \
    R(safe_mode, watchdog_enabled, safe_mode.watchdog_enabled,              \
      "per-server thermal-trip watchdog on (0|1)")                          \
    R(safe_mode, throttle_factor, safe_mode.throttle_factor,                \
      "utilization-cap factor on a thermal trip")                           \
    R(safe_mode, recovery_margin_c, safe_mode.recovery_margin_c,            \
      "margin below the trip point before the cap releases, C")             \
    R(safe_mode, release_step, safe_mode.release_step,                      \
      "cap released per safe interval")                                     \
    R(balancer, enabled, balancer.enabled,                                  \
      "autonomous thermal balancer on (0|1)")                               \
    R(balancer, max_move, balancer.max_move,                                \
      "per-server migration cap per interval")                              \
    R(balancer, hysteresis, balancer.hysteresis,                            \
      "convergence band on the circulation utilization deviation")          \
    R(balancer, drain_rate, balancer.drain_rate,                            \
      "utilization evacuated per draining server per interval")             \
    R(balancer, max_pulls, balancer.max_pulls,                              \
      "cross-circulation pull rounds per interval")                         \
    R(balancer, drain_on_fallback, balancer.drain_on_fallback,              \
      "drain when safe mode falls back to cold water (0|1)")                \
    R(balancer, headroom_floor_c, balancer.headroom_floor_c,                \
      "headroom at or below which a circulation takes no work, C")          \
    R(balancer, max_stale_steps, balancer.max_stale_steps,                  \
      "intervals out of band before the run fails (0 disables)")            \
    N(perf, threads, perf.threads,                                          \
      "worker threads (1 = serial, 0 = all hardware threads)")              \
    N(perf, min_servers_per_thread, perf.min_servers_per_thread,            \
      "oversubscription guard (0 disables it)")                             \
    R(perf, optimizer_cache_quantum, perf.optimizer_cache_quantum,          \
      "decision-cache utilization quantum (0 disables the cache)")          \
    N(obs, enabled, obs.enabled, "run telemetry on (0|1)")                  \
    N(obs, jsonl_path, obs.jsonl_path, "telemetry JSONL export path")       \
    N(obs, csv_path, obs.csv_path, "metrics CSV export path")               \
    N(obs, print_summary, obs.print_summary,                                \
      "print a metrics summary at run end (0|1)")                           \
    N(obs, max_events, obs.max_events, "retained-event bound")

/** Trace request described by the [trace] section. */
struct TraceRequest
{
    workload::TraceProfile profile = workload::TraceProfile::Drastic;
    uint64_t seed = 2020;
    /** 0 means the profile's paper-scale default. */
    size_t servers = 0;
};

/** The TraceRequest field table, rows as in H2P_CONFIG_FIELDS. */
#define H2P_TRACE_FIELDS(R)                                                 \
    R(trace, profile, profile, "trace class: drastic, irregular or common") \
    R(trace, seed, seed, "trace generator seed")                            \
    R(trace, servers, servers,                                              \
      "servers in the trace (0 = the profile's paper-scale default)")

/** One row of a field table, as a visitor sees it. */
struct ConfigField
{
    const char *section;
    const char *key;
    const char *doc;
    /** True for N rows: never compared on resume. */
    bool result_neutral;
};

#define H2P_FIELD_VISIT(neutral, section, key, member, doc)                 \
    visit(ConfigField{#section, #key, doc, neutral}, obj.member);
#define H2P_FIELD_RESULT(...) H2P_FIELD_VISIT(false, __VA_ARGS__)
#define H2P_FIELD_NEUTRAL(...) H2P_FIELD_VISIT(true, __VA_ARGS__)

/**
 * Call visit(ConfigField, member&) for every H2P_CONFIG_FIELDS row in
 * table order; @p obj may be const.
 */
template <typename Config, typename Visit>
void
forEachConfigField(Config &obj, Visit &&visit)
{
    H2P_CONFIG_FIELDS(H2P_FIELD_RESULT, H2P_FIELD_NEUTRAL)
}

/** forEachConfigField() over the H2P_TRACE_FIELDS rows. */
template <typename Request, typename Visit>
void
forEachTraceField(Request &obj, Visit &&visit)
{
    H2P_TRACE_FIELDS(H2P_FIELD_RESULT)
}

#undef H2P_FIELD_NEUTRAL
#undef H2P_FIELD_RESULT
#undef H2P_FIELD_VISIT

/**
 * Build an H2PConfig from a parsed configuration. Throws h2p::Error
 * naming the key for a malformed value, including a negative count.
 */
H2PConfig configFromIni(const sim::Config &ini);

/** Read the [trace] section (defaults when absent). */
TraceRequest traceRequestFromIni(const sim::Config &ini);

/** Generate the trace a request describes. */
workload::UtilizationTrace makeTrace(const TraceRequest &request);

/** One line per INI key: "[section] key  doc". */
std::string configKeyReference();

/** Digest of one result-relevant configuration field. */
struct FieldDigest
{
    /** "[section] key", or the member path of a code-only field. */
    std::string name;
    uint64_t digest = 0;
};

/**
 * Per-field digests of every result-relevant field of @p cfg: each
 * non-neutral table row in table order, then the code-only
 * `faults.scripted` event list.
 */
std::vector<FieldDigest> configDigests(const H2PConfig &cfg);

/**
 * Names of the fields whose digests differ between @p saved and
 * @p current, or that only one side has, joined with ", " ("" when
 * they all match).
 */
std::string differingFields(const std::vector<FieldDigest> &saved,
                            const std::vector<FieldDigest> &current);

} // namespace core
} // namespace h2p

#endif // H2P_CORE_CONFIG_IO_H_
