// Scenario loading: build experiment configurations from INI text so
// experiment definitions are versioned data, not recompiled constants.

#ifndef SRC_CORE_SCENARIO_H_
#define SRC_CORE_SCENARIO_H_

#include <optional>
#include <string>

#include "src/core/experiment.h"
#include "src/core/theseus.h"
#include "src/sim/config.h"

namespace centsim {

// Both loaders keep the struct default for a missing key, and fail like
// Config::Parse (nullopt, and `error` naming the line) on an unknown key in
// a section they read or a value that does not parse as its key's type.

// Reads [experiment], [devices], [gateways], [maintenance], [wallet].
// Recognized keys (all in the example scenario file):
//   experiment.seed, experiment.horizon_years, experiment.area_side_m
//   devices.count_802154, devices.count_lora, devices.report_interval_hours
//   devices.replace_failed, devices.replacement_delay_days
//   gateways.owned, gateways.helium_hotspots
//   gateways.hotspot_replacement_prob, gateways.hotspot_replacement_days
//   maintenance.enabled, maintenance.annual_budget_hours
//   maintenance.mean_response_days, maintenance.mean_repair_hours
//   wallet.usd_per_device
std::optional<FiftyYearConfig> FiftyYearConfigFrom(const Config& config,
                                                   std::string* error = nullptr);

// Reads [century]: seed, fleet_size, horizon_years, zone_count,
// cycle_period_years, device_class (battery|harvesting),
// proactive_refresh_age_years, life_improvement_per_decade.
std::optional<CenturyConfig> CenturyConfigFrom(const Config& config,
                                               std::string* error = nullptr);

}  // namespace centsim

#endif  // SRC_CORE_SCENARIO_H_
