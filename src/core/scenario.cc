#include "src/core/scenario.h"

#include <cstdint>
#include <limits>
#include <set>

namespace centsim {
namespace {

// Reads keys of the listed sections and keeps the first error; Finish()
// also refuses every key of those sections that was never read.
class KeyReader {
 public:
  KeyReader(const Config& config, std::set<std::string> sections)
      : config_(config), sections_(std::move(sections)) {}

  // A seed or a count: an integer in [0, max of T].
  template <typename T>
  T Count(const std::string& key, T fallback) {
    std::string error;
    const std::optional<int64_t> v = Keep(key, config_.GetInt(key, fallback, &error), error);
    if (!v.has_value()) {
      return fallback;
    }
    const uint64_t max = std::numeric_limits<T>::max();
    if (*v < 0 || static_cast<uint64_t>(*v) > max) {
      Fail(key, std::to_string(*v) + " is outside [0, " + std::to_string(max) + "]");
      return fallback;
    }
    return static_cast<T>(*v);
  }

  double Double(const std::string& key, double fallback) {
    std::string error;
    return Keep(key, config_.GetDouble(key, fallback, &error), error).value_or(fallback);
  }

  bool Bool(const std::string& key, bool fallback) {
    std::string error;
    return Keep(key, config_.GetBool(key, fallback, &error), error).value_or(fallback);
  }

  std::string String(const std::string& key, const std::string& fallback) {
    read_.insert(key);
    return config_.GetString(key, fallback);
  }

  void Fail(const std::string& key, const std::string& what) {
    if (error_.empty()) {
      error_ = "line " + std::to_string(config_.LineOf(key)) + ": " + key + " = " + what;
    }
  }

  // The loaded config, or nullopt with the first error.
  template <typename T>
  std::optional<T> Finish(const T& loaded, std::string* error) {
    for (const std::string& key : config_.Keys()) {
      if (error_.empty() && sections_.count(key.substr(0, key.find('.'))) > 0 &&
          read_.count(key) == 0) {
        error_ = "line " + std::to_string(config_.LineOf(key)) + ": unknown key " + key;
      }
    }
    if (error_.empty()) {
      return loaded;
    }
    if (error != nullptr) {
      *error = error_;
    }
    return std::nullopt;
  }

 private:
  // Marks `key` read and keeps a failed read's error, unless an earlier
  // error is already kept.
  template <typename T>
  std::optional<T> Keep(const std::string& key, std::optional<T> value,
                        const std::string& error) {
    read_.insert(key);
    if (!value.has_value() && error_.empty()) {
      error_ = error;
    }
    return value;
  }

  const Config& config_;
  const std::set<std::string> sections_;
  std::set<std::string> read_;
  std::string error_;
};

}  // namespace

std::optional<FiftyYearConfig> FiftyYearConfigFrom(const Config& config, std::string* error) {
  KeyReader in(config, {"experiment", "devices", "gateways", "maintenance", "wallet"});
  FiftyYearConfig cfg;
  cfg.seed = in.Count("experiment.seed", cfg.seed);
  cfg.horizon = SimTime::Years(in.Double("experiment.horizon_years", 50.0));
  cfg.area_side_m = in.Double("experiment.area_side_m", cfg.area_side_m);

  cfg.devices_802154 = in.Count("devices.count_802154", cfg.devices_802154);
  cfg.devices_lora = in.Count("devices.count_lora", cfg.devices_lora);
  cfg.report_interval = SimTime::Hours(in.Double("devices.report_interval_hours", 1.0));
  cfg.replace_failed_devices = in.Bool("devices.replace_failed", true);
  cfg.device_replacement_delay =
      SimTime::Days(in.Double("devices.replacement_delay_days", 30.0));

  cfg.owned_gateways = in.Count("gateways.owned", cfg.owned_gateways);
  cfg.helium_hotspots = in.Count("gateways.helium_hotspots", cfg.helium_hotspots);
  cfg.hotspot_replacement_prob =
      in.Double("gateways.hotspot_replacement_prob", cfg.hotspot_replacement_prob);
  cfg.hotspot_replacement_mean =
      SimTime::Days(in.Double("gateways.hotspot_replacement_days", 60.0));

  cfg.maintenance.enabled = in.Bool("maintenance.enabled", true);
  cfg.maintenance.annual_budget_hours =
      in.Double("maintenance.annual_budget_hours", cfg.maintenance.annual_budget_hours);
  cfg.maintenance.mean_response = SimTime::Days(in.Double("maintenance.mean_response_days", 3.0));
  cfg.maintenance.mean_repair = SimTime::Hours(in.Double("maintenance.mean_repair_hours", 3.0));

  cfg.wallet_usd_per_device = in.Double("wallet.usd_per_device", cfg.wallet_usd_per_device);
  return in.Finish(cfg, error);
}

std::optional<CenturyConfig> CenturyConfigFrom(const Config& config, std::string* error) {
  KeyReader in(config, {"century"});
  CenturyConfig cfg;
  cfg.seed = in.Count("century.seed", cfg.seed);
  cfg.fleet_size = in.Count("century.fleet_size", cfg.fleet_size);
  cfg.horizon = SimTime::Years(in.Double("century.horizon_years", 100.0));
  cfg.batch.zone_count = in.Count("century.zone_count", cfg.batch.zone_count);
  cfg.batch.cycle_period = SimTime::Years(in.Double("century.cycle_period_years", 8.0));
  const std::string device_class = in.String("century.device_class", "harvesting");
  if (device_class != "harvesting" && device_class != "battery") {
    in.Fail("century.device_class", "'" + device_class + "' is not harvesting or battery");
  }
  cfg.device_class = device_class == "battery" ? DeviceClassKind::kBatteryPowered
                                               : DeviceClassKind::kEnergyHarvesting;
  const double refresh = in.Double("century.proactive_refresh_age_years", 0.0);
  cfg.proactive_refresh_age = refresh > 0 ? SimTime::Years(refresh) : SimTime();
  cfg.life_improvement_per_decade = in.Double("century.life_improvement_per_decade", 1.0);
  return in.Finish(cfg, error);
}

}  // namespace centsim
