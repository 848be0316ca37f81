// Coverage cells (district_model.h): the partition and the per-cell service
// counts every district engine uses, checked against a brute-force
// per-site recount over planned and random gateway geometries.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/city/deployment.h"
#include "src/core/district_model.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace centsim {
namespace {

// One geometry: the sites, the gateways, the range, and each site's
// covering-gateway set by the plain distance test.
struct Geometry {
  std::string name;
  std::vector<Site> sites;
  std::vector<Site> gateways;
  double range_m = 0.0;
  std::vector<std::vector<uint32_t>> covering;  // Per site, ascending.
};

void FillCovering(Geometry& geo) {
  geo.covering.assign(geo.sites.size(), {});
  for (uint32_t d = 0; d < geo.sites.size(); ++d) {
    for (uint32_t g = 0; g < geo.gateways.size(); ++g) {
      if (DistanceM(geo.sites[d], geo.gateways[g]) <= geo.range_m) {
        geo.covering[d].push_back(g);
      }
    }
  }
}

DistrictConfig PlannedConfig(uint64_t seed, uint32_t devices, double area_km2, double range_m) {
  DistrictConfig cfg;
  cfg.seed = seed;
  cfg.device_count = devices;
  cfg.area_km2 = area_km2;
  cfg.zone_grid = 3;
  cfg.gateway_range_m = range_m;
  cfg.horizon = SimTime::Years(1);
  return cfg;
}

// Planned grids: the district's own geometry at several range/density
// pairs, rebuilt the way every engine rebuilds it.
std::vector<DistrictConfig> PlannedConfigs() {
  std::vector<DistrictConfig> configs;
  const std::array<double, 4> ranges = {300.0, 550.0, 800.0, 1300.0};
  const std::array<std::pair<uint32_t, double>, 3> densities = {
      std::pair<uint32_t, double>{400, 1.0}, {900, 4.0}, {1500, 9.0}};
  uint64_t seed = 11;
  for (double range : ranges) {
    for (const auto& [devices, area] : densities) {
      configs.push_back(PlannedConfig(seed++, devices, area, range));
    }
  }
  return configs;
}

Geometry PlannedGeometry(const DistrictConfig& cfg) {
  const DistrictGeometry district(cfg);
  Geometry geo;
  geo.name = "planned seed " + std::to_string(cfg.seed) + " range " +
             std::to_string(cfg.gateway_range_m);
  geo.sites = district.plan.sites();
  geo.gateways = district.gateway_sites;
  geo.range_m = cfg.gateway_range_m;
  FillCovering(geo);
  return geo;
}

// Random gateway positions: uneven overlap, so cells covered by 0, 1, 2
// and 3 or more gateways all occur.
Geometry RandomGeometry(uint64_t seed) {
  RandomStream rng(seed);
  DeploymentPlan::Params params;
  params.site_count = 300 + static_cast<uint32_t>(rng.NextBelow(900));
  params.area_km2 = 1.0 + 3.0 * rng.NextDouble();
  params.zone_grid = 2;
  const DeploymentPlan plan(params, rng.Derive(1));
  Geometry geo;
  geo.name = "random seed " + std::to_string(seed);
  geo.sites = plan.sites();
  const uint32_t gateways = 3 + static_cast<uint32_t>(rng.NextBelow(30));
  for (uint32_t g = 0; g < gateways; ++g) {
    Site s;
    s.x_m = rng.Uniform(0.0, plan.side_m());
    s.y_m = rng.Uniform(0.0, plan.side_m());
    geo.gateways.push_back(s);
  }
  geo.range_m = plan.side_m() * (0.1 + 0.3 * rng.NextDouble());
  FillCovering(geo);
  return geo;
}

CoverageCells CellsOf(const Geometry& geo) {
  return BuildCoverageCells(BuildCoverageCsr(geo.sites, geo.gateways, geo.range_m),
                            static_cast<uint32_t>(geo.sites.size()));
}

// The partition is exactly "equal covering sets", numbered as documented,
// and the gateway -> cells rows list exactly the cells each gateway covers.
void ExpectExactPartition(const Geometry& geo, const CoverageCells& cells) {
  ASSERT_EQ(cells.site_cell.size(), geo.sites.size());
  ASSERT_EQ(cells.gateway_count(), geo.gateways.size());
  std::map<std::vector<uint32_t>, uint32_t> cell_of_set;
  std::vector<std::vector<uint32_t>> set_of_cell(cells.count());
  std::vector<uint32_t> sites_in(cells.count(), 0);
  uint32_t next_new = 1;
  for (uint32_t d = 0; d < geo.sites.size(); ++d) {
    const uint32_t c = cells.site_cell[d];
    ASSERT_LT(c, cells.count());
    ++sites_in[c];
    const std::vector<uint32_t>& set = geo.covering[d];
    if (set.empty()) {
      ASSERT_EQ(c, 0u) << "uncovered site " << d;
      continue;
    }
    auto [it, inserted] = cell_of_set.emplace(set, c);
    if (inserted) {
      ASSERT_EQ(c, next_new++) << "cells are numbered in order of their first site";
      set_of_cell[c] = set;
    } else {
      ASSERT_EQ(c, it->second) << "site " << d << " split from its covering set's cell";
    }
  }
  ASSERT_EQ(cells.count(), next_new) << "a cell without sites";
  EXPECT_EQ(cells.cell_sites, sites_in);

  for (uint32_t g = 0; g < geo.gateways.size(); ++g) {
    std::vector<uint32_t> expected;
    for (uint32_t c = 1; c < cells.count(); ++c) {
      for (uint32_t member : set_of_cell[c]) {
        if (member == g) {
          expected.push_back(c);
        }
      }
    }
    const std::vector<uint32_t> row(cells.cell_ids.begin() + cells.begin(g),
                                    cells.cell_ids.begin() + cells.end(g));
    EXPECT_EQ(row, expected) << "gateway " << g;
  }
}

// The brute-force state a sequence of transitions drives.
struct Recount {
  std::vector<uint8_t> gateway_up;
  std::vector<uint8_t> alive;

  uint32_t Covering(const Geometry& geo, uint32_t d) const {
    uint32_t up = 0;
    for (uint32_t g : geo.covering[d]) {
      up += gateway_up[g];
    }
    return up;
  }
};

void ExpectCountsMatch(const Geometry& geo, const Recount& truth, const ServiceCounts& counts,
                       const std::string& where) {
  for (uint32_t g = 0; g < geo.gateways.size(); ++g) {
    ASSERT_EQ(counts.gateway_up(g), truth.gateway_up[g] != 0) << where << ": gateway " << g;
  }
  uint64_t in_service = 0;
  uint64_t covered = 0;
  for (uint32_t d = 0; d < geo.sites.size(); ++d) {
    const uint32_t up = truth.Covering(geo, d);
    ASSERT_EQ(counts.covering(d), up) << where << ": site " << d;
    covered += up > 0 ? 1 : 0;
    in_service += up > 0 && truth.alive[d] != 0 ? 1 : 0;
  }
  ASSERT_EQ(counts.in_service(), in_service) << where;
  ASSERT_EQ(counts.covered(), covered) << where;
}

// Random gateway flips (repeated flips included, as no-ops) and device
// deploys and failures, checked after every step.
void DriveRandomTransitions(const Geometry& geo, const CoverageCells& cells, uint64_t seed) {
  RandomStream rng(seed);
  ServiceCounts counts(cells);
  Recount truth;
  truth.gateway_up.assign(geo.gateways.size(), 0);
  truth.alive.assign(geo.sites.size(), 0);
  ExpectCountsMatch(geo, truth, counts, geo.name + " at start");
  for (uint32_t step = 0; step < 150; ++step) {
    const double pick = rng.NextDouble();
    if (pick < 0.4) {
      const uint32_t g = static_cast<uint32_t>(rng.NextBelow(geo.gateways.size()));
      const bool up = rng.NextBool(0.6);
      counts.SetGateway(g, up);
      truth.gateway_up[g] = up ? 1 : 0;
    } else {
      const uint32_t d = static_cast<uint32_t>(rng.NextBelow(geo.sites.size()));
      if (truth.alive[d] != 0 && pick < 0.65) {
        counts.SiteDown(d);
        truth.alive[d] = 0;
      } else if (truth.alive[d] == 0) {
        counts.SiteUp(d);
        truth.alive[d] = 1;
      }
    }
    ExpectCountsMatch(geo, truth, counts, geo.name + " step " + std::to_string(step));
  }
}

TEST(CoverageCellsTest, PlannedGridsMatchPerSiteRecount) {
  const std::vector<DistrictConfig> configs = PlannedConfigs();
  ASSERT_GE(configs.size(), 12u);
  for (const DistrictConfig& cfg : configs) {
    const Geometry geo = PlannedGeometry(cfg);
    const DistrictGeometry district(cfg);
    ExpectExactPartition(geo, *district.cells);
    DriveRandomTransitions(geo, *district.cells, cfg.seed * 7919);
  }
}

TEST(CoverageCellsTest, RandomGatewaysMatchPerSiteRecount) {
  // Degree histogram over every cell of every geometry: 0, 1, 2, 3+.
  std::array<uint32_t, 4> degrees = {0, 0, 0, 0};
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Geometry geo = RandomGeometry(seed);
    const CoverageCells cells = CellsOf(geo);
    ExpectExactPartition(geo, cells);
    std::vector<uint32_t> degree(cells.count(), 0);
    for (uint32_t k = 0; k < cells.cell_ids.size(); ++k) {
      ++degree[cells.cell_ids[k]];
    }
    for (uint32_t c = 0; c < cells.count(); ++c) {
      if (cells.cell_sites[c] > 0) {
        ++degrees[std::min<uint32_t>(degree[c], 3)];
      }
    }
    DriveRandomTransitions(geo, cells, seed * 104729);
  }
  for (uint32_t k = 0; k < degrees.size(); ++k) {
    EXPECT_GT(degrees[k], 0u) << "no cell covered by " << k << (k == 3 ? "+" : "")
                              << " gateways";
  }
}

// The model's own counts, through its transitions, plus the
// fleet.covered_sites gauge it publishes.
TEST(CoverageCellsTest, DistrictModelCountsMatchPerSiteRecount) {
  const std::vector<DistrictConfig> configs = PlannedConfigs();
  for (size_t i = 0; i < configs.size(); i += 3) {
    DistrictConfig cfg = configs[i];
    MetricsRegistry registry;
    cfg.metrics = &registry;
    Simulation sim(cfg.seed);
    sim.SetMetrics(&registry);
    DistrictReport report;
    DistrictModel model(sim, cfg, report);
    const Geometry geo = PlannedGeometry(cfg);
    Gauge* covered_gauge = registry.GetGauge("fleet.covered_sites");
    ASSERT_NE(covered_gauge, nullptr);

    RandomStream rng(cfg.seed);
    Recount truth;
    truth.gateway_up.assign(geo.gateways.size(), 0);
    truth.alive.assign(geo.sites.size(), 0);
    for (uint32_t step = 0; step < 120; ++step) {
      const SimTime at = SimTime::Hours(step);
      if (rng.NextBool(0.4)) {
        const uint32_t g = static_cast<uint32_t>(rng.NextBelow(geo.gateways.size()));
        const bool up = rng.NextBool(0.6);
        model.SetGatewayAt(g, up, at);
        truth.gateway_up[g] = up ? 1 : 0;
      } else {
        const uint32_t d = static_cast<uint32_t>(rng.NextBelow(geo.sites.size()));
        if (truth.alive[d] != 0) {
          model.DeviceFailAt(d, at);
          truth.alive[d] = 0;
        } else {
          model.DeployAt(d, at);
          truth.alive[d] = 1;
        }
      }
      uint64_t in_service = 0;
      uint64_t covered = 0;
      for (uint32_t d = 0; d < geo.sites.size(); ++d) {
        const bool is_covered = truth.Covering(geo, d) > 0;
        covered += is_covered ? 1 : 0;
        in_service += is_covered && truth.alive[d] != 0 ? 1 : 0;
      }
      ASSERT_EQ(model.in_service(), in_service) << geo.name << " step " << step;
      ASSERT_EQ(covered_gauge->value(), static_cast<double>(covered))
          << geo.name << " step " << step;
    }
    sim.SetMetrics(nullptr);
  }
}

}  // namespace
}  // namespace centsim
