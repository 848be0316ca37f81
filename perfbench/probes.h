// Per-layer probes: each times one public function of a src/ module in a
// loop, on inputs built from a workload's own config and seed, and records
// one span per loop carrying its call count. The probes call the same
// functions the experiment entry points call; they never run simulated time.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>

#include "spans.h"
#include "src/core/experiment_api.h"

namespace centbench {

// The fifty-year experiment's per-packet layers, probed on its device and
// gateway layout: 4 x 802.15.4 devices around 2 owned gateways and 4 LoRa
// devices under Helium hotspots, placed by the experiment's own layout draws.
struct PacketPathProbe {
  double offer_ns = 0.0;         // NetworkFabric::Offer
  double link_loss_ns = 0.0;     // PathLossModel::LinkLossDb
  double per_802154_ns = 0.0;    // PhyModel::PacketErrorRate
  double per_lora_ns = 0.0;
  double accept_ns = 0.0;        // Gateway::Accept
  double ingest_ns = 0.0;        // NetworkServer::Ingest
  double record_ns = 0.0;        // CloudEndpoint::Record
  double tag_ns = 0.0;           // ComputeReadingTag
};
PacketPathProbe ProbePacketPath(const centsim::FiftyYearConfig& config, SpanRecorder& spans,
                                int parent, uint32_t run);

// The energy layer's two levels on the fifty-year device (solar harvester,
// supercap, 802.15.4 load): hourly EnergyTryTransmit calls over the whole
// horizon against one DeviceFleet::FastForwardEnergyAt (the sampled
// engine's energy domain) over the same span.
struct EnergyLevels {
  uint64_t attempts = 0;
  double detailed_granted = 0.0;      // Grants / attempts, stepped hourly.
  double fast_forward_granted = 0.0;  // Expected grants / attempts.
  double try_transmit_ns = 0.0;
};
EnergyLevels CompareEnergyLevels(const centsim::FiftyYearConfig& config, SpanRecorder& spans,
                                 int parent, uint32_t run);

// The reliability layer's two levels on the fifty-year bills of materials
// (device, owned gateway, Helium hotspot): mean life restricted to the
// horizon from the exact series-system survival (what SampleLife draws
// from) and from the SurvivalTable the sampled engines draw through, in
// years, on one daily quadrature grid.
struct LifeLevels {
  double detailed_years[3] = {0.0, 0.0, 0.0};
  double table_years[3] = {0.0, 0.0, 0.0};
};
LifeLevels CompareLifeLevels(centsim::SimTime horizon);

// SeriesSystem::SampleLife on the district's device bill of materials.
double ProbeSampleLifeNs(const centsim::DistrictConfig& config, SpanRecorder& spans, int parent,
                         uint32_t run);

// DeploymentPlan + PlanGatewayGrid + BuildCoverageCsr on the district's
// geometry, in seconds.
double ProbeCityPlanSeconds(const centsim::DistrictConfig& config, SpanRecorder& spans,
                            int parent, uint32_t run);

}  // namespace centbench

#endif  // PERFBENCH_PROBES_H_
