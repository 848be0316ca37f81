#include "src/radio/lorawan.h"

#include <cstddef>
#include <cstring>
#include <ostream>

#include <gtest/gtest.h>

namespace centsim {
namespace {

TEST(ChannelPlanTest, Eu868Shape) {
  const auto plan = ChannelPlan::Eu868();
  EXPECT_EQ(plan.uplink_channels_hz.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.duty_cycle_limit, 0.01);
  EXPECT_EQ(plan.dwell_time_limit, SimTime());
}

TEST(ChannelPlanTest, Us915Shape) {
  const auto plan = ChannelPlan::Us915();
  EXPECT_EQ(plan.uplink_channels_hz.size(), 8u);
  EXPECT_DOUBLE_EQ(plan.duty_cycle_limit, 0.0);
  EXPECT_EQ(plan.dwell_time_limit, SimTime::Millis(400));
}

TEST(ChannelPlanTest, EuDutyCycleCapsUplinks) {
  const auto plan = ChannelPlan::Eu868();
  const SimTime airtime = SimTime::Millis(100);
  // 864 s/day of allowed airtime / 0.1 s = 8640 frames.
  EXPECT_NEAR(plan.MaxUplinksPerDay(airtime), 8640.0, 1.0);
}

TEST(ChannelPlanTest, UsDwellForbidsSlowFrames) {
  const auto plan = ChannelPlan::Us915();
  LoraConfig sf11;
  sf11.sf = LoraSf::kSf11;
  const SimTime slow = LoraPhy::Airtime(sf11, 24);  // ~800 ms > 400 ms.
  EXPECT_GT(slow, plan.dwell_time_limit);
  EXPECT_DOUBLE_EQ(plan.MaxUplinksPerDay(slow), 0.0);

  LoraConfig sf8;
  sf8.sf = LoraSf::kSf8;
  const SimTime fast = LoraPhy::Airtime(sf8, 24);
  EXPECT_GT(plan.MaxUplinksPerDay(fast), 10000.0);
}

TEST(AdrTest, StrongLinkStepsDownToSf7) {
  AdrInput in;
  in.current_sf = LoraSf::kSf12;
  in.best_snr_db = 10.0;  // Huge headroom over SF12's -20 dB floor.
  const auto out = ComputeAdr(in);
  EXPECT_EQ(out.sf, LoraSf::kSf7);
  EXPECT_LT(out.tx_power_dbm, in.current_tx_power_dbm);
}

TEST(AdrTest, MarginalLinkKeepsSf) {
  AdrInput in;
  in.current_sf = LoraSf::kSf12;
  in.best_snr_db = -12.0;  // Only 8 dB above floor; margin eats it.
  const auto out = ComputeAdr(in);
  EXPECT_EQ(out.sf, LoraSf::kSf12);
  EXPECT_DOUBLE_EQ(out.tx_power_dbm, in.current_tx_power_dbm);
  EXPECT_EQ(out.steps_applied, 0);
}

TEST(AdrTest, IntermediateLinkLandsBetween) {
  AdrInput in;
  in.current_sf = LoraSf::kSf12;
  in.best_snr_db = -5.0;
  const auto out = ComputeAdr(in);
  EXPECT_LT(static_cast<int>(out.sf), static_cast<int>(LoraSf::kSf12));
  EXPECT_GT(static_cast<int>(out.sf), static_cast<int>(LoraSf::kSf7));
}

TEST(AdrTest, PowerFloorRespected) {
  AdrInput in;
  in.current_sf = LoraSf::kSf7;
  in.current_tx_power_dbm = 4.0;
  in.best_snr_db = 40.0;
  const auto out = ComputeAdr(in);
  EXPECT_GE(out.tx_power_dbm, 2.0);
}

TEST(StaticSfTest, GenerousMarginForcesHighSf) {
  // Transmit-only planning: more fade margin demanded => higher SF.
  const LoraSf tight = StaticSfForMargin(0.0, 5.0);
  const LoraSf generous = StaticSfForMargin(0.0, 18.0);
  EXPECT_GT(static_cast<int>(generous), static_cast<int>(tight));
}

TEST(StaticSfTest, StrongLinkAllowsSf7) {
  EXPECT_EQ(StaticSfForMargin(10.0, 5.0), LoraSf::kSf7);
}

TEST(StaticSfTest, HopelessLinkGetsSf12) {
  EXPECT_EQ(StaticSfForMargin(-30.0, 10.0), LoraSf::kSf12);
}

TEST(StaticSfTest, StaticChoiceCostsAirtimeVsAdr) {
  // The §4.1 trade: a transmit-only device planned with 12 dB margin flies
  // at a slower SF than ADR would settle on for the same link.
  const double snr = -2.0;
  const LoraSf planned = StaticSfForMargin(snr, 12.0);
  AdrInput in;
  in.current_sf = LoraSf::kSf12;
  in.best_snr_db = snr;
  in.margin_db = 10.0;
  const LoraSf adapted = ComputeAdr(in).sf;
  LoraConfig a;
  a.sf = planned;
  LoraConfig b;
  b.sf = adapted;
  EXPECT_GE(LoraPhy::Airtime(a, 12), LoraPhy::Airtime(b, 12));
}

TEST(LorawanOverheadTest, WireBytes) {
  EXPECT_EQ(LorawanWireBytes(12), 25u);
  EXPECT_EQ(kLorawanOverheadBytes, 13u);
}

// Golden airtime values hand-computed from the Semtech AN1200.13 formula
// (125 kHz, CR 4/5, 8-symbol preamble, explicit header, CRC on, LDRO on
// SF11/12).
struct AirtimeGolden {
  LoraSf sf;
  size_t payload;
  double expected_ms;
};

// gtest names each case after its parameter, printed as raw bytes, and the
// padding after `sf` holds stack garbage, so those names changed from
// process to process. Print the same bytes with the padding zeroed.
void PrintTo(const AirtimeGolden& g, std::ostream* os) {
  unsigned char bytes[sizeof(AirtimeGolden)] = {};
  std::memcpy(bytes + offsetof(AirtimeGolden, sf), &g.sf, sizeof g.sf);
  std::memcpy(bytes + offsetof(AirtimeGolden, payload), &g.payload, sizeof g.payload);
  std::memcpy(bytes + offsetof(AirtimeGolden, expected_ms), &g.expected_ms, sizeof g.expected_ms);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

TEST(AirtimeGoldenPrintTest, PaddingPrintsAsZero) {
  EXPECT_EQ(::testing::PrintToString(AirtimeGolden{LoraSf::kSf9, 12, 144.384}),
            "24-byte object <09-00 00-00 00-00 00-00 0C-00 00-00 00-00 00-00 "
            "3F-35 5E-BA 49-0C 62-40>");
}

class AirtimeGoldenSweep : public ::testing::TestWithParam<AirtimeGolden> {};

TEST_P(AirtimeGoldenSweep, MatchesHandComputedValue) {
  const auto& g = GetParam();
  LoraConfig cfg;
  cfg.sf = g.sf;
  EXPECT_NEAR(LoraPhy::Airtime(cfg, g.payload).ToSeconds() * 1000.0, g.expected_ms, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Golden, AirtimeGoldenSweep,
                         ::testing::Values(AirtimeGolden{LoraSf::kSf7, 12, 41.216},
                                           AirtimeGolden{LoraSf::kSf9, 12, 144.384},
                                           AirtimeGolden{LoraSf::kSf10, 24, 370.688},
                                           AirtimeGolden{LoraSf::kSf12, 10, 991.232}));

}  // namespace
}  // namespace centsim
