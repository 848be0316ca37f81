#include "src/radio/medium.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>

#include "src/radio/phy_802154.h"
#include "src/sim/random.h"

namespace centsim {
namespace {

SharedMedium::Transmission Tx(double start_s, double dur_s, uint32_t chan, double dbm,
                              uint64_t id) {
  return {SimTime::Seconds(start_s), SimTime::Seconds(start_s + dur_s), chan, dbm, id};
}

TEST(SharedMediumTest, LoneTransmissionDelivered) {
  SharedMedium medium;
  const auto tx = Tx(0.0, 0.1, 11, -70, 1);
  medium.Register(tx);
  EXPECT_TRUE(medium.Delivered(tx, 6.0));
}

TEST(SharedMediumTest, OverlapSameChannelCollides) {
  SharedMedium medium;
  const auto a = Tx(0.0, 0.1, 11, -70, 1);
  const auto b = Tx(0.05, 0.1, 11, -70, 2);
  medium.Register(a);
  medium.Register(b);
  EXPECT_FALSE(medium.Delivered(a, 6.0));  // Equal power: no capture.
  EXPECT_FALSE(medium.Delivered(b, 6.0));
}

TEST(SharedMediumTest, DifferentChannelsDoNotInterfere) {
  SharedMedium medium;
  const auto a = Tx(0.0, 0.1, 11, -70, 1);
  const auto b = Tx(0.05, 0.1, 12, -40, 2);
  medium.Register(a);
  medium.Register(b);
  EXPECT_TRUE(medium.Delivered(a, 6.0));
}

TEST(SharedMediumTest, NonOverlappingDoNotInterfere) {
  SharedMedium medium;
  const auto a = Tx(0.0, 0.1, 11, -70, 1);
  const auto b = Tx(0.2, 0.1, 11, -70, 2);
  medium.Register(a);
  medium.Register(b);
  EXPECT_TRUE(medium.Delivered(a, 6.0));
  EXPECT_TRUE(medium.Delivered(b, 6.0));
}

TEST(SharedMediumTest, StrongFrameCaptures) {
  SharedMedium medium;
  const auto strong = Tx(0.0, 0.1, 11, -50, 1);
  const auto weak = Tx(0.05, 0.1, 11, -80, 2);
  medium.Register(strong);
  medium.Register(weak);
  EXPECT_TRUE(medium.Delivered(strong, 6.0));  // 30 dB above interferer.
  EXPECT_FALSE(medium.Delivered(weak, 6.0));
}

TEST(SharedMediumTest, AggregateInterferenceDefeatsCapture) {
  SharedMedium medium;
  const auto victim = Tx(0.0, 0.2, 11, -60, 1);
  medium.Register(victim);
  // Eight interferers each 9 dB below the victim sum to ~0 dB margin.
  for (uint64_t i = 2; i <= 9; ++i) {
    medium.Register(Tx(0.05, 0.1, 11, -69, i));
  }
  EXPECT_FALSE(medium.Delivered(victim, 6.0));
}

TEST(SharedMediumTest, ExpireDropsOldTransmissions) {
  SharedMedium medium;
  medium.Register(Tx(0.0, 0.1, 11, -70, 1));
  medium.Register(Tx(1.0, 0.1, 11, -70, 2));
  EXPECT_EQ(medium.active_count(), 2u);
  medium.ExpireBefore(SimTime::Seconds(0.5));
  EXPECT_EQ(medium.active_count(), 1u);
}

// The full scan SharedMedium::Delivered made before it learned to skip
// frames that cannot overlap: the reference every verdict must match.
bool FullScanDelivered(const std::deque<SharedMedium::Transmission>& registered,
                       const SharedMedium::Transmission& tx, double capture_margin_db) {
  double interference_mw = 0.0;
  for (const auto& other : registered) {
    if (other.tx_id == tx.tx_id || other.channel != tx.channel) {
      continue;
    }
    const bool overlaps = other.start < tx.end && tx.start < other.end;
    if (overlaps) {
      interference_mw += DbmToMilliwatts(other.rx_power_dbm);
    }
  }
  if (interference_mw > 0.0) {
    return tx.rx_power_dbm - MilliwattsToDbm(interference_mw) >= capture_margin_db;
  }
  return true;
}

TEST(SharedMediumTest, BoundedScanAgreesWithFullScanOnRandomTraffic) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomStream rng(seed);
    SharedMedium medium;
    std::deque<SharedMedium::Transmission> registered;
    // Airtimes span four decades; some frames share a start.
    const double longest_s = 0.005 * std::pow(10.0, static_cast<double>(seed % 4));
    const uint32_t channels = 1 + static_cast<uint32_t>(seed % 3);
    // Every frame is judged at least once, before it expires.
    auto judge_all = [&] {
      for (const auto& tx : registered) {
        for (const double margin : {0.0, 3.0, 6.0, 10.0, 20.0}) {
          ASSERT_EQ(medium.Delivered(tx, margin), FullScanDelivered(registered, tx, margin))
              << "seed " << seed << " frame " << tx.tx_id << " margin " << margin;
        }
      }
    };
    double t = 0.0;
    for (uint64_t id = 1; id <= 3000; ++id) {
      if (!rng.NextBool(0.1)) {
        t += rng.Exponential(longest_s / 3.0);
      }
      const double airtime = longest_s * (0.001 + 0.999 * rng.NextDouble());
      const auto tx = Tx(t, airtime, static_cast<uint32_t>(rng.NextBelow(channels)),
                         rng.Uniform(-125.0, -45.0), id);
      medium.Register(tx);
      registered.push_back(tx);
      if (id % 500 == 0) {
        judge_all();
        const SimTime horizon = SimTime::Seconds(t - 20.0 * longest_s);
        medium.ExpireBefore(horizon);
        while (!registered.empty() && registered.front().end < horizon) {
          registered.pop_front();
        }
        ASSERT_EQ(medium.active_count(), registered.size());
      }
    }
    judge_all();
  }
}

TEST(AlohaTest, ZeroLoadIsPerfect) {
  EXPECT_DOUBLE_EQ(AlohaModel::SuccessProbability(0.0, SimTime::Millis(100)), 1.0);
}

TEST(AlohaTest, MatchesClosedForm) {
  // G = 0.5 -> P = exp(-1).
  const double p = AlohaModel::SuccessProbability(5.0, SimTime::Millis(100));
  EXPECT_NEAR(p, std::exp(-1.0), 1e-12);
}

TEST(AlohaTest, MonotoneInLoad) {
  double prev = 1.1;
  for (double rate : {0.1, 1.0, 5.0, 20.0}) {
    const double p = AlohaModel::SuccessProbability(rate, SimTime::Millis(50));
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(CsmaTest, BeatsAlohaUnderLoad) {
  // Carrier sensing shrinks the vulnerable window vs pure ALOHA.
  const SimTime airtime = Phy802154::Airtime(12);
  for (double rate : {1.0, 10.0, 50.0}) {
    EXPECT_GT(CsmaModel::SuccessProbability(rate, airtime),
              AlohaModel::SuccessProbability(rate, airtime));
  }
}

TEST(CsmaTest, ExpectedAttemptsGrowWithLoad) {
  const SimTime airtime = Phy802154::Airtime(12);
  EXPECT_GT(CsmaModel::ExpectedAttempts(200.0, airtime),
            CsmaModel::ExpectedAttempts(1.0, airtime));
  EXPECT_GE(CsmaModel::ExpectedAttempts(1.0, airtime), 1.0);
}

}  // namespace
}  // namespace centsim
