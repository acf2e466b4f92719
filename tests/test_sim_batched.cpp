// The delivery path's golden pins: one event per delivered packet
// (sim::Network) must leave every campaign exactly where every earlier
// delivery path left it — per-packet closures on the priority-queue engine,
// then (tick, host) batches on the timing wheel. The analyst-shape rows of
// the campaign pin table (tests/support/campaign_pins.h) run across seeds
// and shard counts — full captures, drops included, follow-ups and analyst
// replays on — and must reproduce their results_digest, capture_digest and
// per-record first-hit timing digest, recorded where those paths agreed on
// all three. The 6-AS fixture-shape rows run in test_sim_tcp; the
// checked-in golden capture itself is re-verified byte for byte by
// test_golden_pcap.
#include <gtest/gtest.h>

#include "core/parallel.h"
#include "ditl/world.h"
#include "support/campaign_pins.h"

namespace {

using cd::core::ShardedResults;
using cd::core::capture_digest;
using cd::core::results_digest;
using cd::core::run_sharded_experiment;
using cd::testing::CampaignPin;
using cd::testing::PinShape;

TEST(DeliveryPins, AnalystCampaignsMatchPinsAcrossSeedsAndShards) {
  int rows = 0;
  for (const CampaignPin& pin : cd::testing::kCampaignPins) {
    if (pin.shape != PinShape::kAnalyst) continue;
    ++rows;
    const ShardedResults out =
        run_sharded_experiment(cd::testing::pin_spec(pin.shape, pin.seed),
                               cd::testing::pin_config(pin.shape, pin.shards));
    const auto& merged = out.merged;
    ASSERT_GT(merged.records.size(), 0u)
        << "seed=" << pin.seed << ": campaign saw no targets";
    ASSERT_FALSE(merged.capture.records.empty())
        << "seed=" << pin.seed << ": campaign captured nothing";
    EXPECT_EQ(results_digest(merged), pin.results)
        << "seed=" << pin.seed << " shards=" << pin.shards;
    EXPECT_EQ(capture_digest(merged.capture), pin.capture)
        << "seed=" << pin.seed << " shards=" << pin.shards;
    EXPECT_EQ(cd::testing::first_hit_digest(merged), pin.first_hits)
        << "seed=" << pin.seed << " shards=" << pin.shards;

    // One delivery event per delivered packet.
    EXPECT_GT(merged.network_stats.delivery_batches, 0u);
    EXPECT_EQ(merged.network_stats.delivery_batches,
              merged.network_stats.delivered);
  }
  EXPECT_EQ(rows, 10);
}

}  // namespace
