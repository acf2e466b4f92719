// Golden campaign digests for the single production path: the 4-ary heap
// event core, one event per delivered packet, MSS-segmented TCP streams and
// streamed shard worlds.
//
// Every row was recorded from the last tree that still carried the retired
// alternatives — the priority-queue event engine, per-packet delivery,
// single-buffer TCP and materialized shard worlds. There, each alternative
// (alone, and all of them at once) reproduced all three values of every row
// exactly. The timing wheel and (tick, host) batched delivery that came
// next reproduced them too, as does the heap with per-packet events, so
// matching a row today proves the surviving path is identical to every
// retired one on that campaign.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "ditl/world_spec.h"

namespace cd::testing {

/// The two campaign shapes the retired differentials ran.
enum class PinShape : std::uint8_t {
  /// small_world_spec(), IDS analyst replays on, full capture with drop
  /// annotations: every delivery consumer in the tree.
  kAnalyst,
  /// The 6-AS golden-fixture world (tests/fixtures/quickstart.pcap), full
  /// capture with drop annotations: TC=1 elicitation drives DNS-over-TCP.
  kFixture,
};

struct CampaignPin {
  PinShape shape;
  std::uint64_t seed;
  std::size_t shards;
  std::uint64_t results;     // core::results_digest
  std::uint64_t capture;     // core::capture_digest
  std::uint64_t first_hits;  // first_hit_digest below
};

inline constexpr CampaignPin kCampaignPins[] = {
    {PinShape::kAnalyst, 7, 1, 0x10fb4567cc54e534ull, 0x379601b4283d0d30ull,
     0x1190e91f0ac57d63ull},
    {PinShape::kAnalyst, 7, 4, 0x10fb4567cc54e534ull, 0x0667f464f8d341daull,
     0xca9bf78144fedd2cull},
    {PinShape::kAnalyst, 42, 1, 0xcd54a47d35eb2474ull, 0x9a7cb07e5ec22b47ull,
     0x91e3cbf18eb537c2ull},
    {PinShape::kAnalyst, 42, 4, 0xcd54a47d35eb2474ull, 0x69c236b24acd7ffdull,
     0xc702a4a407ee9b96ull},
    {PinShape::kAnalyst, 99, 1, 0x2caeb45f8ba1251aull, 0xe9f2f2ccff6c5250ull,
     0xd6b400eb7f73228full},
    {PinShape::kAnalyst, 99, 4, 0x2caeb45f8ba1251aull, 0x956d5b18f146b630ull,
     0x9efe0d3f2ccc1a30ull},
    {PinShape::kAnalyst, 1337, 1, 0xa8367bcc69b2120cull, 0x974eb168e4dd109cull,
     0xb5f31c1f0d2b9854ull},
    {PinShape::kAnalyst, 1337, 4, 0xa8367bcc69b2120cull, 0x315cc975244ffe27ull,
     0xf81b435da9a2102bull},
    {PinShape::kAnalyst, 2020, 1, 0x1de54d096c01d281ull, 0x843f8935a196d0c1ull,
     0x6450694eb90d17baull},
    {PinShape::kAnalyst, 2020, 4, 0x1de54d096c01d281ull, 0xda8bd5f46f1d3111ull,
     0x9e3ab9e41813fb49ull},
    {PinShape::kFixture, 7, 1, 0x4f36b13e2babedfbull, 0x02759772cce31ec7ull,
     0x780fe4f1bc7e3eb7ull},
    {PinShape::kFixture, 7, 4, 0x4f36b13e2babedfbull, 0xad646acfc4686a09ull,
     0x780fe4f1bc7e3eb7ull},
    {PinShape::kFixture, 42, 1, 0x738f7bc2a3ad786aull, 0x3129e9fedc0252feull,
     0xe4399176617a85ccull},
    {PinShape::kFixture, 42, 4, 0x738f7bc2a3ad786aull, 0x4d54204782eae21cull,
     0xe4399176617a85ccull},
    {PinShape::kFixture, 99, 1, 0xf1ff7b5315fb63a1ull, 0x2311d48451340b68ull,
     0x43d0a54adf5096ddull},
    {PinShape::kFixture, 99, 4, 0xf1ff7b5315fb63a1ull, 0x1d69a145dd2cf4e8ull,
     0x43d0a54adf5096ddull},
    {PinShape::kFixture, 1337, 1, 0xb704f2af3207d61cull, 0xd3a80f2477feb275ull,
     0x87e3ee103f003506ull},
    {PinShape::kFixture, 1337, 4, 0xb704f2af3207d61cull, 0x64ae16ebb6fbe228ull,
     0x87e3ee103f003506ull},
    {PinShape::kFixture, 2020, 1, 0x9599a6b18931b4e0ull, 0x58c3dd68c810e5c0ull,
     0x08f2344117d6249aull},
    {PinShape::kFixture, 2020, 4, 0x9599a6b18931b4e0ull, 0xe18850357fe5c2f1ull,
     0x307e37275a889b4cull},
};

inline cd::ditl::WorldSpec pin_spec(PinShape shape, std::uint64_t seed) {
  cd::ditl::WorldSpec spec = cd::ditl::small_world_spec();
  spec.seed = seed;
  if (shape == PinShape::kFixture) spec.n_asns = 6;
  return spec;
}

inline cd::core::ExperimentConfig pin_config(PinShape shape,
                                             std::size_t shards) {
  cd::core::ExperimentConfig config;
  cd::core::CaptureSpec capture;
  capture.include_drops = true;
  config.capture = capture;
  if (shape == PinShape::kAnalyst) {
    config.analyst = cd::scanner::AnalystConfig{};
  }
  config.num_shards = shards;
  config.num_threads = shards > 1 ? 2 : 1;
  return config;
}

/// FNV-1a over every record's (target, first_hit_time), in target order.
/// results_digest leaves first_hit_time out (sharding legitimately moves
/// it); pinning it per (seed, shards) row keeps per-packet arrival timing
/// pinned too.
inline std::uint64_t first_hit_digest(const cd::core::ExperimentResults& r) {
  std::vector<std::pair<cd::net::IpAddr, cd::sim::SimTime>> hits;
  hits.reserve(r.records.size());
  for (const auto& [addr, rec] : r.records) {
    hits.emplace_back(addr, rec.first_hit_time);
  }
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x00000100000001B3ULL;
    }
  };
  for (const auto& [addr, time] : hits) {
    mix(addr.bits().hi);
    mix(addr.bits().lo);
    mix(static_cast<std::uint64_t>(time));
  }
  return h;
}

}  // namespace cd::testing
