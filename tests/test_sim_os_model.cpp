// Unit tests: the OS stack registry (sim/os_model) — ephemeral-port pool
// bounds for every profile, registry lookup, Table 6 acceptance rules, and
// Host::ephemeral_port staying inside its OS-designated range.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/host.h"
#include "sim/network.h"
#include "sim/os_model.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace cd;
using net::IpAddr;
using net::Prefix;
using sim::OsFamily;
using sim::OsId;
using sim::OsProfile;

TEST(OsModel, EveryProfileHasSaneEphemeralPoolBounds) {
  const auto& registry = sim::all_os_profiles();
  ASSERT_FALSE(registry.empty());
  for (const OsProfile& p : registry) {
    EXPECT_LE(p.ephemeral_lo, p.ephemeral_hi) << p.name;
    // Inclusive range, computed without 16-bit overflow.
    EXPECT_EQ(p.ephemeral_pool_size(),
              static_cast<std::uint32_t>(p.ephemeral_hi) - p.ephemeral_lo + 1)
        << p.name;
    // No profile in the paper's lab set uses a degenerate pool, and none
    // allocates out of the well-known/system range.
    EXPECT_GE(p.ephemeral_pool_size(), 1024u) << p.name;
    EXPECT_GE(p.ephemeral_lo, 1024) << p.name;
    EXPECT_FALSE(p.name.empty());
    EXPECT_FALSE(sim::os_family_name(p.family).empty()) << p.name;
  }
}

TEST(OsModel, RegistryLookupRoundTripsAndIdsAreUnique) {
  std::set<OsId> seen;
  for (const OsProfile& p : sim::all_os_profiles()) {
    EXPECT_TRUE(seen.insert(p.id).second) << p.name << ": duplicate OsId";
    const OsProfile& looked_up = sim::os_profile(p.id);
    EXPECT_EQ(looked_up.name, p.name);
    EXPECT_EQ(looked_up.ephemeral_lo, p.ephemeral_lo);
    EXPECT_EQ(looked_up.ephemeral_hi, p.ephemeral_hi);
    EXPECT_EQ(looked_up.family, p.family);
  }
}

TEST(OsModel, KnownEphemeralRangesMatchThePaper) {
  // §5.3.2: Linux ip_local_port_range default 32768..61000.
  for (const OsId id : {OsId::kUbuntu1004, OsId::kUbuntu1604,
                        OsId::kUbuntu1904, OsId::kBaiduLike}) {
    const OsProfile& p = sim::os_profile(id);
    EXPECT_EQ(p.ephemeral_lo, 32768) << p.name;
    EXPECT_EQ(p.ephemeral_hi, 61000) << p.name;
    EXPECT_EQ(p.ephemeral_pool_size(), 28233u) << p.name;
  }
  // IANA range for FreeBSD and Windows Server.
  for (const OsId id : {OsId::kFreeBsd113, OsId::kFreeBsd121, OsId::kWin2003,
                        OsId::kWin2019}) {
    const OsProfile& p = sim::os_profile(id);
    EXPECT_EQ(p.ephemeral_lo, 49152) << p.name;
    EXPECT_EQ(p.ephemeral_hi, 65535) << p.name;
    EXPECT_EQ(p.ephemeral_pool_size(), 16384u) << p.name;
  }
  // Synthetic embedded stacks expose the whole registered-port space.
  for (const OsId id : {OsId::kEmbeddedCpe, OsId::kMiddleboxFronted}) {
    const OsProfile& p = sim::os_profile(id);
    EXPECT_EQ(p.ephemeral_lo, 1024) << p.name;
    EXPECT_EQ(p.ephemeral_hi, 65535) << p.name;
    EXPECT_EQ(p.ephemeral_pool_size(), 64512u) << p.name;
  }
}

TEST(OsModel, Table6AcceptanceRules) {
  for (const OsProfile& p : sim::all_os_profiles()) {
    switch (p.family) {
      case OsFamily::kLinux:
        // Linux drops v4 destination-as-source, passes the v6 variant.
        EXPECT_FALSE(p.accepts_dst_as_src_v4) << p.name;
        EXPECT_TRUE(p.accepts_dst_as_src_v6) << p.name;
        EXPECT_FALSE(p.accepts_loopback_v4) << p.name;
        break;
      case OsFamily::kFreeBsd:
        EXPECT_TRUE(p.accepts_dst_as_src_v4) << p.name;
        EXPECT_TRUE(p.accepts_dst_as_src_v6) << p.name;
        break;
      case OsFamily::kWindows:
        EXPECT_TRUE(p.accepts_dst_as_src_v4) << p.name;
        // Only 2003 / 2003 R2 accept a v4 loopback source.
        EXPECT_EQ(p.accepts_loopback_v4,
                  p.id == OsId::kWin2003 || p.id == OsId::kWin2003R2)
            << p.name;
        break;
      case OsFamily::kOther:
        break;
    }
  }
  // Old Linux kernels (<= 4.x per the lab table) accept v6 loopback.
  EXPECT_TRUE(sim::os_profile(OsId::kUbuntu1004).accepts_loopback_v6);
  EXPECT_TRUE(sim::os_profile(OsId::kUbuntu1404).accepts_loopback_v6);
  EXPECT_FALSE(sim::os_profile(OsId::kUbuntu1604).accepts_loopback_v6);
  EXPECT_FALSE(sim::os_profile(OsId::kUbuntu1904).accepts_loopback_v6);
}

TEST(OsModel, UnknownIdThrows) {
  EXPECT_THROW((void)sim::os_profile(static_cast<OsId>(250)), InvariantError);
}

TEST(OsModel, HostEphemeralPortStaysInsideEveryProfilesPool) {
  sim::EventLoop loop;
  sim::Topology topology;
  topology.add_as(1, sim::FilterPolicy{});
  topology.announce(1, Prefix::must_parse("21.0.0.0/16"));
  sim::Network network(topology, loop, Rng(7));

  std::uint32_t host_idx = 0;
  for (const OsProfile& p : sim::all_os_profiles()) {
    const std::string addr = "21.0.0." + std::to_string(1 + host_idx);
    sim::Host host(network, 1, p, {IpAddr::must_parse(addr)}, Rng(host_idx));
    ++host_idx;
    std::uint16_t lo_seen = 65535;
    std::uint16_t hi_seen = 0;
    for (int i = 0; i < 512; ++i) {
      const std::uint16_t port = host.ephemeral_port();
      ASSERT_GE(port, p.ephemeral_lo) << p.name;
      ASSERT_LE(port, p.ephemeral_hi) << p.name;
      lo_seen = std::min(lo_seen, port);
      hi_seen = std::max(hi_seen, port);
    }
    // 512 draws from a >=1024-port pool should spread well beyond a single
    // corner of the range (quarter-width is a loose, deterministic bound).
    EXPECT_LT(static_cast<std::uint32_t>(lo_seen),
              p.ephemeral_lo + p.ephemeral_pool_size() / 4)
        << p.name;
    EXPECT_GT(static_cast<std::uint32_t>(hi_seen),
              p.ephemeral_hi - p.ephemeral_pool_size() / 4)
        << p.name;
  }
}

}  // namespace
