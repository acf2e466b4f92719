// Unit + property tests: checksums, wire headers, packet round trips.
#include <gtest/gtest.h>

#include "net/checksum.h"
#include "net/headers.h"
#include "net/packet.h"
#include "net/special.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace cd;
using net::IpAddr;
using net::Packet;

// --- checksum ------------------------------------------------------------------

TEST(Checksum, Rfc1071Example) {
  // Classic example from RFC 1071 §3.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(net::internet_checksum(data), static_cast<std::uint16_t>(~0xddf2));
}

TEST(Checksum, OddLengthPadsLastByte) {
  const std::uint8_t data[] = {0x12, 0x34, 0x56};
  net::Checksum c;
  c.add_word(0x1234);
  c.add_word(0x5600);
  EXPECT_EQ(net::internet_checksum(data), c.finish());
}

TEST(Checksum, VerifiesToZeroWithEmbeddedSum) {
  const std::uint8_t data[] = {0xAB, 0xCD, 0x00, 0x11};
  const std::uint16_t sum = net::internet_checksum(data);
  std::vector<std::uint8_t> with_sum(data, data + 4);
  with_sum.push_back(static_cast<std::uint8_t>(sum >> 8));
  with_sum.push_back(static_cast<std::uint8_t>(sum));
  EXPECT_EQ(net::internet_checksum(with_sum), 0);
}

// --- IPv4 header ------------------------------------------------------------------

TEST(Ipv4Header, RoundTrip) {
  net::Ipv4Header h;
  h.total_length = 40;
  h.identification = 0xBEEF;
  h.ttl = 57;
  h.protocol = net::IpProto::kTcp;
  h.src = IpAddr::must_parse("10.1.2.3");
  h.dst = IpAddr::must_parse("203.0.113.9");
  const auto wire = h.serialize();
  ASSERT_EQ(wire.size(), net::Ipv4Header::kSize);
  const auto parsed = net::Ipv4Header::parse(wire);
  EXPECT_EQ(parsed.total_length, 40);
  EXPECT_EQ(parsed.identification, 0xBEEF);
  EXPECT_EQ(parsed.ttl, 57);
  EXPECT_EQ(parsed.protocol, net::IpProto::kTcp);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
}

TEST(Ipv4Header, DetectsCorruption) {
  net::Ipv4Header h;
  h.src = IpAddr::must_parse("10.0.0.1");
  h.dst = IpAddr::must_parse("10.0.0.2");
  auto wire = h.serialize();
  wire[8] ^= 0xFF;  // flip the TTL
  EXPECT_THROW((void)net::Ipv4Header::parse(wire), ParseError);
}

TEST(Ipv4Header, RejectsShortBuffer) {
  const std::vector<std::uint8_t> wire(10, 0);
  EXPECT_THROW((void)net::Ipv4Header::parse(wire), ParseError);
}

// --- IPv6 header --------------------------------------------------------------------

TEST(Ipv6Header, RoundTrip) {
  net::Ipv6Header h;
  h.payload_length = 123;
  h.next_header = net::IpProto::kUdp;
  h.hop_limit = 61;
  h.flow_label = 0xABCDE;
  h.src = IpAddr::must_parse("2001:db8::1");
  h.dst = IpAddr::must_parse("2620:fe::9");
  const auto parsed = net::Ipv6Header::parse(h.serialize());
  EXPECT_EQ(parsed.payload_length, 123);
  EXPECT_EQ(parsed.hop_limit, 61);
  EXPECT_EQ(parsed.flow_label, 0xABCDEu);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
}

// --- TCP options / fingerprint fields --------------------------------------------------

TEST(TcpHeader, OptionOrderingPreserved) {
  net::TcpHeader h;
  h.src_port = 40000;
  h.dst_port = 53;
  h.flags.syn = true;
  h.window = 29200;
  h.options = {{net::TcpOptionKind::kMss, 1460},
               {net::TcpOptionKind::kSackPermitted, 0},
               {net::TcpOptionKind::kTimestamp, 777},
               {net::TcpOptionKind::kNop, 0},
               {net::TcpOptionKind::kWindowScale, 7}};
  const auto src = IpAddr::must_parse("192.0.2.1");
  const auto dst = IpAddr::must_parse("192.0.2.2");
  const auto parsed = net::TcpHeader::parse(h.serialize(src, dst, {}));
  EXPECT_EQ(parsed.options, h.options);
  EXPECT_EQ(parsed.window, 29200);
  EXPECT_TRUE(parsed.flags.syn);
}

TEST(TcpHeader, SizePadding) {
  net::TcpHeader h;
  EXPECT_EQ(h.size(), 20u);
  h.options = {{net::TcpOptionKind::kMss, 1460}};  // 4 bytes -> no padding
  EXPECT_EQ(h.size(), 24u);
  h.options.push_back({net::TcpOptionKind::kWindowScale, 7});  // +3 -> pad to 28
  EXPECT_EQ(h.size(), 28u);
}

// --- Packet round trips -----------------------------------------------------------------

TEST(Packet, UdpRoundTripV4) {
  const Packet p = net::make_udp(IpAddr::must_parse("198.51.100.7"), 5353,
                                 IpAddr::must_parse("192.0.2.53"), 53,
                                 {1, 2, 3, 4, 5}, 63);
  const Packet q = Packet::parse(p.serialize());
  EXPECT_EQ(q.src, p.src);
  EXPECT_EQ(q.dst, p.dst);
  EXPECT_EQ(q.src_port, 5353);
  EXPECT_EQ(q.dst_port, 53);
  EXPECT_EQ(q.ttl, 63);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(Packet, UdpRoundTripV6) {
  const Packet p = net::make_udp(IpAddr::must_parse("2001:db8::a"), 1234,
                                 IpAddr::must_parse("2001:db8::b"), 53,
                                 {9, 8, 7});
  const Packet q = Packet::parse(p.serialize());
  EXPECT_EQ(q.src, p.src);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(Packet, TcpSynCarriesFingerprint) {
  Packet p = net::make_tcp(IpAddr::must_parse("10.0.0.1"), 40000,
                           IpAddr::must_parse("10.0.0.2"), 53,
                           net::TcpFlags{.syn = true}, {}, 128);
  p.tcp_window = 8192;
  p.tcp_options = {{net::TcpOptionKind::kMss, 1460},
                   {net::TcpOptionKind::kNop, 0},
                   {net::TcpOptionKind::kWindowScale, 8}};
  const Packet q = Packet::parse(p.serialize());
  EXPECT_TRUE(q.tcp_flags.syn);
  EXPECT_EQ(q.ttl, 128);
  EXPECT_EQ(q.tcp_window, 8192);
  EXPECT_EQ(q.tcp_options, p.tcp_options);
}

TEST(Packet, MixedFamilyRejected) {
  Packet p = net::make_udp(IpAddr::must_parse("10.0.0.1"), 1,
                           IpAddr::must_parse("10.0.0.2"), 2, {});
  p.dst = IpAddr::must_parse("2001:db8::1");
  EXPECT_THROW((void)p.serialize(), InvariantError);
}

TEST(Packet, ParseGarbageThrows) {
  const std::vector<std::uint8_t> garbage = {0xFF, 0x00, 0x11};
  EXPECT_THROW((void)Packet::parse(garbage), ParseError);
  EXPECT_THROW((void)Packet::parse({}), ParseError);
}

TEST(Packet, RandomUdpRoundTripProperty) {
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    const bool v4 = rng.chance(0.5);
    const IpAddr src = v4 ? IpAddr::v4(static_cast<std::uint32_t>(rng.u64()))
                          : IpAddr::v6(rng.u64(), rng.u64());
    const IpAddr dst = v4 ? IpAddr::v4(static_cast<std::uint32_t>(rng.u64()))
                          : IpAddr::v6(rng.u64(), rng.u64());
    std::vector<std::uint8_t> payload(rng.uniform(200));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.u64());
    const Packet p = net::make_udp(src, static_cast<std::uint16_t>(rng.u64()),
                                   dst, static_cast<std::uint16_t>(rng.u64()),
                                   payload,
                                   static_cast<std::uint8_t>(1 + rng.uniform(255)));
    const Packet q = Packet::parse(p.serialize());
    ASSERT_EQ(q.src, p.src);
    ASSERT_EQ(q.dst, p.dst);
    ASSERT_EQ(q.src_port, p.src_port);
    ASSERT_EQ(q.dst_port, p.dst_port);
    ASSERT_EQ(q.ttl, p.ttl);
    ASSERT_EQ(q.payload, p.payload);
  }
}

// --- special-purpose registries --------------------------------------------------------

class SpecialV4 : public ::testing::TestWithParam<const char*> {};

TEST_P(SpecialV4, IsSpecial) {
  EXPECT_TRUE(net::is_special_purpose(IpAddr::must_parse(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Cases, SpecialV4,
                         ::testing::Values("0.1.2.3", "10.200.1.1",
                                           "100.64.0.1", "127.0.0.1",
                                           "169.254.1.1", "172.31.255.255",
                                           "192.0.0.1", "192.0.2.99",
                                           "192.88.99.1", "192.168.0.10",
                                           "198.18.0.1", "198.51.100.1",
                                           "203.0.113.1", "224.0.0.1",
                                           "255.255.255.255"));

class SpecialV6 : public ::testing::TestWithParam<const char*> {};

TEST_P(SpecialV6, IsSpecial) {
  EXPECT_TRUE(net::is_special_purpose(IpAddr::must_parse(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Cases, SpecialV6,
                         ::testing::Values("::", "::1", "::ffff:1.2.3.4",
                                           "64:ff9b::1", "100::1",
                                           "2001:db8::1", "2002::1",
                                           "fc00::10", "fdff::1", "fe80::1",
                                           "ff02::1"));

class NotSpecial : public ::testing::TestWithParam<const char*> {};

TEST_P(NotSpecial, IsPublic) {
  EXPECT_FALSE(net::is_special_purpose(IpAddr::must_parse(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Cases, NotSpecial,
                         ::testing::Values("8.8.8.8", "1.1.1.1", "20.0.0.1",
                                           "172.32.0.1", "192.169.0.1",
                                           "223.255.255.255", "2400:19::1",
                                           "2620:fe::9", "2001:4860::8888"));

TEST(Special, Helpers) {
  EXPECT_TRUE(net::is_private_v4(IpAddr::must_parse("10.0.0.1")));
  EXPECT_FALSE(net::is_private_v4(IpAddr::must_parse("11.0.0.1")));
  EXPECT_FALSE(net::is_private_v4(IpAddr::must_parse("fc00::1")));
  EXPECT_TRUE(net::is_unique_local_v6(IpAddr::must_parse("fc00::10")));
  EXPECT_TRUE(net::is_unique_local_v6(IpAddr::must_parse("fd12::1")));
  EXPECT_FALSE(net::is_unique_local_v6(IpAddr::must_parse("fe80::1")));
  EXPECT_TRUE(net::is_loopback(IpAddr::must_parse("127.0.0.1")));
  EXPECT_TRUE(net::is_loopback(IpAddr::must_parse("127.255.0.1")));
  EXPECT_TRUE(net::is_loopback(IpAddr::must_parse("::1")));
  EXPECT_FALSE(net::is_loopback(IpAddr::must_parse("::2")));
}

/// The registry as a plain scan over Prefix::contains: what
/// is_special_purpose computed before its masked-compare table.
bool special_by_scan(const IpAddr& addr) {
  for (const net::Prefix& p : net::special_purpose_registry(addr.family())) {
    if (p.contains(addr)) return true;
  }
  return false;
}

/// `a` plus or minus one, wrapping within its family.
IpAddr step(const IpAddr& a, int delta) {
  if (a.is_v4()) {
    return IpAddr::v4(a.v4_bits() + static_cast<std::uint32_t>(delta));
  }
  return IpAddr::from_bits(a.family(), delta > 0 ? a.bits() + net::U128{1}
                                                 : a.bits() - net::U128{1});
}

TEST(Special, MaskedTableMatchesRegistryScan) {
  Rng rng(2020);
  std::vector<IpAddr> probes;
  // Every registry prefix's edges: one below its first address, the first
  // and last address, and one above the last.
  for (const net::IpFamily fam : {net::IpFamily::kV4, net::IpFamily::kV6}) {
    for (const net::Prefix& p : net::special_purpose_registry(fam)) {
      const IpAddr first = p.first();
      const IpAddr last = p.last();
      probes.push_back(step(first, -1));
      probes.push_back(first);
      probes.push_back(last);
      probes.push_back(step(last, +1));
      // Random addresses inside the prefix: random host bits.
      const net::U128 host = first.bits() ^ last.bits();
      for (int i = 0; i < 16; ++i) {
        const net::U128 r{rng.u64(), rng.u64()};
        probes.push_back(IpAddr::from_bits(fam, first.bits() | (r & host)));
      }
    }
  }
  // Random addresses: every v4 leading octet, and v6 with random or
  // registry-like leading words.
  for (int i = 0; i < 20'000; ++i) {
    probes.push_back(IpAddr::v4(static_cast<std::uint32_t>(rng.u64())));
    const std::uint64_t hi = rng.u64();
    probes.push_back(IpAddr::v6(hi, rng.u64()));
    probes.push_back(IpAddr::v6(hi >> (rng.u64() % 64), rng.u64() % 4));
  }
  int special = 0;
  for (const IpAddr& addr : probes) {
    const bool expect = special_by_scan(addr);
    special += expect ? 1 : 0;
    ASSERT_EQ(net::is_special_purpose(addr), expect) << addr.to_string();
    ASSERT_EQ(net::is_loopback(addr),
              addr.is_v4() ? (addr.v4_bits() >> 24) == 127
                           : addr == IpAddr::must_parse("::1"))
        << addr.to_string();
  }
  EXPECT_GT(special, 1000);  // the probes hit the registry, not just miss it
}

}  // namespace
