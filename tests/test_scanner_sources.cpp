// Unit + property tests: spoofed-source selection (§3.2).
#include <gtest/gtest.h>

#include <set>

#include "net/special.h"
#include "scanner/source_select.h"

namespace {

using namespace cd;
using net::IpAddr;
using net::Prefix;
using scanner::SourceCategory;
using scanner::SourceSelector;
using scanner::SpoofedSource;

struct SelectFixture {
  sim::Topology topology;

  SelectFixture() {
    topology.add_as(100);  // large AS: a /16 (256 /24s)
    topology.announce(100, Prefix::must_parse("20.0.0.0/16"));
    topology.add_as(200);  // small AS: one /22 (4 /24s)
    topology.announce(200, Prefix::must_parse("21.0.0.0/22"));
    topology.add_as(300);  // v6 AS
    topology.announce(300, Prefix::must_parse("2400:30::/32"));
    topology.announce(300, Prefix::must_parse("22.0.0.0/24"));
  }

  SourceSelector make(std::vector<IpAddr> hitlist = {},
                      scanner::SourceSelectConfig config = {}) {
    return SourceSelector(topology, std::move(hitlist), config, Rng(5));
  }
};

std::map<SourceCategory, std::vector<IpAddr>> by_category(
    const std::vector<SpoofedSource>& sources) {
  std::map<SourceCategory, std::vector<IpAddr>> out;
  for (const auto& s : sources) out[s.category].push_back(s.addr);
  return out;
}

TEST(SourceSelector, AllCategoriesPresentV4) {
  SelectFixture f;
  auto selector = f.make();
  const auto target = IpAddr::must_parse("20.0.5.10");
  const auto cats = by_category(selector.sources_for(target, 100));
  EXPECT_EQ(cats.at(SourceCategory::kOtherPrefix).size(), 97u);
  EXPECT_EQ(cats.at(SourceCategory::kSamePrefix).size(), 1u);
  EXPECT_EQ(cats.at(SourceCategory::kPrivate),
            std::vector<IpAddr>{IpAddr::must_parse("192.168.0.10")});
  EXPECT_EQ(cats.at(SourceCategory::kDstAsSrc), std::vector<IpAddr>{target});
  EXPECT_EQ(cats.at(SourceCategory::kLoopback),
            std::vector<IpAddr>{IpAddr::must_parse("127.0.0.1")});
}

TEST(SourceSelector, TotalNeverExceeds101) {
  SelectFixture f;
  auto selector = f.make();
  EXPECT_LE(selector.sources_for(IpAddr::must_parse("20.0.5.10"), 100).size(),
            101u);
}

TEST(SourceSelector, SmallAsYieldsFewerOtherPrefixes) {
  SelectFixture f;
  auto selector = f.make();
  const auto cats =
      by_category(selector.sources_for(IpAddr::must_parse("21.0.1.7"), 200));
  // 4 /24s minus the target's own leaves 3.
  EXPECT_EQ(cats.at(SourceCategory::kOtherPrefix).size(), 3u);
}

TEST(SourceSelector, OtherPrefixPropertiesV4) {
  SelectFixture f;
  auto selector = f.make();
  const auto target = IpAddr::must_parse("20.0.5.10");
  const Prefix target_p24(target, 24);
  const auto cats = by_category(selector.sources_for(target, 100));
  std::set<net::U128, net::U128Hash> p24s;
  std::set<cd::net::U128> unused;
  std::set<std::string> seen24;
  for (const IpAddr& addr : cats.at(SourceCategory::kOtherPrefix)) {
    // In the AS, not in the target's own /24, one per /24, valid host part.
    EXPECT_TRUE(Prefix::must_parse("20.0.0.0/16").contains(addr));
    EXPECT_FALSE(target_p24.contains(addr));
    const std::uint32_t last_octet = addr.v4_bits() & 0xFF;
    EXPECT_GE(last_octet, 1u);
    EXPECT_LE(last_octet, 254u);
    EXPECT_TRUE(seen24.insert(Prefix(addr, 24).to_string()).second)
        << "duplicate /24";
  }
}

TEST(SourceSelector, SamePrefixInTargets24ButDistinct) {
  SelectFixture f;
  auto selector = f.make();
  for (int i = 0; i < 20; ++i) {
    const auto target = IpAddr::v4(0x14000000u + static_cast<unsigned>(i * 259 + 17));
    const auto cats = by_category(selector.sources_for(target, 100));
    const IpAddr same = cats.at(SourceCategory::kSamePrefix).front();
    EXPECT_TRUE(Prefix(target, 24).contains(same));
    EXPECT_NE(same, target);
  }
}

TEST(SourceSelector, V6UsesUlaAndV6Loopback) {
  SelectFixture f;
  auto selector = f.make();
  const auto target = IpAddr::must_parse("2400:30:0:5::10");
  const auto cats = by_category(selector.sources_for(target, 300));
  EXPECT_EQ(cats.at(SourceCategory::kPrivate),
            std::vector<IpAddr>{IpAddr::must_parse("fc00::10")});
  EXPECT_EQ(cats.at(SourceCategory::kLoopback),
            std::vector<IpAddr>{IpAddr::must_parse("::1")});
}

TEST(SourceSelector, V6HostSelectionWindow) {
  SelectFixture f;
  auto selector = f.make();
  const auto target = IpAddr::must_parse("2400:30:0:5::10");
  const auto cats = by_category(selector.sources_for(target, 300));
  for (const IpAddr& addr : cats.at(SourceCategory::kOtherPrefix)) {
    EXPECT_TRUE(addr.is_v6());
    // Within the first 100 addresses of its /64, skipping the first 2.
    const std::uint64_t offset = addr.bits().lo & 0xFFFFFFFFFFFFFFFFULL;
    const std::uint64_t host = offset - (Prefix(addr, 64).base().bits().lo);
    EXPECT_GE(host, 2u);
    EXPECT_LT(host, 100u);
  }
  const IpAddr same = cats.at(SourceCategory::kSamePrefix).front();
  EXPECT_TRUE(Prefix(target, 64).contains(same));
  EXPECT_NE(same, target);
}

TEST(SourceSelector, HitlistBiasesV6Selection) {
  SelectFixture f;
  // Hitlist: three active /64s in AS 300.
  std::vector<IpAddr> hitlist = {IpAddr::must_parse("2400:30:0:aa::5"),
                                 IpAddr::must_parse("2400:30:0:bb::9"),
                                 IpAddr::must_parse("2400:30:0:cc::1")};
  auto selector = f.make(hitlist);
  const auto target = IpAddr::must_parse("2400:30:0:5::10");
  const auto cats = by_category(selector.sources_for(target, 300));
  std::set<std::string> chosen64;
  for (const IpAddr& addr : cats.at(SourceCategory::kOtherPrefix)) {
    chosen64.insert(Prefix(addr, 64).to_string());
  }
  // All hitlist /64s appear among the selected other-prefixes.
  EXPECT_TRUE(chosen64.count("2400:30:0:aa::/64"));
  EXPECT_TRUE(chosen64.count("2400:30:0:bb::/64"));
  EXPECT_TRUE(chosen64.count("2400:30:0:cc::/64"));
}

TEST(SourceSelector, DeterministicPerTarget) {
  SelectFixture f;
  auto s1 = f.make();
  auto s2 = f.make();
  const auto target = IpAddr::must_parse("20.0.77.42");
  // Same seed, same target -> identical lists, regardless of call order.
  (void)s2.sources_for(IpAddr::must_parse("20.0.1.1"), 100);
  EXPECT_EQ(s1.sources_for(target, 100), s2.sources_for(target, 100));
}

TEST(SourceSelector, CapConfigurable) {
  SelectFixture f;
  scanner::SourceSelectConfig config;
  config.max_other_prefixes = 10;
  auto selector = f.make({}, config);
  const auto cats =
      by_category(selector.sources_for(IpAddr::must_parse("20.0.5.10"), 100));
  EXPECT_EQ(cats.at(SourceCategory::kOtherPrefix).size(), 10u);
}

/// FNV-1a over a source list (family, address bits, category), to pin long
/// lists compactly.
std::uint64_t list_digest(const std::vector<SpoofedSource>& sources) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const SpoofedSource& s : sources) {
    mix(s.addr.is_v4() ? 4 : 6);
    mix(s.addr.bits().hi);
    mix(s.addr.bits().lo);
    mix(static_cast<std::uint64_t>(s.category));
  }
  return h;
}

/// Every other-prefix source in its own subprefix, none in the target's.
void expect_distinct_subprefixes(const std::vector<IpAddr>& others,
                                 const IpAddr& target) {
  const int len = target.is_v4() ? 24 : 64;
  std::set<std::string> seen;
  for (const IpAddr& addr : others) {
    EXPECT_FALSE(Prefix(target, len).contains(addr)) << addr.to_string();
    EXPECT_TRUE(seen.insert(Prefix(addr, len).to_string()).second)
        << "two sources in " << Prefix(addr, len).to_string();
  }
}

// A cap of 400 takes every path past its default size: a /14 (1,024 /24s,
// at most 4x the cap, so enumerated), a /12 (4,096 /24s: weighted draws)
// and a v6 /40. The lists are pinned, so the dedup table's sizing cannot
// change them.
TEST(SourceSelector, CapAboveDefault) {
  sim::Topology topology;
  topology.add_as(10);
  topology.announce(10, Prefix::must_parse("30.0.0.0/14"));
  topology.add_as(11);
  topology.announce(11, Prefix::must_parse("32.0.0.0/12"));
  topology.add_as(12);
  topology.announce(12, Prefix::must_parse("2400:40::/40"));
  scanner::SourceSelectConfig config;
  config.max_other_prefixes = 400;
  SourceSelector selector(topology, {}, config, Rng(5));

  const struct {
    IpAddr target;
    sim::Asn asn;
    std::uint64_t digest;
  } cases[] = {
      {IpAddr::must_parse("30.1.2.3"), 10, 13105825951411191477ull},
      {IpAddr::must_parse("32.7.8.9"), 11, 16444302404400193406ull},
      {IpAddr::must_parse("2400:40:0:5::9"), 12, 456525765056647534ull},
  };
  for (const auto& c : cases) {
    const auto sources = selector.sources_for(c.target, c.asn);
    const auto cats = by_category(sources);
    EXPECT_EQ(cats.at(SourceCategory::kOtherPrefix).size(), 400u);
    expect_distinct_subprefixes(cats.at(SourceCategory::kOtherPrefix),
                                c.target);
    EXPECT_EQ(list_digest(sources), c.digest) << c.target.to_string();
  }
}

// Overlapping announcements list some /24s more than once. Deduplication
// keeps each /24's first occurrence, and the list it leaves feeds the
// shuffle, so the order of survivors is part of the result: pinned here.
TEST(SourceSelector, OverlappingAnnouncementsKeepFirstOccurrence) {
  sim::Topology topology;
  topology.add_as(20);  // small: /24s enumerated
  // Listed in order: .3, .0 (.1), .0 (.1) .2 .3, .2. Before the shuffle,
  // keeping first occurrences leaves .3 .0 .2; keeping last ones would
  // leave .0 .3 .2.
  for (const char* p : {"30.8.3.0/24", "30.8.0.0/23", "30.8.0.0/22",
                        "30.8.2.0/24"}) {
    topology.announce(20, Prefix::must_parse(p));
  }
  topology.add_as(21);  // large: weighted draws over 640 listed /24s
  for (const char* p : {"40.0.0.0/16", "40.0.0.0/17", "40.0.0.0/16"}) {
    topology.announce(21, Prefix::must_parse(p));
  }
  SourceSelector selector(topology, {}, {}, Rng(5));

  const IpAddr small_target = IpAddr::must_parse("30.8.1.7");
  const auto small = by_category(selector.sources_for(small_target, 20));
  const std::vector<IpAddr> pinned = {IpAddr::must_parse("30.8.2.56"),
                                      IpAddr::must_parse("30.8.3.81"),
                                      IpAddr::must_parse("30.8.0.67")};
  EXPECT_EQ(small.at(SourceCategory::kOtherPrefix), pinned);
  expect_distinct_subprefixes(small.at(SourceCategory::kOtherPrefix),
                              small_target);

  const IpAddr large_target = IpAddr::must_parse("40.0.9.9");
  const auto large = selector.sources_for(large_target, 21);
  const auto large_cats = by_category(large);
  EXPECT_EQ(large_cats.at(SourceCategory::kOtherPrefix).size(), 97u);
  expect_distinct_subprefixes(large_cats.at(SourceCategory::kOtherPrefix),
                              large_target);
  EXPECT_EQ(list_digest(large), 15711778266256331620ull);
}

// Property tests over a generated population: 500 v4 ASes with prefix
// lengths /16../24 and 500 v6 ASes with /40../48, one random target each.
// For every target the paper's selection invariants must hold: the
// other-prefix cap, one source per other subprefix, never the target's own
// /24 (/64), and host parts that skip network/broadcast (v4) or the
// router window (v6).
TEST(SourceSelectorProperty, RandomizedAsPopulation) {
  sim::Topology topology;
  Rng gen(0xA5);  // fixed seed: reproducible population
  struct Case {
    sim::Asn asn;
    Prefix prefix;
    IpAddr target;
  };
  std::vector<Case> cases;

  for (int i = 0; i < 500; ++i) {  // v4: distinct aligned /16 blocks
    const auto asn = static_cast<sim::Asn>(1000 + i);
    const IpAddr block = IpAddr::v4(static_cast<std::uint8_t>(40 + i / 256),
                                    static_cast<std::uint8_t>(i % 256), 0, 0);
    const int len = 16 + 2 * static_cast<int>(gen.uniform(5));  // 16..24
    const Prefix prefix(block, len);
    topology.add_as(asn);
    topology.announce(asn, prefix);
    const std::uint64_t host =
        1 + gen.uniform(std::min<std::uint64_t>(prefix.size_clamped() - 2,
                                                60000));
    cases.push_back({asn, prefix, prefix.nth(host)});
  }
  for (int i = 0; i < 500; ++i) {  // v6: distinct /32 blocks
    const auto asn = static_cast<sim::Asn>(5000 + i);
    const IpAddr block =
        IpAddr::v6(0x2600000000000000ULL | (static_cast<std::uint64_t>(i) << 32),
                   0);
    const int len = 40 + 2 * static_cast<int>(gen.uniform(5));  // 40..48
    const Prefix prefix(block, len);
    topology.add_as(asn);
    topology.announce(asn, prefix);
    // Random /64 within the prefix, random host in the active window.
    const std::uint64_t subnet = gen.uniform(1u << 10);
    const IpAddr p64 = prefix.base().offset_by(0).is_v6()
                           ? IpAddr::v6(prefix.base().bits().hi | subnet, 0)
                           : prefix.base();
    cases.push_back({asn, prefix, p64.offset_by(2 + gen.uniform(98))});
  }

  SourceSelector selector(topology, {}, {}, Rng(7));
  for (const Case& c : cases) {
    const int sub_len = c.target.is_v4() ? 24 : 64;
    const Prefix own(c.target, sub_len);
    const auto cats = by_category(selector.sources_for(c.target, c.asn));

    const auto other_it = cats.find(SourceCategory::kOtherPrefix);
    const std::size_t n_other =
        other_it == cats.end() ? 0 : other_it->second.size();
    EXPECT_LE(n_other, 97u) << c.target.to_string();
    const std::uint64_t subprefixes = c.prefix.count_subprefixes(sub_len);
    EXPECT_EQ(n_other,
              std::min<std::uint64_t>(97, subprefixes - 1))
        << c.prefix.to_string();

    std::set<std::string> seen_sub;
    if (other_it != cats.end()) {
      for (const IpAddr& addr : other_it->second) {
        EXPECT_TRUE(c.prefix.contains(addr)) << addr.to_string();
        EXPECT_FALSE(own.contains(addr))
            << addr.to_string() << " collides with target subprefix of "
            << c.target.to_string();
        EXPECT_TRUE(seen_sub.insert(Prefix(addr, sub_len).to_string()).second)
            << "two sources in one subprefix";
        if (addr.is_v4()) {
          const std::uint32_t octet = addr.v4_bits() & 0xFF;
          EXPECT_GE(octet, 1u) << addr.to_string();    // not network address
          EXPECT_LE(octet, 254u) << addr.to_string();  // not broadcast
        } else {
          const std::uint64_t host =
              addr.bits().lo - Prefix(addr, 64).base().bits().lo;
          EXPECT_GE(host, 2u) << addr.to_string();   // router window skipped
          EXPECT_LT(host, 100u) << addr.to_string(); // active window only
        }
      }
    }

    const auto& same = cats.at(SourceCategory::kSamePrefix);
    ASSERT_EQ(same.size(), 1u);
    EXPECT_TRUE(own.contains(same.front()));
    EXPECT_NE(same.front(), c.target);
    EXPECT_EQ(cats.at(SourceCategory::kDstAsSrc),
              std::vector<IpAddr>{c.target});
  }
}

TEST(SourceSelector, CategoryNames) {
  EXPECT_EQ(scanner::source_category_name(SourceCategory::kOtherPrefix),
            "Other Prefix");
  EXPECT_EQ(scanner::source_category_name(SourceCategory::kLoopback),
            "Loopback");
}

}  // namespace
