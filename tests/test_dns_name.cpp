// Unit tests: DNS names and wire encoding (compression, pointers, limits),
// plus a randomized differential against the one-string-per-label reference
// implementation (tests/support/reference_dns_name.h).
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "dns/name.h"
#include "support/reference_dns_name.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace cd;
using dns::DnsName;
using dns::testing::ReferenceDnsName;

TEST(DnsName, ParseAndFormat) {
  const auto n = DnsName::must_parse("a.b.Example.ORG");
  EXPECT_EQ(n.label_count(), 4u);
  EXPECT_EQ(n.to_string(), "a.b.Example.ORG.");
  EXPECT_EQ(DnsName::must_parse("a.b.example.org.").to_string(),
            "a.b.example.org.");
}

TEST(DnsName, Root) {
  const DnsName root;
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.to_string(), ".");
  EXPECT_EQ(DnsName::must_parse(".").label_count(), 0u);
  EXPECT_EQ(root.wire_length(), 1u);
}

TEST(DnsName, ParseInvalid) {
  EXPECT_FALSE(DnsName::parse(""));
  EXPECT_FALSE(DnsName::parse("a..b"));
  EXPECT_FALSE(DnsName::parse(std::string(64, 'x') + ".org"));  // label > 63
  // Total name too long: 5 labels of 63 = 320 > 255.
  std::string huge;
  for (int i = 0; i < 5; ++i) huge += std::string(63, 'a') + ".";
  EXPECT_FALSE(DnsName::parse(huge));
}

TEST(DnsName, CaseInsensitiveEquality) {
  EXPECT_EQ(DnsName::must_parse("DNS-Lab.Org"),
            DnsName::must_parse("dns-lab.org"));
  dns::DnsNameHash hash;
  EXPECT_EQ(hash(DnsName::must_parse("A.B.c")),
            hash(DnsName::must_parse("a.b.C")));
}

TEST(DnsName, Subdomain) {
  const auto apex = DnsName::must_parse("dns-lab.org");
  EXPECT_TRUE(DnsName::must_parse("x.dns-lab.org").is_subdomain_of(apex));
  EXPECT_TRUE(apex.is_subdomain_of(apex));
  EXPECT_TRUE(apex.is_subdomain_of(DnsName()));  // everything under root
  EXPECT_FALSE(DnsName::must_parse("dns-lab.com").is_subdomain_of(apex));
  EXPECT_FALSE(DnsName::must_parse("xdns-lab.org").is_subdomain_of(apex));
  EXPECT_FALSE(DnsName::must_parse("org").is_subdomain_of(apex));
}

TEST(DnsName, ParentPrependSuffix) {
  const auto n = DnsName::must_parse("a.b.c");
  EXPECT_EQ(n.parent(), DnsName::must_parse("b.c"));
  EXPECT_EQ(DnsName().parent(), DnsName());
  EXPECT_EQ(n.prepend("x"), DnsName::must_parse("x.a.b.c"));
  EXPECT_EQ(n.suffix(1), DnsName::must_parse("c"));
  EXPECT_EQ(n.suffix(3), n);
  EXPECT_EQ(n.suffix(9), n);
  EXPECT_EQ(n.suffix(0), DnsName());
}

TEST(DnsName, CanonicalOrdering) {
  // Right-to-left label comparison.
  EXPECT_LT(DnsName::must_parse("z.a.org"), DnsName::must_parse("a.b.org"));
  EXPECT_LT(DnsName::must_parse("org"), DnsName::must_parse("a.org"));
  EXPECT_LT(DnsName(), DnsName::must_parse("com"));
}

TEST(NameWire, EncodeDecodeNoCompression) {
  std::vector<std::uint8_t> wire;
  dns::encode_name(DnsName::must_parse("www.example.org"), wire, nullptr);
  EXPECT_EQ(wire.size(), 1 + 3 + 1 + 7 + 1 + 3 + 1);
  std::size_t off = 0;
  EXPECT_EQ(dns::decode_name(wire, off), DnsName::must_parse("www.example.org"));
  EXPECT_EQ(off, wire.size());
}

TEST(NameWire, CompressionShrinksRepeats) {
  std::vector<std::uint8_t> plain, compressed;
  dns::NameCompressor comp;
  const auto n1 = DnsName::must_parse("a.example.org");
  const auto n2 = DnsName::must_parse("b.example.org");
  dns::encode_name(n1, plain, nullptr);
  dns::encode_name(n2, plain, nullptr);
  dns::encode_name(n1, compressed, &comp);
  dns::encode_name(n2, compressed, &comp);
  EXPECT_LT(compressed.size(), plain.size());

  std::size_t off = 0;
  EXPECT_EQ(dns::decode_name(compressed, off), n1);
  EXPECT_EQ(dns::decode_name(compressed, off), n2);
  EXPECT_EQ(off, compressed.size());
}

TEST(NameWire, FullPointerReuse) {
  dns::NameCompressor comp;
  std::vector<std::uint8_t> wire;
  const auto n = DnsName::must_parse("repeat.example.org");
  dns::encode_name(n, wire, &comp);
  const std::size_t first = wire.size();
  dns::encode_name(n, wire, &comp);
  EXPECT_EQ(wire.size(), first + 2);  // exactly one pointer
  std::size_t off = first;
  EXPECT_EQ(dns::decode_name(wire, off), n);
}

TEST(NameWire, RejectsPointerLoop) {
  // A pointer that points at itself.
  const std::vector<std::uint8_t> wire = {0xC0, 0x00};
  std::size_t off = 0;
  EXPECT_THROW((void)dns::decode_name(wire, off), ParseError);
}

TEST(NameWire, RejectsForwardPointer) {
  const std::vector<std::uint8_t> wire = {0xC0, 0x04, 0x00, 0x00, 0x00};
  std::size_t off = 0;
  EXPECT_THROW((void)dns::decode_name(wire, off), ParseError);
}

TEST(NameWire, RejectsTruncation) {
  std::vector<std::uint8_t> wire;
  dns::encode_name(DnsName::must_parse("abcdef.org"), wire, nullptr);
  wire.resize(wire.size() - 3);
  std::size_t off = 0;
  EXPECT_THROW((void)dns::decode_name(wire, off), ParseError);
}

TEST(NameWire, RandomRoundTripProperty) {
  Rng rng(6);
  static const char* kLabels[] = {"a", "bb", "ccc", "example", "x1",
                                  "0123456789abcdef", "v4", "org"};
  for (int i = 0; i < 500; ++i) {
    DnsName name;
    const std::size_t n = 1 + rng.uniform(6);
    for (std::size_t j = 0; j < n; ++j) {
      name = name.prepend(kLabels[rng.uniform(8)]);
    }
    std::vector<std::uint8_t> wire;
    dns::NameCompressor comp;
    dns::encode_name(name, wire, &comp);
    std::size_t off = 0;
    ASSERT_EQ(dns::decode_name(wire, off), name);
  }
}

TEST(DnsName, LabelViewsAndMultiLabelPrepend) {
  const auto base = DnsName::must_parse("Dns-Lab.org");
  const DnsName n = base.prepend({"ts", "SRC", "m0"});
  EXPECT_EQ(n.to_string(), "ts.SRC.m0.Dns-Lab.org.");
  EXPECT_EQ(n.label_count(), 5u);
  EXPECT_EQ(n.label(0), "ts");
  EXPECT_EQ(n.label(1), "SRC");
  EXPECT_EQ(n.label(3), "Dns-Lab");
  EXPECT_EQ(n, base.prepend("m0").prepend("SRC").prepend("ts"));
  EXPECT_EQ(n.hash(), base.prepend("m0").prepend("src").prepend("TS").hash());
  EXPECT_THROW((void)base.prepend({"ok", ""}), InvariantError);
  EXPECT_THROW((void)base.prepend(std::string(64, 'x')), InvariantError);
}

TEST(DnsName, SuffixTableMatchesBuiltSuffixes) {
  const auto n = DnsName::must_parse("A.bb.Example.ORG");
  const dns::NameSuffixes table(n);
  ASSERT_EQ(table.label_count(), 4u);
  for (std::size_t k = 0; k <= 4; ++k) {
    const DnsName built = n.suffix(k);
    EXPECT_EQ(table[k].wire, built.wire()) << k;
    EXPECT_EQ(table[k].hash, built.hash()) << k;
  }
  char buf[dns::kMaxNameWire];
  const dns::NameRef wild = dns::prepend_label("*", table[2], buf);
  EXPECT_EQ(wild.wire, DnsName::must_parse("*.Example.ORG").wire());
  EXPECT_EQ(wild.hash, DnsName::must_parse("*.EXAMPLE.org").hash());
}

TEST(NameWire, DecodeRejectsOverlongName) {
  // 127 one-octet labels are 254 wire octets plus the root byte: the
  // longest legal name. One more octet in any label is too long.
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 127; ++i) wire.insert(wire.end(), {1, 'a'});
  wire.push_back(0);
  std::size_t off = 0;
  EXPECT_EQ(dns::decode_name(wire, off).label_count(), 127u);
  wire[0] = 2;
  wire.insert(wire.begin() + 1, 'b');
  off = 0;
  EXPECT_THROW((void)dns::decode_name(wire, off), ParseError);
}

// --- differential against the reference implementation ----------------------

/// One random name in both representations.
struct NamePair {
  DnsName flat;
  ReferenceDnsName ref;
};

/// Random label over a small alphabet (mixed case, digits, '-', '_', '*'
/// and one high byte) so equal, case-variant and prefix labels are common.
std::string random_label(Rng& rng) {
  static const char kAlphabet[] = "aAbBzZ09-_*\xC3";
  const std::size_t len =
      rng.chance(0.05) ? 40 + rng.uniform(24) : 1 + rng.uniform(3);
  std::string label;
  for (std::size_t i = 0; i < len; ++i) {
    label += kAlphabet[rng.uniform(sizeof(kAlphabet) - 1)];
  }
  return label;
}

/// Mixed-case copy of `label`.
std::string recase(Rng& rng, std::string label) {
  for (char& c : label) {
    if (std::isalpha(static_cast<unsigned char>(c)) && rng.chance(0.5)) {
      c = static_cast<char>(c ^ 0x20);
    }
  }
  return label;
}

/// Builds a name of up to six labels on top of one of a few shared
/// suffixes, re-cased at random, in both representations.
NamePair random_name(Rng& rng) {
  static const std::vector<std::vector<std::string>> kTails = {
      {}, {"org"}, {"dns-lab", "org"}, {"a", "Org"}, {"ZZ"}};
  std::vector<std::string> labels;
  const std::size_t n = rng.uniform(6);
  for (std::size_t i = 0; i < n; ++i) labels.push_back(random_label(rng));
  for (const auto& l : kTails[rng.uniform(kTails.size())]) {
    labels.push_back(l);
  }
  NamePair p;
  std::size_t wire = 1;
  for (std::size_t i = labels.size(); i-- > 0;) {
    const std::string l = recase(rng, labels[i]);
    if (wire + 1 + l.size() > 255) break;
    wire += 1 + l.size();
    p.flat = p.flat.prepend(l);
    p.ref = p.ref.prepend(l);
  }
  return p;
}

void expect_same(const NamePair& p) {
  ASSERT_EQ(p.flat.to_string(), p.ref.to_string());
  ASSERT_EQ(p.flat.label_count(), p.ref.label_count());
  ASSERT_EQ(p.flat.wire_length(), p.ref.wire_length());
  ASSERT_EQ(p.flat.is_root(), p.ref.is_root());
  for (std::size_t i = 0; i < p.flat.label_count(); ++i) {
    ASSERT_EQ(p.flat.label(i), p.ref.labels()[i]);
  }
  // Labels here are dot-free, so the presentation form parses back.
  const auto parsed = DnsName::parse(p.ref.to_string());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->wire(), p.flat.wire());
}

TEST(DnsNameDifferential, RelationsMatchReference) {
  Rng rng(15);
  dns::DnsNameHash hash;
  for (int i = 0; i < 4000; ++i) {
    const NamePair a = random_name(rng);
    const NamePair b = rng.chance(0.2) ? NamePair{a.flat, a.ref}
                                       : random_name(rng);
    expect_same(a);
    ASSERT_EQ(a.flat == b.flat, a.ref == b.ref)
        << a.ref.to_string() << " vs " << b.ref.to_string();
    ASSERT_EQ(a.flat < b.flat, a.ref < b.ref)
        << a.ref.to_string() << " vs " << b.ref.to_string();
    ASSERT_EQ(b.flat < a.flat, b.ref < a.ref)
        << a.ref.to_string() << " vs " << b.ref.to_string();
    ASSERT_EQ(a.flat.is_subdomain_of(b.flat), a.ref.is_subdomain_of(b.ref));
    ASSERT_EQ(b.flat.is_subdomain_of(a.flat), b.ref.is_subdomain_of(a.ref));
    if (a.ref == b.ref) {
      ASSERT_EQ(hash(a.flat), hash(b.flat));
    }
  }
}

TEST(DnsNameDifferential, DerivedNamesMatchReference) {
  Rng rng(16);
  for (int i = 0; i < 2000; ++i) {
    const NamePair p = random_name(rng);
    expect_same({p.flat.parent(), p.ref.parent()});
    const std::size_t n = rng.uniform(p.ref.label_count() + 2);
    const NamePair suffix{p.flat.suffix(n), p.ref.suffix(n)};
    expect_same(suffix);
    const dns::NameSuffixes table(p.flat);
    const std::size_t k = std::min(n, p.flat.label_count());
    ASSERT_EQ(table[k].wire, suffix.flat.wire());
    ASSERT_EQ(table[k].hash, suffix.flat.hash());
    const std::string label = random_label(rng);
    if (p.ref.wire_length() + 1 + label.size() <= 255) {
      expect_same({p.flat.prepend(label), p.ref.prepend(label)});
    }
  }
}

TEST(DnsNameDifferential, WireRoundTripMatchesReference) {
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const NamePair p = random_name(rng);
    std::vector<std::uint8_t> flat_wire;
    std::vector<std::uint8_t> ref_wire;
    dns::encode_name(p.flat, flat_wire, nullptr);
    ByteWriter w(ref_wire);
    dns::testing::reference_encode_name(p.ref, w, nullptr);
    ASSERT_EQ(flat_wire, ref_wire);
    std::size_t off = 0;
    const DnsName decoded = dns::decode_name(flat_wire, off);
    ByteReader r(ref_wire, "reference");
    const ReferenceDnsName ref_decoded = dns::testing::reference_decode_name(r);
    ASSERT_EQ(off, r.pos());
    expect_same({decoded, ref_decoded});
    ASSERT_EQ(decoded, p.flat);
  }
}

TEST(DnsNameDifferential, CompressedMessagesMatchReferenceBytes) {
  // Several names per message, sharing suffixes and re-cased, so pointers
  // hit full names, proper suffixes and case variants. Labels are dot-free
  // (random_label never emits '.'): the reference's dotted compression key
  // conflates a '.' inside a label with a label boundary.
  Rng rng(18);
  dns::NameCompressor comp;  // reused across messages, as encode_into does
  for (int i = 0; i < 1000; ++i) {
    std::vector<NamePair> names;
    const std::size_t n = 2 + rng.uniform(7);
    for (std::size_t j = 0; j < n; ++j) {
      if (!names.empty() && rng.chance(0.3)) {
        const NamePair& prev = names[rng.uniform(names.size())];
        const std::string l = random_label(rng);
        if (prev.ref.wire_length() + 1 + l.size() <= 255) {
          names.push_back({prev.flat.prepend(l), prev.ref.prepend(l)});
          continue;
        }
      }
      names.push_back(random_name(rng));
    }
    std::vector<std::uint8_t> flat_wire(12, 0);  // a header's worth first
    std::vector<std::uint8_t> ref_wire(12, 0);
    comp.clear();
    dns::testing::ReferenceNameCompressor ref_comp;
    ByteWriter fw(flat_wire, 0);
    ByteWriter rw(ref_wire, 0);
    for (const NamePair& p : names) {
      dns::encode_name(p.flat, fw, &comp);
      dns::testing::reference_encode_name(p.ref, rw, &ref_comp);
    }
    ASSERT_EQ(flat_wire, ref_wire) << "message " << i;
    std::size_t off = 12;
    for (const NamePair& p : names) {
      ASSERT_EQ(dns::decode_name(flat_wire, off), p.flat);
    }
    ASSERT_EQ(off, flat_wire.size());
  }
}

}  // namespace
