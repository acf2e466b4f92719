// Unit tests: the unified wire codec (ByteReader/ByteWriter/BufferPool),
// randomized round-trip properties over Packet and DnsMessage, and a
// truncation fuzzer — every strict prefix of valid wire bytes must throw
// cd::ParseError, never crash or over-read (run under ASan by scripts/ci.sh).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dns/message.h"
#include "net/headers.h"
#include "net/packet.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace cd;
using dns::DnsMessage;
using dns::DnsName;
using dns::RrType;
using net::IpAddr;
using net::Packet;

// --- ByteReader -------------------------------------------------------------

TEST(ByteReader, BigEndianPrimitives) {
  const std::vector<std::uint8_t> data{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC,
                                       0xDE};
  ByteReader r(data, "test");
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u32(), 0x789ABCDEu);
  EXPECT_TRUE(r.done());
}

TEST(ByteReader, BytesIsZeroCopySubspan) {
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  ByteReader r(data, "test");
  r.skip(1);
  const auto s = r.bytes(3);
  EXPECT_EQ(s.data(), data.data() + 1);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(ByteReader, PeekAndSeek) {
  const std::vector<std::uint8_t> data{7, 8, 9};
  ByteReader r(data, "test");
  EXPECT_EQ(r.peek_u8(), 7);
  EXPECT_EQ(r.pos(), 0u);
  r.seek(2);
  EXPECT_EQ(r.u8(), 9);
  r.seek(3);  // end is a valid position
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.seek(4), ParseError);
}

TEST(ByteReader, EveryOverReadThrowsParseError) {
  const std::vector<std::uint8_t> data{1, 2, 3};
  ByteReader r(data, "layer");
  r.skip(2);
  EXPECT_THROW(r.u16(), ParseError);
  EXPECT_THROW(r.u32(), ParseError);
  EXPECT_THROW(r.bytes(2), ParseError);
  EXPECT_THROW(r.skip(2), ParseError);
  EXPECT_EQ(r.pos(), 2u) << "failed reads must not advance the cursor";
  try {
    r.bytes(100);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("layer"), std::string::npos)
        << "error message should name the protocol layer";
  }
}

// --- ByteWriter -------------------------------------------------------------

TEST(ByteWriter, BigEndianAppend) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789ABCDEu);
  const std::vector<std::uint8_t> want{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC,
                                       0xDE};
  EXPECT_EQ(out, want);
  EXPECT_EQ(w.size(), out.size());
}

TEST(ByteWriter, ReservePatchAndWritten) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u16(0xAAAA);
  const std::size_t pos = w.reserve_u16();
  w.u16(0xBBBB);
  w.patch_u16(pos, 0x1234);
  const std::vector<std::uint8_t> want{0xAA, 0xAA, 0x12, 0x34, 0xBB, 0xBB};
  EXPECT_EQ(out, want);
  EXPECT_EQ(w.written().size(), 6u);
  EXPECT_EQ(w.written(4).size(), 2u);
  EXPECT_EQ(w.written(4)[0], 0xBB);
}

TEST(ByteWriter, NestedWriterOffsetsAreBaseRelative) {
  // A writer constructed mid-buffer acts as if its message starts at offset
  // zero — the invariant TCP framing and DNS compression rely on.
  std::vector<std::uint8_t> out{0xFF, 0xFF};  // pre-existing prefix
  ByteWriter inner(out);
  EXPECT_EQ(inner.size(), 0u);
  const std::size_t pos = inner.reserve_u16();
  EXPECT_EQ(pos, 0u);
  inner.u8(0x55);
  inner.patch_u16(pos, 0xABCD);
  const std::vector<std::uint8_t> want{0xFF, 0xFF, 0xAB, 0xCD, 0x55};
  EXPECT_EQ(out, want);
  EXPECT_EQ(inner.size(), 3u);
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, RecyclesCapacityOnSameThread) {
  std::vector<std::uint8_t> buf = BufferPool::acquire();
  buf.assign(1000, 0x42);
  const std::uint8_t* data = buf.data();
  const std::size_t cap = buf.capacity();
  const std::size_t idle_before = BufferPool::idle_count();
  BufferPool::release(std::move(buf));
  EXPECT_EQ(BufferPool::idle_count(), idle_before + 1);

  std::vector<std::uint8_t> again = BufferPool::acquire();
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(again.capacity(), cap);
  EXPECT_EQ(again.data(), data) << "capacity should be recycled, not realloced";
  EXPECT_EQ(BufferPool::idle_count(), idle_before);
  BufferPool::release(std::move(again));
}

TEST(BufferPool, DropsUselessBuffers) {
  const std::size_t idle = BufferPool::idle_count();
  BufferPool::release(std::vector<std::uint8_t>{});  // no capacity to keep
  EXPECT_EQ(BufferPool::idle_count(), idle);

  std::vector<std::uint8_t> huge;
  huge.reserve(1 << 20);  // over the pool's per-buffer cap
  BufferPool::release(std::move(huge));
  EXPECT_EQ(BufferPool::idle_count(), idle);
}

// --- Randomized round-trips -------------------------------------------------

DnsName random_name(Rng& rng) {
  static const char* kLabels[] = {"a",   "bb",    "ccc", "dns-lab",
                                  "org", "probe", "x1",  "research"};
  const std::size_t depth = 1 + rng.uniform(4);
  std::string s;
  for (std::size_t i = 0; i < depth; ++i) {
    if (i) s += '.';
    s += kLabels[rng.uniform(std::size(kLabels))];
  }
  return DnsName::must_parse(s);
}

IpAddr random_addr(Rng& rng, bool v4) {
  if (v4) return IpAddr::v4(static_cast<std::uint32_t>(rng.u64()));
  return IpAddr::v6(rng.u64(), rng.u64());
}

dns::DnsRr random_rr(Rng& rng) {
  const DnsName name = random_name(rng);
  switch (rng.uniform(6)) {
    case 0: return dns::make_a(name, random_addr(rng, true));
    case 1: return dns::make_aaaa(name, random_addr(rng, false));
    case 2: return dns::make_ns(name, random_name(rng));
    case 3: return dns::make_cname(name, random_name(rng));
    case 4: return dns::make_txt(name, std::string(rng.uniform(300), 't'));
    default: {
      dns::SoaRdata soa;
      soa.mname = random_name(rng);
      soa.rname = random_name(rng);
      soa.serial = static_cast<std::uint32_t>(rng.u64());
      return dns::make_soa(name, soa);
    }
  }
}

DnsMessage random_message(Rng& rng) {
  DnsMessage m;
  m.header.id = static_cast<std::uint16_t>(rng.u64());
  m.header.qr = rng.chance(0.5);
  m.header.aa = rng.chance(0.5);
  m.header.rd = rng.chance(0.5);
  m.header.ra = rng.chance(0.5);
  m.header.rcode = rng.chance(0.3) ? dns::Rcode::kNxDomain
                                   : dns::Rcode::kNoError;
  const std::size_t qd = rng.uniform(3);
  for (std::size_t i = 0; i < qd; ++i) {
    m.questions.push_back({random_name(rng), RrType::kA});
  }
  const std::size_t an = rng.uniform(4);
  for (std::size_t i = 0; i < an; ++i) m.answers.push_back(random_rr(rng));
  const std::size_t ns = rng.uniform(3);
  for (std::size_t i = 0; i < ns; ++i) m.authorities.push_back(random_rr(rng));
  return m;
}

Packet random_packet(Rng& rng) {
  const bool v4 = rng.chance(0.5);
  std::vector<std::uint8_t> payload(rng.uniform(64));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.u64());
  if (rng.chance(0.5)) {
    return net::make_udp(random_addr(rng, v4),
                         static_cast<std::uint16_t>(rng.u64()),
                         random_addr(rng, v4),
                         static_cast<std::uint16_t>(rng.u64()),
                         std::move(payload),
                         static_cast<std::uint8_t>(1 + rng.uniform(255)));
  }
  Packet p = net::make_tcp(random_addr(rng, v4),
                           static_cast<std::uint16_t>(rng.u64()),
                           random_addr(rng, v4),
                           static_cast<std::uint16_t>(rng.u64()),
                           net::TcpFlags{.syn = rng.chance(0.5),
                                         .ack = rng.chance(0.5),
                                         .psh = rng.chance(0.5)},
                           std::move(payload),
                           static_cast<std::uint8_t>(1 + rng.uniform(255)));
  p.tcp_seq = static_cast<std::uint32_t>(rng.u64());
  p.tcp_ack = static_cast<std::uint32_t>(rng.u64());
  p.tcp_window = static_cast<std::uint16_t>(rng.u64());
  if (rng.chance(0.7)) {
    p.tcp_options = {{net::TcpOptionKind::kMss,
                      static_cast<std::uint32_t>(rng.uniform(0x10000))},
                     {net::TcpOptionKind::kSackPermitted, 0},
                     {net::TcpOptionKind::kNop, 0},
                     {net::TcpOptionKind::kWindowScale,
                      static_cast<std::uint32_t>(rng.uniform(15))}};
  }
  return p;
}

TEST(RoundTrip, RandomDnsMessages) {
  Rng rng(0xC0DEC);
  for (int i = 0; i < 200; ++i) {
    const DnsMessage m = random_message(rng);
    const auto wire = m.encode();
    const DnsMessage back = DnsMessage::decode(wire);
    ASSERT_EQ(back, m) << "iteration " << i;
    ASSERT_EQ(back.encode(), wire) << "re-encode must be byte-identical";
    ASSERT_EQ(dns::encode_pooled(m), wire)
        << "pooled encode must match unpooled";
  }
}

TEST(RoundTrip, RandomPackets) {
  Rng rng(0xBEEF);
  for (int i = 0; i < 200; ++i) {
    const Packet p = random_packet(rng);
    const auto wire = p.serialize();
    const Packet back = Packet::parse(wire);
    ASSERT_EQ(back.serialize(), wire)
        << "iteration " << i << ": re-serialize must be byte-identical";
  }
}

// --- Truncation fuzz --------------------------------------------------------

// Every strict prefix of a valid wire encoding must throw ParseError: the
// codec may never crash, over-read (ASan would flag it), or silently accept
// a cut-off message.
template <typename ParseFn>
void expect_all_prefixes_throw(std::span<const std::uint8_t> wire,
                               ParseFn parse, const char* what) {
  for (std::size_t len = 0; len < wire.size(); ++len) {
    ASSERT_THROW(parse(wire.first(len)), ParseError)
        << what << ": prefix of length " << len << " of " << wire.size();
  }
}

TEST(TruncationFuzz, DnsMessagePrefixes) {
  Rng rng(0xF00D);
  for (int i = 0; i < 50; ++i) {
    DnsMessage m = random_message(rng);
    if (m.questions.empty() && m.answers.empty() && m.authorities.empty()) {
      m.questions.push_back({random_name(rng), RrType::kA});
    }
    const auto wire = m.encode();
    expect_all_prefixes_throw(
        wire,
        [](std::span<const std::uint8_t> s) { (void)DnsMessage::decode(s); },
        "DnsMessage");
  }
}

TEST(TruncationFuzz, PacketPrefixes) {
  Rng rng(0xFEED);
  for (int i = 0; i < 50; ++i) {
    const auto wire = random_packet(rng).serialize();
    expect_all_prefixes_throw(
        wire, [](std::span<const std::uint8_t> s) { (void)Packet::parse(s); },
        "Packet");
  }
}

TEST(TruncationFuzz, MutatedPacketsThrowParseErrorOrParse) {
  // Bit-flipped packets must either parse or throw ParseError — no other
  // exception type, no crash. (Most flips break the IP checksum.)
  Rng rng(0xD00D);
  for (int i = 0; i < 200; ++i) {
    auto wire = random_packet(rng).serialize();
    const std::size_t n = 1 + rng.uniform(4);
    for (std::size_t j = 0; j < n; ++j) {
      wire[rng.uniform(wire.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    try {
      (void)Packet::parse(wire);
    } catch (const ParseError&) {
      // expected for most mutations
    }
  }
}

TEST(TruncationFuzz, MutatedDnsMessagesThrowParseErrorOrParse) {
  Rng rng(0xDAB);
  for (int i = 0; i < 200; ++i) {
    auto wire = random_message(rng).encode();
    if (wire.empty()) continue;
    const std::size_t n = 1 + rng.uniform(4);
    for (std::size_t j = 0; j < n; ++j) {
      wire[rng.uniform(wire.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    try {
      (void)DnsMessage::decode(wire);
    } catch (const ParseError&) {
      // expected; anything else propagates and fails the test
    }
  }
}

// --- Malformed-input regressions --------------------------------------------

TEST(Malformed, DnsCompressionPointerLoop) {
  // qd=1; the qname at offset 12 is a pointer to itself.
  const std::vector<std::uint8_t> self{0, 0, 0, 0, 0, 1, 0, 0,
                                       0, 0, 0, 0, 0xC0, 0x0C};
  EXPECT_THROW(DnsMessage::decode(self), ParseError);

  // Two pointers chasing each other (12 -> 14 -> 12).
  const std::vector<std::uint8_t> pair{0, 0, 0, 0, 0, 1, 0, 0,
                                       0, 0, 0, 0, 0xC0, 0x0E, 0xC0, 0x0C};
  EXPECT_THROW(DnsMessage::decode(pair), ParseError);
}

TEST(Malformed, TcpOptionRunsPastHeaderLength) {
  // 24-byte header (data offset 6); the MSS option claims 8 bytes but only
  // 4 option bytes exist inside the header.
  std::vector<std::uint8_t> hdr{
      0x30, 0x39, 0x00, 0x35,              // ports
      0, 0, 0, 1,                          // seq
      0, 0, 0, 0,                          // ack
      0x60, 0x02, 0x72, 0x10,              // offset 6, SYN, window
      0x00, 0x00, 0x00, 0x00,              // checksum, urgent
      0x02, 0x08, 0x05, 0xB4,              // MSS with bogus len 8
  };
  EXPECT_THROW(net::TcpHeader::parse(hdr), ParseError);

  // Option kind in the last header byte: no room for its length octet.
  hdr[20] = 1;  // NOP
  hdr[21] = 1;  // NOP
  hdr[22] = 1;  // NOP
  hdr[23] = 2;  // MSS kind, then the header ends
  EXPECT_THROW(net::TcpHeader::parse(hdr), ParseError);
}

TEST(Malformed, Ipv4TotalLengthSmallerThanHeader) {
  // A consistent 20-byte v4 header (checksum valid) whose total_length
  // claims fewer bytes than the header itself.
  net::Ipv4Header ip;
  ip.total_length = 10;
  ip.ttl = 64;
  ip.protocol = net::IpProto::kUdp;
  ip.src = IpAddr::must_parse("192.0.2.1");
  ip.dst = IpAddr::must_parse("198.51.100.2");
  const auto wire = ip.serialize();
  EXPECT_THROW(Packet::parse(wire), ParseError);
}

TEST(Malformed, RdataNameOverrunsRdlength) {
  // an=1; an NS record whose RDLENGTH is 1 but whose rdata name occupies
  // 3 bytes of the message.
  const std::vector<std::uint8_t> wire{
      0, 0, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0,  // header: qr, an=1
      0,                                      // owner: root
      0, 2, 0, 1,                             // type NS, class IN
      0, 0, 0, 0,                             // ttl
      0, 1,                                   // RDLENGTH = 1
      1, 'a', 0,                              // name "a." (3 bytes)
  };
  EXPECT_THROW(DnsMessage::decode(wire), ParseError);
}

TEST(Malformed, UdpLengthFieldInconsistent) {
  net::Packet p = net::make_udp(IpAddr::must_parse("192.0.2.1"), 1234,
                                IpAddr::must_parse("198.51.100.2"), 53,
                                {1, 2, 3, 4});
  auto wire = p.serialize();
  // Shrink the UDP length field below the 8-byte header minimum.
  wire[20 + 4] = 0;
  wire[20 + 5] = 7;
  EXPECT_THROW(Packet::parse(wire), ParseError);
}

}  // namespace
