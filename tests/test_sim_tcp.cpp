// Unit + integration tests: streaming MSS-segmented TCP — stream
// reassembly, segmentation caps at the peer's SYN-advertised MSS,
// deterministic connection teardown (no stray timeout events), the
// truncated-mid-stream timeout path, the silent reap of an unanswered
// one-shot connection, segmented streams reassembling to the
// exact framed response, and the fixture-shape rows of the campaign pin
// table (tests/support/campaign_pins.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "core/parallel.h"
#include "ditl/world.h"
#include "net/packet.h"
#include "sim/host.h"
#include "sim/network.h"
#include "support/campaign_pins.h"
#include "util/pcap.h"
#include "util/rng.h"

namespace {

using namespace cd;
using net::IpAddr;
using net::Packet;
using sim::Host;
using sim::Network;
using sim::TcpReassembly;

/// Every OS profile used below advertises this MSS in its SYN options
/// (asserted in the first segmentation test so a table change is loud).
constexpr std::uint16_t kMss = 1460;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt = 0) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(salt + i * 7 + (i >> 8));
  }
  return v;
}

std::span<const std::uint8_t> sub(const std::vector<std::uint8_t>& v,
                                  std::size_t off, std::size_t len) {
  return std::span<const std::uint8_t>(v).subspan(off, len);
}

/// A 2-byte big-endian length prefix over `body`, gather-framed the way the
/// resolver frames DNS-over-TCP messages.
cd::GatherBuf framed(std::vector<std::uint8_t> body) {
  cd::GatherBuf g(std::move(body));
  const std::uint8_t prefix[2] = {
      static_cast<std::uint8_t>(g.body.size() >> 8),
      static_cast<std::uint8_t>(g.body.size())};
  g.set_header(prefix);
  return g;
}

// --- TcpReassembly ---------------------------------------------------------

/// Everything contiguous at the cursor, consumed.
std::vector<std::uint8_t> drain(TcpReassembly& rx) {
  std::vector<std::uint8_t> out;
  rx.read(rx.available(), out);
  return out;
}

TEST(TcpReassemblyTest, InOrderBecomesAvailable) {
  TcpReassembly rx;
  const auto data = pattern(10);
  EXPECT_TRUE(rx.add(0, sub(data, 0, 4)));
  EXPECT_EQ(rx.available(), 4u);
  EXPECT_TRUE(rx.add(4, sub(data, 4, 6)));
  ASSERT_EQ(rx.available(), 10u);
  EXPECT_EQ(rx.peek(9), data[9]);
  EXPECT_EQ(drain(rx), data);
  EXPECT_EQ(rx.consumed(), 10u);
  rx.discard();
}

TEST(TcpReassemblyTest, OutOfOrderOverlapAndDuplicates) {
  const auto data = pattern(9, 3);
  TcpReassembly rx;
  // Tail first, then a middle duplicate pair, then a head segment
  // overlapping the middle — nothing is available until the head lands,
  // and then the assembled stream is exact.
  EXPECT_TRUE(rx.add(6, sub(data, 6, 3)));
  EXPECT_EQ(rx.available(), 0u);
  EXPECT_TRUE(rx.add(3, sub(data, 3, 3)));
  EXPECT_TRUE(rx.add(3, sub(data, 3, 3)));
  EXPECT_EQ(rx.available(), 0u);
  EXPECT_TRUE(rx.add(0, sub(data, 0, 5)));
  EXPECT_EQ(drain(rx), data);
  rx.discard();
}

TEST(TcpReassemblyTest, RangeTableOverflowDropsSegment) {
  TcpReassembly rx;
  const auto data = pattern(64);
  // kMaxRanges disjoint one-byte islands fill the inline table...
  for (std::size_t i = 0; i < TcpReassembly::kMaxRanges; ++i) {
    EXPECT_TRUE(rx.add(i * 4, sub(data, i * 4, 1)));
  }
  // ...a further disjoint island is dropped (stream will stall into the
  // message timeout), but a segment that merges into an existing range
  // still lands.
  EXPECT_FALSE(rx.add(60, sub(data, 60, 1)));
  EXPECT_TRUE(rx.add(0, sub(data, 0, 2)));
  rx.discard();
}

TEST(TcpReassemblyTest, RejectsOversizedSegments) {
  TcpReassembly rx;
  const auto data = pattern(4);
  EXPECT_FALSE(rx.add(TcpReassembly::kMaxStreamBytes, sub(data, 0, 4)));
  EXPECT_FALSE(rx.add(TcpReassembly::kMaxStreamBytes - 3, sub(data, 0, 4)));
  EXPECT_EQ(rx.available(), 0u);
  EXPECT_TRUE(rx.add(0, sub(data, 0, 4)));
  EXPECT_EQ(drain(rx), data);
  rx.discard();
}

TEST(TcpReassemblyTest, RebaseShiftsTheOriginToTheCursor) {
  TcpReassembly rx;
  const auto data = pattern(12, 9);
  EXPECT_TRUE(rx.add(0, sub(data, 0, 6)));
  EXPECT_TRUE(rx.add(8, sub(data, 8, 4)));  // island past a 2-byte hole
  std::vector<std::uint8_t> head;
  rx.read(4, head);
  EXPECT_EQ(rx.rebase(), 4u);
  EXPECT_EQ(rx.consumed(), 0u);
  EXPECT_EQ(rx.available(), 2u);  // stream bytes [4, 6)
  // Offsets are now relative to the rebased origin: the hole is at 2.
  EXPECT_TRUE(rx.add(2, sub(data, 6, 2)));
  EXPECT_EQ(drain(rx), std::vector<std::uint8_t>(data.begin() + 4, data.end()));
  rx.discard();
}

// --- segmentation against a live host pair ---------------------------------

struct TcpFixture {
  sim::EventLoop loop;
  sim::Topology topology;
  Network network;
  std::optional<Host> client;
  std::optional<Host> server;
  IpAddr caddr = IpAddr::must_parse("21.0.0.5");
  IpAddr saddr = IpAddr::must_parse("22.0.0.1");

  explicit TcpFixture(std::uint64_t seed = 7)
      : network(topology, loop, Rng(seed)) {
    topology.add_as(1);
    topology.add_as(2);
    topology.announce(1, net::Prefix::must_parse("21.0.0.0/16"));
    topology.announce(2, net::Prefix::must_parse("22.0.0.0/16"));
    client.emplace(network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
                   std::vector<IpAddr>{caddr}, Rng(seed + 1));
    server.emplace(network, 2, sim::os_profile(sim::OsId::kUbuntu1904),
                   std::vector<IpAddr>{saddr}, Rng(seed + 2));
  }
};

struct Seg {
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// Data segments (TCP, non-SYN, non-empty payload) from `from` to `to`,
/// sorted by sequence number.
std::vector<Seg> data_segments(const pcap::Capture& capture,
                               const IpAddr& from, const IpAddr& to) {
  std::vector<Seg> segs;
  for (const auto& rec : capture.records) {
    const Packet pkt = Packet::parse(rec.bytes);
    if (pkt.proto != net::IpProto::kTcp || pkt.payload.empty()) continue;
    if (!(pkt.src == from) || !(pkt.dst == to)) continue;
    if (pkt.tcp_flags.syn) continue;
    segs.push_back({pkt.tcp_seq, pkt.payload});
  }
  std::sort(segs.begin(), segs.end(),
            [](const Seg& a, const Seg& b) { return a.seq < b.seq; });
  return segs;
}

/// Serves every message on port 53 with a copy of `resp`, replying in place.
void serve(Host& server, const cd::GatherBuf& resp) {
  server.tcp_listen_session(
      53, [&resp](const sim::TcpConnInfo&, std::span<const std::uint8_t>,
                  Host::TcpSessionReply reply) { reply(resp); });
}

/// One exchange where the server answers with a framed reply whose stream
/// (length prefix + patterned body) is `stream_size` bytes; returns the
/// captured server->client data segments and the client's reply.
void exchange_sized(std::size_t stream_size, std::vector<Seg>& segs,
                    std::vector<std::uint8_t>& reply) {
  TcpFixture f;
  const cd::GatherBuf resp = framed(pattern(stream_size - 2, 0x5A));
  serve(*f.server, resp);
  pcap::Capture capture;
  f.network.attach_capture(capture);
  std::optional<std::vector<std::uint8_t>> r;
  f.client->tcp_query(f.caddr, f.saddr, 53, framed({1, 2, 3}),
                      [&r](auto x) { r = std::move(x); });
  f.loop.run();
  ASSERT_TRUE(r.has_value());
  reply = std::move(*r);
  EXPECT_EQ(reply, resp.to_vector());
  segs = data_segments(capture, f.saddr, f.caddr);
  EXPECT_EQ(f.client->open_tcp_connections(), 0u);
  EXPECT_EQ(f.server->open_tcp_connections(), 0u);
}

TEST(TcpSegmentation, ResponseExactlyAtMssIsOneSegment) {
  // The segmentation cap is the *client's* SYN-advertised MSS.
  ASSERT_EQ(sim::os_profile(sim::OsId::kUbuntu1904).fp.mss, kMss);
  std::vector<Seg> segs;
  std::vector<std::uint8_t> reply;
  exchange_sized(kMss, segs, reply);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].payload.size(), kMss);
  EXPECT_EQ(reply.size(), kMss);
}

TEST(TcpSegmentation, ResponseOneByteOverMssSplitsInTwo) {
  std::vector<Seg> segs;
  std::vector<std::uint8_t> reply;
  exchange_sized(kMss + 1, segs, reply);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].payload.size(), kMss);
  EXPECT_EQ(segs[1].payload.size(), 1u);
  // Sequence numbers advance by actual payload bytes.
  EXPECT_EQ(segs[1].seq, segs[0].seq + kMss);
  EXPECT_EQ(reply.size(), kMss + 1u);
}

TEST(TcpSegmentation, MultiSegmentStreamConcatenatesToFramedResponse) {
  TcpFixture f;
  const cd::GatherBuf resp = framed(pattern(8000, 0x11));
  const std::vector<std::uint8_t> expected = resp.to_vector();
  serve(*f.server, resp);
  pcap::Capture capture;
  f.network.attach_capture(capture);
  std::optional<std::vector<std::uint8_t>> r;
  f.client->tcp_query(f.caddr, f.saddr, 53, framed({0xAB, 0xCD}),
                      [&r](auto x) { r = std::move(x); });
  f.loop.run();

  // The client's reassembled reply is byte-identical to the framed
  // response (length prefix + body crossing six segment boundaries).
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, expected);

  // On the wire: every segment's payload is capped at the advertised MSS,
  // sequence numbers are contiguous, and concatenating the captured
  // payloads in sequence order reproduces the stream exactly.
  const auto segs = data_segments(capture, f.saddr, f.caddr);
  ASSERT_EQ(segs.size(), (expected.size() + kMss - 1) / kMss);
  std::vector<std::uint8_t> concat;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_LE(segs[i].payload.size(), kMss);
    if (i > 0) {
      EXPECT_EQ(segs[i].seq,
                segs[i - 1].seq +
                    static_cast<std::uint32_t>(segs[i - 1].payload.size()));
    }
    concat.insert(concat.end(), segs[i].payload.begin(),
                  segs[i].payload.end());
  }
  EXPECT_EQ(concat, expected);
}

// --- deterministic teardown / timeout accounting ----------------------------

struct ExchangeOutcome {
  std::uint64_t executed = 0;
  int replies = 0;
};

/// One full exchange with the given client timeout; asserts clean teardown
/// and returns the event-loop accounting for cross-run comparison.
ExchangeOutcome run_exchange_with_timeout(sim::SimTime timeout,
                                          std::uint64_t budget = UINT64_MAX) {
  TcpFixture f(11);
  f.server->tcp_listen_session(
      53, [](const sim::TcpConnInfo&, std::span<const std::uint8_t> req,
             Host::TcpSessionReply reply) {
        reply(cd::GatherBuf(std::vector<std::uint8_t>(req.begin(), req.end())));
      });
  ExchangeOutcome out;
  f.client->tcp_query(f.caddr, f.saddr, 53, framed({9, 9, 9}),
                      [&out](auto r) {
                        if (r.has_value()) ++out.replies;
                      },
                      timeout);
  f.loop.run(budget);
  EXPECT_EQ(out.replies, 1);
  EXPECT_EQ(f.client->open_tcp_connections(), 0u);
  EXPECT_EQ(f.server->open_tcp_connections(), 0u);
  EXPECT_EQ(f.loop.pending(), 0u);
  out.executed = f.loop.executed();
  return out;
}

TEST(TcpTeardown, NoStrayTimeoutAndStableEventAccounting) {
  // A successful exchange cancels the client's timeout and the server's
  // reap timer and erases both connection entries on the spot: the
  // executed-event count must not depend on the timeout value (the
  // cancelled timers never run, never count).
  const ExchangeOutcome a = run_exchange_with_timeout(5 * sim::kSecond);
  const ExchangeOutcome b = run_exchange_with_timeout(3600 * sim::kSecond);
  EXPECT_EQ(a.executed, b.executed);
  // And the exchange fits in exactly that many events: a stray timeout
  // would exceed the budget and throw InvariantError.
  EXPECT_NO_THROW(run_exchange_with_timeout(5 * sim::kSecond, a.executed));
}

TEST(TcpTimeout, TruncatedMidStreamTimesOut) {
  TcpFixture f(13);
  // Nobody owns 22.0.0.9 — the test plays that server by hand, injecting a
  // handshake and then a deliberately truncated response stream.
  const IpAddr fake = IpAddr::must_parse("22.0.0.9");

  std::optional<Packet> syn;
  bool injected = false;
  f.network.add_tap([&](const Packet& pkt, sim::DropReason, sim::SimTime now) {
    if (!(pkt.src == f.caddr) || pkt.proto != net::IpProto::kTcp) return;
    if (pkt.tcp_flags.syn) {
      syn = pkt;
      return;
    }
    if (!pkt.payload.empty() && pkt.tcp_flags.psh && !injected) {
      injected = true;
      // The client finished streaming its request: answer with the first
      // and last kilobyte of a 3000-byte framed reply — the middle never
      // comes.
      f.loop.schedule_at(
          now + 50 * sim::kMillisecond, [&f, &fake, sport = pkt.src_port] {
            const auto stream = framed(pattern(2998, 0x77)).to_vector();
            const auto first = sub(stream, 0, 1000);
            const auto last = sub(stream, 2000, 1000);
            Packet head = net::make_tcp(fake, 53, f.caddr, sport,
                                        net::TcpFlags{.ack = true},
                                        {first.begin(), first.end()});
            head.tcp_seq = 5000 + 1;
            f.network.send(std::move(head), 2);
            Packet tail = net::make_tcp(fake, 53, f.caddr, sport,
                                        net::TcpFlags{.ack = true, .psh = true},
                                        {last.begin(), last.end()});
            tail.tcp_seq = 5000 + 1 + 2000;
            f.network.send(std::move(tail), 2);
          });
    }
  });

  std::optional<std::optional<std::vector<std::uint8_t>>> result;
  f.client->tcp_query(f.caddr, fake, 53, framed({1, 2, 3}),
                      [&result](auto r) { result = std::move(r); },
                      2 * sim::kSecond);
  // The SYN went out synchronously; complete the handshake so the client
  // streams its request and waits on the (truncated) reply.
  ASSERT_TRUE(syn.has_value());
  Packet synack = net::make_tcp(fake, 53, f.caddr, syn->src_port,
                                net::TcpFlags{.syn = true, .ack = true});
  synack.tcp_seq = 5000;
  synack.tcp_ack = syn->tcp_seq + 1;
  synack.tcp_options = {{net::TcpOptionKind::kMss, 1400}};
  f.network.send(std::move(synack), 2);
  f.loop.run();

  EXPECT_TRUE(injected);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->has_value()) << "partial stream must time out";
  EXPECT_EQ(f.client->open_tcp_connections(), 0u);
}

TEST(TcpTimeout, UnansweredOneShotIsReapedWithoutFin) {
  // Persistent transport off, and a listener that takes the message but
  // never replies: the client gives up at its own timeout, the server
  // drops its entry at the 30 s reap, and neither end puts a FIN on the
  // wire — a one-shot connection just goes away.
  TcpFixture f(17);
  ASSERT_FALSE(f.network.transport().persistent);
  int served = 0;
  f.server->tcp_listen_session(
      53, [&served](const sim::TcpConnInfo&, std::span<const std::uint8_t>,
                    Host::TcpSessionReply) { ++served; });
  pcap::Capture capture;
  f.network.attach_capture(capture);

  std::optional<std::optional<std::vector<std::uint8_t>>> result;
  sim::SimTime result_at = 0;
  f.client->tcp_query(f.caddr, f.saddr, 53, framed({4, 5, 6}),
                      [&](auto r) {
                        result = std::move(r);
                        result_at = f.loop.now();
                      },
                      2 * sim::kSecond);

  f.loop.run_until(29 * sim::kSecond);
  EXPECT_EQ(served, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->has_value()) << "an unanswered query must time out";
  EXPECT_EQ(result_at, 2 * sim::kSecond);
  EXPECT_EQ(f.client->open_tcp_connections(), 0u);
  EXPECT_EQ(f.server->open_tcp_connections(), 1u) << "reaped before 30 s";

  f.loop.run();
  EXPECT_EQ(f.server->open_tcp_connections(), 0u);
  EXPECT_EQ(f.network.open_tcp_connections(), 0u);
  EXPECT_EQ(f.loop.pending(), 0u);
  EXPECT_GE(f.loop.now(), 30 * sim::kSecond);
  EXPECT_LT(f.loop.now(), 31 * sim::kSecond);

  std::size_t tcp_packets = 0;
  for (const auto& rec : capture.records) {
    const Packet pkt = Packet::parse(rec.bytes);
    if (pkt.proto != net::IpProto::kTcp) continue;
    ++tcp_packets;
    EXPECT_FALSE(pkt.tcp_flags.fin) << "one-shot teardown sent a FIN";
  }
  EXPECT_EQ(tcp_packets, 3u);  // SYN, SYN-ACK, the request: nothing after
  const sim::TransportCounters total = f.network.transport_counters();
  EXPECT_EQ(total.dials, 1u);
  EXPECT_EQ(total.accepts, 1u);
  EXPECT_EQ(total.session_messages, 0u);
  EXPECT_EQ(total.idle_closes, 0u);
}

// --- segmented streams reassemble exactly -----------------------------------

TEST(TcpSegmentation, SegmentedStreamsReassembleAcrossSeeds) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    TcpFixture f(seed);
    const cd::GatherBuf resp =
        framed(pattern(4000 + seed % 700, static_cast<std::uint8_t>(seed)));
    const std::vector<std::uint8_t> expected = resp.to_vector();
    serve(*f.server, resp);
    pcap::Capture capture;
    f.network.attach_capture(capture);
    std::optional<std::vector<std::uint8_t>> reply;
    f.client->tcp_query(f.caddr, f.saddr, 53, framed({0xAB, 0xCD}),
                        [&reply](auto r) { reply = std::move(r); });
    f.loop.run();
    // The reply reassembles to the exact framed response, and the captured
    // MSS-capped payloads concatenate to the same stream.
    ASSERT_TRUE(reply.has_value()) << "seed " << seed;
    EXPECT_EQ(*reply, expected) << "seed " << seed;
    std::vector<std::uint8_t> concat;
    for (const Seg& s : data_segments(capture, f.saddr, f.caddr)) {
      EXPECT_LE(s.payload.size(), kMss) << "seed " << seed;
      concat.insert(concat.end(), s.payload.begin(), s.payload.end());
    }
    EXPECT_EQ(concat, expected) << "seed " << seed;
  }
}

// --- campaign level ----------------------------------------------------------

TEST(TcpCampaignPins, FixtureCampaignsMatchPinsAcrossSeedsAndShards) {
  // The TCP-heavy fixture shape (every TC=1 retry exercises handshake
  // timers, per-segment delivery events and teardown cancellations) must
  // reproduce the evidence, wire bytes and first-hit timing recorded where
  // segmented and single-buffer TCP, and both event engines, all agreed.
  int rows = 0;
  for (const cd::testing::CampaignPin& pin : cd::testing::kCampaignPins) {
    if (pin.shape != cd::testing::PinShape::kFixture) continue;
    ++rows;
    const auto out = core::run_sharded_experiment(
        cd::testing::pin_spec(pin.shape, pin.seed),
        cd::testing::pin_config(pin.shape, pin.shards));
    EXPECT_EQ(core::results_digest(out.merged), pin.results)
        << "seed " << pin.seed << " shards " << pin.shards;
    EXPECT_EQ(core::capture_digest(out.merged.capture), pin.capture)
        << "seed " << pin.seed << " shards " << pin.shards;
    EXPECT_EQ(cd::testing::first_hit_digest(out.merged), pin.first_hits)
        << "seed " << pin.seed << " shards " << pin.shards;
  }
  EXPECT_EQ(rows, 10);
}

TEST(TcpSegmentation, NoCampaignSegmentExceedsAdvertisedMss) {
  // Over a full captured campaign (TC=1 elicitation drives real
  // DNS-over-TCP): every TCP data segment from A to B is capped at the MSS
  // that B advertised on that connection's SYN or SYN-ACK.
  const auto sharded = core::run_sharded_experiment(
      cd::testing::pin_spec(cd::testing::PinShape::kFixture, 42),
      cd::testing::pin_config(cd::testing::PinShape::kFixture, 1));
  const pcap::Capture& capture = sharded.merged.capture;

  using FlowKey = std::tuple<IpAddr, std::uint16_t, IpAddr, std::uint16_t>;
  std::map<FlowKey, std::uint32_t> advertised;  // (advertiser, peer) -> MSS
  for (const auto& rec : capture.records) {
    const Packet pkt = Packet::parse(rec.bytes);
    if (pkt.proto != net::IpProto::kTcp || !pkt.tcp_flags.syn) continue;
    for (const net::TcpOption& o : pkt.tcp_options) {
      if (o.kind == net::TcpOptionKind::kMss && o.value != 0) {
        advertised[{pkt.src, pkt.src_port, pkt.dst, pkt.dst_port}] = o.value;
      }
    }
  }

  std::size_t data_records = 0;
  for (const auto& rec : capture.records) {
    const Packet pkt = Packet::parse(rec.bytes);
    if (pkt.proto != net::IpProto::kTcp || pkt.tcp_flags.syn ||
        pkt.payload.empty()) {
      continue;
    }
    ++data_records;
    const auto it = advertised.find(
        {pkt.dst, pkt.dst_port, pkt.src, pkt.src_port});
    ASSERT_NE(it, advertised.end())
        << "TCP data segment with no reverse SYN in the capture";
    EXPECT_LE(pkt.payload.size(), it->second);
  }
  EXPECT_GT(data_records, 0u) << "campaign produced no DNS-over-TCP data";
}

}  // namespace
