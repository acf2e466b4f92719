// poisoning_demo: the full attack chain the paper warns about, end to end.
//
//   1. INFILTRATE  — the victim network lacks DSAV, so spoofed queries that
//                    claim an internal source reach its *closed* resolver.
//   2. FINGERPRINT — the attacker triggers lookups in a domain they control
//                    and reads the resolver's source ports off their own
//                    authoritative server (the paper's §5.2 technique).
//   3. POISON      — Kaminsky-style race: trigger a lookup for a fresh name
//                    in the victim domain, then flood forged responses
//                    spoofed from the legitimate nameserver, guessing
//                    (source port, txid). A fixed source port reduces the
//                    search space from 2^32 to 2^16 (paper §5.2.1).
//
// The demo runs the race against a fixed-port resolver and a randomizing
// one, and reports the contrast. (A real Kaminsky attack escalates from one
// poisoned name to the whole zone via forged NS records; the race mechanics
// — the part source-port randomization defends — are identical.)
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cli.h"
#include "dns/zone.h"
#include "resolver/auth.h"
#include "resolver/recursive.h"
#include "sim/host.h"
#include "util/str.h"

using namespace cd;

namespace {

struct RaceOutcome {
  bool poisoned = false;
  int rounds = 0;
  std::uint64_t forged_packets = 0;
};

class PoisoningLab {
 public:
  explicit PoisoningLab(resolver::DnsSoftware software, std::uint64_t seed)
      : rng_(seed), network_(topology_, loop_, rng_.split("net")) {
    // Victim AS: no DSAV (half the Internet, per the paper).
    topology_.add_as(kVictimAsn, sim::FilterPolicy{});
    topology_.announce(kVictimAsn, net::Prefix::must_parse("20.20.0.0/16"));
    // Legitimate DNS infrastructure.
    topology_.add_as(64500, sim::FilterPolicy{.osav = true, .dsav = true});
    topology_.announce(64500, net::Prefix::must_parse("199.7.0.0/16"));
    // Attacker AS: no OSAV, so it can spoof.
    topology_.add_as(64666, sim::FilterPolicy{});
    topology_.announce(64666, net::Prefix::must_parse("66.66.0.0/16"));

    const auto& os = sim::os_profile(sim::OsId::kUbuntu1904);

    // Legit auth: root + bank.test zone.
    auth_host_ = std::make_unique<sim::Host>(
        network_, 64500, os, std::vector<net::IpAddr>{kLegitAuth},
        rng_.split("auth"), "legit-auth");
    dns::SoaRdata soa;
    soa.mname = dns::DnsName::must_parse("ns.bank.test");
    soa.rname = dns::DnsName::must_parse("hostmaster.bank.test");
    auto zone = std::make_shared<dns::Zone>(dns::DnsName(), soa);
    zone->add(dns::make_a(dns::DnsName::must_parse("*.bank.test"),
                          net::IpAddr::must_parse("199.7.0.80"), 3600));
    auth_ = std::make_unique<resolver::AuthServer>(*auth_host_);
    auth_->add_zone(zone);

    // Attacker-controlled auth for evil.test (port reconnaissance).
    evil_auth_host_ = std::make_unique<sim::Host>(
        network_, 64666, os, std::vector<net::IpAddr>{kEvilAuth},
        rng_.split("evil"), "evil-auth");
    auto evil_zone = std::make_shared<dns::Zone>(
        dns::DnsName::must_parse("evil.test"), soa);
    evil_zone->add(dns::make_a(dns::DnsName::must_parse("*.evil.test"),
                               kEvilAuth, 1));
    evil_auth_ = std::make_unique<resolver::AuthServer>(*evil_auth_host_);
    evil_auth_->add_zone(evil_zone);
    // The root knows about evil.test (the attacker registered a domain).
    zone->add(dns::make_ns(dns::DnsName::must_parse("evil.test"),
                           dns::DnsName::must_parse("ns.evil.test")));
    zone->add(dns::make_a(dns::DnsName::must_parse("ns.evil.test"),
                          kEvilAuth));

    // The victim's *closed* resolver: ACL admits only the victim AS.
    resolver_host_ = std::make_unique<sim::Host>(
        network_, kVictimAsn, os, std::vector<net::IpAddr>{kResolver},
        rng_.split("res"), "victim-resolver");
    resolver::ResolverConfig config;
    config.acl = {net::Prefix::must_parse("20.20.0.0/16")};
    resolver_ = std::make_unique<resolver::RecursiveResolver>(
        *resolver_host_, config, resolver::RootHints{{kLegitAuth}},
        resolver::make_default_allocator(software, os, rng_.split("alloc")),
        rng_.split("resolver"));

    // A legitimate stub client inside the victim network (for verification).
    client_host_ = std::make_unique<sim::Host>(
        network_, kVictimAsn, os, std::vector<net::IpAddr>{kClient},
        rng_.split("client"), "victim-client");
  }

  /// Step 1+2: spoofed-source queries for names under evil.test; the
  /// attacker's own auth logs the resolver's source ports.
  std::vector<std::uint16_t> reconnaissance(int n) {
    std::vector<std::uint16_t> ports;
    evil_auth_->add_observer([&](const resolver::AuthLogEntry& entry) {
      if (entry.client == kResolver) ports.push_back(entry.client_port);
    });
    for (int i = 0; i < n; ++i) {
      loop_.schedule_at(loop_.now() +
                            static_cast<sim::SimTime>(i) * sim::kSecond,
                        [this, i] {
                          // Spoofed "internal" client: crosses the DSAV-less
                          // border and passes the resolver's ACL.
                          send_spoofed_client_query(
                              "r" + std::to_string(i) + ".evil.test");
                        });
    }
    loop_.run(50'000'000);
    return ports;
  }

  /// Step 3: one race round. Returns true if the poison took.
  bool race_round(int round, std::uint16_t guessed_port, int forged_per_round) {
    const std::string name = "w" + std::to_string(round) + ".bank.test";
    send_spoofed_client_query(name);

    // The flood: forged responses "from" the legit auth, racing the real one.
    loop_.schedule_in(2 * sim::kMillisecond, [this, name, guessed_port,
                                              forged_per_round] {
      for (int i = 0; i < forged_per_round; ++i) {
        dns::DnsMessage forged = dns::make_response(
            dns::make_query(static_cast<std::uint16_t>(rng_.u64()),
                            dns::DnsName::must_parse(name), dns::RrType::kA),
            dns::Rcode::kNoError);
        forged.header.aa = true;
        forged.answers.push_back(dns::make_a(dns::DnsName::must_parse(name),
                                             kAttackerIp, 3600));
        network_.send(net::make_udp(kLegitAuth, 53, kResolver, guessed_port,
                                    forged.encode()),
                      64666);  // spoofed egress through the attacker's AS
        ++forged_sent_;
      }
    });
    loop_.run(50'000'000);

    // Verification: what does a real victim client now get for the name?
    std::optional<net::IpAddr> answer;
    client_host_->bind_udp(5353, [&](const net::Packet& pkt) {
      const auto resp = dns::DnsMessage::decode(pkt.payload);
      for (const auto& rr : resp.answers) {
        if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata)) {
          answer = a->addr;
        }
      }
    });
    client_host_->send_udp(
        kClient, 5353, kResolver, 53,
        dns::make_query(1, dns::DnsName::must_parse(name), dns::RrType::kA)
            .encode());
    loop_.run(50'000'000);
    client_host_->unbind_udp(5353);
    return answer == kAttackerIp;
  }

  RaceOutcome attack(std::uint16_t guessed_port, int max_rounds,
                     int forged_per_round) {
    RaceOutcome outcome;
    for (int round = 0; round < max_rounds; ++round) {
      ++outcome.rounds;
      if (race_round(round, guessed_port, forged_per_round)) {
        outcome.poisoned = true;
        break;
      }
    }
    outcome.forged_packets = forged_sent_;
    return outcome;
  }

 private:
  void send_spoofed_client_query(const std::string& qname) {
    const dns::DnsMessage query = dns::make_query(
        static_cast<std::uint16_t>(rng_.u64()),
        dns::DnsName::must_parse(qname), dns::RrType::kA);
    // Source: a fabricated internal host; port: anything.
    network_.send(net::make_udp(kSpoofedClient,
                                static_cast<std::uint16_t>(1024 + rng_.uniform(60000)),
                                kResolver, 53, query.encode()),
                  64666);
  }

  static constexpr sim::Asn kVictimAsn = 64497;
  const net::IpAddr kLegitAuth = net::IpAddr::must_parse("199.7.0.1");
  const net::IpAddr kEvilAuth = net::IpAddr::must_parse("66.66.0.1");
  const net::IpAddr kResolver = net::IpAddr::must_parse("20.20.1.10");
  const net::IpAddr kClient = net::IpAddr::must_parse("20.20.2.20");
  const net::IpAddr kSpoofedClient = net::IpAddr::must_parse("20.20.3.30");
  const net::IpAddr kAttackerIp = net::IpAddr::must_parse("66.66.6.6");

  Rng rng_;
  sim::EventLoop loop_;
  sim::Topology topology_;
  sim::Network network_;
  std::unique_ptr<sim::Host> auth_host_, evil_auth_host_, resolver_host_,
      client_host_;
  std::unique_ptr<resolver::AuthServer> auth_, evil_auth_;
  std::unique_ptr<resolver::RecursiveResolver> resolver_;
  std::uint64_t forged_sent_ = 0;
};

void run_scenario(const char* label, resolver::DnsSoftware software,
                  int max_rounds) {
  PoisoningLab lab(software, 42);

  const auto ports = lab.reconnaissance(10);
  const std::set<std::uint16_t> unique(ports.begin(), ports.end());
  std::printf("\n--- %s ---\n", label);
  std::printf("reconnaissance: %zu queries observed, %zu distinct source "
              "ports%s\n",
              ports.size(), unique.size(),
              unique.size() == 1 ? " -> PORT IS KNOWN" : "");

  // Guess: the observed port (correct for fixed-port resolvers; a stab in
  // the dark otherwise).
  const std::uint16_t guess = ports.empty() ? 1024 : ports.back();
  const auto outcome = lab.attack(guess, max_rounds, 512);
  if (outcome.poisoned) {
    std::printf("POISONED after %d rounds (%s forged packets): the victim "
                "client now resolves the bank to the attacker's address\n",
                outcome.rounds, with_commas(outcome.forged_packets).c_str());
  } else {
    std::printf("not poisoned in %d rounds (%s forged packets): the "
                "randomized port pool held\n",
                outcome.rounds, with_commas(outcome.forged_packets).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  cd::cli::reject_args(argc, argv);
  std::printf(
      "Kaminsky-style poisoning race against a CLOSED resolver reachable\n"
      "only because its network lacks DSAV (paper §5.1-§5.2). Each round\n"
      "races 512 forged responses against the genuine answer.\n");

  // The §5.2.1 population: a single fixed source port. 2^16 search space.
  run_scenario("fixed source port (BIND 8 era)", resolver::DnsSoftware::kBind8,
               400);
  // A modern randomizing resolver: 2^16 x pool-size search space.
  run_scenario("randomized source ports (BIND 9.11 on Linux)",
               resolver::DnsSoftware::kBind9913To9160, 100);

  std::printf(
      "\nthe contrast is the paper's point: same resolver software stack,\n"
      "same network exposure — the only difference is source-port entropy.\n");
  return 0;
}
