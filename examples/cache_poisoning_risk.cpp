// cache_poisoning_risk: quantify a resolver's exposure to Kaminsky-style
// cache poisoning from its observable source-port behaviour (paper §5.2).
//
// For several DNS software configurations, runs a live resolver in the lab,
// samples the source ports of its outgoing queries (as an on-path-adjacent
// attacker could), and computes the effective guessing space an off-path
// attacker faces: ~ (# plausible ports) x 2^16 transaction IDs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "analysis/port_range.h"
#include "cli.h"
#include "dns/zone.h"
#include "resolver/auth.h"
#include "resolver/recursive.h"
#include "sim/host.h"
#include "util/str.h"

using namespace cd;

namespace {

// Sample `n` outgoing-query source ports from a fresh resolver instance.
std::vector<std::uint16_t> sample_ports(resolver::DnsSoftware software,
                                        sim::OsId os_id, int n,
                                        std::uint64_t seed) {
  sim::EventLoop loop;
  sim::Topology topology;
  Rng rng(seed);
  sim::Network network(topology, loop, rng.split("net"));
  topology.add_as(1, sim::FilterPolicy{});
  topology.announce(1, net::Prefix::must_parse("50.0.0.0/16"));

  const auto auth_addr = net::IpAddr::must_parse("50.0.0.1");
  sim::Host auth_host(network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
                      {auth_addr}, rng.split("ah"), "auth");
  dns::SoaRdata soa;
  soa.mname = dns::DnsName::must_parse("lab");
  soa.rname = dns::DnsName::must_parse("lab");
  auto zone = std::make_shared<dns::Zone>(dns::DnsName(), soa);
  zone->add(dns::make_a(dns::DnsName::must_parse("*.lab"), auth_addr, 1));
  resolver::AuthServer auth(auth_host);
  auth.add_zone(zone);

  const auto res_addr = net::IpAddr::must_parse("50.0.1.1");
  const auto& os = sim::os_profile(os_id);
  sim::Host res_host(network, 1, os, {res_addr}, rng.split("rh"), "res");
  resolver::ResolverConfig config;
  config.open = true;
  config.cache.max_ttl = 1;
  resolver::RecursiveResolver res(
      res_host, config, resolver::RootHints{{auth_addr}},
      resolver::make_default_allocator(software, os, rng.split("alloc")),
      rng.split("res"));

  std::vector<std::uint16_t> ports;
  auth.add_observer([&](const resolver::AuthLogEntry& entry) {
    if (entry.client == res_addr) ports.push_back(entry.client_port);
  });
  for (int i = 0; i < n; ++i) {
    loop.schedule_at(static_cast<sim::SimTime>(i) * 20 * sim::kMillisecond,
                     [&res, i] {
                       res.resolve(dns::DnsName::must_parse(
                                       "q" + std::to_string(i) + ".lab"),
                                   dns::RrType::kA,
                                   [](dns::Rcode,
                                      const std::vector<dns::DnsRr>&) {});
                     });
  }
  loop.run(10'000'000);
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  cd::cli::reject_args(argc, argv);
  std::printf(
      "Cache-poisoning risk assessment from observed source ports\n"
      "(an off-path attacker must guess source port x 16-bit txid; RFC 5452\n"
      "demands the port pool be 'as large as possible and practicable')\n\n");

  struct Config {
    const char* label;
    resolver::DnsSoftware software;
    sim::OsId os;
  };
  const Config configs[] = {
      {"BIND 8 era / `query-source port 53`", resolver::DnsSoftware::kBind8,
       sim::OsId::kUbuntu1004},
      {"Windows DNS pre-2008 R2", resolver::DnsSoftware::kWindowsDns2003,
       sim::OsId::kWin2003},
      {"legacy sequential allocator",
       resolver::DnsSoftware::kLegacySequential, sim::OsId::kEmbeddedCpe},
      {"Windows DNS 2008 R2+", resolver::DnsSoftware::kWindowsDns2008R2,
       sim::OsId::kWin2012},
      {"BIND 9.11 on Linux", resolver::DnsSoftware::kBind9913To9160,
       sim::OsId::kUbuntu1904},
      {"Unbound 1.9 (full range)", resolver::DnsSoftware::kUnbound190,
       sim::OsId::kUbuntu1904},
  };

  std::printf("%-38s %8s %9s %14s  %s\n", "configuration", "range",
              "est.pool", "search space", "verdict");
  for (const Config& config : configs) {
    const auto ports = sample_ports(config.software, config.os, 200, 99);
    const auto stats = analysis::compute_port_stats(ports);
    const std::set<std::uint16_t> unique(ports.begin(), ports.end());

    // Effective pool: observed distinct ports for tiny pools, otherwise the
    // adjusted range (a sample range understates the pool only slightly).
    const int adjusted = analysis::adjusted_range(ports);
    const double pool = unique.size() <= 16
                            ? static_cast<double>(unique.size())
                            : static_cast<double>(adjusted) + 1;
    const double space = pool * 65536.0;
    const double bits = std::log2(space);

    const char* verdict;
    if (stats.strictly_increasing || unique.size() == 1) {
      verdict = "TRIVIAL to poison (port known/predictable)";
    } else if (pool < 4096) {
      verdict = "WEAK (violates RFC 5452)";
    } else {
      verdict = "ok";
    }
    std::printf("%-38s %8d %9.0f %9.0f (2^%.1f)  %s\n", config.label,
                adjusted, pool, space, bits, verdict);
  }

  std::printf(
      "\nthe paper found 3,810 resolvers in the 'TRIVIAL' rows twelve years\n"
      "after the Kaminsky disclosure — 59%% of them behind ACLs their\n"
      "operators believed made the configuration safe.\n");
  return 0;
}
