// One program for every paper table and figure. Each section renders one
// table, figure, appendix or export from the finished run; the standard
// campaign (ditl::bench_world_spec() scaled by --scale) runs at most once
// and only when a selected section reads it.
//
//   report [--only=SECTION,...] [--scale=X] [--seed=N] [--threads=N]
//          [--shards=N] [--wildcard] [--pcap=PATH] [--out=PATH]
//          [--probes-only] [--no-drops]
//
// Sections, in the order they render: headline, table1 ... table6, fig2,
// fig3a, fig3b, passive, transport, cutoffs, ablation, pcap. The default is
// every section but pcap (a default-scale export is ~200 MB). --scale,
// --threads, --shards and --wildcard shape every campaign a selected
// section runs: the standard one, ablation's two (at half the scaled AS
// count; ablation runs both answer modes, so it ignores --wildcard) and
// transport's three (a quarter). --seed seeds those campaigns and the lab
// sections (table5, table6, fig3a); cutoffs is analytic. Section flags:
//   passive  --pcap=PATH    replay the old capture from a wire capture
//   pcap     --out=PATH     where the export goes (default campaign.pcap)
//            --probes-only  capture the probe plane only
//            --no-drops     leave border-dropped packets out
// A section flag whose section is not selected, an unknown section, a
// malformed value or any other argument exits 2 naming it.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/beta.h"
#include "analysis/classify.h"
#include "analysis/histogram.h"
#include "analysis/passive.h"
#include "analysis/port_range.h"
#include "cli.h"
#include "core/experiment.h"
#include "core/parallel.h"
#include "ditl/world.h"
#include "dns/zone.h"
#include "net/packet.h"
#include "resolver/auth.h"
#include "resolver/recursive.h"
#include "sim/host.h"
#include "sim/network.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/pcap.h"
#include "util/str.h"
#include "util/table.h"

namespace {

using namespace cd;

/// Knobs shared by every campaign the report runs.
struct RunOptions {
  double scale = 1.0;  // multiplies the AS count
  bool wildcard_answers = false;
  std::uint64_t seed = 42;
  std::size_t shards = 1;   // AS-partitioned campaign shards
  std::size_t threads = 1;  // worker threads for the sharded runner
};

/// A finished campaign: the reference world (identical to every shard's,
/// used for target lists, geo and ground truth) and the merged results.
struct Run {
  std::unique_ptr<ditl::World> world;
  core::ExperimentResults results;
};

/// The parsed command line plus the standard campaign, when a selected
/// section reads it.
struct Report {
  RunOptions options;
  std::string pcap_in;                      // passive: --pcap=PATH
  std::string pcap_out = "campaign.pcap";   // pcap: --out=PATH
  std::optional<Run> campaign;
};

/// bench_world_spec() with the options' AS count, seed and answer mode.
ditl::WorldSpec scaled_spec(const RunOptions& options) {
  ditl::WorldSpec spec = ditl::bench_world_spec();
  spec.n_asns = static_cast<int>(spec.n_asns * options.scale);
  spec.wildcard_answers = options.wildcard_answers;
  spec.seed = options.seed;
  return spec;
}

/// Runs (spec, config) through the sharded runner over the options'
/// shard/thread split and prints its '#' provenance block: per-shard
/// timing, world size and the results digest.
Run run_campaign(const ditl::WorldSpec& spec, core::ExperimentConfig config,
                 const RunOptions& options) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  Run run;
  run.world = ditl::generate_world(spec);
  const long long gen_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(clock::now() - t0)
          .count();

  config.num_shards = options.shards;
  config.num_threads = options.threads;
  core::ShardedResults out = core::run_sharded_experiment(spec, config);
  std::printf("# shards: %zu on %zu threads\n", options.shards,
              options.threads);
  for (const core::ShardTiming& s : out.shards) {
    std::printf("#   shard %zu: %zu targets, gen %.0fms, run %.0fms", s.shard,
                s.targets, s.gen_ms, s.run_ms);
    if (s.spill_ms > 0) std::printf(", spill %.0fms", s.spill_ms);
    std::printf(", peak RSS %zu KiB\n", s.peak_rss_kb);
  }
  std::printf("# wall %.0fms, merge %.0fms, aggregate shard time %.0fms "
              "(parallel speedup est. %.2fx), peak RSS %zu KiB\n",
              out.wall_ms, out.merge_ms, out.aggregate_ms(),
              out.wall_ms > 0 ? out.aggregate_ms() / out.wall_ms : 0.0,
              out.peak_rss_kb);
  run.results = std::move(out.merged);
  std::printf(
      "# world: %zu ASes, %zu resolvers, %zu targets (gen %lldms)\n"
      "# campaign: %llu probes, %llu auth log entries (run %.0fms), "
      "digest %016llx\n",
      run.world->topology.as_count(), run.world->resolvers.size(),
      run.world->targets.size(), gen_ms,
      static_cast<unsigned long long>(run.results.queries_sent),
      static_cast<unsigned long long>(run.results.collector_stats.entries_seen),
      out.wall_ms,
      static_cast<unsigned long long>(core::results_digest(run.results)));
  return run;
}

/// Seed of a lab section: `base` at the default --seed=42, shifted with it
/// otherwise, so --seed varies the lab runs as well.
std::uint64_t lab_seed(const Report& r, std::uint64_t base) {
  return base + (r.options.seed - 42);
}

std::string count_pct(std::uint64_t part, std::uint64_t whole,
                      int digits = 1) {
  return with_commas(part) + " (" +
         percent(static_cast<double>(part), static_cast<double>(whole),
                 digits) +
         ")";
}

/// Controlled-lab harness (paper §5.3.2/§5.3.3): a minimal simulated
/// network with one authoritative server acting as the root, plus
/// `n_instances` resolvers of the given software/OS combination, each
/// issuing `queries_per_instance` uniquely-named resolutions. Returns the
/// per-instance source-port sequences observed at the authoritative server
/// — the paper's lab procedure.
std::vector<std::vector<std::uint16_t>> lab_collect_ports(
    resolver::DnsSoftware software, sim::OsId os_id, int n_instances,
    int queries_per_instance, std::uint64_t seed) {
  sim::EventLoop loop;
  sim::Topology topology;
  Rng rng(seed);
  sim::Network network(topology, loop, rng.split("net"));

  topology.add_as(1, sim::FilterPolicy{});
  topology.announce(1, net::Prefix::must_parse("50.0.0.0/16"));
  topology.announce(1, net::Prefix::must_parse("2620:50::/32"));

  const auto auth_v4 = net::IpAddr::must_parse("50.0.0.1");
  const auto auth_v6 = net::IpAddr::must_parse("2620:50::1");
  sim::Host auth_host(network, 1, sim::os_profile(sim::OsId::kUbuntu1904),
                      {auth_v4, auth_v6}, rng.split("auth"), "lab-auth");

  // One zone at the root with a wildcard so every unique query resolves.
  dns::SoaRdata soa;
  soa.mname = dns::DnsName::must_parse("lab");
  soa.rname = dns::DnsName::must_parse("lab");
  auto zone = std::make_shared<dns::Zone>(dns::DnsName(), soa);
  zone->add(dns::make_a(dns::DnsName::must_parse("*.lab"), auth_v4, 1));
  resolver::AuthServer auth(auth_host);
  auth.add_zone(zone);

  resolver::RootHints hints;
  hints.servers = {auth_v4, auth_v6};

  const sim::OsProfile& os = sim::os_profile(os_id);
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<std::unique_ptr<resolver::RecursiveResolver>> resolvers;
  std::vector<net::IpAddr> addrs;
  for (int i = 0; i < n_instances; ++i) {
    const auto addr = net::IpAddr::v4(0x32000100u + static_cast<unsigned>(i));
    addrs.push_back(addr);
    hosts.push_back(std::make_unique<sim::Host>(
        network, 1, os, std::vector<net::IpAddr>{addr},
        rng.split("host" + std::to_string(i)), "lab-r" + std::to_string(i)));
    resolver::ResolverConfig config;
    config.open = true;
    config.cache.max_ttl = 1;  // the wildcard answer must not mask queries
    resolvers.push_back(std::make_unique<resolver::RecursiveResolver>(
        *hosts.back(), config, hints,
        resolver::make_default_allocator(software, os,
                                         rng.split("alloc" + std::to_string(i))),
        rng.split("res" + std::to_string(i))));
  }

  // Collect ports at the auth, per resolver address.
  std::vector<std::vector<std::uint16_t>> ports(
      static_cast<std::size_t>(n_instances));
  auth.add_observer([&](const resolver::AuthLogEntry& entry) {
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      if (entry.client == addrs[i]) {
        ports[i].push_back(entry.client_port);
        return;
      }
    }
  });

  // Issue uniquely-named queries, spaced so only a handful are in flight.
  for (int i = 0; i < n_instances; ++i) {
    auto* res = resolvers[static_cast<std::size_t>(i)].get();
    for (int q = 0; q < queries_per_instance; ++q) {
      loop.schedule_at(
          static_cast<sim::SimTime>(q) * 20 * sim::kMillisecond,
          [res, i, q] {
            const auto qname = dns::DnsName::must_parse(
                "q" + std::to_string(q) + ".r" + std::to_string(i) + ".lab");
            res->resolve(qname, dns::RrType::kA,
                         [](dns::Rcode, const std::vector<dns::DnsRr>&) {});
          });
    }
  }
  loop.run(200'000'000);
  return ports;
}

// --- sections over the standard campaign -----------------------------------

/// §4 headline numbers and the §5.1/§5.4/§3.6.x auxiliary statistics:
/// reachable targets and ASes, open vs closed, direct vs forwarded,
/// middlebox checks, QNAME-minimization gaps and lifetime exclusions.
void headline(const Report& r) {
  std::printf("== headline_dsav: paper §4, §5.1, §5.4, §3.6 ==\n\n");
  const Run& run = *r.campaign;
  const auto& results = run.results;
  const auto summary = analysis::summarize_dsav(results.records,
                                                run.world->targets);

  TextTable t({"Metric", "Measured", "Paper"});
  t.set_align(1, Align::kRight);
  t.set_align(2, Align::kRight);
  auto row = [&](const std::string& name, const std::string& measured,
                 const std::string& paper) {
    t.add_row({name, measured, paper});
  };

  row("IPv4 targets queried", with_commas(summary.v4.targets_total),
      "11,204,889");
  row("IPv4 targets reachable",
      count_pct(summary.v4.targets_reachable, summary.v4.targets_total),
      "519,447 (4.6%)");
  row("IPv6 targets queried", with_commas(summary.v6.targets_total), "784,777");
  row("IPv6 targets reachable",
      count_pct(summary.v6.targets_reachable, summary.v6.targets_total),
      "49,008 (6.2%)");
  row("IPv4 ASes", with_commas(summary.v4.asns_total), "53,922");
  row("IPv4 ASes reachable",
      count_pct(summary.v4.asns_reachable, summary.v4.asns_total),
      "26,206 (49%)");
  row("IPv6 ASes", with_commas(summary.v6.asns_total), "7,904");
  row("IPv6 ASes reachable",
      count_pct(summary.v6.asns_reachable, summary.v6.asns_total),
      "3,952 (50%)");
  t.add_rule();

  const auto oc = analysis::open_closed_stats(results.records);
  row("Resolvers classified open", count_pct(oc.open, oc.open + oc.closed),
      "228,208 (40%)");
  row("Resolvers classified closed", count_pct(oc.closed, oc.open + oc.closed),
      "340,247 (60%)");
  row("No-DSAV ASes w/ closed resolver reached",
      count_pct(oc.asns_with_closed, oc.reachable_asns), "88%");
  t.add_rule();

  const auto fwd = analysis::forwarding_stats(results.records);
  row("IPv4 direct", count_pct(fwd.v4.direct, fwd.v4.resolved),
      "269,509 (53%)");
  row("IPv4 forwarded", count_pct(fwd.v4.forwarded, fwd.v4.resolved),
      "240,491 (47%)");
  row("IPv4 both", with_commas(fwd.v4.both), "3,178");
  row("IPv6 direct", count_pct(fwd.v6.direct, fwd.v6.resolved),
      "40,631 (85%)");
  row("IPv6 forwarded", count_pct(fwd.v6.forwarded, fwd.v6.resolved),
      "7,566 (16%)");
  row("IPv6 both", with_commas(fwd.v6.both), "219");
  t.add_rule();

  const auto mb = analysis::middlebox_stats(results.records,
                                            run.world->public_dns_addrs);
  row("IPv4 ASes w/ in-AS client (anti-middlebox)",
      count_pct(mb.v4.with_in_as_client, mb.v4.reachable_asns, 0), "86%");
  row("IPv4 remainder via public DNS",
      with_commas(mb.v4.remainder_via_public_dns), "89% of remainder");
  row("IPv4 ASes unexplained",
      count_pct(mb.v4.unexplained, mb.v4.reachable_asns, 0), "2%");
  row("IPv6 ASes w/ in-AS client",
      count_pct(mb.v6.with_in_as_client, mb.v6.reachable_asns, 0), "95%");
  t.add_rule();

  row("QNAME-minimized partial queries",
      with_commas(results.collector_stats.qmin_partial), "(see §3.6.4)");
  row("ASNs seen via QNAME-minimized queries",
      with_commas(results.qmin_asns.size()), "2,081");
  row("Queries excluded by 10s lifetime threshold",
      with_commas(results.collector_stats.excluded_lifetime),
      "3,514 addresses affected");
  row("Analyst replays injected", with_commas(results.analyst_replays), "n/a");

  std::printf("%s\n", t.to_string().c_str());

  // Ground-truth validation: measured reachable-AS set vs. planted DSAV.
  std::uint64_t truth_lacking = 0;
  for (const auto& [asn, dsav] : run.world->truth_dsav) {
    if (!dsav) ++truth_lacking;
  }
  std::printf("ground truth: %s of %s edge ASes lack DSAV\n",
              with_commas(truth_lacking).c_str(),
              with_commas(run.world->truth_dsav.size()).c_str());
}

/// The first 10 `rows` as a country table, also written to `csv_path`;
/// reachable IPs show `ip_digits` decimals. A non-empty `paper` (country ->
/// "AS%, IP%") adds the paper's column.
std::string country_table(const std::vector<analysis::CountryRow>& rows,
                          const char* csv_path, int ip_digits,
                          const std::map<std::string, std::string>& paper) {
  std::vector<std::string> headers = {"Country", "ASes total",
                                      "ASes reachable", "IP targets",
                                      "IPs reachable"};
  if (!paper.empty()) headers.push_back("paper (AS%, IP%)");
  TextTable t(headers);
  for (std::size_t c = 1; c < 5; ++c) t.set_align(c, Align::kRight);

  CsvWriter csv(csv_path);
  csv.write_row({"country", "ases_total", "ases_reachable", "targets_total",
                 "targets_reachable"});
  for (std::size_t i = 0; i < rows.size() && i < 10; ++i) {
    const analysis::CountryRow& row = rows[i];
    const auto it = paper.find(row.country);
    t.add_row({row.country, with_commas(row.ases_total),
               count_pct(row.ases_reachable, row.ases_total, 0),
               with_commas(row.targets_total),
               count_pct(row.targets_reachable, row.targets_total, ip_digits),
               it == paper.end() ? "-" : it->second});
    csv.write_row({row.country, std::to_string(row.ases_total),
                   std::to_string(row.ases_reachable),
                   std::to_string(row.targets_total),
                   std::to_string(row.targets_reachable)});
  }
  return t.to_string();
}

/// Table 1: DSAV results for the 10 countries with the most ASes in the
/// target set (total vs. reachable ASes and target IPs per country).
void table1(const Report& r) {
  std::printf("== table1_countries: paper Table 1 ==\n\n");
  const Run& run = *r.campaign;
  auto rows = analysis::dsav_by_country(run.results.records,
                                        run.world->targets, run.world->geo);
  std::sort(rows.begin(), rows.end(),
            [](const analysis::CountryRow& a, const analysis::CountryRow& b) {
              return a.ases_total > b.ases_total;
            });
  std::erase_if(rows, [](const analysis::CountryRow& row) {
    return row.country == "Other";
  });
  // The paper's Table 1 values (AS%, IP%) for shape comparison.
  static const std::map<std::string, std::string> kPaper = {
      {"United States", "28%, 3.2%"}, {"Brazil", "59%, 4.8%"},
      {"Russia", "59%, 11.6%"},       {"Germany", "36%, 3.8%"},
      {"United Kingdom", "33%, 4.5%"}, {"Poland", "52%, 6.0%"},
      {"Ukraine", "63%, 15.4%"},      {"India", "41%, 11.6%"},
      {"Australia", "32%, 4.6%"},     {"Canada", "36%, 2.8%"},
  };
  std::printf("%s\n(top-10 by AS count; CSV: table1_countries.csv)\n",
              country_table(rows, "table1_countries.csv", 1, kPaper).c_str());
}

/// Table 2: the 10 countries with the highest percentage of target IPs
/// reachable by spoofed-source packets.
void table2(const Report& r) {
  std::printf("== table2_reachable_pct: paper Table 2 ==\n\n");
  const Run& run = *r.campaign;
  auto rows = analysis::dsav_by_country(run.results.records,
                                        run.world->targets, run.world->geo);
  // Rank by reachable-IP percentage, requiring a minimal population so a
  // single lucky resolver cannot top the list.
  std::erase_if(rows, [](const analysis::CountryRow& row) {
    return row.targets_total < 10 || row.country == "Other";
  });
  std::sort(rows.begin(), rows.end(),
            [](const analysis::CountryRow& a, const analysis::CountryRow& b) {
              const double pa = static_cast<double>(a.targets_reachable) /
                                static_cast<double>(a.targets_total);
              const double pb = static_cast<double>(b.targets_reachable) /
                                static_cast<double>(b.targets_total);
              return pa > pb;
            });
  std::printf(
      "%s\n(paper's top rows: Algeria 73%%, Morocco 53%%, Eswatini 44%% of "
      "IPs reachable —\n small, dense, lightly-filtered countries lead; CSV: "
      "table2_reachable_pct.csv)\n",
      country_table(rows, "table2_reachable_pct.csv", 0, {}).c_str());
}

/// Table 3: spoofed-source category effectiveness — targets/ASNs reached by
/// each category (inclusive) and reached by that category alone
/// (exclusive).
void table3(const Report& r) {
  std::printf("== table3_categories: paper Table 3 ==\n\n");
  const auto table = analysis::build_category_table(r.campaign->results.records,
                                                    r.campaign->world->targets);

  // Paper values: {category} -> {v4 incl addr%, v6 incl addr%} of
  // reachable targets.
  struct PaperRow {
    const char* incl_v4;
    const char* incl_v6;
  };
  static const PaperRow kPaper[scanner::kSourceCategoryCount] = {
      {"78%", "45%"},    // other prefix
      {"63%", "84%"},    // same prefix
      {"3.4%", "4.3%"},  // private
      {"17%", "70%"},    // dst-as-src
      {"0.0%", "0.2%"},  // loopback
  };

  TextTable t({"Source category", "v4 addrs (incl)", "v4 ASNs (incl)",
               "v6 addrs (incl)", "v6 ASNs (incl)", "v4 addrs (excl)",
               "v6 addrs (excl)", "paper incl v4/v6"});
  for (std::size_t c = 1; c < 7; ++c) t.set_align(c, Align::kRight);

  const std::uint64_t reach4 = table.reachable[0].addrs;
  const std::uint64_t reach6 = table.reachable[1].addrs;
  const std::uint64_t reach_asn4 = table.reachable[0].asns;
  const std::uint64_t reach_asn6 = table.reachable[1].asns;

  t.add_row({"All queried", with_commas(table.queried[0].addrs),
             with_commas(table.queried[0].asns),
             with_commas(table.queried[1].addrs),
             with_commas(table.queried[1].asns), "-", "-", "-"});
  t.add_row({"All reachable", count_pct(reach4, table.queried[0].addrs),
             count_pct(reach_asn4, table.queried[0].asns, 0),
             count_pct(reach6, table.queried[1].addrs),
             count_pct(reach_asn6, table.queried[1].asns, 0), "-", "-",
             "4.6% / 6.2% addrs; 49% / 50% ASNs"});
  t.add_rule();

  CsvWriter csv("table3_categories.csv");
  csv.write_row({"category", "incl_v4_addrs", "incl_v4_asns", "incl_v6_addrs",
                 "incl_v6_asns", "excl_v4_addrs", "excl_v4_asns",
                 "excl_v6_addrs", "excl_v6_asns"});

  for (int c = 0; c < scanner::kSourceCategoryCount; ++c) {
    const auto cat = static_cast<scanner::SourceCategory>(c);
    t.add_row({scanner::source_category_name(cat),
               count_pct(table.inclusive[c][0].addrs, reach4, 0),
               count_pct(table.inclusive[c][0].asns, reach_asn4, 0),
               count_pct(table.inclusive[c][1].addrs, reach6, 0),
               count_pct(table.inclusive[c][1].asns, reach_asn6, 0),
               count_pct(table.exclusive[c][0].addrs, reach4),
               count_pct(table.exclusive[c][1].addrs, reach6),
               std::string(kPaper[c].incl_v4) + " / " + kPaper[c].incl_v6});
    std::vector<std::string> fields = {scanner::source_category_name(cat)};
    for (const auto* counts : {&table.inclusive[c], &table.exclusive[c]}) {
      for (const auto& family : *counts) {
        fields.push_back(std::to_string(family.addrs));
        fields.push_back(std::to_string(family.asns));
      }
    }
    csv.write_row(fields);
  }
  std::printf("%s\n(percentages of reachable targets, as in the paper; "
              "CSV: table3_categories.csv)\n",
              t.to_string().c_str());
}

/// Table 4: reachable targets by observed source-port range band, crossed
/// with open/closed status and p0f OS classification; plus the §5.2.1
/// zero-randomization and §5.2.3 ineffective-allocation drill-downs.
void table4(const Report& r) {
  std::printf("== table4_port_ranges: paper Table 4, §5.2.1, §5.2.3 ==\n\n");
  const auto& records = r.campaign->results.records;
  const auto table =
      analysis::build_table4(records, analysis::P0fDatabase::standard());

  // Paper Table 4 totals per band, for the shape column.
  static const char* kPaperTotals[] = {"3,810",  "244",    "144",
                                       "13,692", "366",    "11,462",
                                       "89,495", "178,773"};

  TextTable t({"Source port range (OS)", "Total", "Open", "Closed", "p0f Win",
               "p0f Lin", "paper total"});
  for (std::size_t c = 1; c < 6; ++c) t.set_align(c, Align::kRight);

  CsvWriter csv("table4_port_ranges.csv");
  csv.write_row({"band", "total", "open", "closed", "p0f_windows",
                 "p0f_linux"});

  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const analysis::Table4Row& row = table.rows[i];
    std::string label = row.band.label;
    if (!row.band.os.empty()) label += " (" + row.band.os + ")";
    t.add_row({label, with_commas(row.total), with_commas(row.open),
               with_commas(row.closed), with_commas(row.p0f_windows),
               with_commas(row.p0f_linux), kPaperTotals[i]});
    csv.write_row({row.band.label, std::to_string(row.total),
                   std::to_string(row.open), std::to_string(row.closed),
                   std::to_string(row.p0f_windows),
                   std::to_string(row.p0f_linux)});
  }
  std::printf("%s\nclassified targets (>=%zu direct port samples): %s\n\n",
              t.to_string().c_str(), analysis::kMinPortSamples,
              with_commas(table.classified_targets).c_str());

  // §5.2.1: zero source-port randomization.
  const auto zero = analysis::zero_range_stats(records);
  TextTable z({"Zero-range metric", "Measured", "Paper"});
  z.set_align(1, Align::kRight);
  z.set_align(2, Align::kRight);
  z.add_row({"Resolvers with zero port range", with_commas(zero.total),
             "3,810"});
  z.add_row({"  open / closed",
             with_commas(zero.open) + " / " + with_commas(zero.closed),
             "1,566 / 2,244 (59% closed)"});
  z.add_row({"ASes affected", with_commas(zero.asns), "1,802 (6%)"});
  z.add_row({"  of which with a closed resolver",
             count_pct(zero.asns_with_closed, zero.asns, 0), "95%"});
  for (const auto& [port, paper] : {std::pair<std::uint16_t, const char*>{
                                         53, "1,308 (34%)"},
                                     {32768, "12%"},
                                     {32769, "3.8%"}}) {
    const auto it = zero.port_counts.find(port);
    z.add_row({"  fixed port " + std::to_string(port),
               count_pct(it == zero.port_counts.end() ? 0 : it->second,
                         zero.total, 0),
               paper});
  }
  std::printf("%s\n", z.to_string().c_str());

  // §5.2.3: ineffective allocation (range 1-200).
  const auto low = analysis::low_range_stats(records);
  TextTable l({"Range 1-200 metric", "Measured", "Paper"});
  l.set_align(1, Align::kRight);
  l.set_align(2, Align::kRight);
  l.add_row({"Resolvers", with_commas(low.total), "244"});
  l.add_row({"ASNs", with_commas(low.asns), "142"});
  l.add_row({"Strictly increasing pattern",
             count_pct(low.strictly_increasing, low.total, 0), "159 (65%)"});
  l.add_row({"  of which wrapped", with_commas(low.wrapped), "130"});
  l.add_row({"<=7 unique ports of 10", count_pct(low.few_unique, low.total, 0),
             "34 (14%)"});
  std::printf("%s\n", l.to_string().c_str());

  // The paper's aside: seeing <=7 unique values in 10 draws from a true
  // 200-port pool happens ~0.066% of the time — so these are small pools.
  std::printf(
      "model check: P(<=7 unique in 10 draws from a 200-port pool) = %.4f%% "
      "(paper: 0.066%%)\n",
      100.0 * analysis::small_pool_probability(200, 10, 7));
}

/// Figure 2: frequency distribution of source-port ranges of reachable
/// resolvers, stacked by open/closed status — full scale (0-65,535) plus
/// the 0-3,000 zoom, as in the paper.
void fig2(const Report& r) {
  std::printf("== fig2_port_range_hist: paper Figure 2 ==\n\n");
  const auto samples = analysis::range_samples(
      r.campaign->results.records, analysis::P0fDatabase::standard());

  analysis::StackedHistogram full(0, 65535, 1000, {"closed", "open"});
  analysis::StackedHistogram zoom(0, 3000, 50, {"closed", "open"});
  for (const analysis::RangeSample& s : samples) {
    full.add(s.range, s.open ? 1 : 0);
    if (s.range <= 3000) zoom.add(s.range, s.open ? 1 : 0);
  }

  std::printf("upper plot: ranges 0-65,535 (bin 1,000)\n%s\n",
              full.render_ascii().c_str());
  std::printf("lower plot (zoom): ranges 0-3,000 (bin 50)\n%s\n",
              zoom.render_ascii().c_str());

  CsvWriter csv("fig2_port_range_hist.csv");
  for (const auto& row : full.csv_rows()) csv.write_row(row);
  CsvWriter csv_zoom("fig2_port_range_hist_zoom.csv");
  for (const auto& row : zoom.csv_rows()) csv_zoom.write_row(row);

  std::printf(
      "paper's shape: a spike at 0 (fixed ports, majority closed), peaks at\n"
      "~2,4xx (Windows, mostly open), ~16,0xx (FreeBSD, mostly closed),\n"
      "~28,0xx (Linux, mostly closed) and a broad mass toward 64,5xx (full\n"
      "range). CSVs: fig2_port_range_hist{,_zoom}.csv\n");
}

/// Figure 3b: in-the-wild frequency distribution of source-port ranges
/// with Beta(9,2) model overlays and p0f composition per bar; includes the
/// windows-wrap-adjustment ablation.
void fig3b(const Report& r) {
  std::printf("== fig3b_wild_hist: paper Figure 3b ==\n\n");
  const auto& p0f = analysis::P0fDatabase::standard();
  const auto samples = analysis::range_samples(r.campaign->results.records, p0f);

  constexpr int kBin = 500;
  analysis::StackedHistogram hist(0, 65535, kBin,
                                  {"p0f unknown", "p0f Windows", "p0f Linux",
                                   "p0f other"});
  for (const analysis::RangeSample& s : samples) {
    std::size_t series = 0;
    if (s.p0f == analysis::P0fClass::kWindows) series = 1;
    else if (s.p0f == analysis::P0fClass::kLinux) series = 2;
    else if (s.p0f != analysis::P0fClass::kUnknown) series = 3;
    hist.add(s.range, series);
  }

  // Model overlay: per-pool Beta densities scaled to the planted population
  // share of each band, integrated per bin.
  struct Pool {
    double size;
    double weight;
  };
  const Pool kPools[] = {{2500, 0.046}, {16384, 0.038}, {28233, 0.30},
                         {64512, 0.60}};
  std::vector<double> overlay(hist.bin_count(), 0.0);
  const double n = static_cast<double>(samples.size());
  for (std::size_t b = 0; b < hist.bin_count(); ++b) {
    const double mid = hist.bin_lo(b) + kBin / 2.0;
    double density = 0;
    for (const Pool& pool : kPools) {
      density += pool.weight * analysis::range_pdf(mid, pool.size);
    }
    overlay[b] = density * kBin * n;  // expected count in this bin
  }
  hist.set_overlay(overlay);

  std::printf("%s\n", hist.render_ascii().c_str());

  CsvWriter csv("fig3b_wild_hist.csv");
  for (const auto& row : hist.csv_rows()) csv.write_row(row);

  // Ablation: how many Windows-fingerprinted resolvers land in the Windows
  // band with vs. without the §5.3.2 wrap adjustment.
  std::uint64_t windows_band_adjusted = 0;
  std::uint64_t windows_band_raw = 0;
  std::uint64_t wrap_applied = 0;
  for (const auto& [addr, rec] : r.campaign->results.records) {
    if (!rec.reachable() || !rec.tcp_syn) continue;
    if (p0f.classify(*rec.tcp_syn) != analysis::P0fClass::kWindows) continue;
    const auto ports = analysis::combined_ports(rec);
    if (ports.size() < analysis::kMinPortSamples) continue;
    const int raw = analysis::compute_port_stats(ports).range;
    const int adjusted = analysis::adjusted_range(ports);
    if (analysis::windows_wrap_applies(ports)) ++wrap_applied;
    if (analysis::classify_range(adjusted) == 3) ++windows_band_adjusted;
    if (analysis::classify_range(raw) == 3) ++windows_band_raw;
  }
  std::printf(
      "ablation (wrap adjustment): Windows-fingerprinted resolvers in the\n"
      "941-2,488 band: %llu with adjustment vs %llu without (%llu wrapped\n"
      "pools rescued; unadjusted wrapped pools misread as ~14,000-range).\n"
      "CSV: fig3b_wild_hist.csv\n",
      static_cast<unsigned long long>(windows_band_adjusted),
      static_cast<unsigned long long>(windows_band_raw),
      static_cast<unsigned long long>(wrap_applied));
}

/// Rebuilds a PassiveCapture from raw wire bytes: src -> source ports of
/// its port-53 UDP queries, in capture (delivery) order — what a root
/// operator's tap yields after filtering to DNS.
analysis::PassiveCapture passive_from_pcap(const std::string& path) {
  const pcap::Capture capture = pcap::parse_pcap(pcap::read_file(path));
  analysis::PassiveCapture passive;
  std::size_t skipped = 0;
  for (const pcap::PcapRecord& rec : capture.records) {
    if (rec.bytes.size() < rec.orig_len) {
      ++skipped;  // snapped record: headers may be incomplete
      continue;
    }
    net::Packet pkt;
    try {
      pkt = net::Packet::parse(rec.bytes);
    } catch (const ParseError&) {
      ++skipped;  // non-IP linktype or mangled record
      continue;
    }
    if (pkt.proto != net::IpProto::kUdp || pkt.dst_port != 53) continue;
    passive[pkt.src].push_back(pkt.src_port);
  }
  std::printf("# pcap replay: %zu records, %zu resolvers, %zu skipped\n",
              capture.records.size(), passive.size(), skipped);
  return passive;
}

/// §5.2.2: passive-measurement cross-check of the zero-source-port
/// findings. Of the resolvers actively measured with a single fixed port,
/// how many already looked that way in the 18-months-earlier capture, how
/// many regressed from randomized ports, and how many cannot be compared?
/// The old capture is the world's synthesized passive_capture, or with
/// --pcap=PATH one rebuilt from a wire capture on disk (e.g. the pcap
/// section's export; scripts/pcap_replay.sh runs that loop end to end).
void passive(const Report& r) {
  std::printf("== passive_comparison: paper §5.2.2 ==\n\n");
  const analysis::PassiveCapture replayed =
      r.pcap_in.empty() ? analysis::PassiveCapture{}
                        : passive_from_pcap(r.pcap_in);
  const analysis::PassiveCapture& old_capture =
      r.pcap_in.empty() ? r.campaign->world->passive_capture : replayed;
  const auto cmp =
      analysis::compare_with_passive(r.campaign->results.records, old_capture);

  TextTable t({"Metric", "Measured", "Paper"});
  t.set_align(1, Align::kRight);
  t.set_align(2, Align::kRight);
  t.add_row({"Zero-range resolvers (active)", with_commas(cmp.zero_now),
             "3,810"});
  t.add_row({"  already zero-variance in old capture",
             count_pct(cmp.zero_then, cmp.zero_now, 0), "1,954 (51%)"});
  t.add_row({"  had variance before (regressed)",
             count_pct(cmp.varied_then, cmp.zero_now, 0), "959 (25%)"});
  t.add_row({"  insufficient passive data",
             count_pct(cmp.insufficient, cmp.zero_now, 0), "897 (24%)"});
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "the alarming row is the middle one: a quarter of today's fixed-port\n"
      "resolvers *used to randomize* — their security decreased years after\n"
      "the Kaminsky disclosure.\n");
}

/// Wire-capture export: the standard campaign's traffic (main runs it
/// with the network tap installed when this section is selected) written as a classic pcap
/// (LINKTYPE_RAW, readable by tcpdump/wireshark) plus the ".idx" sidecar
/// carrying the record count and per-packet drop annotations. Sharded runs
/// merge per-shard captures into canonical order; for the probe plane
/// (--probes-only) the capture digest is invariant across
/// (--shards, --threads), as tests/test_core_parallel.cpp pins.
void pcap_export(const Report& r) {
  std::printf("== pcap_export: campaign wire capture ==\n\n");
  const pcap::Capture& cap = r.campaign->results.capture;
  pcap::write_capture(cap, r.pcap_out);

  std::map<std::uint8_t, std::uint64_t> by_fate;
  std::uint64_t wire_bytes = 0;
  for (const pcap::PcapRecord& rec : cap.records) {
    ++by_fate[rec.annotation];
    wire_bytes += rec.orig_len;
  }
  std::printf("# wrote %s (+.idx): %zu records, %llu wire bytes\n",
              r.pcap_out.c_str(), cap.records.size(),
              (unsigned long long)wire_bytes);
  for (const auto& [fate, count] : by_fate) {
    std::printf("#   %-14s %llu\n",
                sim::drop_reason_name(static_cast<sim::DropReason>(fate)).c_str(),
                (unsigned long long)count);
  }
  std::printf("# capture digest %016llx\n",
              (unsigned long long)core::capture_digest(cap));
}

// --- sections that run their own campaigns ---------------------------------

/// Per-transport scan cost for the TCP follow-up battery — RFC 7766
/// one-shot dialing vs persistent pipelined sessions vs DoT-style sessions
/// with a fixed per-connection handshake. Runs at a quarter of the scaled
/// AS count: the point is the connection economics, not the rankings.
void transport(const Report& r) {
  std::printf("== per-transport scan cost (TCP follow-up battery) ==\n");
  ditl::WorldSpec spec = scaled_spec(r.options);
  spec.n_asns /= 4;

  TextTable tt({"Transport", "Probes", "Dials", "Reuses", "Handshake bytes",
                "Probes/s"});
  for (std::size_t c = 1; c < 6; ++c) tt.set_align(c, Align::kRight);

  struct TransportMode {
    const char* label;
    bool persistent;
    bool dot;
  };
  constexpr TransportMode kModes[] = {{"one-shot", false, false},
                                      {"persistent", true, false},
                                      {"DoT session", true, true}};
  for (const TransportMode& mode : kModes) {
    core::ExperimentConfig config;
    config.analyst = scanner::AnalystConfig{};
    config.followup.transport = scanner::FollowupTransport::kTcp;
    config.persistent_tcp = mode.persistent;
    config.dot_sessions = mode.dot;
    config.num_shards = r.options.shards;
    config.num_threads = r.options.threads;
    core::ShardedResults out = core::run_sharded_experiment(spec, config);
    const sim::TransportCounters& tc = out.merged.transport;
    const double pps =
        out.wall_ms > 0 ? 1000.0 * (double)out.merged.queries_sent / out.wall_ms
                        : 0.0;
    tt.add_row({mode.label, with_commas(out.merged.queries_sent),
                with_commas(tc.dials), with_commas(tc.session_reuses),
                with_commas(tc.handshake_bytes),
                std::to_string((long long)pps)});
  }
  std::printf(
      "%s\n(one TCP session per target carries the whole 22-message battery "
      "when\n persistent transports are on — dials collapse while probe "
      "throughput holds;\n DoT pays its handshake bytes up front and reuses "
      "them across the battery)\n",
      tt.to_string().c_str());
}

/// Ablation for §3.6.4: NXDOMAIN-answering authoritative servers lose the
/// full query name for strictly QNAME-minimizing resolvers; the paper's
/// proposed fix (wildcard-synthesized answers) recovers it. Runs the same
/// world (half the scaled AS count) both ways and compares attribution
/// coverage.
void ablation(const Report& r) {
  std::printf(
      "== ablation_wildcard: §3.6.4 NXDOMAIN vs wildcard answers ==\n");
  // Per variant: partial queries, ASNs seen only via partial names,
  // reachable targets, reachable planted minimizers.
  const auto run_variant = [&](bool wildcard) {
    ditl::WorldSpec spec = scaled_spec(r.options);
    spec.n_asns /= 2;
    // Oversampled ten-fold over bench_world_spec()'s 0.005 (itself ~3x the
    // paper's 0.16%): at that rate a half-scale world holds no reachable
    // strict minimizer, and both variants measure nothing.
    spec.qmin_fraction = 0.05;
    spec.wildcard_answers = wildcard;
    core::ExperimentConfig config;
    config.analyst = scanner::AnalystConfig{};
    const Run run = run_campaign(spec, config, r.options);
    std::printf("\n");
    std::array<std::uint64_t, 4> out = {
        run.results.collector_stats.qmin_partial, run.results.qmin_asns.size(),
        0, 0};
    for (const auto& [addr, rec] : run.results.records) {
      if (!rec.reachable()) continue;
      ++out[2];
      const auto it = run.world->truth_resolvers.find(addr);
      if (it != run.world->truth_resolvers.end() && it->second.qmin) ++out[3];
    }
    return out;
  };

  std::printf("--- variant A: NXDOMAIN responses (the paper's setup) ---\n");
  const auto nx = run_variant(false);
  std::printf("--- variant B: wildcard-synthesized answers (proposed fix) ---\n");
  const auto wc = run_variant(true);

  TextTable t({"Metric", "NXDOMAIN", "Wildcard"});
  t.set_align(1, Align::kRight);
  t.set_align(2, Align::kRight);
  const char* kMetrics[] = {"QNAME-minimized partial queries (unattributable)",
                            "ASNs only seen via partial names",
                            "Reachable targets attributed",
                            "QNAME-minimizing resolvers attributed"};
  for (std::size_t i = 0; i < nx.size(); ++i) {
    t.add_row({kMetrics[i], with_commas(nx[i]), with_commas(wc[i])});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "expected shape: wildcard answers close the attribution gap — the\n"
      "strictly-minimizing resolvers never hit NXDOMAIN mid-walk, so their\n"
      "full query names (and hence src/dst attribution) reach our servers\n"
      "and more of them are attributed. Partial entries rise rather than\n"
      "fall: every minimization step now reaches us too.\n");
}

// --- lab and model sections (no campaign) ----------------------------------

/// Table 5: default source-port allocation behaviour by DNS software,
/// measured the paper's way — run each implementation in the lab, issue
/// queries, and characterize the ports observed at the authoritative
/// server.
void table5(const Report& r) {
  std::printf("== table5_software_pools: paper Table 5 ==\n");
  struct Row {
    resolver::DnsSoftware software;
    sim::OsId os;
    const char* paper;
  };
  static const Row kRows[] = {
      {resolver::DnsSoftware::kBind950, sim::OsId::kUbuntu1904,
       "8 ports, selected at startup"},
      {resolver::DnsSoftware::kBind952To988, sim::OsId::kUbuntu1904,
       "1024-65535"},
      {resolver::DnsSoftware::kBind9913To9160, sim::OsId::kUbuntu1904,
       "OS defaults"},
      {resolver::DnsSoftware::kBind9913To9160, sim::OsId::kFreeBsd121,
       "OS defaults"},
      {resolver::DnsSoftware::kKnot321, sim::OsId::kUbuntu1904,
       "OS defaults"},
      {resolver::DnsSoftware::kUnbound190, sim::OsId::kUbuntu1904,
       "1024-65535"},
      {resolver::DnsSoftware::kPowerDns420, sim::OsId::kUbuntu1904,
       "1024-65535"},
      {resolver::DnsSoftware::kWindowsDns2003, sim::OsId::kWin2003,
       "1 port, > 1023, selected at startup"},
      {resolver::DnsSoftware::kWindowsDns2008R2, sim::OsId::kWin2012,
       "2,500 contiguous ports (with wrapping), selected at startup"},
      {resolver::DnsSoftware::kBind8, sim::OsId::kUbuntu1004,
       "port 53 (pre-8.1 default)"},
  };

  TextTable t({"Software (on OS)", "unique", "min", "max", "range",
               "observed behaviour", "paper"});
  for (std::size_t c = 1; c < 5; ++c) t.set_align(c, Align::kRight);

  for (const Row& row : kRows) {
    const auto per_instance = lab_collect_ports(
        row.software, row.os, /*n_instances=*/1, /*queries=*/2000,
        lab_seed(r, 97));
    const auto& ports = per_instance.front();
    const auto stats = analysis::compute_port_stats(ports);
    const std::set<std::uint16_t> unique(ports.begin(), ports.end());

    std::string behaviour;
    if (unique.size() == 1) {
      behaviour = "single port " + std::to_string(*unique.begin());
    } else if (unique.size() <= 16) {
      behaviour = std::to_string(unique.size()) + "-port pool";
    } else if (stats.min >= 49152 && stats.range <= 2499) {
      behaviour = "2,500-port windowed pool in IANA range";
    } else if (stats.min >= 32768 && stats.max <= 61000) {
      behaviour = "Linux default pool (32768-61000)";
    } else if (stats.min >= 49152) {
      behaviour = "IANA range (49152-65535)";
    } else {
      behaviour = "full unprivileged range";
    }

    const std::string name = resolver::software_profile(row.software).name +
                             " / " + sim::os_profile(row.os).name;
    t.add_row({name, std::to_string(unique.size()), std::to_string(stats.min),
               std::to_string(stats.max), std::to_string(stats.range),
               behaviour, row.paper});
  }
  std::printf("%s\n(each row: 2,000 lab queries through a live resolver "
              "instance)\n",
              t.to_string().c_str());
}

/// Table 6: which OSes deliver destination-as-source and loopback-source
/// packets to user space, per IP family — probed directly against each
/// simulated network stack, exactly as the paper's lab did.
void table6(const Report& r) {
  std::printf("== table6_os_acceptance: paper Table 6 ==\n");
  TextTable t({"OS", "Kernel", "DS v4", "LB v4", "DS v6", "LB v6",
               "paper row"});
  const auto mark = [](bool accepted) {
    return accepted ? std::string("*") : std::string("");
  };

  for (const sim::OsProfile& os : sim::all_os_profiles()) {
    if (os.id == sim::OsId::kBaiduLike || os.id == sim::OsId::kEmbeddedCpe ||
        os.id == sim::OsId::kMiddleboxFronted) {
      continue;  // synthetic stand-ins, not part of the paper's table
    }

    // A fresh single-host network per OS.
    sim::EventLoop loop;
    sim::Topology topology;
    Rng rng(lab_seed(r, 7));
    sim::Network network(topology, loop, rng.split("n"));
    topology.add_as(1, sim::FilterPolicy{});  // no border filtering: pure stack
    topology.announce(1, net::Prefix::must_parse("60.0.0.0/16"));
    topology.announce(1, net::Prefix::must_parse("2620:60::/32"));
    const auto v4 = net::IpAddr::must_parse("60.0.0.1");
    const auto v6 = net::IpAddr::must_parse("2620:60::1");
    sim::Host host(network, 1, os, {v4, v6}, rng.split("h"), "dut");

    bool got[4] = {false, false, false, false};
    host.bind_udp(53, [&](const net::Packet& pkt) {
      if (pkt.src == pkt.dst) {
        got[pkt.src.is_v4() ? 0 : 2] = true;
      } else {
        got[pkt.src.is_v4() ? 1 : 3] = true;
      }
    });

    // Inject the four spoofed probes from outside the AS boundary model
    // (origin AS 1 as well: the stack decision is what is under test).
    network.send(net::make_udp(v4, 1000, v4, 53, {0}), 1);
    network.send(net::make_udp(net::IpAddr::must_parse("127.0.0.1"), 1000, v4,
                               53, {0}),
                 1);
    network.send(net::make_udp(v6, 1000, v6, 53, {0}), 1);
    network.send(net::make_udp(net::IpAddr::must_parse("::1"), 1000, v6, 53,
                               {0}),
                 1);
    loop.run(1000);

    std::string paper;
    switch (os.family) {
      case sim::OsFamily::kLinux:
        paper = (os.accepts_loopback_v6) ? "DS v6 + LB v6" : "DS v6 only";
        break;
      case sim::OsFamily::kFreeBsd:
        paper = "DS v4 + DS v6";
        break;
      case sim::OsFamily::kWindows:
        paper = os.accepts_loopback_v4 ? "DS v4 + LB v4 + DS v6"
                                       : "DS v4 + DS v6";
        break;
      default:
        paper = "-";
    }
    t.add_row({os.name, os.kernel, mark(got[0]), mark(got[1]), mark(got[2]),
               mark(got[3]), paper});
  }
  std::printf("%s\n(* = spoofed packet delivered to the bound UDP service; "
              "probes pass no border filter, isolating the kernel rule)\n",
              t.to_string().c_str());
}

/// Figure 3a: controlled-lab frequency distribution of 10-query source-port
/// sample ranges for FreeBSD, Linux, Windows DNS, and full-port-range
/// configurations, with the theoretical Beta(9,2) overlays.
void fig3a(const Report& r) {
  std::printf("== fig3a_lab_hist: paper Figure 3a ==\n");
  struct Config {
    const char* label;
    resolver::DnsSoftware software;
    sim::OsId os;
    int instances;
    double pool;  // model pool size
  };
  static const Config kConfigs[] = {
      {"Windows DNS", resolver::DnsSoftware::kWindowsDns2008R2,
       sim::OsId::kWin2012, 10, 2500},
      {"FreeBSD", resolver::DnsSoftware::kBind9913To9160,
       sim::OsId::kFreeBsd121, 1, 16384},
      {"Linux", resolver::DnsSoftware::kBind9913To9160, sim::OsId::kUbuntu1904,
       1, 28233},
      {"Full Port Range", resolver::DnsSoftware::kUnbound190,
       sim::OsId::kUbuntu1904, 1, 64512},
  };

  analysis::StackedHistogram hist(0, 65535, 500,
                                  {"Windows DNS", "FreeBSD", "Linux",
                                   "Full Port Range"});
  CsvWriter csv("fig3a_lab_samples.csv");
  csv.write_row({"config", "sample_range"});

  for (std::size_t c = 0; c < 4; ++c) {
    const Config& config = kConfigs[c];
    const int queries = 10000 / config.instances;
    const auto per_instance =
        lab_collect_ports(config.software, config.os, config.instances,
                          queries, lab_seed(r, 1234 + c));

    std::size_t samples = 0;
    for (const auto& ports : per_instance) {
      // The paper's procedure: consecutive samples of 10, range of each,
      // with the Windows wrap adjustment applied.
      for (std::size_t i = 0; i + 10 <= ports.size(); i += 10) {
        const std::span<const std::uint16_t> sample(&ports[i], 10);
        const int range = analysis::adjusted_range(sample);
        hist.add(range, c);
        csv.write_row({config.label, std::to_string(range)});
        ++samples;
      }
    }
    // Model check: where should the distribution peak? (mode of Beta(9,2)
    // is 8/9 of the pool.)
    std::printf("%-16s %5zu samples; model peak at range %.0f, q99.9 = %.0f\n",
                config.label, samples, (config.pool - 1) * 8.0 / 9.0,
                analysis::range_quantile(0.999, config.pool));
  }

  std::printf("\n%s\n", hist.render_ascii().c_str());
  std::printf(
      "paper's shape: four humps, one per pool, each peaked near 8/9 of its\n"
      "pool size (Beta(9,2) mode): ~2,2xx / ~14,5xx / ~25,1xx / ~57,3xx.\n"
      "CSV: fig3a_lab_samples.csv\n");
}

/// Derives Table 4's band edges from the Beta(9,2) range model, the way the
/// paper did: minimum-misclassification cutoffs between adjacent OS pools
/// and 99.9%-accuracy edges elsewhere.
void cutoffs(const Report&) {
  std::printf("== model_cutoffs: paper §5.3.2 band derivation ==\n\n");

  // Pool sizes: Windows DNS 2,500; FreeBSD IANA range 16,384; Linux
  // 32768-61000 = 28,233; full unprivileged range 64,512.
  const double kWindows = 2500, kFreeBsd = 16384, kLinux = 28233,
               kFull = 64512;

  TextTable t({"Boundary", "Derived", "Paper", "Misclassification"});
  t.set_align(1, Align::kRight);
  t.set_align(2, Align::kRight);
  char buf[64];
  {
    const auto c = analysis::optimal_cutoff(kFreeBsd, kLinux);
    std::snprintf(buf, sizeof(buf), "%.2f%% BSD / %.2f%% Linux",
                  100 * c.small_pool_error, 100 * c.large_pool_error);
    t.add_row({"FreeBSD / Linux", std::to_string(c.cutoff), "16,331", buf});
  }
  {
    const auto c = analysis::optimal_cutoff(kLinux, kFull);
    std::snprintf(buf, sizeof(buf), "%.2f%% combined",
                  100 * (c.small_pool_error + c.large_pool_error) / 2);
    t.add_row({"Linux / Full range", std::to_string(c.cutoff), "28,222", buf});
  }
  const auto quantile_row = [&](const char* name, double q, double pool,
                                const char* paper) {
    t.add_row({name,
               std::to_string(static_cast<int>(analysis::range_quantile(q, pool))),
               paper, "0.1% missed"});
  };
  // 99.9%-accuracy edges for the Windows pool, and FreeBSD's lower edge.
  quantile_row("Windows upper edge (q99.9)", 0.999, kWindows, "2,488");
  quantile_row("Windows lower edge (q0.1)", 0.001, kWindows, "941");
  quantile_row("FreeBSD lower edge (q0.1)", 0.001, kFreeBsd, "6,125");
  std::printf("%s\n", t.to_string().c_str());

  std::printf("paper cross-checks:\n"
              "  misclassified FreeBSD at 16,331: paper 0.05%% | model %.3f%%\n"
              "  misclassified Linux at 16,331:   paper 3.5%%  | model %.3f%%\n"
              "  P(<=7 unique of 10 from 200 ports): paper 0.066%% | model %.3f%%\n",
              100 * (1.0 - analysis::range_cdf(16331, kFreeBsd)),
              100 * analysis::range_cdf(16331, kLinux),
              100 * analysis::small_pool_probability(200, 10, 7));
}

// --- registry and main ------------------------------------------------------

struct Section {
  const char* name;
  bool reads_campaign;  // renders from the standard campaign
  bool by_default;      // selected when --only is not given
  void (*render)(const Report&);
};

constexpr Section kSections[] = {
    {"headline", true, true, headline},
    {"table1", true, true, table1},
    {"table2", true, true, table2},
    {"table3", true, true, table3},
    {"table4", true, true, table4},
    {"table5", false, true, table5},
    {"table6", false, true, table6},
    {"fig2", true, true, fig2},
    {"fig3a", false, true, fig3a},
    {"fig3b", true, true, fig3b},
    {"passive", true, true, passive},
    {"transport", false, true, transport},
    {"cutoffs", false, true, cutoffs},
    {"ablation", false, true, ablation},
    {"pcap", true, false, pcap_export},
};
constexpr std::size_t kSectionCount = std::size(kSections);

std::size_t section_index(std::string_view name) {
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    if (name == kSections[i].name) return i;
  }
  return kSectionCount;
}

/// Marks the sections of a comma-separated --only list; an unknown name
/// exits 2 naming it.
std::vector<bool> parse_only(std::string_view list) {
  std::vector<bool> selected(kSectionCount, false);
  while (true) {
    const std::size_t comma = list.find(',');
    const std::string name(list.substr(0, comma));
    const std::size_t i = section_index(name);
    if (i == kSectionCount) {
      std::fprintf(stderr, "error: unknown section '%s' in --only\n",
                   name.c_str());
      std::exit(2);
    }
    selected[i] = true;
    if (comma == std::string_view::npos) return selected;
    list.remove_prefix(comma + 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Report report;
  RunOptions& opt = report.options;
  std::vector<bool> selected(kSectionCount);
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    selected[i] = kSections[i].by_default;
  }
  core::CaptureSpec capture;
  // Section flags, checked against the selection once every argument is in.
  std::vector<std::pair<const char*, const char*>> scoped;  // (arg, section)
  bool shards_given = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value_of = [arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value_of("--only=")) {
      selected = parse_only(v);
    } else if (const char* v = value_of("--scale=")) {
      opt.scale = cli::flag_double("--scale", v);
      if (opt.scale <= 0) cli::flag_out_of_range("--scale", v, "> 0");
    } else if (const char* v = value_of("--seed=")) {
      opt.seed = cli::flag_u64("--seed", v);
    } else if (const char* v = value_of("--threads=")) {
      opt.threads = cli::flag_u64("--threads", v);
    } else if (const char* v = value_of("--shards=")) {
      opt.shards = cli::flag_u64("--shards", v);
      shards_given = true;
    } else if (std::strcmp(arg, "--wildcard") == 0) {
      opt.wildcard_answers = true;
    } else if (const char* v = value_of("--pcap=")) {
      report.pcap_in = v;
      scoped.emplace_back(arg, "passive");
    } else if (const char* v = value_of("--out=")) {
      report.pcap_out = v;
      scoped.emplace_back(arg, "pcap");
    } else if (std::strcmp(arg, "--probes-only") == 0) {
      capture.probes_only = true;
      scoped.emplace_back(arg, "pcap");
    } else if (std::strcmp(arg, "--no-drops") == 0) {
      capture.include_drops = false;
      scoped.emplace_back(arg, "pcap");
    } else {
      cli::unknown_flag(arg);
    }
  }
  for (const auto& [arg, section] : scoped) {
    if (!selected[section_index(section)]) {
      std::fprintf(stderr,
                   "error: flag '%s' needs section '%s' (add it to --only)\n",
                   arg, section);
      return 2;
    }
  }
  // --threads alone implies one shard per thread.
  if (opt.threads == 0) opt.threads = 1;
  if (!shards_given) opt.shards = opt.threads;
  if (opt.shards == 0) opt.shards = 1;

  bool campaign = false;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    campaign = campaign || (selected[i] && kSections[i].reads_campaign);
  }
  if (campaign) {
    core::ExperimentConfig config;
    config.analyst = scanner::AnalystConfig{};
    // The pcap section exports this campaign's traffic.
    if (selected[section_index("pcap")]) config.capture = capture;
    report.campaign = run_campaign(scaled_spec(opt), config, opt);
  }

  bool first = true;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    if (!selected[i]) continue;
    if (!first) std::printf("\n");
    first = false;
    kSections[i].render(report);
  }
  return 0;
}
