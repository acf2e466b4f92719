#include "dns/zone.h"

#include "util/error.h"

namespace cd::dns {

Zone::Zone(DnsName origin, SoaRdata soa)
    : origin_(std::move(origin)), soa_(std::move(soa)) {
  existing_.insert(origin_);
}

DnsRr Zone::soa_rr() const {
  return make_soa(origin_, soa_, soa_.minimum);
}

void Zone::add(DnsRr rr) {
  CD_ENSURE(rr.name.is_subdomain_of(origin_),
            "Zone::add: " + rr.name.to_string() + " out of zone " +
                origin_.to_string());
  // Register the owner and every ancestor as existing (empty non-terminals
  // must yield NoData rather than NXDOMAIN).
  DnsName walk = rr.name;
  while (!(walk == origin_)) {
    existing_.insert(walk);
    walk = walk.parent();
  }
  nodes_[rr.name][rr.type].push_back(std::move(rr));
}

const Zone::TypeMap* Zone::find_node(NameRef name) const {
  const auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
}

const std::vector<DnsRr>* Zone::find_cut(const NameSuffixes& name) const {
  // Walk from just below the origin down toward `name`, looking for the
  // shallowest NS-bearing node (that is the authoritative cut).
  for (std::size_t n = origin_.label_count() + 1; n <= name.label_count();
       ++n) {
    const TypeMap* node = find_node(name[n]);
    if (!node) continue;
    const auto it = node->find(RrType::kNs);
    if (it != node->end()) return &it->second;
  }
  return nullptr;
}

void Zone::collect_glue(const std::vector<DnsRr>& ns_set,
                        std::vector<DnsRr>& glue) const {
  for (const DnsRr& ns : ns_set) {
    const auto* rd = std::get_if<NsRdata>(&ns.rdata);
    if (!rd) continue;
    const TypeMap* node = find_node(rd->nsdname);
    if (!node) continue;
    for (RrType t : {RrType::kA, RrType::kAaaa}) {
      const auto it = node->find(t);
      if (it != node->end()) {
        glue.insert(glue.end(), it->second.begin(), it->second.end());
      }
    }
  }
}

LookupResult Zone::lookup(const DnsName& qname, RrType qtype) const {
  LookupResult result;
  if (!qname.is_subdomain_of(origin_)) {
    result.kind = LookupKind::kNotInZone;
    return result;
  }

  // Delegation check: an NS set below the origin (not a query *for* NS at
  // exactly the cut, which is still a referral per RFC 1034 — the child is
  // authoritative, not us).
  const NameSuffixes suffixes(qname);
  if (const std::vector<DnsRr>* cut = find_cut(suffixes)) {
    result.kind = LookupKind::kDelegation;
    result.records = *cut;
    collect_glue(result.records, result.glue);
    return result;
  }

  if (const TypeMap* node = find_node(qname)) {
    const auto it = node->find(qtype);
    if (it != node->end()) {
      result.kind = LookupKind::kAnswer;
      result.records = it->second;
      return result;
    }
    const auto cname_it = node->find(RrType::kCname);
    if (cname_it != node->end()) {
      result.kind = LookupKind::kAnswer;
      result.records = cname_it->second;
      return result;
    }
    result.kind = LookupKind::kNoData;
    result.soa = soa_rr();
    return result;
  }

  if (existing_.count(qname)) {
    // Empty non-terminal: exists, holds nothing.
    result.kind = LookupKind::kNoData;
    result.soa = soa_rr();
    return result;
  }

  // Wildcard synthesis: find the closest encloser (deepest existing
  // ancestor), then look for "*" directly beneath it.
  std::size_t encloser = qname.label_count() - 1;
  while (!existing_.count(suffixes[encloser])) --encloser;
  char wildcard[kMaxNameWire];
  if (const TypeMap* node =
          find_node(prepend_label("*", suffixes[encloser], wildcard))) {
    const auto it = node->find(qtype);
    if (it != node->end()) {
      result.kind = LookupKind::kAnswer;
      result.wildcard = true;
      for (DnsRr rr : it->second) {
        rr.name = qname;  // synthesis: owner becomes the query name
        result.records.push_back(std::move(rr));
      }
      return result;
    }
    result.kind = LookupKind::kNoData;
    result.wildcard = true;
    result.soa = soa_rr();
    return result;
  }

  result.kind = LookupKind::kNxDomain;
  result.soa = soa_rr();
  return result;
}

std::size_t Zone::record_count() const {
  std::size_t n = 0;
  for (const auto& [name, types] : nodes_) {
    for (const auto& [t, rrs] : types) n += rrs.size();
  }
  return n;
}

}  // namespace cd::dns
