// Authoritative zone data with delegation and wildcard support.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dns/message.h"

namespace cd::dns {

/// Outcome of a zone lookup, mirroring RFC 1034 §4.3.2.
enum class LookupKind {
  kAnswer,      // records of the requested type (or a CNAME) at qname
  kDelegation,  // qname is at/below a zone cut: referral NS set returned
  kNoData,      // name exists but not that type; SOA returned for negatives
  kNxDomain,    // name does not exist; SOA returned for negatives
  kNotInZone,   // qname is not within this zone's origin
};

struct LookupResult {
  LookupKind kind = LookupKind::kNotInZone;
  std::vector<DnsRr> records;    // answer RRset or delegation NS set
  std::vector<DnsRr> glue;       // A/AAAA for in-zone NS targets
  std::optional<DnsRr> soa;      // present for kNoData / kNxDomain
  bool wildcard = false;         // answer synthesized from a wildcard
};

/// One authoritative zone: an origin, an SOA, and a name->type->RRset map.
/// Supports zone cuts (NS below origin => referral + glue) and RFC 1034
/// wildcards ("*" leftmost label at the closest encloser).
class Zone {
 public:
  Zone(DnsName origin, SoaRdata soa);

  [[nodiscard]] const DnsName& origin() const { return origin_; }
  [[nodiscard]] const SoaRdata& soa() const { return soa_; }
  [[nodiscard]] DnsRr soa_rr() const;

  /// Adds one record. Throws InvariantError if the owner is out of zone.
  void add(DnsRr rr);

  [[nodiscard]] LookupResult lookup(const DnsName& qname, RrType qtype) const;

  /// Number of records (excluding the SOA).
  [[nodiscard]] std::size_t record_count() const;

 private:
  // Names are hashed case-folded; DnsNameHash / DnsNameEq also take
  // borrowed NameRefs, so lookups of ancestors build no names. Nothing
  // walks the nodes in name order.
  using TypeMap = std::map<RrType, std::vector<DnsRr>>;

  [[nodiscard]] const TypeMap* find_node(NameRef name) const;
  /// NS set of the shallowest zone cut strictly below the origin and at or
  /// above `name` (its full label count), if any.
  [[nodiscard]] const std::vector<DnsRr>* find_cut(
      const NameSuffixes& name) const;
  void collect_glue(const std::vector<DnsRr>& ns_set,
                    std::vector<DnsRr>& glue) const;

  DnsName origin_;
  SoaRdata soa_;
  std::unordered_map<DnsName, TypeMap, DnsNameHash, DnsNameEq> nodes_;
  // Owners + empty non-terminals.
  std::unordered_set<DnsName, DnsNameHash, DnsNameEq> existing_;
};

}  // namespace cd::dns
