// Recursive-resolver cache with TTL expiry and negative caching.
//
// Negative caching implements RFC 2308 (NXDOMAIN / NoData entries bounded by
// the SOA minimum) and, optionally, RFC 8020: a cached NXDOMAIN for a name
// proves that nothing exists beneath it. RFC 8020 is what makes the paper's
// NXDOMAIN-returning authoritative setup halt QNAME-minimizing resolvers
// (§3.6.4), so its presence here is load-bearing for the reproduction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dns/message.h"

namespace cd::dns {

/// Simulated-time type (microseconds); mirrors cd::sim::SimTime without a
/// dependency cycle.
using CacheTime = std::int64_t;

enum class CacheHitKind {
  kMiss,
  kPositive,      // cached RRset returned
  kNegativeName,  // name known not to exist (possibly via RFC 8020 ancestor)
  kNegativeType,  // name exists, type known to be absent
};

struct CacheResult {
  CacheHitKind kind = CacheHitKind::kMiss;
  std::vector<DnsRr> records;  // for kPositive; TTLs decayed to remaining time
};

struct CacheConfig {
  bool rfc8020 = true;            // ancestor NXDOMAIN covers descendants
  std::uint32_t max_ttl = 86400;  // clamp stored TTLs
  std::size_t max_entries = 100000;
};

/// A per-resolver DNS cache. All operations take the current simulated time;
/// expired entries are treated as absent and lazily evicted.
class Cache {
 public:
  explicit Cache(CacheConfig config = {});

  [[nodiscard]] CacheResult lookup(const DnsName& name, RrType type,
                                   CacheTime now) const;

  /// The deepest suffix of `name` (1 to label_count() labels) with a
  /// cached NS RRset that `accept` takes: `accept(labels, ns_set)` is called
  /// deepest first for every suffix whose lookup(suffix, kNs, now) would be
  /// a positive hit (ns_set as stored, TTLs not decayed), until it
  /// returns true. Returns that label count, or 0 if none was taken. With
  /// RFC 8020 one walk from the root finds the shallowest unexpired
  /// NXDOMAIN and only the suffixes above it are looked up; without it each
  /// suffix checks its own NXDOMAIN.
  template <typename Accept>
  std::size_t deepest_ns(const NameSuffixes& name, CacheTime now,
                         Accept&& accept) const;

  /// Stores a positive RRset (all records must share name/type).
  void insert_positive(const std::vector<DnsRr>& rrset, CacheTime now);

  void insert_nxdomain(const DnsName& name, std::uint32_t ttl, CacheTime now);
  void insert_nodata(const DnsName& name, RrType type, std::uint32_t ttl,
                     CacheTime now);

  /// Drops expired entries; returns how many were removed.
  std::size_t purge(CacheTime now);

  [[nodiscard]] std::size_t size() const;

 private:
  struct PositiveEntry {
    std::vector<DnsRr> records;
    CacheTime expires;
  };
  struct NegativeEntry {
    CacheTime expires;
  };

  struct Key {
    DnsName name;
    RrType type;
  };
  /// A borrowed Key: what lookups probe with.
  struct KeyRef {
    NameRef name;
    RrType type;
    KeyRef(NameRef n, RrType t) : name(n), type(t) {}
    KeyRef(const Key& k) : name(k.name), type(k.type) {}  // NOLINT: implicit
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(KeyRef k) const noexcept {
      return k.name.hash * 31 + static_cast<std::size_t>(k.type);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(KeyRef a, KeyRef b) const {
      return a.type == b.type && wire_equal(a.name, b.name);
    }
  };

  /// Labels of the shallowest suffix of `name`, of at most `labels` labels,
  /// with an unexpired NXDOMAIN (RFC 8020 on; off, only the `labels`-label
  /// suffix is checked), or nullopt.
  [[nodiscard]] std::optional<std::size_t> nxdomain_depth(
      const NameSuffixes& name, std::size_t labels, CacheTime now) const;
  /// The unexpired positive RRset at `key`, or nullptr.
  [[nodiscard]] const PositiveEntry* positive_entry(KeyRef key,
                                                    CacheTime now) const;

  CacheConfig config_;
  std::unordered_map<Key, PositiveEntry, KeyHash, KeyEq> positive_;
  std::unordered_map<DnsName, NegativeEntry, DnsNameHash, DnsNameEq> nxdomain_;
  std::unordered_map<Key, NegativeEntry, KeyHash, KeyEq> nodata_;
};

template <typename Accept>
std::size_t Cache::deepest_ns(const NameSuffixes& name, CacheTime now,
                              Accept&& accept) const {
  std::size_t deepest = name.label_count();
  if (config_.rfc8020) {
    if (const auto nx = nxdomain_depth(name, deepest, now)) {
      deepest = std::max<std::size_t>(*nx, 1) - 1;
    }
  }
  for (std::size_t n = deepest; n > 0; --n) {
    if (!config_.rfc8020 && nxdomain_depth(name, n, now)) continue;
    const PositiveEntry* ns = positive_entry({name[n], RrType::kNs}, now);
    if (ns && accept(n, ns->records)) return n;
  }
  return 0;
}

}  // namespace cd::dns
