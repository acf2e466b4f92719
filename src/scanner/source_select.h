// Spoofed-source address selection (paper §3.2).
//
// For each target the scanner probes with up to 101 spoofed sources across
// five categories: other-prefix (<=97 addresses, one per other /24 or /64 of
// the target's AS, IPv6 biased toward hitlist-active /64s), same-prefix,
// private/unique-local, destination-as-source, and loopback.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ip.h"
#include "sim/topology.h"
#include "util/rng.h"

namespace cd::scanner {

enum class SourceCategory : std::uint8_t {
  kOtherPrefix = 0,
  kSamePrefix = 1,
  kPrivate = 2,
  kDstAsSrc = 3,
  kLoopback = 4,
};
constexpr int kSourceCategoryCount = 5;

[[nodiscard]] std::string source_category_name(SourceCategory category);

struct SpoofedSource {
  cd::net::IpAddr addr;
  SourceCategory category = SourceCategory::kOtherPrefix;

  friend bool operator==(const SpoofedSource&, const SpoofedSource&) = default;
};

struct SourceSelectConfig {
  std::size_t max_other_prefixes = 97;
  /// IPv6 in-prefix host selection: first `v6_window` addresses of the /64,
  /// excluding the first `v6_skip` (router addresses).
  std::uint64_t v6_window = 100;
  std::uint64_t v6_skip = 2;
  bool prefer_hitlist = true;
};

class SourceSelector {
 public:
  /// `hitlist_v6` may be empty; entries bias v6 other-prefix selection
  /// toward /64s with observed activity.
  SourceSelector(const cd::sim::Topology& topology,
                 std::vector<cd::net::IpAddr> hitlist_v6,
                 SourceSelectConfig config, cd::Rng rng);

  /// Spoofed sources for one target, in probe order. `asn` must be the
  /// target's origin AS. Deterministic given the constructor seed and
  /// arguments.
  [[nodiscard]] std::vector<SpoofedSource> sources_for(
      const cd::net::IpAddr& target, cd::sim::Asn asn);

 private:
  [[nodiscard]] std::vector<cd::net::IpAddr> other_prefix_v4(
      const cd::net::IpAddr& target, cd::sim::Asn asn, cd::Rng& rng);
  [[nodiscard]] std::vector<cd::net::IpAddr> other_prefix_v6(
      const cd::net::IpAddr& target, cd::sim::Asn asn, cd::Rng& rng);
  [[nodiscard]] cd::net::IpAddr pick_v4_host(const cd::net::Prefix& p24,
                                             cd::Rng& rng) const;
  [[nodiscard]] cd::net::IpAddr pick_v6_host(const cd::net::Prefix& p64,
                                             cd::Rng& rng) const;

  /// The /24 or /64 bases one target's other-prefix pass has taken: an
  /// open-addressed table sized from max_other_prefixes (a pass inserts at
  /// most 4x that many), emptied per target by bumping a generation stamp.
  class BaseSet {
   public:
    explicit BaseSet(std::size_t max_keys);
    void clear();
    /// Adds `key`; false if this target's pass already holds it.
    bool insert(const cd::net::U128& key);

   private:
    std::vector<cd::net::U128> keys_;
    std::vector<std::uint32_t> stamps_;  // slot in use iff == gen_
    std::uint32_t gen_ = 0;
    std::size_t size_ = 0;
  };

  const cd::sim::Topology& topology_;
  SourceSelectConfig config_;
  BaseSet seen_bases_;
  std::uint64_t seed_;  // per-target generators derive from this, stateless
  // hitlist /64 bases grouped by ASN for fast preference lookup
  std::unordered_map<cd::sim::Asn, std::vector<cd::net::Prefix>> hitlist_by_asn_;
};

}  // namespace cd::scanner
