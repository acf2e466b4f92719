// The one field list of campaign results, and every walk over it.
//
// Each result type's fields are named exactly once below, in digest order,
// and tagged as *evidence* (digested) or *volume* (spilled and merged only).
// Four sinks walk those lists: the CDSP writer and strict reader
// (serialize_results/parse_results, core/spill.h), results_digest
// (core/parallel.h) and merge_into (core/experiment.h). Adding a field to a
// result type is one line here.
#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/parallel.h"
#include "core/spill.h"
#include "net/packet.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/pcap.h"

namespace cd::core {

namespace {

using cd::net::IpAddr;

/// Incremental FNV-1a over a canonical little-endian serialization: the
/// hash behind results_digest, capture_digest and the CDSP checksum.
class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// Length-prefixed bytes.
  void bytes(std::span<const std::uint8_t> data) {
    u64(data.size());
    for (std::uint8_t b : data) byte(b);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x00000100000001B3ULL;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// --- the field list ----------------------------------------------------------

enum class Role : std::uint8_t {
  /// Digested: evidence identical for any shard, stream or spill layout.
  kEvidence,
  /// Evidence of an opt-in plane, digested only when one of the object's
  /// kSparse fields holds a value: runs without the plane digest as before.
  kSparse,
  /// Spilled and merged, never digested: traffic volume and timing, which
  /// shared-cache warmness (and so the shard layout) legitimately perturbs.
  kVolume,
};

template <auto Member, Role R>
struct Field {
  static constexpr auto member = Member;
  static constexpr Role role = R;
  const char* name;
};
template <auto M>
using Evidence = Field<M, Role::kEvidence>;
template <auto M>
using Sparse = Field<M, Role::kSparse>;
template <auto M>
using Volume = Field<M, Role::kVolume>;

// One list per result type, in digest (and CDSP) order. A record stored in
// a results map lists its map key first.

constexpr auto fields_of(const cd::scanner::TargetRecord*) {
  using T = cd::scanner::TargetRecord;
  return std::tuple{
      Evidence<&T::target>{"target"},
      Evidence<&T::asn>{"asn"},
      Evidence<&T::sources_hit>{"sources_hit"},
      Evidence<&T::categories_hit>{"categories_hit"},
      // Arrival time follows cache warmness; the first-hit *source* is
      // stable because probes are seconds apart.
      Volume<&T::first_hit_time>{"first_hit_time"},
      Evidence<&T::first_hit_source>{"first_hit_source"},
      Evidence<&T::direct_seen>{"direct_seen"},
      Evidence<&T::forwarded_seen>{"forwarded_seen"},
      Evidence<&T::forwarders_seen>{"forwarders_seen"},
      Evidence<&T::client_in_target_as>{"client_in_target_as"},
      Evidence<&T::ports_v4>{"ports_v4"},
      Evidence<&T::ports_v6>{"ports_v6"},
      Evidence<&T::open_hit>{"open_hit"},
      Evidence<&T::tcp_hit>{"tcp_hit"},
      Evidence<&T::tcp_syn>{"tcp_syn"}};
}

constexpr auto fields_of(const cd::scanner::PrefixRecord*) {
  using T = cd::scanner::PrefixRecord;
  return std::tuple{
      Evidence<&T::prefix>{"prefix"},
      Evidence<&T::asn>{"asn"},
      Evidence<&T::responding>{"responding"},
      // Retransmit duplicates follow cache warmness, and a forward-failover
      // resolver draws direct-vs-forwarded from its own sequential stream.
      Volume<&T::hits>{"hits"},
      Volume<&T::direct_seen>{"direct_seen"},
      Volume<&T::forwarded_seen>{"forwarded_seen"}};
}

constexpr auto fields_of(const cd::attack::PoisonRecord*) {
  using T = cd::attack::PoisonRecord;
  return std::tuple{
      Evidence<&T::victim>{"victim"},
      Evidence<&T::asn>{"asn"},
      Evidence<&T::software>{"software"},
      Evidence<&T::os>{"os"},
      Evidence<&T::open>{"open"},
      Evidence<&T::reachable>{"reachable"},
      Evidence<&T::success>{"success"},
      Evidence<&T::rounds>{"rounds"},
      Evidence<&T::success_round>{"success_round"},
      Evidence<&T::poisoned_ttl>{"poisoned_ttl"},
      Evidence<&T::triggers>{"triggers"},
      Evidence<&T::forged>{"forged"},
      Evidence<&T::observed_ports>{"observed_ports"}};
}

// A forwarded target resolving against a cold per-shard cache can add
// retransmitted (duplicate) auth log entries.
constexpr auto fields_of(const cd::scanner::CollectorStats*) {
  using T = cd::scanner::CollectorStats;
  return std::tuple{Volume<&T::entries_seen>{"entries_seen"},
                    Volume<&T::foreign>{"foreign"},
                    Volume<&T::excluded_lifetime>{"excluded_lifetime"},
                    Volume<&T::qmin_partial>{"qmin_partial"}};
}

constexpr auto fields_of(const cd::sim::NetworkStats*) {
  using T = cd::sim::NetworkStats;
  return std::tuple{Volume<&T::sent>{"sent"},
                    Volume<&T::delivered>{"delivered"},
                    Volume<&T::delivery_batches>{"delivery_batches"},
                    Volume<&T::dropped_osav>{"dropped_osav"},
                    Volume<&T::dropped_dsav>{"dropped_dsav"},
                    Volume<&T::dropped_martian>{"dropped_martian"},
                    Volume<&T::dropped_urpf>{"dropped_urpf"},
                    Volume<&T::dropped_unrouted>{"dropped_unrouted"},
                    Volume<&T::dropped_no_host>{"dropped_no_host"},
                    Volume<&T::dropped_stack>{"dropped_stack"}};
}

constexpr auto fields_of(const cd::sim::TransportCounters*) {
  using T = cd::sim::TransportCounters;
  return std::tuple{Volume<&T::dials>{"dials"},
                    Volume<&T::accepts>{"accepts"},
                    Volume<&T::session_reuses>{"session_reuses"},
                    Volume<&T::session_messages>{"session_messages"},
                    Volume<&T::idle_closes>{"idle_closes"},
                    Volume<&T::handshake_bytes>{"handshake_bytes"}};
}

constexpr auto fields_of(const ExperimentResults*) {
  using T = ExperimentResults;
  return std::tuple{
      Evidence<&T::records>{"records"},
      Volume<&T::collector_stats>{"collector_stats"},
      Evidence<&T::qmin_asns>{"qmin_asns"},
      Evidence<&T::lifetime_excluded_targets>{"lifetime_excluded_targets"},
      Volume<&T::network_stats>{"network_stats"},
      Evidence<&T::queries_sent>{"queries_sent"},
      Evidence<&T::followup_batteries>{"followup_batteries"},
      Evidence<&T::analyst_replays>{"analyst_replays"},
      Evidence<&T::crosscheck_records>{"crosscheck_records"},
      Evidence<&T::crosscheck_probes>{"crosscheck_probes"},
      Sparse<&T::poison_records>{"poison_records"},
      Sparse<&T::poison_triggers>{"poison_triggers"},
      Sparse<&T::poison_forged>{"poison_forged"},
      // Connection economics, compared directly by the transport tests.
      Volume<&T::transport>{"transport"},
      Volume<&T::transport_replies>{"transport_replies"},
      // Wire traffic; capture_digest covers it.
      Volume<&T::capture>{"capture"}};
}

constexpr std::uint64_t enum_count(cd::scanner::SourceCategory) {
  return cd::scanner::kSourceCategoryCount;
}
constexpr std::uint64_t enum_count(cd::resolver::DnsSoftware) {
  return cd::resolver::kDnsSoftwareCount;
}
constexpr std::uint64_t enum_count(cd::sim::OsId) {
  return cd::sim::kOsIdCount;
}

// --- walking it --------------------------------------------------------------

template <class T>
concept Record = requires { fields_of(static_cast<const T*>(nullptr)); };
template <class T>
concept Scalar = std::is_integral_v<T> || std::is_enum_v<T>;
template <class T>
concept Container = requires(const T& c) {
  c.size();
  c.begin();
};
template <class T>
concept Map = Container<T> && requires { typename T::mapped_type; };

template <Record T, class Fn>
void for_each_field(Fn&& fn) {
  std::apply([&](auto... field) { (fn(field), ...); },
             fields_of(static_cast<const T*>(nullptr)));
}

/// Calls `fn` on each element of `c` in key order (unordered maps are
/// sorted first). A map entry whose value is a record visits the record
/// alone, since its key is the record's first field; any other entry visits
/// key then value.
template <class C, class Fn>
void for_each_entry(C& c, Fn&& fn) {
  auto visit = [&](auto& entry) {
    if constexpr (!Map<std::remove_const_t<C>>) {
      fn(entry);
    } else if constexpr (Record<typename C::mapped_type>) {
      fn(entry.second);
    } else {
      fn(entry.first);
      fn(entry.second);
    }
  };
  if constexpr (requires { c.hash_function(); }) {
    std::vector<decltype(&*c.begin())> sorted;
    sorted.reserve(c.size());
    for (auto& entry : c) sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    for (auto* entry : sorted) visit(*entry);
  } else {
    for (auto& entry : c) visit(entry);
  }
}

template <class T>
bool holds_value(const T& v) {
  if constexpr (Container<T>) {
    return !v.empty();
  } else {
    return v != T{};
  }
}

/// CDSP body encoding: scalars little-endian at their own width (bools and
/// enums take one byte), blobs as a u64 length then the bytes.
struct SpillOut {
  static constexpr bool kEvidenceOnly = false;
  cd::ByteWriter& w;

  template <Scalar T>
  void scalar(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      w.u8(static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i)));
    }
  }
  void blob(std::span<const std::uint8_t> bytes) {
    w.u64le(bytes.size());
    w.bytes(bytes);
  }
};

/// results_digest's encoding: evidence only, every value widened to u64.
struct DigestOut {
  static constexpr bool kEvidenceOnly = true;
  Fnv1a& h;

  template <Scalar T>
  void scalar(T v) {
    h.u64(static_cast<std::uint64_t>(v));
  }
  void blob(std::span<const std::uint8_t> bytes) { h.bytes(bytes); }
};

/// The write and digest sinks: one walk, two encodings. Containers go out as
/// a u64 count then their entries, optionals as a presence flag then the
/// value.
template <class Out>
struct Emitter {
  Out out;

  template <Scalar T>
  void operator()(T v) {
    out.scalar(v);
  }
  void operator()(const IpAddr& a) {
    out.scalar(static_cast<std::uint8_t>(a.is_v6() ? 6 : 4));
    out.scalar(a.bits().hi);
    out.scalar(a.bits().lo);
  }
  void operator()(const cd::net::Packet& p) { out.blob(p.serialize()); }
  template <class T>
  void operator()(const std::optional<T>& o) {
    out.scalar(o.has_value());
    if (o) (*this)(*o);
  }
  template <Container C>
  void operator()(const C& c) {
    out.scalar(static_cast<std::uint64_t>(c.size()));
    for_each_entry(c, *this);
  }
  template <Record T>
  void operator()(const T& rec) {
    bool sparse = false;
    for_each_field<T>([&](auto f) {
      using F = decltype(f);
      if constexpr (F::role == Role::kSparse) {
        sparse = sparse || holds_value(rec.*F::member);
      }
    });
    for_each_field<T>([&](auto f) {
      using F = decltype(f);
      if constexpr (!Out::kEvidenceOnly) {
        (*this)(rec.*F::member);
      } else if constexpr (F::role == Role::kEvidence) {
        (*this)(rec.*F::member);
      } else if constexpr (F::role == Role::kSparse) {
        if (sparse) (*this)(rec.*F::member);
      }
    });
  }
  // Capture records travel raw (time/annotation/bytes), not as a rendered
  // pcap: merge re-canonicalizes, so rendering per shard would be waste.
  void operator()(const cd::pcap::Capture& c) {
    out.scalar(c.snaplen);
    out.scalar(c.linktype);
    out.scalar(static_cast<std::uint64_t>(c.records.size()));
    for (const cd::pcap::PcapRecord& rec : c.records) {
      out.scalar(rec.time_us);
      out.scalar(rec.orig_len);
      out.scalar(rec.annotation);
      out.blob(rec.bytes);
    }
  }
};

/// Strict inverse of Emitter<SpillOut>: rejects every value the writer
/// cannot emit.
struct Reader {
  cd::ByteReader& r;

  template <Scalar T>
  void operator()(T& v) {
    std::uint64_t u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      u |= std::uint64_t{r.u8()} << (8 * i);
    }
    if constexpr (std::is_same_v<T, bool>) {
      if (u > 1) r.fail("bad bool");
    } else if constexpr (std::is_enum_v<T>) {
      if (u >= enum_count(T{})) r.fail("enum out of range");
    }
    v = static_cast<T>(u);
  }
  void operator()(IpAddr& a) {
    const std::uint8_t family = r.u8();
    if (family != 4 && family != 6) r.fail("bad address family");
    const std::uint64_t hi = r.u64le();
    const std::uint64_t lo = r.u64le();
    a = IpAddr::from_bits(
        family == 6 ? cd::net::IpFamily::kV6 : cd::net::IpFamily::kV4,
        cd::net::U128{hi, lo});
  }
  void operator()(cd::net::Packet& p) { p = cd::net::Packet::parse(blob()); }
  template <class T>
  void operator()(std::optional<T>& o) {
    bool present = false;
    (*this)(present);
    if (present) (*this)(o.emplace());
  }
  template <Container C>
  void operator()(C& c) {
    const std::uint64_t n = r.u64le();
    for (std::uint64_t i = 0; i < n; ++i) {
      if constexpr (!Map<C>) {
        typename C::value_type v{};
        (*this)(v);
        c.insert(c.end(), std::move(v));
      } else {
        typename C::key_type key{};
        typename C::mapped_type value{};
        if constexpr (Record<typename C::mapped_type>) {
          (*this)(value);  // a record's first field is its key
          using First = std::tuple_element_t<0, decltype(fields_of(&value))>;
          key = value.*First::member;
        } else {
          (*this)(key);
          (*this)(value);
        }
        if (!c.emplace(key, std::move(value)).second) {
          r.fail("duplicate map key");
        }
      }
    }
  }
  template <Record T>
  void operator()(T& rec) {
    for_each_field<T>([&](auto f) { (*this)(rec.*decltype(f)::member); });
  }
  void operator()(cd::pcap::Capture& c) {
    (*this)(c.snaplen);
    (*this)(c.linktype);
    const std::uint64_t n = r.u64le();
    for (std::uint64_t i = 0; i < n; ++i) {
      cd::pcap::PcapRecord& rec = c.records.emplace_back();
      (*this)(rec.time_us);
      (*this)(rec.orig_len);
      (*this)(rec.annotation);
      const auto bytes = blob();
      rec.bytes.assign(bytes.begin(), bytes.end());
    }
  }
  std::span<const std::uint8_t> blob() {
    const std::uint64_t n = r.u64le();
    if (n > r.remaining()) r.fail("truncated blob");
    return r.bytes(static_cast<std::size_t>(n));
  }
};

/// merge_into's sink: counters sum, sets union, keyed maps insert (a key in
/// two parts means the AS partition is broken).
struct Merger {
  bool first;

  template <Scalar T>
  void operator()(T& acc, T part, const char*) {
    acc += part;
  }
  template <class T>
  void operator()(std::set<T>& acc, std::set<T>& part, const char*) {
    acc.merge(part);
  }
  template <Map M>
  void operator()(M& acc, M& part, const char* name) {
    for (auto& [key, value] : part) {
      const bool inserted = acc.emplace(key, std::move(value)).second;
      CD_ENSURE(inserted, std::string("merge_results: ") + name +
                              ": key present in two shards");
    }
  }
  template <Record T>
  void operator()(T& acc, T& part, const char*) {
    for_each_field<T>([&](auto f) {
      using F = decltype(f);
      (*this)(acc.*F::member, part.*F::member, f.name);
    });
  }
  // The first part donates snaplen/linktype; records are appended raw (see
  // merge_into).
  void operator()(cd::pcap::Capture& acc, cd::pcap::Capture& part,
                  const char*) {
    if (first) {
      acc = std::move(part);
      return;
    }
    CD_ENSURE(part.snaplen == acc.snaplen && part.linktype == acc.linktype,
              "merge_results: mismatched capture parameters");
    acc.records.insert(acc.records.end(),
                       std::make_move_iterator(part.records.begin()),
                       std::make_move_iterator(part.records.end()));
  }
};

}  // namespace

void merge_into(ExperimentResults& acc, ExperimentResults part, bool first) {
  Merger{first}(acc, part, "results");
}

std::uint64_t results_digest(const ExperimentResults& results) {
  Fnv1a h;
  Emitter<DigestOut>{{h}}(results);
  return h.value();
}

std::uint64_t capture_digest(const cd::pcap::Capture& capture) {
  Fnv1a h;
  h.bytes(capture.to_pcap());
  h.bytes(capture.to_index());
  return h.value();
}

// CDSP framing: magic, version, the fields, then the checksum trailer — an
// FNV-1a of everything before it, verified before anything is decoded.

std::vector<std::uint8_t> serialize_results(const ExperimentResults& results) {
  std::vector<std::uint8_t> out;
  cd::ByteWriter w(out);
  w.u32le(kSpillMagic);
  w.u32le(kSpillVersion);
  Emitter<SpillOut>{{w}}(results);
  Fnv1a checksum;
  checksum.bytes(out);
  w.u64le(checksum.value());
  return out;
}

ExperimentResults parse_results(std::span<const std::uint8_t> bytes) {
  cd::ByteReader r(bytes, "spill");
  if (r.u32le() != kSpillMagic) r.fail("bad magic");
  if (r.u32le() != kSpillVersion) r.fail("unsupported version");
  if (r.remaining() < 8) r.fail("truncated checksum");
  const auto sealed = bytes.first(bytes.size() - 8);
  Fnv1a checksum;
  checksum.bytes(sealed);
  cd::ByteReader trailer(bytes.subspan(sealed.size()), "spill");
  if (trailer.u64le() != checksum.value()) r.fail("checksum mismatch");

  cd::ByteReader body(sealed.subspan(r.pos()), "spill");
  ExperimentResults results;
  Reader{body}(results);
  if (!body.done()) body.fail("trailing bytes");
  return results;
}

void write_results(const ExperimentResults& results, const std::string& path) {
  cd::pcap::write_file(path, serialize_results(results));
}

ExperimentResults read_results(const std::string& path) {
  return parse_results(cd::pcap::read_file(path));
}

}  // namespace cd::core
